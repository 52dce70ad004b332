"""The splitmix64 stream: a run of draws as one array against one call per draw."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latspec.prng import SplitMix64

_SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(_SEEDS, st.integers(0, 3000), st.integers(0, 3))
@example(0, 0, 0)
@example(2**64 - 1, 1, 0)
@example(2**64 - 1, 3000, 2)
@settings(max_examples=60, deadline=None)
def test_draw_array_equals_successive_draws(seed, count, before):
    # ``before`` single draws first, so the array starts from a used state
    one, many = SplitMix64(seed), SplitMix64(seed)
    for _ in range(before):
        assert many.next_u64() == one.next_u64()
    want = [one.next_u64() for _ in range(count)]
    got = many.next_u64_array(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == want
    assert many.state == one.state
    assert many.next_u64() == one.next_u64()
