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


def _below_one_word(rng, n):
    # the single-word rejection draw, kept as the reference for n <= 2^64
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        u = rng.next_u64()
        if u < limit:
            return u % n


def test_below_takes_one_word_per_candidate_up_to_2_to_the_64():
    for seed, n in [(0, 1), (1, 7), (2, 1000), (3, 3 * 2**62 + 5), (4, 2**63 + 1), (5, 2**64 - 1), (6, 2**64)]:
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert [rng.below(n) for _ in range(1000)] == [_below_one_word(ref, n) for _ in range(1000)]
        assert rng.state == ref.state


class _CountingDraws(SplitMix64):
    """A stream that counts its 64-bit draws and fails past a budget."""

    def __init__(self, seed, budget):
        super().__init__(seed)
        self.draws, self.budget = 0, budget

    def next_u64(self):
        self.draws += 1
        assert self.draws <= self.budget, "below drew past its budget"
        return super().next_u64()


def test_below_ends_past_2_to_the_64():
    # the one-word bound 2^64 - (2^64 mod n) is 0 for every n > 2^64, which
    # rejected every draw and never returned
    for n, words in [(2**64 + 1, 2), (2**70 + 3, 2), (2**128, 2), (2**128 + 1, 3)]:
        rng = _CountingDraws(9, 10**4)
        draws = [rng.below(n) for _ in range(200)]
        assert all(0 <= x < n for x in draws)
        assert max(draws) >= n // 2  # the draws reach the top half of the range
        # a candidate is rejected with chance below 2^-57 here: none was
        assert rng.draws == 200 * words
