"""Haystack construction and finite-sample verification."""

import random
import time
import warnings
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import bareiss_haystack_verdict
from latspec.haystack import MULTIPLIERS, HaystackVerdict, make_haystack, verify_haystack_sample
from latspec.lattice import det_exact


def test_standard_example():
    hs = make_haystack(None, (2, 3), 3)
    assert hs == [(2, 3), (4, 9), (8, 27)]
    assert det_exact([(2, 3), (4, 9)]) == 6


def test_bad_multipliers_rejected():
    with pytest.raises(ValueError):
        make_haystack(None, (2, 4), 3)  # gcd 2
    with pytest.raises(ValueError):
        make_haystack(None, (3, 2), 3)  # not increasing
    with pytest.raises(ValueError):
        make_haystack(None, (1, 2), 3)  # must exceed 1


def test_non_pairwise_coprime_multipliers_work_without_a_warning():
    # collective coprimality is all the construction needs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hs = make_haystack(None, (2, 3, 4), 4)
    assert not caught
    assert verify_haystack_sample(hs, 3).ok


def test_custom_basis():
    hs = make_haystack([(1, 1), (0, 1)], (2, 3), 2)
    # h_n = 2^n * (1,1) + 3^n * (0,1)
    assert hs[0] == (2, 5)
    assert hs[1] == (4, 13)
    with pytest.raises(ValueError, match="unimodular"):
        make_haystack([(2, 0), (0, 1)], (2, 3), 2)


def test_verdict_examples():
    good = verify_haystack_sample([(2, 3), (4, 9), (8, 27)], 2)
    assert good.ok
    bad = verify_haystack_sample([(1, 0), (2, 0)], 2)
    assert not bad.ok
    collinear = verify_haystack_sample([(1, 0), (-1, 0)], 2)
    assert not collinear.ok
    assert collinear.singular_subset == ((1, 0), (-1, 0))
    vacuous = verify_haystack_sample([(1, 0)], 2)
    assert vacuous.ok
    # fewer distinct vectors than the rank have no r-subset to scan
    assert verify_haystack_sample([tuple(int(i == j) for j in range(14)) for i in range(13)], 14).ok


def test_verdict_dedupes():
    assert verify_haystack_sample([(1, 0), (1, 0)], 2).ok


def test_verdict_guard_rail():
    sample = [(1, k) for k in range(2000)]
    with pytest.raises(ValueError, match="r-subsets"):
        verify_haystack_sample(sample, 2)
    # the duplicate scan used to be quadratic: 20 000 vectors took 19 s to refuse
    start = time.perf_counter()
    with pytest.raises(ValueError, match="r-subsets"):
        verify_haystack_sample([(1, k) for k in range(20000)], 2)
    assert time.perf_counter() - start < 1


@st.composite
def multiplier_tuples(draw):
    r = draw(st.integers(2, 4))
    ms = draw(
        st.lists(st.integers(2, 10), min_size=r, max_size=r, unique=True).map(sorted)
    )
    g = 0
    for m in ms:
        g = gcd(g, m)
    if g != 1:
        ms[0] = 3 if ms[0] != 3 else 2
        ms = sorted(set(ms))
        if len(ms) < r:
            return draw(multiplier_tuples())
    return tuple(ms)


@given(multiplier_tuples(), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_random_haystacks_verify(ms, count):
    g = 0
    for m in ms:
        g = gcd(g, m)
    if g != 1:
        return
    r = len(ms)
    hs = make_haystack(None, ms, count)
    assert verify_haystack_sample(hs, r).ok


def test_scaling_preserves_nonsingularity():
    hs = make_haystack(None, (2, 3), 5)
    n = 4
    scaled = [tuple(n * x for x in v) for v in hs]
    for pair in combinations(range(5), 2):
        d = det_exact([hs[pair[0]], hs[pair[1]]])
        ds = det_exact([scaled[pair[0]], scaled[pair[1]]])
        assert ds == n**2 * d != 0


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def _seeded_sample(rng: random.Random, r: int) -> list[tuple[int, ...]]:
    """Small vectors, mostly made primitive, or a haystack prefix; then maybe a
    duplicate, a planted combination of r - 1 others and a zero vector."""
    if r > 1 and rng.random() < 0.3:
        vecs = make_haystack(None, MULTIPLIERS[:r], rng.randint(r - 1, r + 4))
    else:
        vecs = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(r - 1, r + 5))]
        vecs = [_primitive(v) if rng.random() < 0.9 else tuple(v) for v in vecs]
    if vecs and rng.random() < 0.3:
        vecs.insert(rng.randint(0, len(vecs)), rng.choice(vecs))
    if r > 1 and len(vecs) >= r - 1 and rng.random() < 0.5:
        # a combination of r - 1 sample vectors lies in their span
        span = [(rng.choice([-2, -1, 1, 2]), v) for v in rng.sample(vecs, r - 1)]
        vecs.insert(rng.randint(0, len(vecs)), _primitive([sum(c * v[i] for c, v in span) for i in range(r)]))
    if rng.random() < 0.05:
        vecs.insert(rng.randint(0, len(vecs)), (0,) * r)
    return vecs


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_verdicts_equal_the_bareiss_reference(r):
    rng = random.Random(r)
    outcomes = {"ok": 0, "non_primitive": 0, "singular_subset": 0}
    for _ in range(100):
        vecs = _seeded_sample(rng, r)
        got, want = verify_haystack_sample(vecs, r), bareiss_haystack_verdict(vecs, r)
        assert (got.ok, got.non_primitive, got.singular_subset) == (want.ok, want.non_primitive, want.singular_subset), vecs
        outcomes["ok" if got.ok else "non_primitive" if got.non_primitive else "singular_subset"] += 1
    # every verdict is reached at every rank but 1, where a singular subset is a zero vector
    assert all(outcomes[k] for k in outcomes if r > 1 or k != "singular_subset"), outcomes


@pytest.mark.parametrize("r, count", [(14, 16), (16, 18)])
def test_samples_of_rank_14_and_up_get_the_bareiss_verdicts(r, count):
    # a haystack prefix is nonsingular (any r elements give +-det(beta) times a
    # generalized Vandermonde determinant, positive for increasing multipliers)
    primes = [p for p in range(2, 60) if all(p % q for q in range(2, p))][:r]
    hs = make_haystack(None, primes, count)
    assert verify_haystack_sample(hs, r) == bareiss_haystack_verdict(hs, r) == HaystackVerdict(ok=True)
    # a primitive vector in the span of four members makes r-subsets singular
    planted = _primitive([hs[1][i] + hs[3][i] - 2 * hs[9][i] + 3 * hs[15][i] for i in range(r)])
    sample = [*hs[:7], planted, *hs[7:]]
    got = verify_haystack_sample(sample, r)
    assert got == bareiss_haystack_verdict(sample, r) and not got.ok and planted in got.singular_subset
