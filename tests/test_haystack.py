"""Haystack construction and finite-sample verification."""

import time
import warnings
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latspec.haystack import make_haystack, verify_haystack_sample
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


def test_non_pairwise_coprime_warns_but_works():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hs = make_haystack(None, (2, 3, 4), 4)
    assert any("pairwise" in str(w.message) for w in caught)
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
    assert good.ok and bool(good)
    bad = verify_haystack_sample([(1, 0), (2, 0)], 2)
    assert not bad.ok
    collinear = verify_haystack_sample([(1, 0), (-1, 0)], 2)
    assert not collinear.ok
    assert collinear.singular_subset == ((1, 0), (-1, 0))
    vacuous = verify_haystack_sample([(1, 0)], 2)
    assert vacuous.ok


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
