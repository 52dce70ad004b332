"""Volume spectra, certificates and pattern search against brute-force oracles."""

import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import point_set
from latspec import volume
from latspec.config import LimitError, admit
from latspec.config import product as capped_product
from latspec.haystack import admit_count
from latspec.lattice import as_coords
from latspec.prng import SplitMix64
from latspec.volume import (
    SEARCH_LIMIT,
    PatternSearchResult,
    PatternWitness,
    PointSet,
    SearchBounds,
    _signed_range,
    ap_certificate,
    build_point_set,
    pattern_search,
    simplex_det,
    upper_density_estimate,
    verify_pattern_witness,
    volume_spectrum,
)

# ---------------------------------------------------------------------------
# oracle: exhaustive enumeration with cofactor determinants


def _cof_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cof_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(n)
    )


def oracle_spectrum(points, rank, cap=None):
    vals = set()
    for subset in combinations(sorted(points), rank + 1):
        base = subset[0]
        cols = [[v[i] - base[i] for v in subset[1:]] for i in range(rank)]
        d = abs(_cof_det(cols))
        if d and (cap is None or d <= cap):
            vals.add(d)
    return vals


def grid(rank, window, step=1, offset=None):
    offset = offset or (0,) * rank
    return point_set(
        [
            p
            for p in product(range(-window, window + 1), repeat=rank)
            if all((x - o) % step == 0 for x, o in zip(p, offset))
        ],
        rank,
        window,
    )


# ---------------------------------------------------------------------------
# simplex determinants

def test_simplex_det_examples():
    assert simplex_det([(0, 0), (1, 0), (0, 1)]) == 1
    assert simplex_det([(0, 0), (1, 1), (2, 2)]) == 0
    for m in (1, 2, 7, -3):
        assert simplex_det([(0, 0), (2, 0), (0, 2 * m)]) == 4 * m
    with pytest.raises(ValueError):
        simplex_det([(0, 0), (1, 0)])


@given(
    st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=3, max_size=3),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(max_examples=100, deadline=None)
def test_simplex_det_translation_invariance(vs, t):
    shifted = [tuple(a + b for a, b in zip(v, t)) for v in vs]
    assert simplex_det(shifted) == simplex_det(vs)


@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=3),
    st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_simplex_det_dilation_covariance(vs, n):
    scaled = [tuple(n * x for x in v) for v in vs]
    assert simplex_det(scaled) == n**2 * simplex_det(vs)


def test_simplex_det_alternating():
    vs = [(0, 0), (3, 1), (1, 2)]
    assert simplex_det([vs[0], vs[2], vs[1]]) == -simplex_det(vs)
    # permuting all vertices only flips sign
    assert abs(simplex_det([vs[1], vs[0], vs[2]])) == abs(simplex_det(vs))


# ---------------------------------------------------------------------------
# spectra

def test_unit_square_spectrum_matches_exhaustive_oracle():
    # Four points, four triangles, every one of determinant +-1.
    e = point_set([(0, 0), (1, 0), (0, 1), (1, 1)], 2, 1)
    expected = oracle_spectrum(e.points, 2)
    assert expected == {1}
    assert volume_spectrum(e) == expected


def test_collinear_spectrum_empty():
    e = point_set([(0, 0), (1, 1), (2, 2), (3, 3)], 2, 3)
    assert volume_spectrum(e) == set()


def test_even_grid_spectrum_divisible_by_four():
    e = grid(2, 6, step=2)
    spec = volume_spectrum(e)
    assert spec == oracle_spectrum(e.points, 2)
    assert spec and all(v % 4 == 0 for v in spec)


def test_spectrum_cap():
    e = grid(2, 4)
    spec = volume_spectrum(e, cap=5)
    assert spec == oracle_spectrum(e.points, 2, cap=5)
    assert max(spec) <= 5
    # the set keeps its uncapped spectrum, read-only; a capped call scans anew
    assert volume_spectrum(e) is e.spectrum and isinstance(e.spectrum, frozenset)
    assert spec == {v for v in e.spectrum if v <= 5}


def test_spectrum_rank3_matches_oracle():
    pts = [p for p in product(range(-2, 3), repeat=3) if sum(p) % 2 == 0]
    e = point_set(pts, 3, 2)
    assert volume_spectrum(e) == oracle_spectrum(pts, 3)


def scale_point_set(e, n):
    """Every point dilated by n, in a window n times as wide."""
    return point_set([tuple(n * x for x in p) for p in e.points], e.rank, e.window * n)


def test_spectrum_dilation_scaling():
    e = grid(2, 3)
    spec = volume_spectrum(e)
    for n in (2, 3):
        scaled = scale_point_set(e, n)
        assert volume_spectrum(scaled) == {n**2 * v for v in spec}


# ---------------------------------------------------------------------------
# arithmetic-progression certificates

def test_ap_certificate_full_grid():
    cert = ap_certificate(grid(2, 10), 10)
    assert cert.ok and cert.n == 1
    for m, rec in cert.witnesses.items():
        assert abs(rec.det) == m
        assert simplex_det(rec.vertices) == rec.det


def test_ap_certificate_even_grid():
    cert = ap_certificate(grid(2, 10, step=2), 5)
    assert cert.ok and cert.n == 4
    for m, rec in cert.witnesses.items():
        assert abs(rec.det) == 4 * m


def test_ap_certificate_too_small():
    cert = ap_certificate(point_set([(0, 0), (1, 0)], 2, 1), 3)
    assert not cert.ok
    assert "points" in cert.reason


def test_ap_certificate_failure_reports_missing():
    # three points give exactly one determinant value: 1
    e = point_set([(0, 0), (1, 0), (0, 1)], 2, 1)
    cert = ap_certificate(e, 3)
    assert not cert.ok
    assert cert.best_n == 1
    assert cert.missing == (2, 3)


def test_ap_certificate_minimality_against_oracle():
    e = grid(2, 5, step=2)
    spec = oracle_spectrum(e.points, 2)
    m_max = 4
    feasible = [n for n in sorted(spec) if all(n * m in spec for m in range(1, m_max + 1))]
    cert = ap_certificate(e, m_max)
    assert cert.ok and cert.n == feasible[0]


def test_ap_certificate_on_collinear_points():
    cert = ap_certificate(point_set([(0, 0), (1, 1), (2, 2), (-3, -3)], 2, 3), 2)
    assert not cert.ok and cert.reason == "no nondegenerate simplex"


def _ap_reference(spectrum, m_max):
    """(n, best_n, missing) from every multiple of every candidate: the gcd
    and the spectrum values."""
    candidates = {gcd(*spectrum)} | spectrum
    missing = {n: tuple(m for m in range(1, m_max + 1) if n * m not in spectrum) for n in candidates}
    feasible = [n for n in candidates if not missing[n]]
    if feasible:
        return min(feasible), None, ()
    best = min(candidates, key=lambda n: (len(missing[n]), n))
    return None, best, missing[best]


@pytest.mark.parametrize("seed", range(16))
def test_ap_certificate_matches_a_brute_force_reference(seed):
    # a few points on a scaled grid: sparse spectra, often with a gcd above 1
    rng = SplitMix64(seed)
    scale = 1 + rng.below(3)
    points = [(scale * (rng.below(9) - 4), scale * (rng.below(9) - 4)) for _ in range(4 + rng.below(4))]
    e = point_set(points, 2, 4 * scale)
    spectrum = volume_spectrum(e)
    # ap_max below and above the largest value
    for m_max in (1 + rng.below(4), max(spectrum) + 1 + rng.below(20)):
        n, best_n, missing = _ap_reference(spectrum, m_max)
        cert = ap_certificate(e, m_max)
        assert (cert.ok, cert.n, cert.best_n, cert.missing) == (n is not None, n, best_n, missing)
        assert sorted(abs(rec.det) for rec in cert.witnesses.values()) == ([n * m for m in range(1, m_max + 1)] if n else [])


def test_ap_certificate_costs_the_spectrum_not_ap_max():
    # the 15 x 15 grid took about 0.2 s at ap_max 10**4, one membership test
    # per multiple per candidate
    e = grid(2, 7)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cert = ap_certificate(e, 10**4)
        best = min(best, time.perf_counter() - start)
    assert not cert.ok and cert.best_n == 1 and len(cert.missing) == 10**4 - max(volume_spectrum(e))
    assert best < 0.05


# ---------------------------------------------------------------------------
# pattern search

def test_pattern_search_full_grid():
    e = grid(2, 8)
    res = pattern_search(e, 2, [[(0, 1)]], SearchBounds(n_max=3, m_max=3))
    assert res.ok
    w = res.witnesses[0]
    assert w.n == 1 and w.m1 == 1
    assert verify_pattern_witness(e, w)


def test_pattern_search_congruence_forces_divisible_dilation():
    e = grid(2, 9, step=3)
    res = pattern_search(e, 2, [[(1, 1)]], SearchBounds(n_max=4, m_max=4))
    assert res.ok
    assert res.witnesses[0].n % 3 == 0
    assert verify_pattern_witness(e, res.witnesses[0])


def test_pattern_search_shared_parameters_across_probes():
    e = grid(2, 9)
    res = pattern_search(e, 3, [[(0, 1), (1, 1)], [(1, 0), (2, 1)]], SearchBounds(n_max=2, m_max=3))
    assert res.ok
    assert len(res.witnesses) == 2
    assert len({(w.n, w.lam, w.m1) for w in res.witnesses}) == 1
    for w in res.witnesses:
        assert verify_pattern_witness(e, w)


def test_pattern_witness_multilinearity_identity():
    # det(v_1 - v_0, v_2 - v_0) collapses to m1 * n^2 * det(lam, lam_2)
    e = grid(2, 9)
    probe = (3, 1)
    res = pattern_search(e, 2, [[probe]], SearchBounds(n_max=2, m_max=3))
    assert res.ok
    w = res.witnesses[0]
    v0, v1, v2 = w.points()
    lhs = simplex_det([v0, v1, v2])
    rhs = w.m1 * w.n**2 * simplex_det([(0, 0), w.lam, probe])
    assert lhs == rhs


def test_pattern_search_empty_set_fails():
    e = point_set([], 2, 1)
    res = pattern_search(e, 2, [[(0, 1)]])
    assert not res.ok
    assert res.reason == "empty point set"


def test_pattern_search_invalid_probe():
    e = grid(2, 3)
    res = pattern_search(e, 2, [[(0, 1, 2)]])
    assert not res.ok
    assert "invalid probe" in res.reason


def test_pattern_search_exhaustion():
    e = point_set([(0, 0), (5, 5)], 2, 5)
    res = pattern_search(e, 2, [[(1, 0)]], SearchBounds(n_max=1, m_max=1, lambda_count=1))
    assert not res.ok
    assert res.reason == "exhausted bounds"


# The scan as it stood before each (lam0, lam_k) was scanned once per
# (n, lam): every m_k scan rerun inside every m1.  Kept verbatim as the
# reference that the first-hit table must reproduce.
def _reference_pattern_search(
    e: PointSet,
    p: int,
    probes: Sequence[Sequence],
    bounds: SearchBounds = SearchBounds(),
) -> PatternSearchResult:
    """Find one PatternWitness per probe with (n, lam, m1) shared by all.

    Probes are (p-1)-tuples of rank-r vectors.  Scan order is deterministic:
    n ascending, lam in candidate order, m1 = 1, -1, 2, -2, ...; per probe
    the base point lam0 runs over the set in sorted order and each m_k over
    the same signed order.  Negative multipliers are accepted and recorded
    as such in the witness.  A search of more than ``SEARCH_LIMIT``
    membership tests is refused before any candidate is built, naming its
    largest factor.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    r = e.rank
    checked = []
    for probe in probes:
        vs = tuple(as_coords(v) for v in probe)
        if len(vs) != p - 1 or any(len(v) != r for v in vs):
            return PatternSearchResult(ok=False, reason=f"invalid probe: {probe!r}")
        checked.append(vs)
    if not e.points:
        return PatternSearchResult(ok=False, reason="empty point set")
    admit_count(bounds.lambda_count)
    n_max, m_max = max(bounds.n_max, 0), max(bounds.m_max, 0)
    factors = {"n_max": n_max, "lambda_count": bounds.lambda_count, "|E|": len(e.points), "m_max": m_max}
    name = max(factors, key=factors.get)
    work = capped_product([n_max, bounds.lambda_count, len(e.points), 2 * m_max, 1 + (p - 1) * len(checked)])
    formula = "n_max x lambda_count x |E| x 2 m_max (1 + (p-1) |probes|)"
    admit(work, SEARCH_LIMIT, f"{name} {factors[name]} dominates: pattern search membership tests {formula}")
    members = e.points
    base_order = e.sorted_points
    # make_haystack asserts that every candidate is primitive
    lams = bounds.candidates(r)
    for n in range(1, bounds.n_max + 1):
        for lam in lams:
            for m1 in _signed_range(bounds.m_max):
                shift1 = tuple(m1 * n * x for x in lam)
                witnesses = []
                for probe in checked:
                    w = None
                    for lam0 in base_order:
                        if tuple(a + b for a, b in zip(lam0, shift1)) not in members:
                            continue
                        pairs = []
                        for lamk in probe:
                            hit = None
                            for mk in _signed_range(bounds.m_max):
                                q = tuple(
                                    lam0[i] + mk * n * lam[i] + n * lamk[i]
                                    for i in range(r)
                                )
                                if q in members:
                                    hit = mk
                                    break
                            if hit is None:
                                pairs = None
                                break
                            pairs.append((hit, lamk))
                        if pairs is not None:
                            w = PatternWitness(n=n, lam=lam, m1=m1, lam0=lam0, pairs=tuple(pairs))
                            break
                    if w is None:
                        break
                    witnesses.append(w)
                if len(witnesses) == len(checked):
                    for w in witnesses:
                        if not verify_pattern_witness(e, w):
                            raise AssertionError("pattern witness failed re-verification")
                    return PatternSearchResult(ok=True, witnesses=tuple(witnesses))
    return PatternSearchResult(ok=False, reason="exhausted bounds")


def _outcome(search, *args):
    try:
        res = search(*args)
    except Exception as exc:  # the exception is the outcome to compare
        return type(exc), str(exc)
    return res.ok, res.reason, res.witnesses


def _random_search_case(rng: random.Random):
    """A seeded pattern search: a random set of rank 1-3, 0-3 probes for p in 2..4
    (now and then one of the wrong length), and bounds from -1 to 3."""
    rank = rng.choice([1, 2, 2, 2, 3, 3])
    window = rng.randint(1, {1: 5, 2: 3, 3: 2}[rank])
    box = list(product(range(-window, window + 1), repeat=rank))
    keep = rng.choice([0.3, 0.7, 0.9, 1.0, 1.0])
    e = point_set([q for q in box if rng.random() < keep], rank, window)
    p = rng.randint(2, 4)

    def vector():
        return tuple(rng.randint(-2, 2) for _ in range(rank))

    probes = [[vector() for _ in range(p - 1 + (rng.random() < 0.05))] for _ in range(rng.randint(0, 3))]
    multipliers = rng.choice([None] * 8 + [(3, 4), (2, 3, 5), (4, 6)])
    bounds = SearchBounds(
        n_max=rng.choice([-1, 0] + [1, 2, 3] * 3), m_max=rng.choice([-1, 0] + [1, 2, 3] * 3), lambda_count=rng.choice([0] + [1, 2, 3] * 2),
        multipliers=multipliers,
    )
    return e, p, probes, bounds


def test_pattern_search_matches_the_scan_it_replaced():
    start = time.perf_counter()
    outcomes = []
    for seed in range(1500):
        case = _random_search_case(random.Random(seed))
        outcome = _outcome(pattern_search, *case)
        assert outcome == _outcome(_reference_pattern_search, *case), seed
        outcomes.append(outcome)
    assert time.perf_counter() - start < 5
    # hits with witnesses and with no probes, misses, early returns and refusals
    hits = [o for o in outcomes if o[0] is True]
    reasons = {o[1] for o in outcomes if o[0] is False}
    raised = {o[0] for o in outcomes if isinstance(o[0], type)}
    assert sum(bool(o[2]) for o in hits) > 50 and any(not o[2] for o in hits)
    assert {"exhausted bounds", "empty point set"} <= reasons and any(r.startswith("invalid probe") for r in reasons)
    assert ValueError in raised


# ---------------------------------------------------------------------------
# point-set generators and densities

def test_congruence_generator_matches_grid():
    desc = {"kind": "congruence", "modulus": 2, "offset": [0, 0]}
    assert build_point_set(desc, 2, 6).points == grid(2, 6, step=2).points


def _reference_points(desc, rank, window):
    """The window-filter reference: every window point tested against the descriptor."""
    box = set(product(range(-window, window + 1), repeat=rank))
    kind = desc["kind"]
    if kind == "full":
        return box
    if kind == "random":  # only the densities 0 and 1, whose sets the seed cannot change
        return box if desc["density"] == "1" else set()
    if kind == "congruence":
        n, offset = desc["modulus"], desc["offset"]
        return {p for p in box if all((x - o) % n == 0 for x, o in zip(p, offset))}
    if kind == "translate":
        base = _reference_points(desc["base"], rank, window)
        return {tuple(x + o for x, o in zip(p, desc["offset"])) for p in base} & box
    parts = [_reference_points(part, rank, window) for part in desc["parts"]]
    return set.union(*parts) if kind == "union" else set.intersection(*parts)


def _descriptors(rank):
    vec = st.lists(st.integers(-20, 20), min_size=rank, max_size=rank)
    leaves = st.one_of(
        st.builds(
            lambda n, o: {"kind": "congruence", "modulus": n, "offset": o},
            st.integers(1, 14),  # past 2 * window + 1 for every window drawn
            vec,
        ),
        st.sampled_from(
            [
                {"kind": "full"},
                {"kind": "random", "density": "0", "seed": 5},
                {"kind": "random", "density": "1", "seed": 6},
            ]
        ),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda b, o: {"kind": "translate", "base": b, "offset": o}, kids, vec),
            st.builds(lambda ps: {"kind": "union", "parts": ps}, st.lists(kids, min_size=1, max_size=3)),
            st.builds(
                lambda ps: {"kind": "intersection", "parts": ps}, st.lists(kids, min_size=1, max_size=3)
            ),
        ),
        max_leaves=4,
    )


@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(st.just(rank), st.integers(0, 6 if rank < 3 else 3), _descriptors(rank))
    )
)
@settings(max_examples=150, deadline=None)
@example((1, 0, {"kind": "congruence", "modulus": 3, "offset": [-7]}))
@example((2, 0, {"kind": "congruence", "modulus": 2, "offset": [1, 0]}))
@example((2, 3, {"kind": "congruence", "modulus": 9, "offset": [-13, 4]}))
@example((3, 2, {"kind": "congruence", "modulus": 1, "offset": [-5, 0, 9]}))
@example((3, 3, {"kind": "translate", "base": {"kind": "full"}, "offset": [-3, 2, 0]}))
def test_congruence_sets_match_the_window_filter(case):
    rank, window, desc = case
    assert build_point_set(desc, rank, window).points == _reference_points(desc, rank, window)


def test_point_limit_is_checked_before_any_point_is_built():
    big = 10**5
    for desc in (
        {"kind": "full"},
        {"kind": "random", "density": "1/2", "seed": 1},
        {"kind": "congruence", "modulus": 2, "offset": [0, 0]},
        {"kind": "translate", "base": {"kind": "full"}, "offset": [1, 0]},
        {"kind": "union", "parts": [{"kind": "explicit", "points": [[0, 0]]}, {"kind": "full"}]},
    ):
        with pytest.raises(ValueError, match="over the limit"):
            build_point_set(desc, 2, big)
    # a sparse congruence set on the same window is built from its own points
    sparse = build_point_set({"kind": "congruence", "modulus": 1000, "offset": [1, -1]}, 2, big)
    assert len(sparse) == 200**2


def test_point_limit_counts_the_points_of_each_part(monkeypatch):
    monkeypatch.setattr(volume, "POINT_LIMIT", 100)
    assert len(build_point_set({"kind": "full"}, 2, 4)) == 81
    assert len(build_point_set({"kind": "congruence", "modulus": 2, "offset": [1, 1]}, 2, 9)) == 100
    with pytest.raises(LimitError, match=re.escape("(2*window+1)^2 = 121, over the limit of 100")):
        build_point_set({"kind": "random", "density": "0", "seed": 1}, 2, 5)
    with pytest.raises(LimitError, match="points of the congruence set in the window = 110, over the limit of 100"):
        build_point_set({"kind": "congruence", "modulus": 2, "offset": [0, 1]}, 2, 10)


def test_malformed_descriptors_are_refused():
    for desc in (
        {"kind": "explicit", "points": [[0, 0], [1, 2, 3]]},
        {"kind": "translate", "base": {"kind": "full"}, "offset": [1]},
        {"kind": "congruence", "modulus": 2, "offset": [0, 0, 0]},
        {"kind": "intersection", "parts": []},
    ):
        with pytest.raises(ValueError):
            build_point_set(desc, 2, 3)


def test_random_generator_reproducible():
    desc = {"kind": "random", "density": "1/3", "seed": 99}
    a = build_point_set(desc, 2, 8)
    b = build_point_set(desc, 2, 8)
    assert a.points == b.points
    frac = Fraction(len(a.points), 17**2)
    assert Fraction(1, 6) < frac < Fraction(1, 2)  # crude sanity band


def _random_reference(density, seed, rank, window):
    """The random kind one draw per window point, in lexicographic order: a
    point is kept when its draw lies below floor(density * 2^64)."""
    threshold = (density.numerator << 64) // density.denominator
    rng = SplitMix64(seed)
    window_points = product(range(-window, window + 1), repeat=rank)
    return {p for p in window_points if rng.next_u64() < threshold}


@pytest.mark.parametrize("rank, window", [(1, 40), (2, 7), (3, 3)])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_random_sets_match_one_draw_per_point(rank, window, seed):
    rng = SplitMix64(seed)
    draws = [rng.next_u64() for _ in range((2 * window + 1) ** rank)]
    # a density whose threshold is exactly the median draw: that point is left out
    hit = sorted(draws)[len(draws) // 2]
    sets = {}
    for density in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(hit, 1 << 64)):
        desc = {"kind": "random", "density": str(density), "seed": seed}
        sets[density] = build_point_set(desc, rank, window).points
        assert sets[density] == _random_reference(density, seed, rank, window), density
    assert not sets[0] and len(sets[1]) == len(draws)
    window_points = list(product(range(-window, window + 1), repeat=rank))
    at_hit = sets[Fraction(hit, 1 << 64)]
    assert window_points[draws.index(hit)] not in at_hit
    assert len(at_hit) == sum(u < hit for u in draws)


def test_sorted_points_are_sorted_once_and_leave_equality_alone():
    a = build_point_set({"kind": "congruence", "modulus": 3, "offset": [1, 2]}, 2, 7)
    b = build_point_set({"kind": "congruence", "modulus": 3, "offset": [1, 2]}, 2, 7)
    assert a.sorted_points is a.sorted_points
    assert a.sorted_points == sorted(a.points)
    assert a == b and hash(a) == hash(b) and {a, b} == {b}


def test_boolean_combinators():
    evens = {"kind": "congruence", "modulus": 2}
    shifted = {"kind": "translate", "base": evens, "offset": [1, 0]}
    union = build_point_set({"kind": "union", "parts": [evens, shifted]}, 2, 4)
    inter = build_point_set({"kind": "intersection", "parts": [evens, shifted]}, 2, 4)
    assert len(inter.points) == 0
    assert (1, 0) in union and (0, 0) in union


def test_density_examples():
    est = upper_density_estimate({"kind": "congruence", "modulus": 2}, 2, [10])
    assert est.densities == (Fraction(121, 441),)
    full = upper_density_estimate({"kind": "full"}, 2, [3, 5])
    assert all(d == 1 for d in full.densities)
    empty = upper_density_estimate({"kind": "explicit", "points": []}, 2, [4])
    assert empty.proxy == 0


def test_density_windows_must_increase():
    with pytest.raises(ValueError):
        upper_density_estimate({"kind": "full"}, 2, [5, 5])


def test_window_containment_enforced():
    with pytest.raises(ValueError):
        point_set([(9, 0)], 2, 4)
