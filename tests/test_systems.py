"""Finite and Kronecker model systems: exact measures and decompositions."""

import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd, prod
from itertools import product

import numpy as np
import pytest

from _fleet import pts, random_fleet, tuples
from _reference import birkhoff_annihilator_average, box_overlap_volume, is_ergodic_direction
from latspec.config import LimitError
from latspec.formal import FormalReal
from latspec.lattice import kernel_basis, scale_lattice, sublattice
from latspec.prng import SplitMix64
from latspec import spectral, systems
from latspec.systems import (
    Box,
    BoxUnion,
    ErgodicSetSpec,
    FiniteSystem,
    component_presentation,
    ergodic_components,
    finite_system,
    finite_system_from_parts,
    kronecker_ergodicity_certificate,
    kronecker_orbit_saturation,
    kronecker_system,
    max_directional_expansion,
    orbit_saturation,
)


def z2z2():
    return finite_system(scale_lattice(2, 2))


def z4():
    return finite_system(sublattice([[4, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# construction

def test_finite_system_examples():
    s = z2z2()
    assert s.moduli == (2, 2) and s.size == 4
    s4 = z4()
    assert s4.moduli == (4,) and s4.size == 4
    trivial = finite_system(sublattice([[1, 0], [0, 1]]))
    assert trivial.size == 1 and trivial.moduli == ()


def test_finite_system_quotient_is_consistent():
    # phi must send the sublattice itself to zero and be surjective
    mats = [[[2, 0], [0, 2]], [[4, 0], [0, 1]], [[2, 1], [0, 3]], [[3, 1], [1, 3]]]
    for m in mats:
        L = sublattice(m)
        s = finite_system(L)
        assert s.size == L.index
        zero = tuple(0 for _ in s.moduli)
        for j in range(L.rank):
            col = tuple(L.basis_matrix[i][j] for i in range(L.rank))
            assert s.phi(col) == 0 and tuple(s.vectors(s.phi(col)).tolist()) == zero
        assert not s.coset_labels(s.gens).any()


def test_non_ergodic_parts_rejected():
    with pytest.raises(ValueError, match="non-ergodic"):
        finite_system_from_parts(2, (2, 2), [(1, 0), (1, 0)])


def test_carrier_limit_is_checked_before_the_carrier_is_built():
    # 10^12 elements used to end in a 7.28 TiB allocation error
    with pytest.raises(LimitError, match="carrier elements, the product of the moduli = 1000000000000, over the limit of 10000000"):
        finite_system_from_parts(1, [10**12], [[1]])
    with pytest.raises(ValueError, match="over the limit"):
        finite_system(sublattice([[10**4, 0], [0, 10**4]]))
    # a carrier at the limit is read from its presentation alone; its
    # generation check walked the whole carrier, 412 MB for this one
    sys_, _, peak = _traced(lambda: finite_system_from_parts(1, [systems.CARRIER_LIMIT], [[1]]))
    assert sys_.size == systems.CARRIER_LIMIT and peak < 4 * 2**20, peak


def test_generator_rows_must_match_the_moduli():
    # a long row was truncated silently, a short one ended in an IndexError
    with pytest.raises(ValueError, match=r"generator image \[1, 5\] has 2 entries for 1 moduli"):
        finite_system_from_parts(1, [4], [[1, 5]])
    with pytest.raises(ValueError, match=r"generator image \[1\] has 1 entries for 2 moduli"):
        finite_system_from_parts(1, [2, 4], [[1]])
    # factor-1 entries count: the row is checked before they are dropped
    with pytest.raises(ValueError, match="entries for 2 moduli"):
        finite_system_from_parts(1, [1, 4], [[1]])
    assert finite_system_from_parts(1, [1, 4], [[0, 1]]).moduli == (4,)


# ---------------------------------------------------------------------------
# saturation and directions

def test_orbit_saturation_examples():
    s = z2z2()
    b = pts(s, (0, 0))
    sat, mu = orbit_saturation(s, b, (1, 0))
    assert sat.tolist() == sorted(pts(s, (0, 0), (1, 0))) and mu == Fraction(1, 2)
    s4 = z4()
    _, mu4 = orbit_saturation(s4, {s4.phi((0, 0))}, (1, 0))
    assert mu4 == 1
    _, full = orbit_saturation(s, set(range(s.size)), (1, 0))
    assert full == 1


def test_orbit_saturation_idempotent():
    s = z2z2()
    sat, _ = orbit_saturation(s, pts(s, (0, 0)), (1, 0))
    # the flat-index array goes back in like any set of flat indices
    sat2, _ = orbit_saturation(s, sat, (1, 0))
    assert np.array_equal(sat2, sat)


def test_partial_saturation_monotone_and_stabilizes():
    s4 = z4()
    b = pts(s4, (0,))
    spec = ErgodicSetSpec()
    prev = Fraction(0)
    for n_terms in range(1, 7):
        _, mu = orbit_saturation(s4, b, (1, 0), spec, terms=n_terms)
        assert mu >= prev
        prev = mu
    _, full = orbit_saturation(s4, b, (1, 0))
    _, limit = orbit_saturation(s4, b, (1, 0), spec)
    assert prev == full == limit == 1


def test_ap_spec_saturation():
    s4 = z4()
    b = pts(s4, (0,))
    spec = ErgodicSetSpec(offset=1, step=2)
    sat, mu = orbit_saturation(s4, b, (1, 0), spec)
    # shifts 1 + 2Z of the generator reach {1, 3}
    assert sat.tolist() == sorted(pts(s4, (1,), (3,))) and mu == Fraction(1, 2)


def _ref_window(sys_, values, g, count, fold):
    """fold of values along x, x + g, ..., x + (count - 1) * g, one point at a
    time through the tuple reference."""
    mods, gv = sys_.moduli, tuple(sys_.vectors(g).tolist())
    out = []
    for x in map(tuple, sys_.vectors(np.arange(sys_.size)).tolist()):
        walk = [_ref_add(mods, x, _ref_mul(mods, t, gv)) for t in range(count)]
        out.append(fold(values[i] for i in sys_.index(walk).tolist()))
    return out


def test_window_matches_a_brute_force_fold():
    rng = SplitMix64(15)
    seen = set()
    for sys_, _ in random_fleet(1515, 10):
        for g in (rng.below(sys_.size), rng.below(sys_.size)):
            order = sys_.order_of(g)
            counts = {order - 1, order, order + 1, 2 * order + 1, 1 + rng.below(2 * order + 1)}
            counts |= {2**k + d for k in range(1, (2 * order).bit_length()) for d in (-1, 1)}
            ints = np.array([rng.below(50) for _ in range(sys_.size)], dtype=np.int64)
            bools = np.array([rng.below(3) == 0 for _ in range(sys_.size)])
            for count in sorted(c for c in counts if 1 <= c <= 2 * order + 1):
                seen.add((count < order, count == order))
                assert sys_.window(ints, g, count, np.minimum).tolist() == _ref_window(sys_, ints, g, count, min)
                assert sys_.window(bools, g, count, np.logical_or).tolist() == _ref_window(sys_, bools, g, count, any)
                if count < order:  # np.add is not idempotent: below the order only
                    assert sys_.window(ints, g, count, np.add).tolist() == _ref_window(sys_, ints, g, count, sum)
    # windows shorter than, equal to and longer than the orbit were all seen
    assert seen == {(True, False), (False, True), (False, False)}


def _ref_shift(sys_, values, g):
    """values read at x + g for every x, one point at a time through the
    tuple reference."""
    mods = sys_.moduli
    row = tuple(int(x) % d for x, d in zip(g, mods))
    xs = map(tuple, sys_.vectors(np.arange(sys_.size)).tolist())
    return [values[i] for i in sys_.index([_ref_add(mods, x, row) for x in xs]).tolist()]


def _shift_cases():
    """(system, values of two dtypes, coordinate rows) on a fleet and on one
    rational grid of a Kronecker box union."""
    rng = SplitMix64(2626)
    b = BoxUnion.of([(Fraction(0), Fraction(1, 3)), (Fraction(1, 4), Fraction(5, 6))])
    grid, cells, _ = systems.box_grid(b, [Fraction(1, 4), Fraction(-1, 6)])
    carriers = [sys_ for sys_, _ in random_fleet(2626, 10)] + [grid]
    for sys_ in carriers:
        ints = np.array([rng.below(50) for _ in range(sys_.size)], dtype=np.int64)
        mask = cells if sys_ is grid else np.array([rng.below(3) == 0 for _ in range(sys_.size)])
        rows = [sys_.vectors(rng.below(sys_.size)).tolist() for _ in range(3)]
        # the zero row, negative rows and rows past int64, read per axis exactly
        rows += [[0] * len(sys_.moduli), [-x for x in rows[0]], [2**70 * (-1) ** i + x for i, x in enumerate(rows[1])]]
        yield sys_, ints, mask, rows


def test_shift_and_overlap_match_the_tuple_reference():
    seen_grid = False
    for sys_, ints, mask, rows in _shift_cases():
        seen_grid |= sys_.moduli == (12, 12)
        for row in rows:
            for values in (ints, mask):
                got = sys_.shift(values, row)
                assert got.shape == values.shape and got.dtype == values.dtype
                assert got.tolist() == _ref_shift(sys_, values, row)
            g = int(sys_.index([row])[0])
            # B ∩ (B + g) holds x when x and x - g are in B
            back = _ref_shift(sys_, mask, [-x for x in sys_.vectors(g).tolist()])
            assert sys_.overlap(mask, g).tolist() == [bool(a and b) for a, b in zip(mask.tolist(), back)]
        # a shift keeps the moduli-shaped form of an array too
        grid_form = ints.reshape(sys_.moduli)
        assert sys_.shift(grid_form, rows[0]).reshape(-1).tolist() == _ref_shift(sys_, ints, rows[0])
    assert seen_grid


def _traced(call):
    """``(result, seconds, peak traced bytes)`` of call()."""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, time.perf_counter() - start, peak


#: Z/6000 with B the 2000 multiples of 3
_Z6000 = finite_system_from_parts(1, [6000], [[1]])
_THIRDS = frozenset(range(0, 6000, 3))


def test_saturations_on_a_6000_point_cyclic_carrier_stay_small():
    # the |B| x order translate batch of S = Z peaked at 183 MiB traced
    cases = [
        (None, None, Fraction(1)),
        # B + 2 + <3> is the residue class of 2
        (ErgodicSetSpec(offset=2, step=3), None, Fraction(1, 3)),
        (ErgodicSetSpec(), 3000, Fraction(1)),
    ]
    for spec, terms, expected in cases:
        (sat, mu), seconds, peak = _traced(lambda: orbit_saturation(_Z6000, _THIRDS, (1,), spec, terms))
        assert mu == expected and len(sat) == mu * _Z6000.size
        assert seconds < 0.5 and peak < 8 * 2**20, (spec, seconds, peak)
    assert orbit_saturation(_Z6000, _THIRDS, (1,), cases[1][0])[0].tolist() == list(range(2, 6000, 3))


def test_saturation_on_a_million_point_cyclic_carrier_stays_small():
    # a translated index array and a second mask of B peaked at 24.8 MiB traced
    z = finite_system_from_parts(1, [10**6], [[1]])
    thirds = frozenset(range(0, 10**6, 3))
    # S = Z saturates; one term of the offset-5 interval is B + 5
    for spec, terms, expected in ((None, None, Fraction(1)), (ErgodicSetSpec(offset=5), 1, Fraction(len(thirds), 10**6))):
        (sat, mu), _, peak = _traced(lambda: orbit_saturation(z, thirds, (1,), spec, terms))
        assert mu == expected and len(sat) == mu * z.size
        assert peak < 12 * 2**20, (spec, peak)
    assert sat[:3].tolist() == [1, 4, 5]


def test_is_ergodic_direction():
    s = z2z2()
    for lam in [(1, 0), (0, 1), (1, 1), (3, 5)]:
        assert not is_ergodic_direction(s, lam)
    assert is_ergodic_direction(z4(), (1, 0))
    with pytest.raises(ValueError):
        is_ergodic_direction(s, (0, 0))


def test_ergodic_direction_saturates_every_set():
    for sys_, b in random_fleet(616, 10):
        for lam in [(1,) + (0,) * (sys_.rank - 1), (1,) * sys_.rank]:
            if not is_ergodic_direction(sys_, lam):
                continue
            _, mu = orbit_saturation(sys_, b, lam)
            assert mu == 1


def test_max_directional_expansion_examples():
    s = z2z2()
    cands = [v for v in product(range(-3, 4), repeat=2) if v != (0, 0)]
    mu, lam = max_directional_expansion(s, pts(s, (0, 0)), cands)
    assert mu == Fraction(1, 2)
    mu4, _ = max_directional_expansion(z4(), pts(z4(), (0,)), cands)
    assert mu4 == 1
    full, _ = max_directional_expansion(s, set(range(s.size)), cands)
    assert full == 1


# ---------------------------------------------------------------------------
# birkhoff averages

def test_birkhoff_examples():
    s4 = z4()
    assert birkhoff_annihilator_average(s4, pts(s4, (0,)), (1, 0), 4) == Fraction(1, 16)
    s = z2z2()
    assert birkhoff_annihilator_average(s, pts(s, (0, 0)), (1, 0), 2) == Fraction(1, 8)
    # lam = 0: every term is mu(B)
    assert birkhoff_annihilator_average(s, pts(s, (0, 0)), (0, 0), 5) == Fraction(1, 4)


def test_birkhoff_average_on_a_6000_point_cyclic_carrier_stays_small():
    # the |B| x min(n, order) translates in one array peaked at 183 MiB traced
    b = frozenset(random.Random(15).sample(range(_Z6000.size), 2000))
    # over one period of the generator the terms add up to |B|^2, and the
    # next term is k = 0 again
    for n, total in ((6000, 2000**2), (6001, 2000**2 + 2000)):
        avg, _, peak = _traced(lambda: birkhoff_annihilator_average(_Z6000, b, (1,), n))
        assert avg == Fraction(total, n * _Z6000.size)
        assert peak < 64 * 2**20, peak


def test_birkhoff_average_matches_a_brute_force_sum():
    # full periods go through the coset formula and the remainder through an
    # np.add window; both must agree with the term-by-term sum on either side
    # of the order
    for sys_, b in random_fleet(41, 20):
        mods = sys_.moduli
        rng = random.Random(sys_.size)
        lam = tuple(rng.randint(-3, 3) for _ in range(sys_.rank))
        g = tuple(sys_.vectors(sys_.phi(lam)).tolist())
        order = _ref_order(mods, g)
        coords = tuples(sys_, b)
        overlaps = [sum(_ref_add(mods, x, _ref_mul(mods, k, g)) in coords for x in coords) for k in range(order)]
        for n in sorted({1, 2, 7, max(1, order - 1), order, 2 * order + 3}):
            total = sum(overlaps[k % order] for k in range(n))
            assert birkhoff_annihilator_average(sys_, b, lam, n) == Fraction(total, n * sys_.size), (mods, lam, n)


# ---------------------------------------------------------------------------
# ergodic components

def test_components_examples():
    s = z2z2()
    comps = ergodic_components(s, scale_lattice(2, 2))
    assert len(comps) == 4 and all(Fraction(len(c), s.size) == Fraction(1, 4) for c in comps)
    assert comps.dtype == np.int64 and not comps.flags.writeable
    whole = ergodic_components(s, sublattice([[1, 0], [0, 1]]))
    assert len(whole) == 1 and Fraction(len(whole[0]), s.size) == 1
    s4 = z4()
    comps4 = ergodic_components(s4, sublattice([[2, 0], [0, 1]]))
    assert [sorted(tuples(s4, c)) for c in comps4] == [[(0,), (2,)], [(1,), (3,)]]
    assert all(Fraction(len(c), s4.size) == Fraction(1, 2) for c in comps4)


def test_components_reconstruct_measure():
    for sys_, b in random_fleet(2024, 12):
        for n in (1, 2, 3):
            comps = ergodic_components(sys_, scale_lattice(sys_.rank, n))
            assert sum(Fraction(len(c), sys_.size) for c in comps) == 1
            covered = set()
            for c in comps:
                assert not (covered & set(c.tolist()))
                covered |= set(c.tolist())
            assert len(covered) == sys_.size
            # the weight |C| / |A| times nu(B) = |B ∩ C| / |C|, over the components
            mixture = sum(Fraction(len(c), sys_.size) * Fraction(len(b & set(c.tolist())), len(c)) for c in comps)
            assert mixture == sys_.measure(b)


def test_component_presentation_equivariance():
    rng = SplitMix64(5)
    for sys_, _ in random_fleet(77, 8):
        n = 2
        L = scale_lattice(sys_.rank, n)
        comps = ergodic_components(sys_, L)
        pres = component_presentation(sys_, L, min(comps[0]))
        comp_sys = pres.system
        assert comp_sys.size == len(comps[0])
        # relabeling is a bijection intertwining the scaled action, and -1
        # off the support
        support = sorted(comps[0].tolist())
        assert sorted(pres.to_component[support].tolist()) == list(range(comp_sys.size))
        assert np.count_nonzero(pres.to_component >= 0) == len(support)
        assert not pres.to_component.flags.writeable
        for _ in range(10):
            x = support[rng.below(len(support))]
            lam = tuple(rng.randint(-3, 3) for _ in range(sys_.rank))
            moved = _add(sys_, x, sys_.phi(tuple(n * v for v in lam)))
            assert pres.to_component[moved] == _add(
                comp_sys, int(pres.to_component[x]), comp_sys.phi(lam)
            )


# ---------------------------------------------------------------------------
# Kronecker systems

def test_kronecker_ergodicity_certificate():
    a, b = FormalReal.sym("alpha"), FormalReal.sym("beta")
    cert = kronecker_ergodicity_certificate(kronecker_system(2, 1, [[a, b]]))
    assert cert["ergodic"] and cert["kernel_rank"] == 0
    # fully rational frequencies are never ergodic
    with pytest.raises(ValueError, match="not ergodic"):
        kronecker_system(1, 1, [[Fraction(1, 2)]])
    bad = kronecker_system(1, 1, [[Fraction(1, 2)]], require_ergodic=False)
    cert_bad = kronecker_ergodicity_certificate(bad)
    assert not cert_bad["ergodic"]
    k = cert_bad["witness_frequency"]
    assert k is not None and (Fraction(1, 2) * k[0]).denominator == 1


def test_kronecker_directions():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(2, 1, [[a, FormalReal.of(0)]])
    assert is_ergodic_direction(ks, (1, 0))
    assert not is_ergodic_direction(ks, (0, 1))
    ks2 = kronecker_system(2, 1, [[a, a * 2 + Fraction(1, 3)]])
    # lam = (2, -1): Theta lam = 2a - 2a - 1/3 = -1/3 rational => not ergodic
    assert not is_ergodic_direction(ks2, (2, -1))
    assert is_ergodic_direction(ks2, (1, 0))


def test_box_unions():
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    assert b.volume() == Fraction(1, 2)
    two = BoxUnion.of(
        [(Fraction(0), Fraction(1, 4))],
        [(Fraction(1, 2), Fraction(3, 4))],
    )
    assert two.volume() == Fraction(1, 2)
    with pytest.raises(ValueError, match="disjoint"):
        BoxUnion.of([(Fraction(0), Fraction(1, 2))], [(Fraction(1, 4), Fraction(3, 4))])
    with pytest.raises(ValueError):
        Box(((Fraction(1, 2), Fraction(1, 2)),))


def test_kronecker_rational_direction_saturation_exact():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(2, 1, [[a, Fraction(1, 3)]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 6))])
    sat = kronecker_orbit_saturation(ks, b, (0, 1))
    assert sat.exact and sat.lower == Fraction(1, 2)
    b2 = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    sat2 = kronecker_orbit_saturation(ks, b2, (0, 1))
    assert sat2.exact and sat2.lower == 1


def test_rational_grid_is_refused_over_its_limit():
    ks = kronecker_system(2, 2, [[Fraction(1, 3), 0], [0, Fraction(1, 5)]], require_ergodic=False)
    fine = BoxUnion.of([(Fraction(0), Fraction(1, 1009)), (Fraction(0), Fraction(1, 1013))])
    with pytest.raises(LimitError, match=rf"rational grid, q\^2 for q the common denominator = {1022117**2}, over the limit of 1000000"):
        box_overlap_volume(fine, [0, 0])
    # the direction's shift 1/3 refines the grid by 3
    with pytest.raises(LimitError, match=rf"rational grid, q\^2 for q the common denominator = {3066351**2}, over the limit of 1000000"):
        kronecker_orbit_saturation(ks, fine, (1, 0))
    # one axis of 1001 cells stays inside the limit
    line = BoxUnion.of([(Fraction(0), Fraction(1, 1001))])
    assert box_overlap_volume(line, [Fraction(1, 2002)]) == Fraction(1, 2002)


def test_kronecker_irrational_direction_is_estimate():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(2, 1, [[a, Fraction(1, 3)]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    sat = kronecker_orbit_saturation(ks, b, (1, 0))
    assert not sat.exact
    assert sat.lower == Fraction(1, 2) and sat.upper == 1


def test_ergodic_set_spec_validation():
    with pytest.raises(ValueError):
        ErgodicSetSpec(step=0)
    ap = ErgodicSetSpec(offset=3, step=2)
    assert spectral._positive_elements(ap, 3) == [3, 5, 7]
    assert not ap.universal
    assert ErgodicSetSpec().universal


# ---------------------------------------------------------------------------
# flat-index routines against a brute-force tuple reference

def _ref_mul(mods, k, g):
    return tuple((k * x) % d for x, d in zip(g, mods))


def _ref_add(mods, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, mods))


def _ref_order(mods, g):
    k = 1
    while any(_ref_mul(mods, k, g)):
        k += 1
    return k


def _add(sys_, a, b):
    """a + b for flat indices, through the tuple reference."""
    x, y = map(tuple, sys_.vectors([a, b]).tolist())
    return int(sys_.index([_ref_add(sys_.moduli, x, y)])[0])


def _ref_shifts(mods, b, g, ks):
    return frozenset(_ref_add(mods, x, _ref_mul(mods, k, g)) for x in b for k in ks)


def _ref_components(sys_, images):
    mods = sys_.moduli
    zero = tuple(0 for _ in mods)
    sub = {zero}
    grown = True
    while grown:
        new = {_ref_add(mods, h, g) for h in sub for g in images} - sub
        sub |= new
        grown = bool(new)
    seen, cosets = set(), []
    for x in product(*(range(d) for d in mods)):
        if x not in seen:
            coset = frozenset(_ref_add(mods, x, h) for h in sub)
            seen |= coset
            cosets.append(coset)
    return cosets


def _directions(rank):
    units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    return units + [(1,) * rank, (2,) + (-1,) * (rank - 1), (3,) + (0,) * (rank - 1)]


def test_flat_index_routines_match_tuple_reference():
    fleet = random_fleet(4242, 12)
    assert {s.rank for s, _ in fleet} == {1, 2, 3}
    ap = ErgodicSetSpec(offset=1, step=2)
    for sys_, b_idx in fleet:
        mods = sys_.moduli
        assert list(map(tuple, sys_.vectors(np.arange(sys_.size)).tolist())) == list(
            product(*(range(d) for d in mods))
        )
        b = tuples(sys_, b_idx)
        for lam in _directions(sys_.rank):
            g = tuple(sys_.vectors(sys_.phi(lam)).tolist())
            order = _ref_order(mods, g)
            expected = {
                (None, None): _ref_shifts(mods, b, g, range(order)),
                (ap, None): _ref_shifts(mods, b, g, [1 + 2 * t for t in range(2 * order)]),
                (ap, 3): _ref_shifts(mods, b, g, [1, 3, 5]),
                (ErgodicSetSpec(), 3): _ref_shifts(mods, b, g, [0, 1, 2]),
            }
            for (spec, terms), sat in expected.items():
                got, mu = orbit_saturation(sys_, b_idx, lam, spec, terms)
                assert got.tolist() == sorted(sys_.index(sat).tolist()) and mu == Fraction(len(sat), sys_.size)
            for n in (1, 2, order, order + 3):
                total = sum(
                    sum(1 for x in b if _ref_add(mods, x, _ref_mul(mods, k, g)) in b)
                    for k in range(n)
                )
                assert birkhoff_annihilator_average(sys_, b_idx, lam, n) == Fraction(
                    total, n * sys_.size
                )
        for L in [scale_lattice(sys_.rank, n) for n in (1, 2, 3)] + [
            sublattice([[2 if i == j else int(j == i + 1) for j in range(sys_.rank)] for i in range(sys_.rank)])
        ]:
            images = [sys_.phi(tuple(L.basis_matrix[i][j] for i in range(L.rank))) for j in range(L.rank)]
            comps = ergodic_components(sys_, L)
            cosets = _ref_components(sys_, list(map(tuple, sys_.vectors(images).tolist())))
            assert [tuples(sys_, c) for c in comps] == cosets
            assert all(Fraction(len(c), sys_.size) == Fraction(len(ref), sys_.size) for c, ref in zip(comps, cosets))
            assert all(c.tolist() == sorted(c.tolist()) for c in comps)


def test_flat_indices_round_trip_and_phi_is_exact_near_2_to_the_70():
    rng = SplitMix64(70)
    for sys_, _ in random_fleet(7070, 12):
        every = np.arange(sys_.size)
        assert sys_.index(sys_.vectors(every)).tolist() == every.tolist()
        gen_rows = sys_.vectors(list(sys_.gens)).tolist()
        for _ in range(8):
            a, b = (
                [(-1) ** rng.below(2) * 2**70 + rng.randint(-2**20, 2**20) for _ in range(sys_.rank)]
                for _ in range(2)
            )
            # phi(a) in Python integers: the unreduced coordinate row, then index
            ref = [sum(x * row[i] for x, row in zip(a, gen_rows)) for i in range(len(sys_.moduli))]
            assert sys_.phi(a) == sys_.index([ref])[0]
            assert sys_.vectors(sys_.phi(a)).tolist() == [r % d for r, d in zip(ref, sys_.moduli)]
            assert sys_.phi([x + y for x, y in zip(a, b)]) == sys_.translate(
                sys_.phi(a), sys_.vectors(sys_.phi(b))
            )


def _random_chain(rng):
    """A divisibility chain of 0 to 3 moduli over at most 2^11 elements,
    with factor-1 entries among them."""
    chain, d = [], 1
    for _ in range(rng.below(4)):
        d *= 1 + rng.below(4)
        chain.append(d)
    return chain if prod(chain) <= 2**11 else chain[:1]


def test_index_matches_the_row_by_row_reading_past_int64():
    rng = SplitMix64(263)
    for sys_, _ in random_fleet(2630, 12):
        s = len(sys_.moduli)
        rows = [
            [(-1) ** rng.below(2) * 2**70 + rng.randint(-(2**20), 2**20) if rng.below(2) else rng.randint(-9, 9) for _ in range(s)]
            for _ in range(rng.below(20))
        ]
        want = [systems._flat(sys_.moduli, r) for r in rows]
        assert sys_.index(rows).tolist() == want
        assert sys_.index(iter(map(tuple, rows))).tolist() == want
        small = np.array([[rng.randint(-(2**40), 2**40) for _ in range(s)] for _ in range(5)], dtype=np.int64).reshape(5, s)
        assert sys_.index(small).tolist() == [systems._flat(sys_.moduli, r) for r in small.tolist()]


def test_generation_by_hermite_form_matches_the_window_route():
    # the reference: the images generate A exactly when the coset labels of
    # the subgroup they generate are all 0, the route the check used to take
    rng = SplitMix64(1311)
    seen = set()
    for _ in range(300):
        moduli = _random_chain(rng)
        rank = 1 + rng.below(3)
        scale = 1 + rng.below(3)
        gens = [[scale * rng.randint(-6, 6) for _ in moduli] for _ in range(rank)]
        mods = tuple(d for d in moduli if d != 1)
        keep = [i for i, d in enumerate(moduli) if d != 1]
        images = tuple(systems._flat(mods, [g[i] for i in keep]) for g in gens)
        generates = not FiniteSystem(rank, mods, images).coset_labels(images).any()
        seen.add(generates)
        if generates:
            assert finite_system_from_parts(rank, moduli, gens).gens == images
        else:
            with pytest.raises(ValueError, match="non-ergodic"):
                finite_system_from_parts(rank, moduli, gens)
    assert seen == {True, False}


def test_vectors_match_an_indices_table():
    rng = SplitMix64(77)
    for moduli in [(), (2,), (54,), (6, 6), (2, 4, 8), (3, 3, 3, 3)] + [tuple(d for d in _random_chain(rng) if d != 1) for _ in range(10)]:
        sys_ = FiniteSystem(1, moduli, (0,))
        size = prod(moduli)
        table = np.indices(moduli, dtype=np.int64).reshape(len(moduli), size).T
        every = np.arange(size)
        assert np.array_equal(sys_.vectors(every), table)
        assert np.array_equal(sys_.vectors(every[::-1, None]), table[::-1, None])
        assert np.array_equal(sys_.vectors(every.tolist()), table)
        for i in {0, size // 2, size - 1}:
            assert sys_.vectors(i).tolist() == table[i].tolist() == sys_.vectors(np.int64(i)).tolist()


# ---------------------------------------------------------------------------
# Kronecker systems against their formal-real and tuple-set references

def _ref_grid(b, shifts):
    """The least grid 1/q * Z^dim carrying b and the shifts, and the set of
    cell tuples b covers."""
    q = np.lcm.reduce(
        [x.denominator for s in shifts for x in s]
        + [x.denominator for box in b.boxes for a_b in box.bounds for x in a_b]
    )
    cells = set()
    for box in b.boxes:
        cells |= set(product(*(range(int(lo * q), int(hi * q)) for lo, hi in box.bounds)))
    return int(q), cells


def _ref_shift_cells(cells, q, shift):
    off = [int(x * q) for x in shift]
    return {tuple((c + o) % q for c, o in zip(cell, off)) for cell in cells}


def _ref_period(shift):
    return int(np.lcm.reduce([x.denominator for x in shift]))


def _ref_overlap(b, shift):
    q, cells = _ref_grid(b, [shift])
    return Fraction(len(cells & _ref_shift_cells(cells, q, shift)), q**b.dim)


def _ref_annihilator(b, shift):
    """Mean of mu(B ∩ (B + m * shift)) over one period, shift by shift."""
    d = _ref_period(shift)
    q, cells = _ref_grid(b, [shift])
    hits = sum(len(cells & _ref_shift_cells(cells, q, [m * x for x in shift])) for m in range(d))
    return Fraction(hits, d * q**b.dim)


def _ref_saturation(b, shift):
    q, cells = _ref_grid(b, [shift])
    union = set()
    for m in range(_ref_period(shift)):
        union |= _ref_shift_cells(cells, q, [m * x for x in shift])
    return Fraction(len(union), q**b.dim)


DENOMINATORS = (1, 2, 3, 4, 6)


def _random_box_union(rng, dim):
    """Disjoint boxes, one in each strip of the first axis, on grids of at
    most 24^dim cells."""
    strips = 1 + rng.below(2)
    boxes = []
    for i in range(strips):
        box = []
        for _ in range(dim):
            den = DENOMINATORS[rng.below(len(DENOMINATORS))]
            lo = rng.below(den)
            box.append((Fraction(lo, den), Fraction(lo + 1 + rng.below(den - lo), den)))
        # squeeze the first axis into the strip [i / strips, (i + 1) / strips)
        box[0] = tuple((i + x) / strips for x in box[0])
        boxes.append(box)
    return BoxUnion.of(*boxes)


def _random_shift(rng, dim):
    """Entries in [-2, 2], integers included."""
    shift = []
    for _ in range(dim):
        den = DENOMINATORS[rng.below(len(DENOMINATORS))]
        shift.append(Fraction(rng.below(4 * den + 1) - 2 * den, den))
    return shift


def test_rational_grid_routes_match_the_tuple_set_reference():
    rng = SplitMix64(20261018)
    for trial in range(120):
        dim = 1 + trial % 3
        b = _random_box_union(rng, dim)
        shift = _random_shift(rng, dim)
        # column 0 carries one symbol per row (ergodic), column 1 the shift
        ks = kronecker_system(
            2, dim, [[FormalReal.sym(f"a{i}"), x] for i, x in enumerate(shift)]
        )
        assert box_overlap_volume(b, shift) == _ref_overlap(b, shift)
        assert spectral._kron_rational_annihilator_exact(ks, b, (0, 1)) == _ref_annihilator(b, shift)
        sat = kronecker_orbit_saturation(ks, b, (0, 1))
        assert sat.exact and sat.lower == sat.upper == _ref_saturation(b, shift)


def test_one_point_grid():
    whole = BoxUnion.of([(Fraction(0), Fraction(1))] * 2)
    ks = kronecker_system(2, 2, [[FormalReal.sym("a"), 3], [FormalReal.sym("b"), -1]])
    grid, cells, g = systems.box_grid(whole, [Fraction(3), Fraction(-1)])
    assert grid.size == 1 and grid.moduli == () and cells.tolist() == [True] and g == 0
    assert box_overlap_volume(whole, [2, -5]) == 1 == _ref_overlap(whole, [Fraction(2), Fraction(-5)])
    assert spectral._kron_rational_annihilator_exact(ks, whole, (0, 1)) == 1
    assert kronecker_orbit_saturation(ks, whole, (0, 1)).lower == 1


def test_period_99991_direction_is_quick():
    ks = kronecker_system(2, 1, [[FormalReal.sym("alpha"), Fraction(1, 99991)]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 3))])
    start = time.perf_counter()
    sat = kronecker_orbit_saturation(ks, b, (0, 1))
    mass = spectral._kron_rational_annihilator_exact(ks, b, (0, 1))
    assert time.perf_counter() - start < 1
    # the grid 1/(3 * 99991) * Z splits into three cosets of the shift, and
    # b meets them in 33331, 33330 and 33330 cells
    assert sat.exact and sat.lower == 1
    assert mass == Fraction(33331**2 + 2 * 33330**2, 99991 * 3 * 99991)


def _ref_formal_theta(sys_):
    """Theta back as FormalReal entries, from the integer matrices."""
    return [
        [
            FormalReal(
                Fraction(sys_.rat[i][j], sys_.den),
                tuple((t, Fraction(m[i][j], sys_.den)) for t, m in zip(sys_.symbols, sys_.sym)),
            )
            for j in range(sys_.rank)
        ]
        for i in range(sys_.dim)
    ]


def _ref_pairing(theta, k):
    return [sum((theta[i][j] * k[i] for i in range(len(k))), start=FormalReal.of(0)) for j in range(len(theta[0]))]


def _ref_symbol_kernel(forms):
    """Integer kernel of the symbol-coefficient matrix of FormalReal forms,
    each row scaled to integers by the lcm of its own denominators."""
    dim = len(forms)
    symbols = sorted({name for row in forms for f in row for name in f.symbols()})
    if not symbols or not forms[0]:
        return [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rows = [[forms[i][j].coeff(t) for i in range(dim)] for j in range(len(forms[0])) for t in symbols]
    scaled = []
    for row in rows:
        den = int(np.lcm.reduce([f.denominator for f in row]))
        scaled.append([int(f * den) for f in row])
    return kernel_basis(scaled)


def _ref_certificate(theta):
    kernel = _ref_symbol_kernel(theta)
    witness = None
    if kernel:
        k0 = kernel[0]
        rationals = [f.rational for f in _ref_pairing(theta, k0)]
        d = int(np.lcm.reduce([q.denominator for q in rationals]))
        witness = tuple(d * x for x in k0)
    return not kernel, len(kernel), witness


def _random_theta(rng, rank, dim):
    names = ("alpha", "beta", "gamma")[: 1 + rng.below(3)]
    entries = []
    for _ in range(dim):
        row = []
        for _ in range(rank):
            x = FormalReal.of(Fraction(rng.below(13) - 6, 1 + rng.below(6)))
            for name in names:
                if rng.below(3) == 0:
                    x = x + FormalReal.sym(name, Fraction(rng.below(7) - 3, 1 + rng.below(4)))
            row.append(x)
        entries.append(row)
    return entries


def test_integer_theta_matches_the_formal_real_reference():
    rng = SplitMix64(1018)
    seen = {"annihilates": set(), "trivial": set(), "rational": set(), "ergodic": set(), "direction": set()}
    for trial in range(150):
        rank, dim = 1 + rng.below(3), 1 + rng.below(3)
        theta = _random_theta(rng, rank, dim)
        ks = kronecker_system(rank, dim, theta, require_ergodic=False)
        assert _ref_formal_theta(ks) == theta
        cert = kronecker_ergodicity_certificate(ks)
        assert (cert["ergodic"], cert["kernel_rank"], cert["witness_frequency"]) == _ref_certificate(theta)
        seen["ergodic"].add(cert["ergodic"])
        if cert["witness_frequency"] is not None:
            p = _ref_pairing(theta, cert["witness_frequency"])
            assert all(f.is_integer for f in p)
        # the certificate's kernel, from its rows: one per column of Theta and symbol
        kernel = kernel_basis([[m[i][j] for i in range(dim)] for j in range(rank) for m in ks.sym] or [[0] * dim])
        assert len(kernel) == cert["kernel_rank"]
        for _ in range(4):
            k = tuple(rng.below(7) - 3 for _ in range(dim))
            if trial % 5 == 0 and cert["witness_frequency"] is not None:
                k = cert["witness_frequency"]
            atom = [spectral.Atom(k, spectral.Weight.of(1))]

            def annihilates(lam):
                # k against the system's integer shift den * Theta lam
                return spectral._annihilated(ks, atom, lam).value == 1

            p = _ref_pairing(theta, k)
            rational = np.linalg.matrix_rank(np.array(kernel + [list(k)], dtype=float).reshape(-1, dim)) == len(kernel)
            assert rational == all(f.is_rational for f in p)
            trivial = all(annihilates(tuple(int(i == j) for i in range(rank))) for j in range(rank))
            assert trivial == all(f.is_integer for f in p)
            seen["trivial"].add(trivial)
            seen["rational"].add(rational)
            for _ in range(3):
                lam = tuple(rng.below(13) - 6 for _ in range(rank))
                value = sum((f * x for f, x in zip(p, lam)), start=FormalReal.of(0))
                assert annihilates(lam) == value.is_integer
                seen["annihilates"].add(annihilates(lam))
        for _ in range(3):
            lam = tuple(rng.below(7) - 3 for _ in range(rank))
            if not any(lam):
                continue
            w = [sum((theta[i][j] * lam[j] for j in range(rank)), start=FormalReal.of(0)) for i in range(dim)]
            assert ks.rational_shift(lam) == (
                tuple(f.rational for f in w) if all(f.is_rational for f in w) else None
            )
            ergodic = is_ergodic_direction(ks, lam)
            assert ergodic == (not _ref_symbol_kernel([[f] for f in w]))
            seen["direction"].add(ergodic)
    # every predicate was seen both ways
    assert all(v == {True, False} for v in seen.values()), seen


def test_cyclic_subgroup_index_matches_a_brute_force_enumeration():
    one_point = finite_system_from_parts(2, [1], [[0], [0]])
    carriers = {sys_.moduli: sys_ for sys_, _ in random_fleet(29, 40)}
    carriers[()] = one_point
    assert len(carriers) > 10
    for sys_ in carriers.values():
        idx = sys_.cyclic_subgroups()
        every = range(sys_.size)
        # <x> as the set of its multiples
        span = {x: frozenset(sys_.index(np.outer(range(sys_.order_of(x)), sys_.vectors(x))).tolist()) for x in every}
        assert {span[g] for g in idx.generator.tolist()} == set(span.values())
        assert len(idx.generator) == len(set(span.values()))
        for s, (g, d) in enumerate(zip(idx.generator.tolist(), idx.order.tolist())):
            generators = [x for x in every if idx.subgroup_of[x] == s]
            # the generator sets partition A, one per subgroup, least generator first
            assert generators == [x for x in every if span[x] == span[g]]
            assert g == min(generators) and d == len(span[g])
        for x in every:
            u = int(idx.unit_of[x])
            g = int(idx.generator[idx.subgroup_of[x]])
            assert gcd(u, sys_.exponent) == 1
            assert sys_.index([u * sys_.vectors(g)])[0] == x
        for arr in (idx.generator, idx.order, idx.subgroup_of, idx.unit_of):
            assert not arr.flags.writeable
    assert one_point.cyclic_subgroups().generator.tolist() == [0]
