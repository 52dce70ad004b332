"""Spectral measures and the quantitative checks, exact on finite systems."""

import dataclasses
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np
import pytest

from _cyclotomic import root_values
from _fleet import pts, random_fleet, tuples
from _reference import birkhoff_annihilator_average, box_overlap_volume
from latspec.config import LimitError
from latspec.formal import FormalReal
from latspec.haystack import make_haystack
from latspec.lattice import scale_lattice, sublattice
from latspec.prng import SplitMix64
from latspec import cyclotomic, spectral, systems
from latspec.cli import _RUNNERS, read_config, ser_weight
from latspec.spectral import (
    Atom,
    Weight,
    ZERO_WEIGHT,
    annihilator_mass,
    directional_expansion_theorem_check,
    expansion_bound_check,
    haystack_annihilator_search,
    intersection_theorem_search,
    irrational_part,
    rational_mass_excluding_trivial,
    shrink_rational_spectrum,
    SpectralMeasure,
    small_intersection_bound,
    spectral_measure,
    spectral_measure_kronecker,
    verify_bochner,
)
from latspec.systems import (
    BoxUnion,
    ErgodicSetSpec,
    component_presentation,
    ergodic_components,
    finite_system,
    finite_system_from_parts,
    kronecker_system,
)


def z2z2():
    return finite_system(scale_lattice(2, 2))


def z4():
    return finite_system(sublattice([[4, 0], [0, 1]]))


HAYSTACK = make_haystack(None, (2, 3), 8)


# ---------------------------------------------------------------------------
# finite spectral measures

S10 = finite_system_from_parts(1, (10,), [(1,)])

#: every entry point that turns a set of flat indices into arrays
SET_READERS = {
    "spectral_measure": lambda b: spectral_measure(S10, b),
    "verify_bochner": lambda b: verify_bochner(spectral_measure(S10, b), 1),
    "orbit_saturation": lambda b: systems.orbit_saturation(S10, frozenset(b), (1,)),
    "birkhoff_annihilator_average": lambda b: birkhoff_annihilator_average(S10, b, (1,), 3),
    "shrink_rational_spectrum": lambda b: shrink_rational_spectrum(S10, b, Fraction(1, 2)),
    "FiniteSystem.mask": S10.mask,
    "FiniteSystem.measure": S10.measure,
    "ComponentPresentation.restrict": lambda b: component_presentation(S10, scale_lattice(1, 2), 0).restrict(b),
}


@pytest.mark.parametrize("stray", [-1, 10, 2**70])
@pytest.mark.parametrize("reader", sorted(SET_READERS))
def test_a_set_element_outside_the_carrier_is_refused(reader, stray):
    # -1 used to read as 9, 10 ended in numpy's IndexError and 2**70 in an
    # OverflowError
    SET_READERS[reader]([0, 3])
    with pytest.raises(ValueError, match="outside \\[0, 10\\)"):
        SET_READERS[reader]([stray, 3])


def test_z4_measure_examples():
    sys_ = z4()
    b = pts(sys_, (0,))
    sigma = spectral_measure(sys_, b)
    assert len(sigma.atoms) == 4
    assert all(a.weight.exact and a.weight.value == Fraction(1, 16) for a in sigma.atoms)
    assert sigma.total.value == Fraction(1, 4)
    assert sigma.trivial.value == Fraction(1, 16)
    assert annihilator_mass(sigma, (1, 0)).value == Fraction(1, 16)
    assert annihilator_mass(sigma, (2, 0)).value == Fraction(1, 8)
    t = sigma.trivial.value
    assert sigma.total.value / t == 4
    assert all(a.weight.value / t == 1 for a in sigma.atoms)


def test_irrational_weights_on_z5():
    # indicator of a 2-point set in Z/5 has irrational |c_hat|^2 atoms
    sys_ = finite_system_from_parts(2, (5,), [(1,), (2,)])
    b = pts(sys_, (0,), (1,))
    sigma = spectral_measure(sys_, b)
    irrational = [a for a in sigma.atoms if not a.weight.exact]
    assert irrational
    for a in irrational:
        assert a.weight.lower <= a.weight.upper
        assert a.weight.upper - a.weight.lower < Fraction(1, 10**15)
    # masses stay exact regardless
    assert sigma.total.value == Fraction(2, 5)
    assert annihilator_mass(sigma, (1, 0)).exact


def test_normalized_rejects_null():
    with pytest.raises(ValueError):
        spectral_measure(z4(), frozenset())


def test_rational_mass_examples():
    s22 = spectral_measure(z2z2(), pts(z2z2(), (0, 0)))
    assert rational_mass_excluding_trivial(s22).value / s22.trivial.value == 3
    full = spectral_measure(z2z2(), set(range(z2z2().size)))
    assert rational_mass_excluding_trivial(full).value / full.trivial.value == 0


def test_fleet_identities():
    for sys_, b in random_fleet(11, 25):
        sigma = spectral_measure(sys_, b)
        mu_b = sys_.measure(b)
        assert sigma.trivial.value == mu_b * mu_b
        assert sigma.total.value == mu_b
        assert sigma.total.value / sigma.trivial.value == 1 / mu_b
        seen = set()
        for lam in product(range(-4, 5), repeat=sys_.rank):
            if all(x == 0 for x in lam):
                continue
            g = sys_.phi(lam)
            if g in seen:
                continue
            seen.add(g)
            # annihilator_mass internally asserts coset formula == atom sum
            w = annihilator_mass(sigma, lam)
            assert w.exact and w.value >= sigma.trivial.value


def test_birkhoff_cross_module_identity():
    for sys_, b in random_fleet(313, 15):
        sigma = spectral_measure(sys_, b)
        for lam in [(1,) * sys_.rank, (1, 0, 2)[: sys_.rank], (2, 1, 1)[: sys_.rank]]:
            g = sys_.phi(lam)
            t = sys_.order_of(g)
            avg = birkhoff_annihilator_average(sys_, b, lam, t)
            assert avg == annihilator_mass(sigma, lam).value


def test_bochner_examples_and_fleet():
    sys_ = z4()
    b = pts(sys_, (0,))
    rep = verify_bochner(spectral_measure(sys_, b), 4)
    assert rep.ok and rep.checked == 81
    for sys_, b in random_fleet(99, 20):
        assert verify_bochner(spectral_measure(sys_, b), 4).ok
    # no lams: nothing to check; an empty B has no measure to check
    assert verify_bochner(spectral_measure(sys_, b), -1) == spectral.BochnerReport(ok=True, checked=0)
    with pytest.raises(ValueError, match="positive measure"):
        spectral_measure(sys_, ())


def _character_rows(sys_, t):
    """Each character's own root-count row over Z/exponent: its orbit's row
    moved from k to u * k, u its unit."""
    n = sys_.exponent
    rows = np.zeros((sys_.size, n), dtype=np.int64)
    for c in range(sys_.size):
        rows[c, t.subgroups.unit_of[c] * np.arange(n) % n] = t.rows[t.subgroups.subgroup_of[c]]
    return rows


def _bochner_reference(sigma, lam_box):
    """verify_bochner one lam at a time: every character's row rolled by the
    exponent of chi_c(phi(lam)) and summed, decided by reduction modulo the
    cyclotomic polynomial, against the overlap mask."""
    sys_ = sigma.system
    rows = _character_rows(sys_, sigma)
    dual = sys_.vectors(np.arange(sys_.size)) * (sys_.exponent // np.array(sys_.moduli, dtype=np.int64))
    in_b = sys_.mask(sigma.base_set)
    lams = list(product(range(-lam_box, lam_box + 1), repeat=sys_.rank))
    violations = []
    for lam in lams:
        g = sys_.phi(lam)
        exps = (dual @ sys_.vectors(g)) % sys_.exponent
        total = sum(np.roll(row, e) for row, e in zip(rows, exps.tolist()))
        cnt = int(np.count_nonzero(sys_.overlap(in_b, g)))
        if root_values(sys_.exponent, total)[0] != cnt * sys_.size:
            violations.append(lam)
    return spectral.BochnerReport(ok=not violations, checked=len(lams), violations=tuple(violations))


def _bochner_systems(seed):
    """Random Z/n and (Z/d)^2 systems of rank 2, each with a random set B."""
    rng = random.Random(seed)
    out = []
    for _ in range(4):
        n = rng.randint(2, 30)
        sys_ = finite_system_from_parts(2, [n], [[1], [rng.randrange(n)]])
        d = rng.randint(2, 6)
        k = rng.randrange(d)
        split = finite_system_from_parts(2, [d, d], [[1, 0], [k, 1]])
        for s in (sys_, split):
            els = range(s.size)
            out.append((s, frozenset(rng.sample(els, rng.randint(1, len(els))))))
    return out


def _perturbed(sigma, move):
    """sigma with its tables perturbed: ``move(sys_, rows)`` edits a copy of
    the orbit rows, and the orbit sums and rational flags are rebuilt from
    them, each orbit's traces shared by the phi(N) / (orbit size) repeats of
    its characters over z."""
    rows = sigma.rows.copy()
    move(sigma.system, rows)
    traces, rational = cyclotomic.ramanujan_sums(rows)
    repeats = cyclotomic.totient(sigma.system.exponent) // np.bincount(sigma.subgroups.subgroup_of)
    return dataclasses.replace(sigma, rows=rows, sums=traces // repeats[:, None], rational=np.array(rational))


def _trade_with_the_trivial_row(sys_, rows):
    # one count moves from the last orbit's row to the trivial one's: the
    # character sum then misses where the last orbit's Ramanujan sum is not 1
    rows[0, 0] += 1
    rows[-1, 0] -= 1


def test_bochner_matches_a_per_image_reference():
    cases = _bochner_systems(71)
    for sys_, b in cases:
        for lam_box in range(4):
            sigma = spectral_measure(sys_, b)
            assert verify_bochner(sigma, lam_box) == _bochner_reference(sigma, lam_box)
    # with a table off by one count, the violations come in lam order
    partial = 0
    for sys_, b in cases:
        perturbed = _perturbed(spectral_measure(sys_, b), _trade_with_the_trivial_row)
        for lam_box in range(4):
            got = verify_bochner(perturbed, lam_box)
            assert got == _bochner_reference(perturbed, lam_box)
            partial += 0 < len(got.violations) < got.checked
    assert partial > 5


def test_bochner_catches_one_perturbed_root_count_row():
    sys_ = finite_system_from_parts(2, [12], [[1], [5]])
    b = frozenset(random.Random(9).sample(range(sys_.size), 5))
    sigma = spectral_measure(sys_, b)
    assert verify_bochner(sigma, 2).ok

    def move(sys_, rows):
        # one count of the orbit of character 7, {1, 5, 7, 11}, moved from
        # z^0 to z^1: each row total stays, and the count of u * c moves to z^u
        o = sys_.cyclic_subgroups().subgroup_of[7]
        rows[o, 0] -= 1
        rows[o, 1] += 1

    rep = verify_bochner(_perturbed(sigma, move), 2)
    # the sum moves by c_12(e + 1) - c_12(e), and c_12 is 0 at odd e and
    # nonzero at even e, so every lam misses
    assert not rep.ok and rep.checked == 25
    assert rep.violations == tuple(product(range(-2, 3), repeat=2))


def _clear_finite_caches():
    systems._cyclic_subgroups.cache_clear()
    spectral._spectral_measure_cached.cache_clear()


def _finite_outputs(cases, lam_box, move=None):
    """Each case's Bochner report (of its measure perturbed by ``move``, if
    given), atoms and subgroup index arrays, built from empty caches."""
    _clear_finite_caches()
    out = []
    for sys_, b in cases:
        sigma = spectral_measure(sys_, b)
        sub = sys_.cyclic_subgroups()
        arrays = tuple(a.tolist() for a in (sub.generator, sub.order, sub.subgroup_of, sub.unit_of))
        checked = sigma if move is None else _perturbed(sigma, move)
        out.append((verify_bochner(checked, lam_box), sigma.atoms, arrays))
    return out


def test_bochner_report_does_not_depend_on_the_chunking(monkeypatch):
    # BLOCK_CELLS sets how many images the Bochner counts, irrational
    # characters the enclosures and units the subgroup index take per array
    # pass; with 1, 2 or 5 of each per pass nothing may change
    cases = _bochner_systems(81)
    try:
        for move in (None, _trade_with_the_trivial_row):
            whole = _finite_outputs(cases, 3, move)
            assert any(0 < len(r.violations) < r.checked for r, _, _ in whole) == (move is not None)
            for case, ref in zip(cases, whole):
                sys_, b = case
                s = len(sys_.moduli)
                # cells per image, per character and per unit
                for cells in (len(b) * s, sys_.exponent, sys_.size * s):
                    for per_block in (1, 2, 5):
                        monkeypatch.setattr(spectral, "BLOCK_CELLS", cells * per_block)
                        monkeypatch.setattr(systems, "BLOCK_CELLS", cells * per_block)
                        assert _finite_outputs([case], 3, move) == [ref]
            monkeypatch.undo()
    finally:
        # later tests get tables built at the default block size
        _clear_finite_caches()


def test_bochner_verdict_on_a_lam_does_not_depend_on_its_box():
    # all images of a box go through the orbit sums in one array pass; the
    # verdict on a lam must not depend on which other images share that pass
    perturbed = [_perturbed(spectral_measure(sys_, b), _trade_with_the_trivial_row) for sys_, b in _bochner_systems(81)]
    whole = [verify_bochner(sigma, 3) for sigma in perturbed]
    assert any(0 < len(r.violations) < r.checked for r in whole)
    for box in range(3):
        for sigma, ref in zip(perturbed, whole):
            inner = tuple(lam for lam in ref.violations if max(map(abs, lam)) <= box)
            assert verify_bochner(sigma, box).violations == inner


def test_the_measure_refuses_rows_that_break_its_own_checks(monkeypatch):
    # construction checks the trivial atom against mu(B)^2 and the atom total
    # against mu(B): one count taken from the trivial row, or from the last
    # orbit's, fails one of them
    sys_ = finite_system_from_parts(2, [12], [[1], [5]])
    b = frozenset(random.Random(9).sample(range(sys_.size), 5))
    real = spectral._orbit_tables
    try:
        for row, reason in ((0, "trivial atom mass must equal"), (-1, "atom total must equal")):
            def one_count_short(sys_, bset, row=row):
                sub, pairing, rows = real(sys_, bset)
                rows = rows.copy()
                rows[row, 0] -= 1
                return sub, pairing, rows

            monkeypatch.setattr(spectral, "_orbit_tables", one_count_short)
            spectral._spectral_measure_cached.cache_clear()
            with pytest.raises(AssertionError, match=reason):
                spectral_measure(sys_, b)
    finally:
        spectral._spectral_measure_cached.cache_clear()


def _exponent_matrix_tables(sys_, b):
    """The |A| x |A| construction the finite tables replaced: chi_c(h) for
    every pair (c, h), then one np.add.at of the difference counts per c."""
    n, order = sys_.size, sys_.exponent
    every = sys_.vectors(np.arange(n))
    exp_matrix = (every * (order // np.array(sys_.moduli, dtype=np.int64)) @ every.T) % order
    n_b = np.zeros(n, dtype=np.int64)
    for x, y in product(sys_.vectors(sorted(b)).tolist(), repeat=2):
        n_b[sys_.index([tuple(u - v for u, v in zip(x, y))])[0]] += 1
    root_counts = np.zeros((n, order), dtype=np.int64)
    for c in range(n):
        np.add.at(root_counts[c], exp_matrix[c], n_b)
    return exp_matrix, root_counts


def test_root_counts_and_bochner_exponents_match_the_exponent_matrix():
    for sys_, b in random_fleet(23, 30):
        t = spectral_measure(sys_, b)
        exp_matrix, root_counts = _exponent_matrix_tables(sys_, b)
        assert np.array_equal(_character_rows(sys_, t), root_counts)
        sub = t.subgroups
        for h, g in enumerate(sys_.vectors(np.arange(sys_.size))):
            # the phase of each orbit at h, and of each character u * c
            phases = (t.pairing @ g) % sys_.exponent
            assert np.array_equal(phases, exp_matrix[sub.generator, h])
            assert np.array_equal(sub.unit_of * phases[sub.subgroup_of] % sys_.exponent, exp_matrix[:, h])
        # each atom's label and its exponents on Z^r, chi_c at the generator
        # images, read through the orbit tables: chi_(u c) = chi_c^u
        labels = [a.character for a in t.atoms]
        assert labels == list(range(sys_.size))
        at_gens = (t.pairing @ sys_.vectors(list(sys_.gens)).T)[sub.subgroup_of[labels]]
        exps = sub.unit_of[labels, None] * at_gens % sys_.exponent
        assert np.array_equal(exps, exp_matrix[:, list(sys_.gens)])


def test_finite_tables_stay_small_on_a_3600_point_carrier():
    # the |A| x |A| exponent matrix alone took 104 MB here, 198 MiB at peak
    sys_ = finite_system_from_parts(2, [60, 60], [[1, 0], [0, 1]])
    b = frozenset(random.Random(5).sample(range(sys_.size), 1200))
    tracemalloc.start()
    try:
        t = spectral_measure(sys_, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    # one row per cyclic subgroup of (Z/60)^2, over Z/60
    assert t.rows.shape == (350, 60)


def _refused_quickly_and_small(call, reason):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match=reason):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and time.perf_counter() - start < 0.5


#: (Z/271)^2: phi(271) = 270, so the orbit sums admit |B| up to 13595
_Z271 = finite_system_from_parts(2, [271, 271], [[1, 0], [0, 1]])


def test_cell_limit_is_checked_before_the_tables_are_built():
    cyclic = finite_system_from_parts(1, [10**5], [[1]])
    b = pts(cyclic, (0,), (1,))
    _refused_quickly_and_small(
        lambda: spectral_measure(cyclic, b),
        re.escape("cyclic-subgroup index, |A| x exponent = 100000 x 100000 = 10000000000, over the limit of 20000000"),
    )
    # the int64 guard of the orbit sums refuses before any table is built
    over = frozenset(range(13596))
    _refused_quickly_and_small(
        lambda: spectral_measure(_Z271, over),
        re.escape("int64 bound of the orbit sums, |B|^4 x phi(exponent) = more than 10^18, over the limit of 9223372036854775807"),
    )


def test_orbit_coordinates_are_refused_before_the_rows_are_built():
    # (Z/2)^13 has 8192 orbits of one character each: B is read 8192 times,
    # 13 coordinates a point, and 8192 * 187 * 13 <= 2 * 10^7 < 8192 * 188 * 13
    cube = finite_system_from_parts(13, [2] * 13, np.eye(13, dtype=int).tolist())
    assert len(cube.cyclic_subgroups().generator) == 8192  # the index is cached per moduli
    assert spectral_measure(cube, frozenset(range(187))).rows.shape == (8192, 2)
    for size in (188, 4473):
        over = frozenset(range(size))
        _refused_quickly_and_small(
            lambda: spectral_measure(cube, over), re.escape(f"orbit rows, orbits x |B| x s = {8192 * size * 13}, over the limit of 20000000")
        )


def test_orbits_are_counted_from_the_moduli():
    # the count the orbit clause reads, against the subgroup index it replaced
    carriers = [(), (2,), (12, 36), (2,) * 10, (4,) * 6, (3,) * 8, (271, 271), (2, 4, 8), (30, 30), (360,), (6, 12), (4472,), (2, 2, 6, 30)]
    for moduli in carriers:
        assert cyclotomic.cyclic_subgroup_count(moduli) == len(systems._cyclic_subgroups(moduli).generator), moduli
    # (Z/2)^20 with two points used to build its 2^20 subgroups first: 602 MB
    cube = finite_system_from_parts(20, [2] * 20, np.eye(20, dtype=int).tolist())
    _refused_quickly_and_small(
        lambda: spectral.admit_spectral_measure(cube, frozenset({0, 1})), re.escape("orbits x |B| x s = 41943040, over the limit")
    )


def test_orbit_sum_guard_admits_up_to_its_boundary():
    # |B|^4 phi(271) = 13595^4 * 270 < 2^63 <= 13596^4 * 270
    assert 13595**4 * 270 < 1 << 63 <= 13596**4 * 270
    b = frozenset(random.Random(6).sample(range(_Z271.size), 13595))
    t = spectral_measure(_Z271, b)
    # Parseval: the orbit traces add up to |A| |B|
    assert int(t.sums[:, 0].sum()) == _Z271.size * len(b)
    with pytest.raises(LimitError, match="int64 bound of the orbit sums"):
        spectral_measure(_Z271, b | {min(set(range(_Z271.size)) - b)})


def test_finite_measure_scales_to_a_2000_point_cyclic_carrier():
    # one integer row per divisor of 2000; the cyclotomic reduction of every
    # row took over 8 s here
    sys_ = finite_system_from_parts(1, [2000], [[1]])
    b = frozenset(random.Random(7).sample(range(sys_.size), 667))
    start = time.perf_counter()
    sigma = spectral_measure(sys_, b)
    assert verify_bochner(sigma, 4).ok
    assert time.perf_counter() - start < 2
    assert len(sigma.atoms) == 2000


def test_finite_measure_memory_on_a_10000_point_split_carrier():
    # the |B|^2 difference table and the |A| x exponent root counts took
    # 340 MiB at peak here
    sys_ = finite_system_from_parts(2, [100, 100], [[1, 0], [0, 1]])
    b = frozenset(random.Random(8).sample(range(sys_.size), 3333))
    tracemalloc.start()
    try:
        sigma = spectral_measure(sys_, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    assert sigma.total.value == Fraction(3333, 10**4)


def test_expansion_bound_is_one_over_the_normalized_annihilator_mass():
    for sys_, b in random_fleet(41, 15):
        sigma = spectral_measure(sys_, b)
        for lam in product(range(-2, 3), repeat=sys_.rank):
            if any(lam):
                chk = expansion_bound_check(sys_, b, lam)
                assert chk.bound.value == 1 / (annihilator_mass(sigma, lam).value / sigma.trivial.value)


# ---------------------------------------------------------------------------
# expansion bound

def test_expansion_bound_documented_tight_cases():
    chk = expansion_bound_check(z2z2(), pts(z2z2(), (0, 0)), (1, 0))
    assert chk.bound.value == chk.measured.value == Fraction(1, 2)
    chk4 = expansion_bound_check(z4(), pts(z4(), (0,)), (1, 0))
    assert chk4.bound.value == chk4.measured.value == 1
    full = expansion_bound_check(z2z2(), set(range(z2z2().size)), (1, 1))
    assert full.bound.value == full.measured.value == 1


def test_expansion_bound_fleet_property():
    spec_interval = ErgodicSetSpec()
    for sys_, b in random_fleet(17, 20):
        seen = set()
        for lam in product(range(-4, 5), repeat=sys_.rank):
            if all(x == 0 for x in lam):
                continue
            g = sys_.phi(lam)
            if g in seen:
                continue
            seen.add(g)
            for sspec in (None, spec_interval):
                chk = expansion_bound_check(sys_, b, lam, sspec)
                assert chk.ok and chk.measured.value >= chk.bound.value


def test_expansion_bound_nonuniversal_spec_not_asserted():
    # step-2 averaging on (Z/2)^2 genuinely violates the inequality
    sys_ = z2z2()
    chk = expansion_bound_check(sys_, pts(sys_, (0, 0)), (1, 0), ErgodicSetSpec(step=2))
    assert not chk.applicable
    assert not chk.ok  # measured 1/4 < bound 1/2, reported but not raised


def test_one_comparison_decides_finite_systems_and_rational_torus_directions(monkeypatch):
    a = FormalReal.sym("alpha")
    ks = kronecker_system(2, 1, [[a, Fraction(1, 3)]])
    sixth = BoxUnion.of([(Fraction(0), Fraction(1, 6))])
    cases = [(z2z2(), pts(z2z2(), (0, 0)), (1, 0)), (ks, sixth, (0, 1))]
    # both are tight: measured = bound = 1/2
    for sys_, b, lam in cases:
        chk = expansion_bound_check(sys_, b, lam)
        assert chk.ok and not chk.estimate and chk.measured == chk.bound == Weight.of(Fraction(1, 2))
    # a saturation short of the bound fails the same comparison on both
    finite_sat, kron_sat = spectral.orbit_saturation, spectral.kronecker_orbit_saturation
    quarter = Fraction(1, 4)
    monkeypatch.setattr(spectral, "orbit_saturation", lambda *args: (finite_sat(*args)[0], quarter))
    monkeypatch.setattr(
        spectral, "kronecker_orbit_saturation", lambda *args: dataclasses.replace(kron_sat(*args), lower=quarter, upper=quarter)
    )
    for sys_, b, lam in cases:
        with pytest.raises(AssertionError, match=rf"expansion bound violated along \({lam[0]}, {lam[1]}\): measured 1/4 < bound 1/2"):
            expansion_bound_check(sys_, b, lam)
    chk = expansion_bound_check(z2z2(), pts(z2z2(), (0, 0)), (1, 0), ErgodicSetSpec(step=2))
    assert (chk.ok, chk.applicable, chk.measured, chk.bound) == (False, False, Weight.of(quarter), Weight.of(Fraction(1, 2)))


def test_annihilator_mass_refuses_a_coset_formula_the_atoms_contradict(monkeypatch):
    sys_ = z4()
    sigma = spectral_measure(sys_, pts(sys_, (0,), (1,)))
    coset_mass = spectral._cyclic_coset_mass
    monkeypatch.setattr(spectral, "_cyclic_coset_mass", lambda s, b, g: coset_mass(s, b, g) + Fraction(1, s.size**2))
    with pytest.raises(AssertionError, match="coset formula disagrees with atom sum"):
        annihilator_mass(sigma, (1, 0))


# ---------------------------------------------------------------------------
# small intersections

def brute_small_intersection(weights, sets, p):
    n = len(sets)
    total = sum(weights)
    threshold = Fraction(p) * total / n
    qualifying = [
        i for i, s in enumerate(sets) if sum(weights[j] for j in s) < threshold
    ]
    violating = []
    for subset in combinations(range(n), p):
        inter = set(sets[subset[0]])
        for j in subset[1:]:
            inter &= set(sets[j])
        if sum(weights[j] for j in inter) > 0:
            violating.append(subset)
    return qualifying, violating


def test_small_intersection_examples():
    w = [Fraction(1, 4)] * 4
    r = small_intersection_bound(w, [[0], [1], [2], [3]], 2)
    assert r.qualifying_index == 0 and r.threshold == Fraction(1, 2)
    r2 = small_intersection_bound(w, [[0, 1, 2, 3], [0, 1, 2, 3]], 2)
    assert r2.violating_subset == (0, 1) and r2.violating_measure == 1


def test_small_intersection_randomized_against_oracle():
    rng = SplitMix64(404)
    for _ in range(200):
        y = 1 + rng.below(8)
        n = 1 + rng.below(8)
        p = 1 + rng.below(3)
        weights = [Fraction(1 + rng.below(4), 8) for _ in range(y)]
        sets = [[j for j in range(y) if rng.below(3) == 0] for _ in range(n)]
        got = small_intersection_bound(weights, sets, p)
        qualifying, violating = brute_small_intersection(weights, sets, p)
        if got.qualifying_index is not None:
            assert qualifying and got.qualifying_index == qualifying[0]
        else:
            assert not qualifying
            assert violating and got.violating_subset == violating[0]


# ---------------------------------------------------------------------------
# haystack annihilator search

def test_haystack_search_single_irrational_atom():
    a = FormalReal.sym("alpha")
    tau = SpectralMeasure(
        system=kronecker_system(2, 1, [[a, FormalReal.of(0)]]),
        base_set=None,
        # one atom of weight 1 at xi(lam) = e(alpha * lam_1)
        atoms=(Atom(character=(1,), weight=Weight.of(1)),),
        tail=ZERO_WEIGHT,
        total=Weight.of(1),
        trivial=ZERO_WEIGHT,
    )
    hit = haystack_annihilator_search(tau, HAYSTACK, Fraction(1, 2))
    assert hit.lam == (2, 3) and hit.index == 0
    assert hit.mass.upper < Fraction(1, 2)


def test_haystack_search_zero_measure():
    # the irrational part of a finite measure: no atoms, so no annihilated mass
    sys_ = finite_system_from_parts(2, (5,), [(1,), (2,)])
    tau = irrational_part(spectral_measure(sys_, {0, 1}))
    assert tau == SpectralMeasure(sys_, frozenset({0, 1}), (), ZERO_WEIGHT, ZERO_WEIGHT, ZERO_WEIGHT)
    hit = haystack_annihilator_search(tau, HAYSTACK, Fraction(1, 100))
    assert hit.index == 0 and hit.mass == ZERO_WEIGHT


def test_haystack_search_sample_too_short():
    # the scan length reads the rank, 2, of the measure's system
    sys_ = finite_system_from_parts(2, (5,), [(1,), (2,)])
    tau = SpectralMeasure(sys_, frozenset({0}), (), ZERO_WEIGHT, Weight.of(10), ZERO_WEIGHT)
    with pytest.raises(ValueError, match="sample too short: need at least 200 haystack elements"):
        haystack_annihilator_search(tau, HAYSTACK[:2], Fraction(1, 10))


# ---------------------------------------------------------------------------
# directional expansion pipeline

def test_directional_expansion_finite_ok():
    sys_ = finite_system_from_parts(2, (5,), [(1,), (2,)])
    b = pts(sys_, (0,), (1,), (2,))
    res = directional_expansion_theorem_check(sys_, b, Fraction(2, 3), Fraction(9, 10), HAYSTACK)
    assert res.ok and res.lam == (2, 3)
    assert res.measured.value > Fraction(1, 10)
    assert res.measured.value >= res.bound.value


@pytest.mark.parametrize("estimate, error", [(False, AssertionError), (True, RuntimeError)])
def test_directional_expansion_error_class_follows_the_estimate(monkeypatch, estimate, error):
    sys_ = finite_system_from_parts(2, (5,), [(1,), (2,)])
    b = pts(sys_, (0,), (1,), (2,))

    def measured_at(value):
        w = Weight.of(value)
        check = spectral.ExpansionCheck(bound=w, measured=w, ok=True, applicable=True, estimate=estimate)
        monkeypatch.setattr(spectral, "_expansion_bound", lambda sigma, c, sspec: check)

    # eps = 9/10: the direction must expand beyond 1/10
    measured_at(Fraction(1, 10))
    with pytest.raises(error):
        directional_expansion_theorem_check(sys_, b, Fraction(2, 3), Fraction(9, 10), HAYSTACK)
    measured_at(Fraction(1, 10) + Fraction(1, 10**9))
    res = directional_expansion_theorem_check(sys_, b, Fraction(2, 3), Fraction(9, 10), HAYSTACK)
    assert res.ok and res.estimate == estimate


def test_directional_expansion_refusal_and_vacuous():
    sys_ = z4()
    b = pts(sys_, (0,))
    refused = directional_expansion_theorem_check(sys_, b, Fraction(1, 10), Fraction(1, 2), HAYSTACK)
    assert refused.status == "refused"
    assert refused.rational_mass.value == 3
    vac = directional_expansion_theorem_check(sys_, b, Fraction(3), Fraction(7, 2), HAYSTACK)
    assert vac.status == "vacuous"


def test_directional_expansion_kronecker_estimate():
    a, bsym = FormalReal.sym("alpha"), FormalReal.sym("beta")
    ks = kronecker_system(2, 1, [[a, bsym]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    sample = make_haystack(None, (2, 3), 40)
    res = directional_expansion_theorem_check(ks, b, Fraction(0), Fraction(1, 10), sample, trunc=32)
    assert res.ok and res.estimate
    assert res.measured.lower > Fraction(9, 10)


def test_directional_expansion_builds_one_kronecker_measure(monkeypatch):
    a, b, c = (FormalReal.sym(x) for x in ("alpha", "beta", "gamma"))
    built = []

    def counted(sys_, box, trunc=64):
        built.append(trunc)
        return spectral_measure_kronecker(sys_, box, trunc)

    monkeypatch.setattr(spectral, "spectral_measure_kronecker", counted)
    sample = make_haystack(None, (2, 3), 60)
    half = (Fraction(0), Fraction(1, 2))
    # in dim 3 a second measure at the default truncation would be over ATOM_LIMIT
    for theta in ([[a, b], [b, c]], [[a, b], [b, c], [c, a]]):
        ks = kronecker_system(2, len(theta), theta)
        box = BoxUnion.of([half] * len(theta))
        built.clear()
        res = directional_expansion_theorem_check(ks, box, Fraction(0), Fraction(3, 4), sample, trunc=4)
        assert built == [4]
        assert res.ok and res.estimate
        sigma = spectral_measure_kronecker(ks, box, 4)
        t = sigma.trivial.value
        mass = annihilator_mass(sigma, res.lam)
        assert res.bound == Weight(t / mass.upper, 1 / max(mass.lower / t, Fraction(1)), False)


# ---------------------------------------------------------------------------
# shrinking the rational spectrum

def test_shrink_documented_cases():
    res = shrink_rational_spectrum(z2z2(), pts(z2z2(), (0, 0)), Fraction(1, 10))
    assert res.n == 2
    assert res.nu_b == 1 and res.c == Fraction(1, 4)
    assert res.rational_mass == 0
    assert z2z2().vectors(np.flatnonzero(res.presentation.to_component >= 0)).tolist() == [[0, 0]]

    full = shrink_rational_spectrum(z2z2(), set(range(z2z2().size)), Fraction(1, 10))
    assert full.n == 1 and full.c == 1 and full.nu_b == 1

    res4 = shrink_rational_spectrum(z4(), pts(z4(), (0,)), Fraction(1, 10))
    assert res4.n == 4


def test_shrink_conclusions_on_fleet():
    rng = SplitMix64(2718)
    for sys_, b in random_fleet(55, 15):
        eps_o = Fraction(1, 10)
        res = shrink_rational_spectrum(sys_, b, eps_o)
        mu_b = sys_.measure(b)
        # conclusion 1: rational nontrivial mass below eps_o, recomputed
        assert res.comp_b == res.presentation.restrict(b)
        sigma = spectral_measure(res.presentation.system, res.comp_b)
        assert rational_mass_excluding_trivial(sigma).value / sigma.trivial.value == res.rational_mass < eps_o
        # conclusion 2: measure disjunction
        assert res.nu_b >= Fraction(1, 3) or mu_b < 3 * res.nu_b
        # conclusion 3: mu(cap F lam.B) >= c * nu(cap F lam.B) on random F
        for _ in range(25):
            size = 1 + rng.below(3)
            fs = [
                tuple(res.n * rng.randint(-3, 3) for _ in range(sys_.rank))
                for _ in range(size)
            ]
            bt = tuples(sys_, b)
            inter = set(bt)
            for f in fs:
                shift = tuple(sys_.vectors(sys_.phi(f)).tolist())
                inter &= {
                    x
                    for x in bt
                    if (
                        tuple(
                            (xx - ss) % d
                            for xx, ss, d in zip(x, shift, sys_.moduli, strict=True)
                        )
                        if sys_.moduli
                        else ()
                    )
                    in bt
                }
            inter = sys_.index(inter).tolist()
            mu_i = sys_.measure(inter)
            nu_i = res.presentation.system.measure(res.presentation.restrict(inter))
            assert mu_i >= res.c * nu_i


def _shrink_reference(sys_, b, eps_o):
    """shrink_rational_spectrum one materialised component at a time: each
    coset of phi(n * Z^r) as its index array with its nu(B), the masses as
    Fraction sums over them, and the pick by (nu(B), -least point),
    returned with the picked coset."""
    bset = frozenset(b)
    mu_b = sys_.measure(bset)
    tried = []
    for n in spectral._factorial_candidates(sys_.exponent):
        tried.append(n)
        L = scale_lattice(sys_.rank, n)
        q_b = []
        for coset in ergodic_components(sys_, L):
            hits = len(bset.intersection(coset.tolist()))
            if hits:
                q_b.append((coset, Fraction(hits, len(coset))))
        c = min(Fraction(len(coset), sys_.size) for coset, _ in q_b)
        pi_mass = (mu_b - sum(Fraction(len(coset), sys_.size) * nu**2 for coset, nu in q_b)) / (mu_b * mu_b)
        if pi_mass != 0:
            q_b = [(coset, nu) for coset, nu in q_b if 1 / nu - 1 < 3 * pi_mass and nu > mu_b / 3]
        selected, nu_b = max(q_b, key=lambda pair: (pair[1], -min(pair[0])))
        if 1 / nu_b - 1 < eps_o:
            pres = component_presentation(sys_, L, min(selected))
            comp_b = frozenset(pres.to_component[sorted(bset.intersection(selected.tolist()))].tolist())
            return spectral.ShrinkResult(n, pres, comp_b, c, nu_b, 1 / nu_b - 1, pi_mass, tuple(tried)), selected
    raise AssertionError("shrinking must succeed at the carrier exponent")


def test_shrink_matches_the_per_component_reference():
    for seed in (3, 5, 7):
        for sys_, b in random_fleet(seed, 12, order_max=216):
            for eps_o in (Fraction(1, 50), Fraction(1, 10), Fraction(1, 3)):
                got, (ref, selected) = shrink_rational_spectrum(sys_, b, eps_o), _shrink_reference(sys_, b, eps_o)
                assert (got.n, got.comp_b, got.c, got.nu_b, got.rational_mass, got.pi_mass, got.tried) == (
                    ref.n, ref.comp_b, ref.c, ref.nu_b, ref.rational_mass, ref.pi_mass, ref.tried
                )
                assert np.flatnonzero(got.presentation.to_component >= 0).tolist() == sorted(selected.tolist())
                assert got.presentation.system == ref.presentation.system
                assert np.array_equal(got.presentation.to_component, ref.presentation.to_component)


# ---------------------------------------------------------------------------
# intersection theorem search

def test_intersection_documented_cases():
    one_point = finite_system(sublattice([[1, 0], [0, 1]]))
    w = intersection_theorem_search(one_point, pts(one_point, ()), 2, HAYSTACK, probes=[[(1, 1)]])
    assert w.measure == 1

    s22 = z2z2()
    w22 = intersection_theorem_search(s22, pts(s22, (0, 0)), 2, HAYSTACK, probes=[[(1, 0)]])
    assert w22.n == 2 and w22.measure > 0

    s5 = finite_system_from_parts(2, (5,), [(1,), (2,)])
    w5 = intersection_theorem_search(s5, pts(s5, (0,), (1,)), 2, HAYSTACK, probes=[[(3, 1)]])
    assert w5.measure > 0
    # exhaustive oracle: some (n, lam, m1, m2) with positive measure exists
    # at tiny bounds, and the returned witness is among the valid ones
    assert _oracle_validates_witness(s5, pts(s5, (0,), (1,)), w5)


def _oracle_validates_witness(sys_, b, w):
    bset = tuples(sys_, b)
    inter = set(bset)
    shifts = [tuple(w.m1 * w.n * x for x in w.lam)]
    for pw in w.probes:
        for m_k, lam_k in zip(pw.ms, pw.probe, strict=True):
            shifts.append(
                tuple(m_k * w.n * lx + w.n * lk for lx, lk in zip(w.lam, lam_k))
            )
    for lam_total in shifts:
        shift = tuple(sys_.vectors(sys_.phi(lam_total)).tolist())
        inter &= {
            x
            for x in bset
            if (
                tuple(
                    (xx - ss) % d
                    for xx, ss, d in zip(x, shift, sys_.moduli, strict=True)
                )
                if sys_.moduli
                else ()
            )
            in bset
        }
    return Fraction(len(inter), sys_.size) == w.measure and w.measure > 0


def sample_for_rank(rank):
    # rank 1 has no infinite haystack (the only primitive vectors are +-1),
    # so the scan list degenerates to the single direction (1,)
    if rank == 1:
        return [(1,)]
    return make_haystack(None, (2, 3, 5)[:rank], 8)


def test_intersection_fleet():
    rng = SplitMix64(909)
    fleet = random_fleet(123, 8, order_max=16)
    for sys_, b in fleet:
        sample = sample_for_rank(sys_.rank)
        for p in (2, 3):
            probes = [
                [
                    tuple(rng.randint(-2, 2) for _ in range(sys_.rank))
                    for _ in range(p - 1)
                ]
                for _ in range(3)
            ]
            w = intersection_theorem_search(sys_, b, p, sample, probes=probes)
            assert w.measure > 0
            assert _oracle_validates_witness(sys_, b, w)


# ---------------------------------------------------------------------------
# Kronecker spectral measures

def test_kronecker_interval_weights():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(1, 1, [[a]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    sigma = spectral_measure_kronecker(ks, b, trunc=8)
    by_freq = {at.character: at for at in sigma.atoms}
    assert by_freq[(0,)].weight.value == Fraction(1, 4)
    for k in (2, 4, 6, 8):
        assert by_freq[(k,)].weight.exact and by_freq[(k,)].weight.value == 0
    for k in (1, 3, 5, 7):
        w = by_freq[(k,)].weight
        # 1 / (pi k)^2 enclosure
        ref = Fraction(1, k * k) * Fraction(10**10, 98696044011)
        assert w.lower < ref < w.upper or abs(float(w.lower) - 1 / (3.14159265358979 * k) ** 2) < 1e-12


def test_kronecker_tail_monotone_and_parseval():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(1, 1, [[a]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    prev_tail = None
    for trunc in (4, 8, 16, 32):
        sigma = spectral_measure_kronecker(ks, b, trunc)
        assert sigma.tail.lower >= 0
        if prev_tail is not None:
            assert sigma.tail.upper <= prev_tail
        prev_tail = sigma.tail.upper
    assert prev_tail < Fraction(1, 50)


def test_kronecker_union_boxes_parseval_sanity():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(1, 1, [[a]])
    b = BoxUnion.of(
        [(Fraction(0), Fraction(1, 4))], [(Fraction(1, 2), Fraction(3, 4))]
    )
    sigma = spectral_measure_kronecker(ks, b, trunc=16)
    assert sigma.trivial.value == b.volume() ** 2
    lo = sum((at.weight.lower for at in sigma.atoms), start=Fraction(0))
    assert lo <= b.volume()
    assert sigma.tail.lower >= 0


def test_kronecker_rational_mass_certificate():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(1, 1, [[a]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    sigma = spectral_measure_kronecker(ks, b, 16)
    # ergodicity certifies there is no rational atom anywhere, tail included
    assert rational_mass_excluding_trivial(sigma).value / sigma.trivial.value == 0
    tau = irrational_part(sigma)
    assert tau.atoms and tau.total.upper / sigma.trivial.value > 0
    # mixed rational/irrational frequencies stay ergodic and stay certified
    mixed = kronecker_system(2, 1, [[a, Fraction(1, 3)]])
    sig2 = spectral_measure_kronecker(mixed, b, 8)
    assert rational_mass_excluding_trivial(sig2).value / sig2.trivial.value == 0


def test_atom_limit_is_checked_before_any_atom_is_built(monkeypatch):
    a, bsym = FormalReal.sym("alpha"), FormalReal.sym("beta")
    ks = kronecker_system(2, 2, [[a, FormalReal.of(0)], [FormalReal.of(0), bsym]])
    box = BoxUnion.of([(Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 3))])
    monkeypatch.setattr(spectral, "ATOM_LIMIT", 25)
    assert len(spectral_measure_kronecker(ks, box, 2).atoms) == 25

    def no_atoms(*args):
        raise AssertionError("an atom was built")

    monkeypatch.setattr(spectral, "_kron_weight", no_atoms)
    with pytest.raises(LimitError, match=re.escape("atoms (2*trunc+1)^2 = 49, over the limit of 25")):
        spectral_measure_kronecker(ks, box, 3)


def test_kronecker_spectral_measure_rejects_non_ergodic():
    bad = kronecker_system(1, 1, [[Fraction(1, 3)]], require_ergodic=False)
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    with pytest.raises(ValueError, match="not ergodic"):
        spectral_measure_kronecker(bad, b, 4)


def test_kronecker_full_torus_single_atom():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(1, 1, [[a]])
    b = BoxUnion.of([(Fraction(0), Fraction(1))])
    sigma = spectral_measure_kronecker(ks, b, trunc=4)
    for at in sigma.atoms:
        expected = Fraction(1) if at.character == (0,) else Fraction(0)
        assert at.weight.exact and at.weight.value == expected
    assert sigma.tail.lower == sigma.tail.upper == 0


def test_kronecker_rational_direction_expansion_exact_and_tight():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(2, 1, [[a, Fraction(1, 3)]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 6))])
    chk = expansion_bound_check(ks, b, (0, 1))
    # exact verdict: the sixth saturates to half the circle and the
    # period-average mass makes the bound exactly 1/2 as well
    assert not chk.estimate
    assert chk.measured.value == chk.bound.value == Fraction(1, 2)
    assert chk.ok


def test_kronecker_two_dimensional_torus():
    a, bsym = FormalReal.sym("alpha"), FormalReal.sym("beta")
    ks = kronecker_system(2, 2, [[a, FormalReal.of(0)], [FormalReal.of(0), bsym]])
    box = BoxUnion.of([(Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 3))])
    sig = spectral_measure_kronecker(ks, box, trunc=6)
    mu = box.volume()
    lo = sum((at.weight.lower for at in sig.atoms), start=Fraction(0))
    assert lo <= mu and sig.tail.lower >= 0
    trivial = [at for at in sig.atoms if at.character == (0, 0)][0]
    assert trivial.weight.value == mu * mu
    # closed form at k = (1, 0): sin^2(pi/2)/pi^2 times the second length squared
    w10 = [at for at in sig.atoms if at.character == (1, 0)][0].weight
    assert abs(float(w10.lower) - (1 / 3.141592653589793**2) / 9) < 1e-12
    # union of 2-d boxes drives the complex-interval sum path
    union = BoxUnion.of(
        [(Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(1, 2))],
        [(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), Fraction(1))],
    )
    sig2 = spectral_measure_kronecker(ks, union, trunc=5)
    lo2 = sum((at.weight.lower for at in sig2.atoms), start=Fraction(0))
    assert lo2 <= union.volume() and sig2.tail.lower >= 0


def test_kronecker_two_dimensional_rational_direction():
    a, bsym = FormalReal.sym("alpha"), FormalReal.sym("beta")
    # both rows carry an independent symbol, so the system is ergodic even
    # though the second basis direction pairs rationally
    ks = kronecker_system(2, 2, [[a, Fraction(1, 2)], [bsym, Fraction(1, 3)]])
    box = BoxUnion.of([(Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 3))])
    from latspec.systems import kronecker_orbit_saturation

    sat = kronecker_orbit_saturation(ks, box, (0, 1))
    assert sat.exact
    # shifts (m/2, m/3) tile the torus into a full lattice of translates
    assert sat.lower == 1
    chk = expansion_bound_check(ks, box, (0, 1))
    assert not chk.estimate and chk.ok
    assert chk.measured.value >= chk.bound.value


def test_rational_annihilator_is_the_period_average_of_box_overlaps():
    a, c = FormalReal.sym("alpha"), FormalReal.sym("beta")
    ks = kronecker_system(2, 2, [[Fraction(1, 3), a], [Fraction(2, 5), c]])
    b = BoxUnion.of(
        [(Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))],
        [(Fraction(1, 2), Fraction(5, 6)), (Fraction(0), Fraction(1, 10))],
    )
    for lam in ((1, 0), (2, 0), (-4, 0), (15, 0)):
        w = ks.rational_shift(lam)
        period = lcm(*(x.denominator for x in w))
        average = sum(box_overlap_volume(b, [m * x for x in w]) for m in range(period)) / period
        assert spectral._kron_rational_annihilator_exact(ks, b, lam) == average


def test_kronecker_annihilator_nesting():
    a = FormalReal.sym("alpha")
    ks = kronecker_system(2, 1, [[a, FormalReal.of(0)]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    prev = None
    for trunc in (16, 32, 64):
        sigma = spectral_measure_kronecker(ks, b, trunc)
        m = annihilator_mass(sigma, (0, 1))
        assert m.lower <= Fraction(1, 2) <= m.upper
        if prev is not None:
            assert m.lower >= prev.lower and m.upper <= prev.upper
        prev = m
    assert prev.upper - prev.lower < Fraction(1, 100)


def test_a_zero_tail_makes_the_annihilator_mass_exact():
    # B covers the torus: every nonzero atom is an exact 0 and the Parseval
    # tail is 0, so the mass along any direction is exactly mu(B)^2 = 1
    ks = kronecker_system(2, 1, [[FormalReal.sym("alpha"), Fraction(1, 3)]])
    sigma = spectral_measure_kronecker(ks, BoxUnion.of([(Fraction(0), Fraction(1))]), 4)
    assert sigma.tail.upper == 0
    for lam in ((1, 0), (0, 1), (2, -1), (0, 3)):
        assert annihilator_mass(sigma, lam) == Weight.of(1)


# ---------------------------------------------------------------------------
# raw scale against the rescaled measure


def _rescaled(sigma):
    """The measure divided by its trivial-atom mass, atom by atom, as the
    library once built it; returns the copy and the scalar it divided by."""
    if not sigma.trivial.exact or sigma.trivial.value == 0:
        raise ValueError("non-ergodic or null set")
    t = sigma.trivial.value
    inv = Fraction(1) / t
    atoms = tuple(Atom(character=a.character, weight=a.weight.scale(inv)) for a in sigma.atoms)
    tilde = SpectralMeasure(
        system=sigma.system,
        base_set=sigma.base_set,
        atoms=atoms,
        tail=sigma.tail.scale(inv),
        total=sigma.total.scale(inv),
        trivial=Weight.of(1),
    )
    return tilde, t


def _rescaled_pipeline(tilde, eps_o, eps, sample):
    """(rational_mass, delta, lam) of the expansion pipeline run on the
    rescaled measure, with delta and lam None unless it reaches the scan."""
    ratmass = rational_mass_excluding_trivial(tilde)
    if ratmass.upper > eps_o or eps >= 1:
        return ratmass, None, None
    delta = (1 - (1 + eps_o) * (1 - eps)) / (1 - eps) / 2
    hit = haystack_annihilator_search(irrational_part(tilde), sample, delta)
    return ratmass, delta, hit.lam


def _sample(rank, count=8):
    if rank == 1:
        return [(k,) for k in range(1, count + 1)]
    return make_haystack(None, (2, 3, 5)[:rank], count)


def _check_pipeline(sys_, b, tilde, eps_o, eps, sample, **kw):
    res = directional_expansion_theorem_check(sys_, b, eps_o, eps, sample, **kw)
    assert (res.rational_mass, res.delta, res.lam) == _rescaled_pipeline(tilde, eps_o, eps, sample)


def test_raw_scale_matches_the_rescaled_measure(monkeypatch):
    for sys_, b in random_fleet(97, 12):
        tilde, _ = _rescaled(spectral_measure(sys_, b))
        cfg = {
            "system": {
                "kind": "finite",
                "rank": sys_.rank,
                "moduli": list(sys_.moduli),
                "gens": sys_.vectors(list(sys_.gens)).tolist(),
            },
            "set_b": {"kind": "elements", "points": sys_.vectors(sorted(b)).tolist()},
            "lambda_bound": 1,
        }
        results = _RUNNERS["spectral-report"](read_config("spectral-report", cfg), None)[0]
        assert results["normalized_total"] == ser_weight(tilde.total)
        assert results["rational_nontrivial_mass"] == ser_weight(rational_mass_excluding_trivial(tilde))
        r = rational_mass_excluding_trivial(tilde).value
        # (r, (r + 1) / 2) reaches the scan when r < 1, (r / 2, r + 1) is
        # refused when r > 0, and (r, r + 1) is vacuous
        for eps_o, eps in ((r, (r + 1) / 2), (r / 2, r + 1), (r, r + 1))[r >= 1:]:
            _check_pipeline(sys_, b, tilde, eps_o, eps, _sample(sys_.rank))
    alpha, beta = {"symbols": {"alpha": "1"}}, {"symbols": {"beta": "1"}}
    cases = [
        # dim 1: irrational, mixed rational, and the mixed system along its
        # rational direction; dim 2: an irrational direction that annihilates
        # the characters (0, k), so the bound's upper end drops below 1
        ([[alpha, beta]], ["1/2"], (1, 1), 16),
        ([[alpha, "1/3"]], ["1/3"], (1, 0), 16),
        ([[alpha, "1/3"]], ["1/6"], (0, 1), 16),
        ([[alpha, "0"], ["0", beta]], ["1/2", "1/3"], (1, 0), 10),
    ]
    kronecker = spectral.spectral_measure_kronecker
    estimates = []
    for theta, his, lam, trunc in cases:
        cfg = {
            "system": {"kind": "kronecker", "rank": 2, "dim": len(theta), "theta": theta},
            "set_b": {"kind": "boxes", "boxes": [[["0", hi] for hi in his]]},
            "trunc": trunc,
        }
        c = read_config("spectral-report", cfg)
        ks, box = c["system"], c["set_b"]
        tilde, t = _rescaled(kronecker(ks, box, trunc))
        results = _RUNNERS["spectral-report"](c, None)[0]
        assert results["rational_nontrivial_mass"] == ser_weight(rational_mass_excluding_trivial(tilde))
        # the expansion bound, both ends, and the pipeline at the truncation of the case
        monkeypatch.setattr(spectral, "spectral_measure_kronecker", lambda s, b, k=trunc: kronecker(s, b, k))
        mass = annihilator_mass(tilde, lam)
        chk = expansion_bound_check(ks, box, lam)
        estimates.append(chk.estimate)
        if chk.estimate:
            assert chk.bound == Weight(1 / mass.upper, 1 / max(mass.lower, Fraction(1)), False)
        else:
            exact_mass = spectral._kron_rational_annihilator_exact(ks, box, lam) / t
            assert mass.lower <= exact_mass <= mass.upper
            assert chk.bound == Weight.of(1 / exact_mass)
        sample = [(0, 1)] + _sample(2, 20)
        _check_pipeline(ks, box, tilde, Fraction(0), Fraction(1, 2), sample, trunc=trunc)
        monkeypatch.undo()
    assert estimates == [True, True, False, True]
