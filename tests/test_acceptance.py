"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single line
    ACCEPTANCE <k> PASS (<elapsed>s): <summary>
on success; a failure raises with the offending instance.  All equality
checks on finite systems are exact rational comparisons (zero tolerance).
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from _fleet import pts, random_fleet, tuples
from latspec.cli import main as cli_main
from latspec.formal import FormalReal
from latspec.haystack import make_haystack, verify_haystack_sample
from latspec.lattice import scale_lattice, simplex_det, sublattice
from latspec.prng import SplitMix64
from latspec.spectral import (
    annihilator_mass,
    expansion_bound_check,
    intersection_theorem_search,
    rational_mass_excluding_trivial,
    shrink_rational_spectrum,
    small_intersection_bound,
    spectral_measure,
    spectral_measure_kronecker,
    verify_bochner,
)
from latspec.systems import (
    BoxUnion,
    ErgodicSetSpec,
    finite_system,
    kronecker_system,
    max_directional_expansion,
)
from latspec.volume import ap_certificate, build_point_set

FLEET_SEED = 20250808


@pytest.fixture(scope="module")
def fleet():
    return random_fleet(FLEET_SEED, 200)


def _report(k, elapsed, summary, budget=None):
    line = f"ACCEPTANCE {k:02d} PASS ({elapsed:.2f}s): {summary}"
    print(line, flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget"


def _distinct_images(sys_, bound):
    seen = {}
    for lam in product(range(-bound, bound + 1), repeat=sys_.rank):
        if all(x == 0 for x in lam):
            continue
        g = sys_.phi(lam)
        if g not in seen:
            seen[g] = lam
    return seen


def test_criterion_01_example_not_directionally_expandable():
    start = time.monotonic()
    sys_ = finite_system(scale_lattice(2, 2))
    b = frozenset({sys_.phi((0, 0))})
    candidates = [
        lam for lam in product(range(-6, 7), repeat=2) if lam != (0, 0)
    ]
    best, _ = max_directional_expansion(sys_, b, candidates)
    assert best == Fraction(1, 2)
    elapsed = time.monotonic() - start
    _report(1, elapsed, "max mu(Z lam.B) over [-6,6]^2 is exactly 1/2", budget=1.0)


def test_criterion_02_spectral_identities(fleet):
    start = time.monotonic()
    checked = 0
    for sys_, b in fleet:
        sigma = spectral_measure(sys_, b)
        mu_b = sys_.measure(b)
        assert sigma.trivial.value == mu_b * mu_b
        assert sigma.total.value == mu_b
        # both sides of the coset identity depend on lam only through
        # phi(lam), so checking one representative per image is lossless
        for g, lam in _distinct_images(sys_, 4).items():
            w = annihilator_mass(sigma, lam)  # asserts formula == atom sum
            assert w.exact
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        elapsed,
        f"sigma({{1}}) = mu(B)^2, sigma(total) = mu(B), coset formula on "
        f"{len(fleet)} systems / {checked} annihilators, exact",
        budget=60.0,
    )


def test_criterion_03_bochner(fleet):
    start = time.monotonic()
    total = 0
    for sys_, b in fleet:
        rep = verify_bochner(spectral_measure(sys_, b), 4)
        assert rep.ok, (sys_, sorted(b), rep.violations)
        total += rep.checked
    elapsed = time.monotonic() - start
    _report(3, elapsed, f"Bochner identity exact at {total} lambda checks", budget=60.0)


def test_criterion_04_expansion_bound(fleet):
    start = time.monotonic()
    interval = ErgodicSetSpec()
    checked = 0
    for sys_, b in fleet:
        for g, lam in _distinct_images(sys_, 4).items():
            for sspec in (None, interval):
                chk = expansion_bound_check(sys_, b, lam, sspec)
                assert chk.ok and chk.measured.value >= chk.bound.value
                checked += 1
    # documented tight cases
    s22 = finite_system(scale_lattice(2, 2))
    tight1 = expansion_bound_check(s22, pts(s22, (0, 0)), (1, 0))
    assert tight1.bound.value == tight1.measured.value == Fraction(1, 2)
    z4 = finite_system(sublattice([[4, 0], [0, 1]]))
    tight2 = expansion_bound_check(z4, {z4.phi((0, 0))}, (1, 0))
    assert tight2.bound.value == tight2.measured.value == 1
    elapsed = time.monotonic() - start
    _report(
        4,
        elapsed,
        f"mu(S lam.B) >= 1/normalized annihilator mass at {checked} checks, "
        "tight on the documented cases",
    )


def test_criterion_05_haystacks():
    start = time.monotonic()
    count = 0
    for r in (2, 3):
        for ms in combinations(range(2, 8), r):
            g = 0
            for m in ms:
                g = gcd(g, m)
            if g != 1:
                continue
            sample = make_haystack(None, ms, 8)
            verdict = verify_haystack_sample(sample, r)
            assert verdict.ok, (ms, verdict)
            count += 1
    elapsed = time.monotonic() - start
    _report(5, elapsed, f"{count} multiplier families, all C(8,r) determinants nonzero", budget=30.0)


def test_criterion_06_small_intersection_oracle():
    start = time.monotonic()
    rng = SplitMix64(606)
    for case in range(1000):
        y = 1 + rng.below(8)
        n = 1 + rng.below(8)
        p = 1 + rng.below(3)
        weights = [Fraction(rng.below(5), 7) for _ in range(y)]
        if sum(weights) == 0:
            weights[rng.below(y)] = Fraction(1, 7)
        sets = [[j for j in range(y) if rng.below(3) == 0] for _ in range(n)]
        got = small_intersection_bound(weights, sets, p)
        total = sum(weights)
        threshold = Fraction(p) * total / n
        qualifying = [
            i for i, s in enumerate(sets) if sum((weights[j] for j in s), Fraction(0)) < threshold
        ]
        if got.qualifying_index is not None:
            assert qualifying and got.qualifying_index == qualifying[0]
        else:
            assert not qualifying
            subset = got.violating_subset
            inter = set(sets[subset[0]])
            for j in subset[1:]:
                inter &= set(sets[j])
            assert sum((weights[j] for j in inter), Fraction(0)) > 0
    elapsed = time.monotonic() - start
    _report(6, elapsed, "1000 randomized instances agree with the brute-force oracle")


def test_criterion_07_ap_certificates():
    start = time.monotonic()
    full = build_point_set({"kind": "full"}, 2, 10)
    cert1 = ap_certificate(full, 20)
    assert cert1.ok and cert1.n == 1
    even = build_point_set({"kind": "congruence", "modulus": 2, "offset": [0, 0]}, 2, 20)
    cert2 = ap_certificate(even, 20)
    assert cert2.ok and cert2.n == 4
    for m, rec in cert2.witnesses.items():
        assert simplex_det(rec.vertices) == rec.det and abs(rec.det) == 4 * m
        assert all(v in even.points for v in rec.vertices)
    elapsed = time.monotonic() - start
    _report(7, elapsed, "n = 1 on Z^2 window 10, n = 4 on 2Z^2 window 20, witnesses verified", budget=120.0)


def test_criterion_08_shrink_rational_spectrum(fleet):
    start = time.monotonic()
    rng = SplitMix64(808)
    eps_o = Fraction(1, 10)
    for sys_, b in fleet:
        res = shrink_rational_spectrum(sys_, b, eps_o)
        mu_b = sys_.measure(b)
        # conclusion 1 recomputed through the standalone presentation
        comp_b = res.presentation.restrict(b)
        sigma = spectral_measure(res.presentation.system, comp_b)
        assert rational_mass_excluding_trivial(sigma).value / sigma.trivial.value == res.rational_mass
        assert res.rational_mass < eps_o
        # conclusion 2
        assert res.nu_b >= Fraction(1, 3) or mu_b < 3 * res.nu_b
        # conclusion 3 on 100 random finite subsets of n * Z^r
        for _ in range(100):
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
                            for xx, ss, d in zip(x, shift, sys_.moduli)
                        )
                        if sys_.moduli
                        else ()
                    )
                    in bt
                }
            inter = sys_.index(inter).tolist()
            comp = res.presentation
            assert sys_.measure(inter) >= res.c * comp.system.measure(comp.restrict(inter))
    elapsed = time.monotonic() - start
    _report(8, elapsed, f"(n, nu, c) conclusions exact on {len(fleet)} instances x 100 subsets", budget=120.0)


def test_criterion_09_intersection_theorem():
    start = time.monotonic()
    rng = SplitMix64(909)
    fleet16 = random_fleet(42424242, 20, order_max=16)
    witnesses = 0
    for sys_, b in fleet16:
        if sys_.rank == 1:
            sample = [(1,)]
        else:
            sample = make_haystack(None, (2, 3, 5)[: sys_.rank], 8)
        for p in (2, 3):
            probes = [
                [tuple(rng.randint(-2, 2) for _ in range(sys_.rank)) for _ in range(p - 1)]
                for _ in range(5)
            ]
            w = intersection_theorem_search(sys_, b, p, sample, probes=probes)
            assert w.measure > 0
            witnesses += 1
    elapsed = time.monotonic() - start
    _report(9, elapsed, f"{witnesses} witnesses with exact positive measure, zero hard failures", budget=120.0)


def test_criterion_10_kronecker_honesty():
    start = time.monotonic()
    alpha = FormalReal.sym("alpha")
    sys_ = kronecker_system(2, 1, [[alpha, FormalReal.of(0)]])
    b = BoxUnion.of([(Fraction(0), Fraction(1, 2))])
    lam = (0, 1)  # annihilated by every character: the mass is exactly mu(B)
    exact_value = Fraction(1, 2)
    prev = None
    widths = {}
    for trunc in (16, 32, 64):
        sigma = spectral_measure_kronecker(sys_, b, trunc)
        m = annihilator_mass(sigma, lam)
        assert m.lower <= exact_value <= m.upper
        if prev is not None:
            assert m.lower >= prev.lower and m.upper <= prev.upper
        prev = m
        widths[trunc] = m.upper - m.lower
        # the enumerated part is 1/4 plus the odd-frequency weights
        approx = 0.25 + sum(
            1 / (3.141592653589793 * k) ** 2
            for k in range(-trunc, trunc + 1)
            if k % 2
        )
        assert abs(float(m.lower) - approx) < 1e-9
    assert widths[64] < Fraction(1, 100)
    elapsed = time.monotonic() - start
    _report(
        10,
        elapsed,
        f"intervals nested, contain 1/2, width at K=64 is {float(widths[64]):.5f} < 1e-2",
    )


def test_criterion_11_cli_determinism(tmp_path):
    start = time.monotonic()
    configs = {
        "expand-scan": {
            "experiment": "expand-scan",
            "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "coord_bound": 4,
        },
        "volume-spectrum": {
            "experiment": "volume-spectrum",
            "rank": 2,
            "window": 6,
            "set": {"kind": "congruence", "modulus": 2, "offset": [0, 0]},
            "ap_max": 4,
        },
        "pattern-search": {
            "experiment": "pattern-search",
            "rank": 2,
            "window": 6,
            "set": {"kind": "full"},
            "p": 2,
            "probes": [[[0, 1]]],
            "bounds": {"n_max": 2, "m_max": 2},
        },
        "spectral-report": {
            "experiment": "spectral-report",
            "system": {"kind": "finite", "matrix": [[4, 0], [0, 1]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "lambda_bound": 2,
        },
        "decompose": {
            "experiment": "decompose",
            "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "sublattice": [[2, 0], [0, 2]],
        },
        "intersect": {
            "experiment": "intersect",
            "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "p": 2,
            "probes": [[[1, 0]]],
        },
        "haystack-verify": {
            "experiment": "haystack-verify",
            "rank": 2,
            "multipliers": [2, 3],
            "count": 6,
        },
        "density": {
            "experiment": "density",
            "rank": 2,
            "set": {"kind": "random", "density": "1/3"},
            "windows": [4, 6],
            "seed": 7,
        },
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        bodies = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}.json"
            code = cli_main([name, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, name
            report = json.loads(out.read_text())
            report.pop("generated_at")
            report.pop("elapsed_seconds")
            bodies.append(json.dumps(report, sort_keys=True))
        assert bodies[0] == bodies[1], name
    elapsed = time.monotonic() - start
    _report(11, elapsed, "all eight subcommands produce identical report bodies")
