"""SHA-256 pins of finite library outputs on random fleets.

Each digest is taken with the ``_canon`` of the Kronecker pins: every set
(a frozenset or an index array) is written as its sorted list, every array
as its list and every result record as the fields its ``PINS`` entry names,
so a change of how saturations, components or characters are held cannot
move a figure, a witness or a refusal.
"""

from fractions import Fraction
from itertools import product

import pytest

from _fleet import random_fleet
from latspec.haystack import make_haystack
from latspec.prng import SplitMix64
from latspec.spectral import (
    annihilator_mass,
    intersection_theorem_search,
    shrink_rational_spectrum,
    spectral_measure,
)
from latspec.systems import ErgodicSetSpec, orbit_saturation
from test_kronecker_golden import _canon, _sha256


def _outcome(run):
    try:
        return run()
    except (AssertionError, RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _directions(rank):
    return [lam for lam in product(range(-2, 3), repeat=rank) if any(lam)][:12]


SPECS = [
    (None, None),
    (ErgodicSetSpec(), None),
    (ErgodicSetSpec(), 3),
    (ErgodicSetSpec(offset=1, step=2), None),
    (ErgodicSetSpec(offset=1, step=2), 2),
    (ErgodicSetSpec(offset=-2, step=3), None),
]


def _shrinks():
    return [
        [_outcome(lambda: shrink_rational_spectrum(sys_, b, eps_o)) for eps_o in (Fraction(1, 50), Fraction(1, 10), Fraction(1, 3))]
        for seed, order_max in ((3, 64), (5, 64), (7, 216), (11, 216))
        for sys_, b in random_fleet(seed, 15, order_max=order_max)
    ]


def _saturations():
    return [
        [orbit_saturation(sys_, b, lam, spec, terms) for lam in _directions(sys_.rank) for spec, terms in SPECS]
        for sys_, b in random_fleet(7, 20)
    ]


def _intersections():
    rng = SplitMix64(11)
    out = []
    for sys_, b in random_fleet(11, 16, order_max=36):
        sample = [(1,)] if sys_.rank == 1 else make_haystack(None, (2, 3, 5)[: sys_.rank], 8)
        for p in (2, 3):
            probes = [[tuple(rng.randint(-2, 2) for _ in range(sys_.rank)) for _ in range(p - 1)] for _ in range(2)]
            for sspec in (None, ErgodicSetSpec(offset=1, step=1)):
                out.append(_outcome(lambda: intersection_theorem_search(sys_, b, p, sample, sspec, probes)))
    return out


def _annihilator_masses():
    out = []
    for sys_, b in random_fleet(5, 20, order_max=120):
        sigma = spectral_measure(sys_, b)
        out.append([annihilator_mass(sigma, lam) for lam in product(range(-2, 3), repeat=sys_.rank)])
    return out


GOLDEN_FINITE_LIBRARY = {
    "shrinks": (_shrinks, "8ec911801973fac4e4e4572302e8b2abbc3c963a552f80cd46d7b778a307281e"),
    "orbit-saturations": (_saturations, "27538cac33f418a672b46d95f97ccd81150e07834381ff84d8abdbd961bc152b"),
    "intersections": (_intersections, "4d536b938240413a3e7b3fe2d0f36d2e6967e2f5c7ace6101cafa1368bef878b"),
    "annihilator-masses": (_annihilator_masses, "8192f045de2e94579eab3d6d9129810272228f424c014d2d71c0162e3796e165"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FINITE_LIBRARY))
def test_finite_library_outputs_match_their_golden_digests(name):
    compute, digest = GOLDEN_FINITE_LIBRARY[name]
    assert _sha256(_canon(compute())) == digest
