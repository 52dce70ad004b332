"""Deterministic random fleets of small ergodic systems for the test suites,
and the coordinate view of their sets of flat indices."""

from latspec.lattice import det_exact, sublattice
from latspec.prng import SplitMix64
from latspec.systems import finite_system


def random_fleet(seed, count, rank_choices=(1, 2, 3), order_max=64, entry=4):
    """``count`` pairs (system, nonempty set B of flat indices), reproducible
    from the seed."""
    rng = SplitMix64(seed)
    fleet = []
    while len(fleet) < count:
        r = rank_choices[rng.below(len(rank_choices))]
        m = [[rng.randint(-entry, entry) for _ in range(r)] for _ in range(r)]
        d = det_exact(m)
        if d == 0 or abs(d) > order_max:
            continue
        sys_ = finite_system(sublattice(m))
        b = frozenset(e for e in range(sys_.size) if rng.below(2) == 0)
        if not b:
            b = frozenset({rng.below(sys_.size)})
        fleet.append((sys_, b))
    return fleet


def pts(sys_, *xs):
    """The set of flat indices of the coordinate rows xs."""
    return frozenset(sys_.index(xs).tolist())


def tuples(sys_, s):
    """The set s of flat indices as coordinate tuples."""
    return frozenset(map(tuple, sys_.vectors(sorted(s)).tolist()))
