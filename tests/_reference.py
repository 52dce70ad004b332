"""Reference routes the test suites use as tools and oracles: exact
definitions no run of the package needs, checked against the package's own
routes."""

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from latspec.lattice import SubLattice, as_coords, solve_lower
from latspec.systems import BoxUnion, FiniteSystem, KroneckerSystem, _symbol_kernel, box_grid
from latspec.volume import PointSet


def contains(L: SubLattice, v) -> bool:
    """Membership of v in the column span of L over Z (exact triangular solve)."""
    c = as_coords(v)
    if len(c) != L.rank:
        raise ValueError("rank mismatch")
    return solve_lower(L.basis_matrix, c) is not None



def point_set(points: Sequence, rank: int, window: int) -> PointSet:
    pts = frozenset(as_coords(p) for p in points)
    for p in pts:
        if len(p) != rank:
            raise ValueError("point rank mismatch")
        if any(abs(x) > window for x in p):
            raise ValueError(f"point {p} outside window [-{window}, {window}]^{rank}")
    return PointSet(rank=rank, window=window, points=pts)



def is_ergodic_direction(sys_, lam) -> bool:
    """Does the cyclic subgroup of lam act ergodically?"""
    c = as_coords(lam)
    if all(x == 0 for x in c):
        raise ValueError("direction must be nonzero")
    if isinstance(sys_, KroneckerSystem):
        return not _symbol_kernel(sys_.shift(c)[1], sys_.dim)
    return sys_.order_of(sys_.phi(c)) == sys_.size


def box_overlap_volume(b: BoxUnion, shift: Sequence[Fraction]) -> Fraction:
    """Exact Lebesgue volume of b intersected with its translate by shift mod 1."""
    grid, cells, g = box_grid(b, [Fraction(x) for x in shift])
    return Fraction(int(grid.overlap(cells, g).sum()), grid.size)


def birkhoff_annihilator_average(
    sys_: FiniteSystem, b: Iterable[int], lam, n: int
) -> Fraction:
    """(1/n) * sum_{k<n} mu(B intersect (k*lam).B), exact.

    With n = q * order + r, the q full periods of k are the coset formula:
    over one period the terms add up to the sum over the cosets C of <g> of
    |C ∩ B|^2.  The r < order terms left are the sum over x in B of the
    ``np.add`` window of 1_B at x, x + g, ..., x + (r - 1) * g, a window
    shorter than the order, which ``window`` never caps.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    g = sys_.phi(lam)
    q, r = divmod(n, sys_.order_of(g))
    in_b = sys_.mask(b)
    per_coset = np.bincount(sys_.coset_labels([g])[in_b], minlength=sys_.size)
    total = q * int(per_coset @ per_coset)
    if r:
        total += int(sys_.window(in_b.astype(np.int64), g, r, np.add)[in_b].sum())
    return Fraction(total, n * sys_.size)
