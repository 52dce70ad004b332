"""Reference routes the test suites use as tools and oracles: exact
definitions no run of the package needs, checked against the package's own
routes."""

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from latspec.haystack import HaystackVerdict
from latspec.lattice import SubLattice, as_coords, is_primitive, solve_lower
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


def bareiss_det(M) -> int:
    """det(M) by Bareiss elimination on the matrix in place, swapping rows at a
    zero pivot: a route that shares no code with ``lattice.det_exact``."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def bareiss_haystack_verdict(vectors: Sequence, r: int) -> HaystackVerdict:
    """``verify_haystack_sample`` by one Bareiss determinant per r-subset of
    the distinct vectors, in ``combinations`` order."""
    seen = list(dict.fromkeys(as_coords(v) for v in vectors))
    for c in seen:
        if not is_primitive(c):
            return HaystackVerdict(ok=False, non_primitive=c)
    for subset in combinations(seen, r):
        if bareiss_det(subset) == 0:
            return HaystackVerdict(ok=False, singular_subset=subset)
    return HaystackVerdict(ok=True)


def wedge_rows(points: Sequence[tuple[int, ...]], rank: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """``kernels.base0_rows`` by the wedge recurrence: a prefix of j vectors holds all
    C(r, j) of its j x j minors, each from its parent's by Laplace expansion along
    the next vector (r * 2^(r-1) terms in all), and the last level's minors are the
    cofactor vector."""
    index = [{J: a for a, J in enumerate(combinations(range(rank), j))} for j in range(rank)]
    # levels[j]: for each (j+1)-subset J, the terms (a, t, s) of its minor sum(s * w[a] * v[t])
    levels = [
        [[(index[j][J[:p] + J[p + 1 :]], t, (-1) ** (j + p)) for p, t in enumerate(J)] for J in combinations(range(rank), j + 1)]
        for j in range(rank)
    ]
    d = [tuple(x - y for x, y in zip(q, points[0])) for q in points[1:]]
    out = []

    def walk(prefix: tuple[int, ...], w) -> None:
        j, nxt = len(prefix) - 1, prefix[-1]
        if j == rank - 1:
            out.append((prefix, [abs(sum(s * w[a] * v[t] for a, t, s in levels[j][0])) for v in d[nxt:]]))
            return
        for b in range(nxt, len(d) - rank + 1 + j):
            v = d[b]
            walk((*prefix, 1 + b), [sum(s * w[a] * v[t] for a, t, s in terms) for terms in levels[j]])

    if len(points) > rank:
        walk((0,), [1])
    return out
