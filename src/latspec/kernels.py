"""Enumeration kernels for simplex-determinant spectra.

The (r+1)-subset determinant scans are the only hot numeric loops in the
package.  Ranks 2 and 3 run one vectorized int64 NumPy scan over the
difference vectors d of the points after each base point (``_base``), cut
into chunks of rows of about ``CHUNK_CELLS`` entries: at rank 2 the cross
products d_a x d_b, at rank 3 the normals d_a x d_b times d (no index lists
or gathers).  Every rank has a pure-Python exact path; at ranks 2 and 3 it
uses the same closed forms in Python ints, the differences taken once per
base, and Bareiss (``lattice.simplex_det``) per subset elsewhere.
Selection:

    LATSPEC_KERNELS = auto | numpy | python

``auto`` (the default) means numpy.  Both backends return identical results.
Two bounds decide whether the int64 scan runs, both from the coordinate
spreads (determinants of difference vectors ignore translation):

- overflow: ``det_bound`` r! * (2c)^r, with c half the largest spread,
  must stay below 2^62;
- table: no simplex covers more than half of its bounding box at rank 2 or
  a third at rank 3, so no |det| exceeds U = prod(spreads) at rank 2 and
  U = 2 * prod(spreads) at rank 3 (``_simplex_bound``); the value-indexed
  flag table has min(U, cap) + 1 entries and must fit under ``TABLE_LIMIT``.

Otherwise the call silently degrades to the exact Python path.

The int64 spectrum scan stops once its answer is complete.  The blocks of
the first sorted point hold every r x r minor of the differences p_i - p_0,
so the gcd g of their values is the r-th determinantal divisor and every
|det| is a multiple of it (no value at all: the points lie in one
hyperplane, the spectrum is empty).  Once g, 2g, ... up to min(U, cap) are
all flagged, no later block can add a value.  The check costs
O(min(U, cap) / g) and runs only after that many entries were scanned since
the last one, so it never costs more than the scan.  The Python path stays
exhaustive.

Ranks other than 2 and 3 always use the Python path.  Both paths refuse a
rank below 1, and a scan of more than ``SUBSET_LIMIT`` subsets, before it
starts; admission counts C(n, r+1) subsets, not the ones an early stop
visits.  They also refuse a spectrum whose answer may pass
``ANSWER_LIMIT`` values: at most min(min(U, cap) / g, C(n, r+1)), every
value a multiple of g up to min(U, cap) and at most one per subset (U is
the spread bound at other ranks).  g is taken from base 0 by its own pass,
before the flag table, and only when min(U, cap) and C(n, r+1) both pass
the limit; past rank 3 g is taken as 1.
"""

from __future__ import annotations

import os
from itertools import combinations, takewhile
from math import comb, factorial, gcd, prod
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import admit
from .lattice import simplex_det

_ENV = "LATSPEC_KERNELS"
_INT64_SAFE = 1 << 62
#: largest value-indexed flag table the int64 backend will allocate
TABLE_LIMIT = 1 << 27
#: most (rank+1)-subsets a scan will enumerate, checked before it starts
SUBSET_LIMIT = 10**9
#: most values a spectrum scan may answer with, bounded before it starts by
#: min(min(U, cap) / g, C(n, r+1)); a larger answer outgrows memory
ANSWER_LIMIT = 10**6
#: about how many int64 entries one block holds, at rank 2 or 3; a block of
#: a base with m points after it holds at most max(CHUNK_CELLS, (m-1)^(rank-1))
CHUNK_CELLS = 1 << 15
# the cyclic coordinate shifts of a cross product: (d x e)_j = d_{j+1} e_{j+2} - d_{j+2} e_{j+1}
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def backend_name() -> str:
    """Resolve the active backend from the environment."""
    choice = os.environ.get(_ENV, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numpy"
    if choice in ("numpy", "python"):
        return choice
    raise ValueError(f"unknown {_ENV} value: {choice!r}")


def det_bound(max_abs_coord: int, rank: int) -> int:
    """Upper bound r! * (2*c)^r on any |det| of difference vectors."""
    return factorial(rank) * (2 * max_abs_coord) ** rank


def _spreads(points: Sequence[tuple[int, ...]]) -> list[int]:
    # determinants of difference vectors ignore translation: bound by the spreads
    return [max(col) - min(col) for col in zip(*points)]


def _simplex_bound(spreads: Sequence[int], rank: int) -> int:
    """U >= every |det| at rank 2 or 3: a triangle covers at most half of its
    bounding box, a tetrahedron at most a third, and |det| = rank! * volume."""
    return (1 if rank == 2 else 2) * prod(spreads)


def _subsets(n: int, rank: int) -> int:
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    return admit(comb(n, rank + 1), SUBSET_LIMIT, f"simplices of a {n}-point set, C({n}, {rank + 1})")


def _int64_ok(spreads: Sequence[int], rank: int, limit: int) -> bool:
    # the spread bound guards the int64 arithmetic, ``limit`` sizes the table
    overflow = det_bound((max(spreads) + 1) // 2, rank) >= _INT64_SAFE
    return rank in (2, 3) and not overflow and limit <= TABLE_LIMIT


def _int64_points(points: Sequence[tuple[int, ...]]) -> np.ndarray:
    # translate in Python ints first (one object column at a time): the spread
    # fits int64, the coordinates need not
    cols = [np.array(col, dtype=object) - min(col) for col in zip(*points)]
    return np.array(cols, dtype=np.int64).T


# ---------------------------------------------------------------------------
# int64 scan (ranks 2 and 3)

def _base(pts: np.ndarray, rank: int, i: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield the ``(corner, M)`` blocks whose subsets start at point i.

    ``corner`` is the subset of M's first entry: the entry at multi-index u
    is the |det| of ``(corner[0], corner[1] + u[0], corner[2] + u[1], ...)``.
    The rows a of M[a, b] = |d_a x d_b| (rank 2) or M[a, b, c] = |det(d_a,
    d_b, d_c)| (rank 3) are cut into chunks of about ``CHUNK_CELLS`` entries,
    b and c running from the chunk's first row + 1 on.  An entry whose
    indices are not increasing repeats the value of the sorted subset, which
    lies in the same block and earlier in row-major order, or is 0.  So the
    increasing entries, block after block and base after base, list the
    subsets lexicographically, and the first entry of a value in that order
    is the lexicographically first subset realizing it.
    """
    d = pts[i + 1 :] - pts[i]
    k = len(d)
    a = 0
    while a <= k - rank:
        stop = min(k - rank + 1, a + max(1, CHUNK_CELLS // (k - a - 1) ** (rank - 1)))
        r, c = d[a:stop, None], d[None, a + 1 :]
        if rank == 2:
            # the 2-D cross product d_a' x d_b: one outer product, one in-place subtract
            m = r[..., 0] * c[..., 1]
            m -= r[..., 1] * c[..., 0]
        else:
            # normals[a', b] = d_a' x d_b for the rows a' of the chunk and b > a
            normals = r[..., _NEXT] * c[..., _PREV] - r[..., _PREV] * c[..., _NEXT]
            m = normals @ d[a + 1 :].T
        yield (i, i + 1 + a, *(i + 2 + a,) * (rank - 1)), np.abs(m, out=m)
        a = stop


def _blocks(pts: np.ndarray, rank: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Every base in turn: blocks covering all (rank+1)-subsets, in order."""
    for i in range(pts.shape[0] - rank):
        yield from _base(pts, rank, i)


def _distinct_np(pts: np.ndarray, rank: int, limit: int, cut: bool) -> set[int]:
    # without a cut below U every |det| already fits the table
    flags = np.zeros(limit + 1, dtype=bool)
    # base 0 holds every r x r minor of the differences p_i - p_0, so the gcd
    # of its values divides every |det|; values above a cut still count
    g = scanned = 0
    for _, m in _base(pts, rank, 0):
        flags[m[m <= limit] if cut else m] = True
        scanned += m.size
        if cut:
            g = gcd(g, int(np.gcd.reduce(m[m > limit])))
    flags[0] = False
    g = gcd(g, int(np.gcd.reduce(np.flatnonzero(flags))))
    if not g:
        return set()  # every minor vanishes: the points lie in one hyperplane
    # the answer is complete once g, 2g, ... <= limit are all flagged; a check
    # reads want.size flags, so it waits for as many entries scanned
    want = flags[g::g]
    for i in range(1, pts.shape[0] - rank):
        if scanned >= want.size:
            if np.count_nonzero(want) == want.size:
                break
            scanned = 0
        for _, m in _base(pts, rank, i):
            flags[m[m <= limit] if cut else m] = True
            scanned += m.size
    flags[0] = False
    return set(np.flatnonzero(flags).tolist())


def _witness_np(pts: np.ndarray, rank: int, targets: list[int]) -> dict[int, tuple[int, ...]]:
    limit = targets[-1]
    # one slot past the largest target absorbs every larger |det| unwanted:
    # the clipped gather reads each block once
    wanted = np.zeros(limit + 2, dtype=bool)
    wanted[targets] = True
    found: dict[int, tuple[int, ...]] = {}
    for corner, m in _blocks(pts, rank):
        hits = np.flatnonzero(wanted.take(m, mode="clip"))
        if not hits.size:
            continue
        # the first row-major hit per value is the lexicographically first subset
        values, first = np.unique(m.flat[hits], return_index=True)
        cells = np.column_stack(np.unravel_index(hits[first], m.shape)) + corner[1:]
        for v, cell in zip(values.tolist(), cells.tolist()):
            found[v] = (corner[0], *cell)
        wanted[values] = False
        if len(found) == len(targets):
            break
    return found


# ---------------------------------------------------------------------------
# exact Python path (any rank, no overflow ceiling)

def _rows_py(points: Sequence[tuple[int, ...]], rank: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Yield ``(prefix, row)`` in lexicographic order: ``row[t]`` is the |det|
    of the subset ``prefix + (prefix[-1] + 1 + t,)``.

    Ranks 2 and 3 take the difference vectors once per base point and use the
    int64 scan's formulas in Python ints: a 2 x 2 minor, and a cross product
    dotted with the third vector.  Other ranks run Bareiss per subset.
    """
    n = len(points)
    if rank not in (2, 3):
        for prefix in combinations(range(n), rank):
            base = [points[j] for j in prefix]
            yield prefix, [abs(simplex_det(base + [points[c]])) for c in range(prefix[-1] + 1, n)]
        return
    for i, p in enumerate(points[: n - rank]):
        d = [tuple(x - y for x, y in zip(q, p)) for q in points[i + 1 :]]
        if rank == 2:
            for a, (xa, ya) in enumerate(d):
                yield (i, i + 1 + a), [abs(xa * yb - ya * xb) for xb, yb in d[a + 1 :]]
            continue
        for a, (xa, ya, za) in enumerate(d):
            for b in range(a + 1, len(d)):
                xb, yb, zb = d[b]
                nx, ny, nz = ya * zb - za * yb, za * xb - xa * zb, xa * yb - ya * xb
                row = [abs(nx * xc + ny * yc + nz * zc) for xc, yc, zc in d[b + 1 :]]
                yield (i, i + 1 + a, i + 1 + b), row


def _distinct_py(points: Sequence[tuple[int, ...]], rank: int, limit: Optional[int]) -> set[int]:
    dets = {v for _, row in _rows_py(points, rank) for v in row}
    return {v for v in dets if v != 0 and (limit is None or v <= limit)}


def _witness_py(
    points: Sequence[tuple[int, ...]], rank: int, targets: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    pending = set(targets)
    found: dict[int, tuple[int, ...]] = {}
    for prefix, row in _rows_py(points, rank):
        if not pending:
            break
        for v in pending.intersection(row):
            found[v] = (*prefix, prefix[-1] + 1 + row.index(v))
        pending.difference_update(row)
    return found


# ---------------------------------------------------------------------------
# dispatch

def _admit_answer(points, pts: Optional[np.ndarray], rank: int, limit: int, subsets: int, cap: Optional[int]) -> None:
    """Refuse a spectrum that may hold more than ``ANSWER_LIMIT`` values, before
    its scan; g comes from base 0 of the path that will scan (int64 when pts)."""
    if min(limit, subsets) <= ANSWER_LIMIT:
        return
    if pts is not None:
        g = gcd(*(int(np.gcd.reduce(m, axis=None)) for _, m in _base(pts, rank, 0)))
    elif rank > 3:
        g = 1  # base 0 is C(n - 1, r) Bareiss determinants here, as slow as a scan
    else:
        g = gcd(*(v for prefix, row in takewhile(lambda pr: pr[0][0] == 0, _rows_py(points, rank)) for v in row))
    bound = min(limit // g, subsets) if g else 0
    admit(bound, ANSWER_LIMIT, f"bound on the spectrum values of a {len(points)}-point set, cap {cap}")


def distinct_abs_dets(
    points: Sequence[tuple[int, ...]], rank: int, cap: Optional[int] = None
) -> set[int]:
    """All nonzero |det| values of difference matrices over (rank+1)-subsets.

    ``cap`` restricts the result to values <= cap and lets the int64 scan
    bound its flag table; a cap below 1 leaves nothing.
    """
    subsets = _subsets(len(points), rank)
    if not subsets or (cap is not None and cap < 1):
        return set()
    spreads = _spreads(points)
    top = _simplex_bound(spreads, rank) if rank in (2, 3) else det_bound((max(spreads) + 1) // 2, rank)
    limit = top if cap is None else min(top, cap)
    pts = _int64_points(points) if backend_name() == "numpy" and _int64_ok(spreads, rank, limit) else None
    _admit_answer(points, pts, rank, limit, subsets, cap)
    if pts is not None:
        return _distinct_np(pts, rank, limit, limit < top)
    return _distinct_py(points, rank, cap)


def find_det_witnesses(
    points: Sequence[tuple[int, ...]], rank: int, targets: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """First (lexicographic) index tuple realizing each target |det| value.

    Returns a map target -> (i_0 < ... < i_rank); absent targets are simply
    missing from the map.  The scan order is identical across backends.
    """
    subsets = _subsets(len(points), rank)
    targets = sorted({int(t) for t in targets if t > 0})
    if not targets or not subsets:
        return {}
    if backend_name() == "numpy" and _int64_ok(_spreads(points), rank, targets[-1]):
        return _witness_np(_int64_points(points), rank, targets)
    return _witness_py(points, rank, targets)
