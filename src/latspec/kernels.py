"""Enumeration kernels for simplex-determinant spectra.

The (r+1)-subset determinant scans are the only hot numeric loops in the
package.  Ranks 2 and 3 run one vectorized int64 NumPy scan: ``_blocks``
fixes the first r-1 indices and yields the square |det| matrix over the
points after them (O(n^2) memory per block, no index lists or gathers);
every rank has a pure-Python exact path.  Selection:

    LATSPEC_KERNELS = auto | numpy | python

``auto`` (the default) means numpy.  Both backends return identical results;
the int64 scan is only entered when a determinant bound from the coordinate
spread (determinants of difference vectors ignore translation) proves the
arithmetic cannot overflow and the value-indexed tables fit under
``TABLE_LIMIT``, otherwise the call silently degrades to the exact Python
path.  Ranks other than 2 and 3 always use the Python path.  Both paths
refuse a rank below 1, and a scan of more than ``SUBSET_LIMIT`` subsets,
before it starts.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb, factorial
from typing import Iterator, Optional, Sequence

import numpy as np

from .lattice import det_exact

_ENV = "LATSPEC_KERNELS"
_INT64_SAFE = 1 << 62
#: largest value-indexed flag table the int64 backend will allocate
TABLE_LIMIT = 1 << 27
#: most (rank+1)-subsets a scan will enumerate, checked before it starts
SUBSET_LIMIT = 10**9


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


def _spread_bound(points: Sequence[tuple[int, ...]], rank: int) -> int:
    # determinants of difference vectors ignore translation: bound by the spread
    spread = max(max(col) - min(col) for col in zip(*points))
    return det_bound((spread + 1) // 2, rank)


def _subsets(n: int, rank: int) -> int:
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    count = comb(n, rank + 1)
    if count > SUBSET_LIMIT:
        raise ValueError(f"C({n}, {rank + 1}) = {count} simplices, over {SUBSET_LIMIT}")
    return count


def _int64_ok(points: Sequence[tuple[int, ...]], rank: int, limit: int) -> bool:
    return rank in (2, 3) and _spread_bound(points, rank) < _INT64_SAFE and limit <= TABLE_LIMIT


def _int64_points(points: Sequence[tuple[int, ...]]) -> np.ndarray:
    # translate in Python first: the spread fits int64, the coordinates need not
    lows = [min(col) for col in zip(*points)]
    return np.asarray([[x - lo for x, lo in zip(p, lows)] for p in points], dtype=np.int64)


# ---------------------------------------------------------------------------
# int64 scan (ranks 2 and 3)

def _blocks(pts: np.ndarray, rank: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield ``(prefix, M)`` blocks covering every (rank+1)-subset.

    A block fixes the first rank-1 indices (``prefix``: ``(i,)`` for rank 2,
    ``(i, j)`` for rank 3); with s = prefix[-1] + 1, ``M[a, b]`` is the |det|
    of the subset ``prefix + (s + a, s + b)``.  M is symmetric with a zero
    diagonal, and its entries with a < b in row-major order, block after
    block, list the subsets lexicographically.
    """
    n = pts.shape[0]
    for i in range(n - rank):
        d = pts[i + 1 :] - pts[i]
        if rank == 2:
            yield (i,), np.abs(np.outer(d[:, 0], d[:, 1]) - np.outer(d[:, 1], d[:, 0]))
            continue
        # normals[a, b] = d_a x d_b over the points after i: one cross call per i
        normals = np.cross(d[:, None], d[None, :])
        for a in range(len(d) - 2):
            yield (i, i + 1 + a), np.abs(normals[a, a + 1 :] @ d[a + 1 :].T)


def _distinct_np(pts: np.ndarray, rank: int, limit: int, cut: bool) -> set[int]:
    # without a cut below the spread bound every |det| already fits the table
    flags = np.zeros(limit + 1, dtype=bool)
    for _, m in _blocks(pts, rank):
        flags[m[m <= limit] if cut else m] = True
    flags[0] = False
    return set(np.flatnonzero(flags).tolist())


def _witness_np(pts: np.ndarray, rank: int, targets: list[int]) -> dict[int, tuple[int, ...]]:
    limit = targets[-1]
    # one slot past the largest target absorbs every larger |det| unwanted
    wanted = np.zeros(limit + 2, dtype=bool)
    wanted[targets] = True
    found: dict[int, tuple[int, ...]] = {}
    for prefix, m in _blocks(pts, rank):
        hits = np.flatnonzero(wanted[np.minimum(m, limit + 1)])
        if not hits.size:
            continue
        # the first row-major hit per value is the lexicographically first subset,
        # above the diagonal: M is symmetric, the mirror (a, b) of (b, a) comes first
        values, first = np.unique(m.flat[hits], return_index=True)
        s, k = prefix[-1] + 1, m.shape[0]
        for v, t in zip(values.tolist(), hits[first].tolist()):
            found[v] = (*prefix, s + t // k, s + t % k)
        wanted[values] = False
        if len(found) == len(targets):
            break
    return found


# ---------------------------------------------------------------------------
# exact Python path (any rank, no overflow ceiling)

def _diff_det(points: Sequence[tuple[int, ...]], idx: tuple[int, ...]) -> int:
    base = points[idx[0]]
    cols = [[points[j][i] - base[i] for i in range(len(base))] for j in idx[1:]]
    return det_exact([[cols[j][i] for j in range(len(cols))] for i in range(len(base))])


def _distinct_py(points: Sequence[tuple[int, ...]], rank: int, limit: Optional[int]) -> set[int]:
    dets = (abs(_diff_det(points, idx)) for idx in combinations(range(len(points)), rank + 1))
    return {d for d in dets if d != 0 and (limit is None or d <= limit)}


def _witness_py(
    points: Sequence[tuple[int, ...]], rank: int, targets: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    pending = set(targets)
    found: dict[int, tuple[int, ...]] = {}
    for idx in combinations(range(len(points)), rank + 1):
        if not pending:
            break
        d = abs(_diff_det(points, idx))
        if d in pending:
            found[d] = idx
            pending.discard(d)
    return found


# ---------------------------------------------------------------------------
# dispatch

def distinct_abs_dets(
    points: Sequence[tuple[int, ...]], rank: int, cap: Optional[int] = None
) -> set[int]:
    """All nonzero |det| values of difference matrices over (rank+1)-subsets.

    ``cap`` restricts the result to values <= cap and lets the int64 scan
    bound its flag table; a cap below 1 leaves nothing.
    """
    if not _subsets(len(points), rank) or (cap is not None and cap < 1):
        return set()
    if backend_name() == "numpy":
        bound = _spread_bound(points, rank)
        limit = bound if cap is None else min(bound, cap)
        if _int64_ok(points, rank, limit):
            return _distinct_np(_int64_points(points), rank, limit, limit < bound)
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
    if backend_name() == "numpy" and _int64_ok(points, rank, targets[-1]):
        return _witness_np(_int64_points(points), rank, targets)
    return _witness_py(points, rank, targets)
