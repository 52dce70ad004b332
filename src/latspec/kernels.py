"""Enumeration kernels for simplex-determinant spectra.

The (r+1)-subset determinant scans are the only hot numeric loops in the
package.  Ranks 2 and 3 run one vectorized int64 NumPy scan (``_blocks``);
every rank has a pure-Python exact path.  Selection:

    LATSPEC_KERNELS = auto | numpy | python

``auto`` (the default) means numpy.  Both backends return identical results;
the int64 scan is only entered when a determinant bound from the coordinate
spread (determinants of difference vectors ignore translation) proves the
arithmetic cannot overflow and the value-indexed tables fit under
``TABLE_LIMIT``, otherwise the call silently degrades to the exact Python
path.  Ranks other than 2 and 3 always use the Python path.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .lattice import det_exact

_ENV = "LATSPEC_KERNELS"
_INT64_SAFE = 1 << 62
#: largest value-indexed flag table the int64 backend will allocate
TABLE_LIMIT = 1 << 27


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
    fact = 1
    for i in range(2, rank + 1):
        fact *= i
    return fact * (2 * max_abs_coord) ** rank


def _spread_bound(points: Sequence[tuple[int, ...]], rank: int) -> int:
    # determinants of difference vectors ignore translation: bound by the spread
    spread = max(max(col) - min(col) for col in zip(*points))
    return det_bound((spread + 1) // 2, rank)


def _int64_ok(points: Sequence[tuple[int, ...]], rank: int, limit: int) -> bool:
    return rank in (2, 3) and _spread_bound(points, rank) < _INT64_SAFE and limit <= TABLE_LIMIT


def _int64_points(points: Sequence[tuple[int, ...]]) -> np.ndarray:
    # translate in Python first: the spread fits int64, the coordinates need not
    lows = [min(col) for col in zip(*points)]
    return np.asarray([[x - lo for x, lo in zip(p, lows)] for p in points], dtype=np.int64)


# ---------------------------------------------------------------------------
# int64 scan (ranks 2 and 3)

def _blocks(
    pts: np.ndarray, rank: int
) -> Iterator[tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(prefix, rows, cols, |dets|)`` blocks covering every (rank+1)-subset.

    A block fixes the first rank-1 indices (``prefix``: ``(i,)`` for rank 2,
    ``(i, j)`` for rank 3) and covers every pair ``rows[t] < cols[t]`` after
    them in row-major order, so the blocks taken in order list the subsets
    ``prefix + (rows[t], cols[t])`` lexicographically.
    """
    n = pts.shape[0]
    # the pairs (k, l) with k >= s are the tail of the row-major pair list
    # of all n points, starting at s * (2n - s - 1) / 2
    all_rows, all_cols = np.triu_indices(n, k=1)
    for i in range(n - rank):
        d = pts - pts[i]
        if rank == 2:
            start = (i + 1) * (2 * n - i - 2) // 2
            rows, cols = all_rows[start:], all_cols[start:]
            dets = d[rows, 0] * d[cols, 1] - d[rows, 1] * d[cols, 0]
            yield (i,), rows, cols, np.abs(dets)
            continue
        for j in range(i + 1, n - 2):
            start = (j + 1) * (2 * n - j - 2) // 2
            rows, cols = all_rows[start:], all_cols[start:]
            normals = np.cross(d[j], d)
            dets = np.einsum("tk,tk->t", normals[rows], d[cols])
            yield (i, j), rows, cols, np.abs(dets)


def _distinct_np(pts: np.ndarray, rank: int, limit: int) -> set[int]:
    flags = np.zeros(limit + 1, dtype=bool)
    for _, _, _, dets in _blocks(pts, rank):
        flags[dets[dets <= limit]] = True
    flags[0] = False
    return set(np.flatnonzero(flags).tolist())


def _witness_np(pts: np.ndarray, rank: int, targets: list[int]) -> dict[int, tuple[int, ...]]:
    limit = targets[-1]
    # one slot past the largest target absorbs every larger |det| unwanted
    wanted = np.zeros(limit + 2, dtype=bool)
    wanted[targets] = True
    found: dict[int, tuple[int, ...]] = {}
    for prefix, rows, cols, dets in _blocks(pts, rank):
        hits = np.flatnonzero(wanted[np.minimum(dets, limit + 1)])
        if not hits.size:
            continue
        # the first hit per value is the lexicographically first in the block
        values, first = np.unique(dets[hits], return_index=True)
        for v, t in zip(values.tolist(), hits[first].tolist()):
            found[v] = (*prefix, int(rows[t]), int(cols[t]))
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
    values: set[int] = set()
    for idx in combinations(range(len(points)), rank + 1):
        d = abs(_diff_det(points, idx))
        if d != 0 and (limit is None or d <= limit):
            values.add(d)
    return values


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
    bound its flag table.
    """
    if len(points) < rank + 1:
        return set()
    if backend_name() == "numpy":
        limit = _spread_bound(points, rank)
        if cap is not None:
            limit = min(limit, cap)
        if _int64_ok(points, rank, limit):
            return _distinct_np(_int64_points(points), rank, limit)
    return _distinct_py(points, rank, cap)


def find_det_witnesses(
    points: Sequence[tuple[int, ...]], rank: int, targets: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """First (lexicographic) index tuple realizing each target |det| value.

    Returns a map target -> (i_0 < ... < i_rank); absent targets are simply
    missing from the map.  The scan order is identical across backends.
    """
    targets = sorted({int(t) for t in targets if t > 0})
    if not targets or len(points) < rank + 1:
        return {}
    if backend_name() == "numpy" and _int64_ok(points, rank, targets[-1]):
        return _witness_np(_int64_points(points), rank, targets)
    return _witness_py(points, rank, targets)
