"""Enumeration kernels for simplex-determinant spectra.

The (r+1)-subset determinant scans are the only hot numeric loops in the
package.  For a base point i and the differences d of the points after it,
det(d_a1, ..., d_a(r-1), d_c) is the cofactor vector of the rows a, the one
form left after r - 1 fraction-free elimination steps (``eliminate``, which
``lattice.det_exact`` runs on one matrix), dotted with d_c.  The int64 NumPy
scan (``_base``, rank >= 2) takes the (r-2)-subsets p in lexicographic order,
in chunks of about ``CHUNK_CELLS`` entries, as forms det(p, x, y) = x @ F_p @
y: a block is |d_b @ F_p @ d_c| (rank 2: F is the 2-D cross product; rank 3:
d_b @ F_a = d_a x d_b).  The exact path (``base0_rows``, every rank) takes
the same rows in Python ints, base i as base 0 of the points from i on; it
scans haystack samples too.  ``LATSPEC_KERNELS = auto | numpy | python``
selects one (auto: numpy); both return identical results.  The int64 scan
runs only when ``det_bound`` r! (2c)^r, c half the largest spread, and the
square of its (r-2)-minor bound stay below 2^62 (a j x j minor is at most j!
(2c)^j; the elimination multiplies two of at most r - 2 rows) and the flag
table of min(U, cap) + 1 entries fits under ``TABLE_LIMIT``, U = h(r) *
prod(spreads) bounding every |det| (``_simplex_bound``); else it silently
degrades.

It stops once its answer is complete: the blocks of base 0 hold every r x r
minor of the differences p_i - p_0, so their gcd g divides every |det| (no
value: the points lie in one hyperplane), and once g, 2g, ... up to
min(U, cap) are flagged no block can add one; the check reads min(U, cap)/g
flags after as many entries were scanned.  The Python path is exhaustive.
Both paths refuse, before they start, a rank below 1 and scans past the
``*_LIMIT`` constants; g for ``ANSWER_LIMIT`` comes from base 0 of the path
that will scan, only when min(U, cap) and C(n, r+1) both pass the limit.
"""

from __future__ import annotations

import os
from itertools import combinations, islice
from math import comb, factorial, gcd, isqrt, prod
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import admit

_ENV = "LATSPEC_KERNELS"
_INT64_SAFE = 1 << 62
#: largest value-indexed flag table the int64 backend will allocate
TABLE_LIMIT = 1 << 27
#: most (rank+1)-subsets a scan will enumerate, checked before it starts
SUBSET_LIMIT = 10**9
#: most values a spectrum scan may answer with, bounded before it starts by
#: min(min(U, cap) / g, C(n, r+1)); a larger answer outgrows memory
ANSWER_LIMIT = 10**6
#: about how many int64 entries one block holds; a block of a base with m
#: points after it holds at most max(CHUNK_CELLS, m - 1) entries
CHUNK_CELLS = 1 << 15
_H = (1, 1, 2, 3, 5, 9, 32, 56, 144)  # h(r), the largest r x r 0/1 determinant, r <= 9 (OEIS A003432)
#: the forms of ranks 2 and 3: det(x, y) = x @ _CROSS @ y, det(v, x, y) = x @ (v @ _LEVI) @ y
_CROSS = np.array([[[0, 1], [-1, 0]]], dtype=np.int64)
_LEVI = np.array([[0, 0, 0, 0, 0, 1, 0, -1, 0], [0, 0, -1, 0, 0, 0, 1, 0, 0], [0, 1, 0, -1, 0, 0, 0, 0, 0]], dtype=np.int64)


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
    """U = h(r) * prod(spreads) >= every |det|: |det| is affine in each vertex coordinate,
    so largest at box vertices; Hadamard's (r+1)^((r+1)/2) / 2^r past the table."""
    h = _H[rank - 1] if rank <= len(_H) else isqrt((rank + 1) ** (rank + 1)) >> rank
    return h * prod(spreads)


def _subsets(n: int, rank: int) -> int:
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    return admit(comb(n, rank + 1), SUBSET_LIMIT, f"simplices of a {n}-point set, C({n}, {rank + 1})")


def _int64_ok(spreads: Sequence[int], rank: int, limit: int) -> bool:
    c = (max(spreads) + 1) // 2
    return rank > 1 and det_bound(c, rank) < _INT64_SAFE and det_bound(c, rank - 2) ** 2 < _INT64_SAFE and limit <= TABLE_LIMIT


def _int64_points(points: Sequence[tuple[int, ...]]) -> np.ndarray:
    # translate in Python ints first (one object column at a time): the spread
    # fits int64, the coordinates need not
    cols = [np.array(col, dtype=object) - min(col) for col in zip(*points)]
    return np.array(cols, dtype=np.int64).T


def eliminate(pivot: int, forms: Optional[list[list[int]]], v: Sequence[int]) -> tuple[int, int, list[list[int]]]:
    """``(k, u_k, forms')``, one fraction-free (Bareiss) step: ``forms[j] @ x`` is the minor of
    the rows so far and x on the pivot columns and column j, row v reduces to u = forms @ v,
    k is the first j with u_j != 0, forms'[j] = (u_k forms[j] - u_j forms[k]) / pivot (exact by
    Sylvester's identity); dependent rows give u_k = 0 and zero forms, one shared list.  Forms
    None are the identity, before any row: then forms'[j] = v_k e_j - v_j e_k in closed form."""
    if forms is None:
        k = next(filter(v.__getitem__, range(len(v))), 0)
        forms = []
        for j, x in enumerate(v):
            if j != k:
                forms.append([0] * len(v))
                forms[-1][j], forms[-1][k] = v[k], -x
        return k, v[k], forms
    u = [sum(map(mul, f, v)) for f in forms]
    for k, uk in enumerate(u):
        if uk:
            fk = forms[k]
            return k, uk, [[(uk * a - uj * b) // pivot for a, b in zip(f, fk)] for f, uj in zip(forms, u) if f is not fk]
    return 0, 0, [[0] * len(v)] * (len(forms) - 1)


# ---------------------------------------------------------------------------
# int64 scan (ranks 2 and up)

def _form(d: np.ndarray, P: np.ndarray, rank: int) -> np.ndarray:
    """F, det(d[p], x, y) = +-x @ F[q] @ y for each prefix p = P[q]; from rank 4 ``eliminate`` on all
    prefixes at once (pivots: argmax of the nonzero mask), F = (X[a]^T X[b] - X[b]^T X[a]) / p."""
    if rank < 4:
        return _CROSS if rank == 2 else (d[P[:, 0]] @ _LEVI).reshape(-1, 3, 3)
    n = np.arange(len(P))[:, None]
    eye = np.eye(rank, dtype=np.int64)
    v = d[P[:, 0]]
    k = np.argmax(v != 0, axis=1)[:, None]
    p = v[n, k, None]
    X = p * eye - v[..., None] * eye[k]  # the first step in closed form
    for j in range(1, rank - 2):
        u = (X @ d[P[:, j], :, None])[..., 0]
        k = np.argmax(u != 0, axis=1)[:, None]
        # the pivot's form becomes 0, so no later step picks it; dependent rows keep zero forms
        X = (X * u[n, k, None] - u[..., None] * X[n, k]) // (p + (p == 0))
        p = u[n, k, None]
    return X.transpose(0, 2, 1) @ (np.sign(np.arange(rank)[:, None] - np.arange(rank)) @ X) // (p + (p == 0))


def _base(pts: np.ndarray, rank: int, i: int) -> Iterator[tuple[tuple[int, np.ndarray, int], np.ndarray]]:
    """Yield the ``((i, P, b0), M)`` blocks whose subsets start at point i:
    P a chunk of the (r-2)-subsets of the differences d in lexicographic order,
    M[p, b, c] = |det(d[P[p]], d[b0 + b], d[b0 + 1 + c])|, b0 one past the
    smallest last index in P (lexicographic prefixes need not end in rising
    indices), or a later slice start of a prefix whose block alone passes
    ``CHUNK_CELLS``.  An entry whose indices are not increasing repeats the value of
    the sorted subset, earlier in row-major order in this block or an earlier
    one, or is 0: the first entry of a value is its first subset.  A chunk ends
    with its group, the CHUNK_CELLS / r^2 prefixes whose forms come at once."""
    d = pts[i + 1 :] - pts[i]
    k = len(d)
    prefixes = combinations(range(k - 2), rank - 2)
    while group := list(islice(prefixes, max(1, CHUNK_CELLS // (rank * rank)))):
        G = np.array(group, dtype=np.intp)
        forms = _form(d, G, rank)
        s = 0
        while s < len(group):
            # no later prefix ends before group[s][0] + rank - 3: a row holds at most m entries
            m = k - 1 - (group[s][0] + rank - 2 if group[s] else 0)
            e = min(len(group), s + max(1, CHUNK_CELLS // (m * m + rank * rank)))
            b0 = min([p[-1] for p in group[s:e] if p], default=-1) + 1
            rows = max(1, CHUNK_CELLS // (k - 1 - b0))
            for bs in range(b0, k - 1, rows):
                block = (d[bs : min(bs + rows, k - 1)] @ forms[s:e]) @ d[bs + 1 :].T
                yield (i, G[s:e], bs), np.abs(block, out=block)
            s = e


def _blocks(pts: np.ndarray, rank: int) -> Iterator[tuple[tuple[int, np.ndarray, int], np.ndarray]]:
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
    # one slot past the largest target absorbs every larger |det|: one clipped gather per block
    wanted = np.zeros(limit + 2, dtype=bool)
    wanted[targets] = True
    found: dict[int, tuple[int, ...]] = {}
    for (i, P, b0), m in _blocks(pts, rank):
        hits = np.flatnonzero(wanted.take(m, mode="clip"))
        if not hits.size:
            continue
        # the first row-major hit per value is the lexicographically first subset
        values, first = np.unique(m.flat[hits], return_index=True)
        p, b, c = np.unravel_index(hits[first], m.shape)
        cells = np.column_stack([P[p], b0 + b, b0 + 1 + c]) + i + 1
        for v, cell in zip(values.tolist(), cells.tolist()):
            found[v] = (i, *cell)
        wanted[values] = False
        if len(found) == len(targets):
            break
    return found


# ---------------------------------------------------------------------------
# exact Python path (any rank, no overflow ceiling)

def base0_rows(points: Sequence[tuple[int, ...]], rank: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Yield ``(prefix, row)`` of base 0 in lexicographic order, depth first, each prefix one
    ``eliminate`` step on from its parent's: ``row[t]``, the |det| of ``prefix + (prefix[-1]
    + 1 + t,)``, is its cofactor vector dotted with p_c - p_0."""
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    d = [tuple(x - y for x, y in zip(q, points[0])) for q in points[1:]]
    cols = list(zip(*d))

    def row(nxt: int, cofactor: list[int]) -> list[int]:  # one coordinate column at a time
        (c, col), *rest = [(c, col[nxt:]) for c, col in zip(cofactor, cols)]
        out = [c * x for x in col]
        for c, col in rest:
            out = [u + c * x for u, x in zip(out, col)]
        return list(map(abs, out))

    def rows(prefix: tuple[int, ...], pivot: int, forms: Optional[list[list[int]]]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        j, nxt = len(prefix) - 1, prefix[-1]  # vectors in the prefix, index of the next one
        for b in range(nxt, len(d) - rank + 1 + j):
            _, p, X = eliminate(pivot, forms, d[b])
            if j + 2 < rank:
                yield from rows((*prefix, 1 + b), p, X)
            else:
                yield (*prefix, 1 + b), row(b + 1, X[0])

    if len(points) > rank:
        yield from rows((0,), 1, None) if rank > 1 else [((0,), row(0, [1]))]


def _distinct_py(points: Sequence[tuple[int, ...]], rank: int, limit: Optional[int]) -> set[int]:
    dets = {v for i in range(len(points) - rank) for _, row in base0_rows(points[i:], rank) for v in row}
    return {v for v in dets if v != 0 and (limit is None or v <= limit)}


def _witness_py(points: Sequence[tuple[int, ...]], rank: int, targets: Sequence[int]) -> dict[int, tuple[int, ...]]:
    pending = set(targets)
    found: dict[int, tuple[int, ...]] = {}
    for i in range(len(points) - rank):
        for prefix, row in base0_rows(points[i:], rank):
            if not pending:
                return found
            for v in pending.intersection(row):
                found[v] = tuple(i + a for a in (*prefix, prefix[-1] + 1 + row.index(v)))
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
    else:
        g = gcd(*(v for _, row in base0_rows(points, rank) for v in row))
    bound = min(limit // g, subsets) if g else 0
    admit(bound, ANSWER_LIMIT, f"bound on the spectrum values of a {len(points)}-point set, cap {cap}")


def distinct_abs_dets(points: Sequence[tuple[int, ...]], rank: int, cap: Optional[int] = None) -> set[int]:
    """All nonzero |det| values of difference matrices over (rank+1)-subsets.

    ``cap`` restricts the result to values <= cap and lets the int64 scan
    bound its flag table; a cap below 1 leaves nothing.
    """
    subsets = _subsets(len(points), rank)
    if not subsets or (cap is not None and cap < 1):
        return set()
    spreads = _spreads(points)
    top = _simplex_bound(spreads, rank)
    limit = top if cap is None else min(top, cap)
    pts = _int64_points(points) if backend_name() == "numpy" and _int64_ok(spreads, rank, limit) else None
    _admit_answer(points, pts, rank, limit, subsets, cap)
    if pts is not None:
        return _distinct_np(pts, rank, limit, limit < top)
    return _distinct_py(points, rank, cap)


def find_det_witnesses(points: Sequence[tuple[int, ...]], rank: int, targets: Sequence[int]) -> dict[int, tuple[int, ...]]:
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
