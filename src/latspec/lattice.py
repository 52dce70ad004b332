"""Exact arithmetic for finite-rank integer lattices.

Everything here runs on plain Python integers, so there is no precision
ceiling: Hermite and Smith reductions with their unimodular transforms,
fraction-free determinants, integer kernels and triangular solves stay
exact for arbitrarily large entries.

Vectors are plain tuples of integers.  Matrix convention: a matrix is a
sequence of rows, and the *columns* of a basis matrix generate the lattice.
Every reduction is a chain of 2x2 unimodular steps on a pair of rows or
columns (``_step``, ``_rows``, ``_cols``).  The canonical column Hermite
form used throughout is lower triangular with positive pivots; in each pivot
row the entries to the left of the pivot are reduced into ``[0, pivot)``.  Two
sublattices are equal exactly when their canonical basis matrices are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .kernels import eliminate

Matrix = list[list[int]]


def as_coords(v) -> tuple[int, ...]:
    """Coerce any integer sequence to a coordinate tuple."""
    return tuple(int(c) for c in v)


def is_primitive(v) -> bool:
    """True iff the gcd of the coordinates is 1 (the zero vector is not primitive)."""
    c = as_coords(v)
    if not c:
        raise ValueError("rank must be at least 1")
    return gcd(*c) == 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


Block = tuple[int, int, int, int]


def _step(pivot: int, entry: int) -> Block:
    """Unimodular block (a, b, c, d) that clears ``entry`` against ``pivot``.

    Applied as new_pivot = a*pivot + b*entry, new_entry = c*pivot + d*entry.
    A pivot dividing the entry is kept and the entry subtracted away; otherwise
    the pivot becomes the gcd through the extended-gcd block.
    """
    if pivot != 0 and entry % pivot == 0:
        return 1, 0, -(entry // pivot), 1
    g, x, y = _xgcd(pivot, entry)
    return x, y, -(entry // g), pivot // g


def _rows(mats: Iterable[Matrix], i: int, j: int, block: Block) -> None:
    """In each matrix, rows i and j become a*r_i + b*r_j and c*r_i + d*r_j."""
    a, b, c, d = block
    keep_i = a == 1 and b == 0
    for M in mats:
        ri, rj = M[i], M[j]
        if not keep_i:
            M[i] = [a * u + b * v for u, v in zip(ri, rj)]
        M[j] = [c * u + d * v for u, v in zip(ri, rj)]


def _cols(mats: Iterable[Matrix], i: int, j: int, block: Block) -> None:
    """In each matrix, columns i and j become a*c_i + b*c_j and c*c_i + d*c_j."""
    a, b, c, d = block
    keep_i = a == 1 and b == 0
    for M in mats:
        for row in M:
            u, v = row[i], row[j]
            if not keep_i:
                row[i] = a * u + b * v
            row[j] = c * u + d * v


def _to_matrix(M) -> Matrix:
    rows = [[int(x) for x in row] for row in M]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    return rows


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_columns(M: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in M) for j in range(len(M[0]))]


def det_exact(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination, ``kernels.eliminate`` on
    one row at a time: intermediates are minors of the input, and divisions exact."""
    A = _to_matrix(M)
    if len(A[0]) != len(A):
        raise ValueError("matrix must be square")
    flips, pivot, forms = 0, 1, None
    for row in A:
        k, pivot, forms = eliminate(pivot, forms, row)
        flips += k
    return -pivot if flips & 1 else pivot


def simplex_det(vertices: Sequence) -> int:
    """det(v_1 - v_0, ..., v_r - v_0) for r+1 vertices of rank r, exact: the
    r!-scaled signed volume of the simplex."""
    vs = [as_coords(v) for v in vertices]
    r = len(vs[0])
    if len(vs) != r + 1:
        raise ValueError(f"expected {r + 1} vertices for rank {r}, got {len(vs)}")
    # the differences as rows: a determinant equals its transpose's
    return det_exact([[v[i] - vs[0][i] for i in range(r)] for v in vs[1:]])


def _column_echelon(M) -> tuple[Matrix, Matrix, list[tuple[int, int]]]:
    """Column-reduce M over Z by unimodular column operations.

    Returns (H, U, pivots) with H = M @ U, U unimodular, and pivots a list of
    (row, column) positions.  Columns that never receive a pivot end up zero
    and sit at the right; their U-columns form a basis of the integer kernel.
    """
    H = _to_matrix(M)
    rows, cols = len(H), len(H[0])
    U = mat_identity(cols)
    pivots: list[tuple[int, int]] = []
    piv = 0
    for i in range(rows):
        if piv >= cols:
            break
        for j in range(piv + 1, cols):
            if H[i][j]:
                _cols((H, U), piv, j, _step(H[i][piv], H[i][j]))
        if H[i][piv] == 0:
            continue
        if H[i][piv] < 0:
            for row in H + U:
                row[piv] = -row[piv]
        for _, j2 in pivots:
            q = H[i][j2] // H[i][piv]
            if q:
                _cols((H, U), piv, j2, (1, 0, -q, 1))
        pivots.append((i, piv))
        piv += 1
    return H, U, pivots


def hnf(M) -> tuple[Matrix, Matrix]:
    """Canonical column Hermite normal form.

    Returns (H, U) with H = M @ U, U unimodular.  Requires full row rank;
    rank-deficient input raises ``ValueError("not full rank")``.
    """
    H, U, pivots = _column_echelon(M)
    if len(pivots) != len(H):
        raise ValueError("not full rank")
    return H, U


def kernel_basis(M) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : M @ x = 0}, as coordinate tuples."""
    _, U, pivots = _column_echelon(M)
    cols = len(U)
    return [tuple(U[t][j] for t in range(cols)) for j in range(len(pivots), cols)]


@dataclass(frozen=True)
class QuotientStructure:
    """Smith data of a nonsingular basis matrix B.

    ``to_normal @ B @ from_normal = diag(invariant_factors)`` with both
    transforms unimodular, the factors positive and each dividing the next.
    """

    invariant_factors: tuple[int, ...]
    to_normal: tuple[tuple[int, ...], ...]
    from_normal: tuple[tuple[int, ...], ...]


def snf(M) -> QuotientStructure:
    """Smith normal form of a nonsingular integer matrix."""
    A = _to_matrix(M)
    n = len(A)
    if len(A[0]) != n:
        raise ValueError("matrix must be square")
    U = mat_identity(n)
    V = mat_identity(n)
    swap = (0, 1, 1, 0)
    for t in range(n):
        # pull some nonzero entry of the trailing block into position (t, t)
        pivot = next(
            ((i, j) for i in range(t, n) for j in range(t, n) if A[i][j] != 0),
            None,
        )
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot[0] != t:
            _rows((A, U), t, pivot[0], swap)
        if pivot[1] != t:
            _cols((A, V), t, pivot[1], swap)
        while True:
            # termination: divisible entries are cleared by plain subtraction
            # (pivot row/column untouched); a gcd block runs only when the
            # pivot shrinks strictly, so the cleaning loop cannot cycle.
            for i in range(t + 1, n):
                if A[i][t]:
                    _rows((A, U), t, i, _step(A[t][t], A[i][t]))
            for j in range(t + 1, n):
                if A[t][j]:
                    _cols((A, V), t, j, _step(A[t][t], A[t][j]))
            # a column step touches only columns t and j, so row t is clear;
            # column t may have been refilled
            if any(A[i][t] for i in range(t + 1, n)):
                continue
            # absorb any trailing entry the pivot does not divide yet
            d = A[t][t]
            bad = next(
                ((i, j) for i in range(t + 1, n) for j in range(t + 1, n) if A[i][j] % d),
                None,
            )
            if bad is None:
                break
            _rows((A, U), t, bad[0], (1, 1, 0, 1))
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    factors = tuple(A[t][t] for t in range(n))
    return QuotientStructure(
        invariant_factors=factors,
        to_normal=tuple(tuple(row) for row in U),
        from_normal=tuple(tuple(row) for row in V),
    )


@dataclass(frozen=True)
class SubLattice:
    """Finite-index subgroup of Z^rank, basis in canonical column HNF."""

    rank: int
    basis_matrix: tuple[tuple[int, ...], ...]
    index: int


def sublattice(M) -> SubLattice:
    """Canonicalize a full-rank generating matrix (columns generate) to a SubLattice."""
    rows = _to_matrix(M)
    r = len(rows)
    if len(rows[0]) < r:
        raise ValueError("not full rank")
    H, _ = hnf(rows)
    basis = tuple(tuple(H[i][j] for j in range(r)) for i in range(r))
    index = 1
    for i in range(r):
        index *= basis[i][i]
    return SubLattice(rank=r, basis_matrix=basis, index=index)


def scale_lattice(rank: int, n: int) -> SubLattice:
    """The sublattice n * Z^rank, of index n**rank."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if n < 1:
        raise ValueError("scale must be a positive integer")
    basis = tuple(tuple(n if i == j else 0 for j in range(rank)) for i in range(rank))
    return SubLattice(rank=rank, basis_matrix=basis, index=n**rank)


def solve_lower(B: Sequence[Sequence[int]], v: Sequence[int]) -> list[int] | None:
    """Integer y with B @ y = v for lower-triangular B, or None if there is none.

    B has one row per entry of v and a nonzero diagonal; entries right of the
    diagonal (as in the first columns of a wide Hermite form) are not read.
    """
    y: list[int] = []
    for i, row in enumerate(B):
        rem = v[i] - sum(row[j] * y[j] for j in range(i))
        if rem % row[i]:
            return None
        y.append(rem // row[i])
    return y
