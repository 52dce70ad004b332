"""Exact arithmetic with roots of unity.

A sum of N-th roots of unity is held as an integer vector over the power
basis 1, z, ..., z^(N-1) and decided (zero test, rationality test) by
reduction modulo the N-th cyclotomic polynomial.  This is what lets the
spectral identities be checked as identities rather than numerically.
The N-th cyclotomic polynomial is the product of (x^d - 1)^mu(N/d) over the
divisors d of N, multiplied and divided out exactly on Python-int
coefficient lists.

For display, the real part of such a vector is enclosed on the integer
rounding grid of ``intervals``: one table of cosine enclosures per order N,
held as integer numerators, one integer Taylor evaluation per first-quadrant
angle.  ``enclose_real_root_rows`` encloses many vectors at once with int64
products of the rows against that table cut into 32-bit limbs, which is the
exact integer dot product of each row with the table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .intervals import _GRID_BITS, Iv, sinpi_grid


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n, and
    mu(n/d) is nonzero only for d = n / (a product of distinct primes of n).
    The factors with mu = 1 are multiplied in first, then each factor with
    mu = -1 is divided out; both are one pass over the coefficient list, and
    a division that leaves a remainder raises.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # d = n over an even (ups) or odd (downs) number of distinct primes of n
    ups, downs = [n], []
    for p in _prime_factors(n):
        ups, downs = ups + [d // p for d in downs], downs + [d // p for d in ups]
    poly = [1]
    for d in ups:
        # poly * (x^d - 1): coefficient i is poly[i - d] - poly[i]
        out = [0] * d + poly
        for i, c in enumerate(poly):
            out[i] -= c
        poly = out
    for d in downs:
        # q with q * (x^d - 1) = poly, i.e. poly[i] = q[i - d] - q[i], solved upwards
        q = [0] * (len(poly) - d)
        for i in range(len(q)):
            q[i] = (q[i - d] if i >= d else 0) - poly[i]
        if poly[len(q):] != q[len(q) - d:]:
            raise ArithmeticError("inexact polynomial division")
        poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_matrix(n: int) -> np.ndarray:
    """Read-only int64 matrix whose row k holds the coordinates of z^k over the
    power basis 1..z^(deg-1), k < n.

    Row k >= deg is row k-1 moved up one power, with its z^deg coordinate
    folded back through the cyclotomic polynomial.  Every entry is checked to
    be below 2**63 / (1 + max |phi_i|), so no step of that recurrence can
    have wrapped around int64.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    low = np.array(phi[:deg], dtype=np.int64)
    rows = np.zeros((n, deg), dtype=np.int64)
    rows[np.arange(deg), np.arange(deg)] = 1
    for k in range(deg, n):
        rows[k, 1:] = rows[k - 1, :-1]
        carry = rows[k - 1, deg - 1]
        if carry:
            rows[k] -= carry * low
    if max(int(rows.max()), -int(rows.min())) * (1 + max(map(abs, phi))) >= 1 << 63:
        raise OverflowError(f"reduction rows of order {n} do not fit int64")
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _cos_grid(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grid numerators (lo_k, hi_k) of the enclosures cospi(2k/n), k < n.

    cos(2 pi k / n) = sin(pi u / 2n) with u = 4k + n mod 4n, which is
    -sin(pi (u - 2n) / 2n) past u = 2n and sin(pi (2n - u) / 2n) past u = n;
    so each entry is +-sinpi(t / 2n) for one first-quadrant t, evaluated
    once by ``intervals.sinpi_grid``.  These are the numerators of
    ``cospi(Fraction(2 * k, n))`` over 2**_GRID_BITS.
    """
    m = 2 * n
    sines: dict[int, tuple[int, int]] = {}
    los, his = [], []
    for k in range(n):
        u = (4 * k + n) % (2 * m)
        negative = u > m
        if negative:
            u -= m
        t = min(u, m - u)
        if t not in sines:
            sines[t] = sinpi_grid(t, m)
        lo, hi = sines[t]
        if negative:
            lo, hi = -hi, -lo
        los.append(lo)
        his.append(hi)
    return tuple(los), tuple(his)


_LIMB_BITS = 32
#: limbs of a table numerator offset into [0, 2**(_GRID_BITS + 1)]
_LIMBS = -(-(_GRID_BITS + 2) // _LIMB_BITS)


@lru_cache(maxsize=None)
def _cos_limbs(n: int) -> np.ndarray:
    """Read-only (n, 2 * _LIMBS) int64 table: the 32-bit limbs, low first, of
    2**_GRID_BITS + lo_k and then of 2**_GRID_BITS + hi_k."""
    off = 1 << _GRID_BITS
    data = b"".join(
        (v + off).to_bytes(_LIMBS * _LIMB_BITS // 8, "little") for ends in zip(*_cos_grid(n)) for v in ends
    )
    table = np.frombuffer(data, dtype="<u4").astype(np.int64).reshape(n, 2 * _LIMBS)
    table.setflags(write=False)
    return table


def _join_limbs(limbs: list[int]) -> int:
    out = 0
    for v in reversed(limbs):
        out = (out << _LIMB_BITS) + v
    return out


def enclose_real_root_rows(n: int, rows, den: int = 1) -> list[Iv]:
    """Certified intervals for Re(sum_k row[k] * z^k) / den, one per row.

    z is a primitive n-th root of unity and rows is an integer array with n
    columns.  A positive coefficient takes lo_k of the cosine table into the
    lower end and hi_k into the upper one, a negative coefficient the other
    way round; the sum is exact and on the grid, so this is the rounded-out
    sum of the scaled cosine enclosures.  ``den`` divides the grid numerators
    with floor and ceil, which is that sum scaled by 1/den and rounded out
    onto the grid again.

    The dot products run in int64 on the table offset by 2**_GRID_BITS and
    cut into 32-bit limbs; with at most 2**31 in absolute value per row, no
    limb product can wrap.  Used only for display of irrational weights;
    decisions go through the exact reductions above.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"root rows must be a 2-D array with {n} columns")
    if den < 1:
        raise ValueError("den must be positive")
    if not len(rows):
        return []  # no cosine table is built for a measure without irrational weights
    signed = np.flatnonzero(rows.min(axis=1) < 0)
    negative = np.minimum(rows[signed], 0)
    totals = rows.sum(axis=1)
    weight = totals.copy()  # sum of |c| per row
    weight[signed] -= 2 * negative.sum(axis=1)
    if max(int(rows.max()), -int(rows.min())) >= 1 << 31 or int(weight.max()) >= 1 << 31:
        raise OverflowError("root rows over 2**31 in absolute value")
    table = _cos_limbs(n)
    both = rows @ table
    lower, upper = both[:, :_LIMBS], both[:, _LIMBS:]
    # a negative c pairs with hi_k in the lower end and with lo_k in the
    # upper one: it adds c * (hi_k - lo_k) to the first, takes it from the second
    swap = negative @ table
    swap = swap[:, _LIMBS:] - swap[:, :_LIMBS]
    lower[signed] += swap
    upper[signed] -= swap
    lower, upper, offsets = lower.tolist(), upper.tolist(), totals.tolist()
    scale = 1 << _GRID_BITS
    out = []
    for lo, hi, total in zip(lower, upper, offsets):
        shift = total << _GRID_BITS
        lo_n = (_join_limbs(lo) - shift) // den
        hi_n = -((shift - _join_limbs(hi)) // den)
        out.append(Iv(Fraction(lo_n, scale), Fraction(hi_n, scale)))
    return out
