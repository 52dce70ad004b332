"""Exact arithmetic with roots of unity.

A sum of N-th roots of unity is held as an integer vector over the power
basis 1, z, ..., z^(N-1) and decided (zero test, rationality test) by
reduction modulo the N-th cyclotomic polynomial.  This is what lets the
spectral identities be checked as identities rather than numerically.
For display, the real part of such a vector is enclosed on the integer
rounding grid of ``intervals``: one table of cosine enclosures per order N,
held as integer numerators, and one integer dot product per vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

import numpy as np

from .intervals import _GRID_BITS, Iv, cospi


def _polydiv_exact(num: list[int], den: Sequence[int]) -> list[int]:
    """Quotient of num by monic den over Z; raises if the division is inexact."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
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
def reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k: coordinates of z^k over the power basis 1..z^(deg-1), k < n."""
    return tuple(map(tuple, reduction_matrix(n).tolist()))


def reduce_root_vector(n: int, vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical coordinates of sum_k vec[k] * z^k modulo the n-th cyclotomic polynomial."""
    rows = reduction_rows(n)
    deg = len(rows[0])
    out = [0] * deg
    for k, c in enumerate(vec):
        if c:
            row = rows[k]
            for i in range(deg):
                out[i] += c * row[i]
    return tuple(out)


def rational_value_of_reduced(reduced: Sequence[int]):
    """The integer this reduced vector equals, or None if it is irrational."""
    if any(reduced[1:]):
        return None
    return reduced[0]


def root_vector_is_value(n: int, vec: Sequence[int], value: int) -> bool:
    """Exact test: does sum_k vec[k] * z^k equal the integer value?"""
    work = list(vec) + [0] * max(0, 1 - len(vec))
    work[0] -= value
    return not any(reduce_root_vector(n, work))


@lru_cache(maxsize=None)
def _cos_grid(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grid numerators (lo_k, hi_k) of the enclosures cospi(2k/n), k < n.

    cospi returns an exact point (0 or +-1) or a Taylor enclosure rounded out
    onto the 2**-_GRID_BITS grid, so both ends are integers over 2**_GRID_BITS.
    """
    scale = 1 << _GRID_BITS
    los, his = [], []
    for k in range(n):
        iv = cospi(Fraction(2 * k, n))
        lo, hi = iv.lo * scale, iv.hi * scale
        if lo.denominator != 1 or hi.denominator != 1:
            raise AssertionError("cosine enclosure off the rounding grid")
        los.append(lo.numerator)
        his.append(hi.numerator)
    return tuple(los), tuple(his)


def enclose_real_root_vector(n: int, vec: Sequence[int], den: int = 1) -> Iv:
    """Certified interval for the real part Re(sum_k vec[k] * z^k) / den.

    One signed integer dot product against the cosine table of order n: a
    positive coefficient takes lo_k into the lower end and hi_k into the upper
    one, a negative coefficient the other way round.  The sum is exact and on
    the grid, so this is the rounded-out sum of the scaled cosine enclosures.
    A positive ``den`` divides the grid numerators with floor and ceil, which
    is that sum scaled by 1/den and rounded out onto the grid again.  Used
    only for display of irrational weights; decisions go through the exact
    reductions above.
    """
    if len(vec) > n:
        raise ValueError("root vector longer than the order")
    if den < 1:
        raise ValueError("den must be positive")
    los, his = _cos_grid(n)
    # a negative c moves c * (hi_k - lo_k) from the plain dot products
    slack = sum(c * (h - l) for c, l, h in zip(vec, los, his) if c < 0)
    lo = (sum(map(mul, vec, los)) + slack) // den
    hi = -((slack - sum(map(mul, vec, his))) // den)
    return Iv(Fraction(lo, 1 << _GRID_BITS), Fraction(hi, 1 << _GRID_BITS))
