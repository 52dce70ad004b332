"""Exact arithmetic with roots of unity.

A sum x of d-th roots of unity is held as an integer vector over the powers
1, z, ..., z^(d-1).  Summed over its Galois conjugates it is an integer, a
combination of Ramanujan sums, and when every conjugate is real the traces
of x and x^2 decide whether x is rational.  So the spectral identities are
checked as integer identities rather than numerically.

For display, the real part of such a vector is enclosed on the integer
rounding grid of ``intervals``: one table of cosine enclosures per order N,
held as integer numerators, one ``intervals.sinpi_grid`` evaluation per
first-quadrant angle, the route ``sinpi`` and ``cospi`` take as well.
``enclose_real_root_grid`` encloses the nonnegative rows of a finite measure
(pair counts) at once, by exact int64 dot products with that table cut into
32-bit limbs, and returns grid numerators as Python integers.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from typing import Sequence

import numpy as np

from .intervals import GRID_BITS, sinpi_grid


@lru_cache(maxsize=None)
def _mobius_terms(d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (t, t * mu(d / t)) over the divisors t of d with d / t a
    product of distinct primes, the divisors where mu(d / t) is nonzero."""
    terms, m, p = [(d, d)], d, 1
    while m > 1:
        # the next trial divisor, or m itself once it must be prime
        p = p + 1 if p * p <= m else m
        if m % p == 0:
            terms += [(t // p, -c // p) for t, c in terms]
            while m % p == 0:
                m //= p
    return tuple(terms)


def totient(d: int) -> int:
    return sum(c for _, c in _mobius_terms(d))


def cyclic_subgroup_count(moduli: Sequence[int]) -> int:
    """How many cyclic subgroups Z/m_1 x ... x Z/m_s has: the sum over the d
    dividing the exponent of N_d / phi(d), where N_d = sum over t | d of
    mu(d / t) * prod_i gcd(t, m_i) elements have order d (prod_i gcd(t, m_i)
    of them are killed by t)."""
    exponent = lcm(*moduli)
    low = [d for d in range(1, isqrt(exponent) + 1) if exponent % d == 0]
    return sum(
        sum(c // t * prod(gcd(t, m) for m in moduli) for t, c in _mobius_terms(d)) // totient(d)
        for d in {*low, *(exponent // d for d in low)}
    )


def ramanujan_sums(rows) -> tuple[np.ndarray, list[bool]]:
    """``(R, rational)`` for the rows x = sum_j row[j] z^j, z a primitive d-th
    root of unity and d the column count.

    R[:, e] = sum_j rows[:, j] c_d(j + e) is the sum of z^(u e) x_u over the
    conjugates x_u, u a unit mod d; the Ramanujan sum c_d(k) is the sum of
    t mu(d / t) over the t dividing d and k (Hardy and Wright, Thm 272), so R
    sums the rows folded modulo each such t.  A row symmetric under j -> -j
    has real conjugates, and is then rational exactly when
    phi(d) Tr(x^2) = Tr(x)^2 (Cauchy-Schwarz), Tr(x^2) = sum_j rows[:, j] R[:, j].
    """
    rows = np.asarray(rows, dtype=np.int64)
    k, d = rows.shape
    back = -np.arange(d)
    sums = np.zeros((k, d), dtype=np.int64)
    for t, c in _mobius_terms(d):
        sums += c * rows.reshape(k, d // t, t).sum(axis=1)[:, back % t]
    phi, squares = totient(d), (rows * sums).sum(axis=1).tolist()
    return sums, [phi * sq == tr * tr for sq, tr in zip(squares, sums[:, 0].tolist())]


def _cos_grid(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grid numerators (lo_k, hi_k) of the enclosures cospi(2k/n), k < n.

    cos(2 pi k / n) = sin(pi u / 2n) with u = 4k + n mod 4n, which is
    -sin(pi (u - 2n) / 2n) past u = 2n and sin(pi (2n - u) / 2n) past u = n;
    so each entry is +-sinpi(t / 2n) for one first-quadrant t, evaluated
    once by ``intervals.sinpi_grid``.  These are the numerators of
    ``cospi(Fraction(2 * k, n))`` over 2**GRID_BITS.
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
#: limbs of a table numerator offset into [0, 2**(GRID_BITS + 1)]
_LIMBS = -(-(GRID_BITS + 2) // _LIMB_BITS)


@lru_cache(maxsize=None)
def _cos_limbs(n: int) -> np.ndarray:
    """Read-only (n, 2 * _LIMBS) int64 table: the 32-bit limbs, low first, of
    2**GRID_BITS + lo_k and then of 2**GRID_BITS + hi_k."""
    off = 1 << GRID_BITS
    data = b"".join(
        (v + off).to_bytes(_LIMBS * _LIMB_BITS // 8, "little") for ends in zip(*_cos_grid(n)) for v in ends
    )
    table = np.frombuffer(data, dtype="<u4").astype(np.int64).reshape(n, 2 * _LIMBS)
    table.setflags(write=False)
    return table


def enclose_real_root_grid(n: int, rows, den: int) -> tuple[list[int], list[int]]:
    """Grid numerators (lo, hi) of certified enclosures of
    Re(sum_k row[k] * z^k) / den, one pair per row, over 2**GRID_BITS.

    z is a primitive n-th root of unity and rows is a nonnegative integer
    array with n columns (pair counts; a negative entry is refused).  Each
    coefficient takes lo_k of the cosine table into the lower end and hi_k
    into the upper one; the sum is exact and on the grid, so this is the
    rounded-out sum of the scaled cosine enclosures.  ``den`` divides the
    grid numerators with floor and ceil, which is that sum scaled by 1/den
    and rounded out onto the grid again.

    The dot products run in int64 on the table offset by 2**GRID_BITS and
    cut into 32-bit limbs; with a row total below 2**31, no limb product can
    wrap.  The offset, row total times 2**GRID_BITS, is taken from its own
    limb, and the limbs are carried into [0, 2**32) in one array pass, the
    top one signed, so each end is one ``int.from_bytes``.  Used only for
    display of irrational weights; decisions go through the exact integer
    traces above.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"root rows must be a 2-D array with {n} columns")
    if den < 1:
        raise ValueError("den must be positive")
    if not len(rows):
        return [], []  # no cosine table is built for a measure without irrational weights
    if int(rows.min()) < 0:
        raise ValueError("root rows must be nonnegative")
    totals = rows.sum(axis=1)
    if max(int(rows.max()), int(totals.max())) >= 1 << 31:  # an entry too, as an int64 total can wrap
        raise OverflowError("root row totals reach 2**31")
    limbs = (rows @ _cos_limbs(n)).reshape(2 * len(rows), _LIMBS)
    limbs[:, GRID_BITS // _LIMB_BITS] -= np.repeat(totals, 2)
    for i in range(_LIMBS - 1):
        # each limb stays within the row total * 2**32 plus a carry below 2**31
        limbs[:, i + 1] += limbs[:, i] >> _LIMB_BITS
    limbs &= (1 << _LIMB_BITS) - 1
    data = limbs.astype("<u4").tobytes()
    size = _LIMBS * _LIMB_BITS // 8
    # the top limb is the signed high part, so the ends are read two's complement
    ends = [int.from_bytes(data[i:i + size], "little", signed=True) for i in range(0, len(data), size)]
    return [lo // den for lo in ends[::2]], [-(-hi // den) for hi in ends[1::2]]
