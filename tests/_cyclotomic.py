"""Reduction modulo cyclotomic polynomials, the reference route for deciding
sums of roots of unity: the test oracle for the integer traces of
``latspec.cyclotomic.ramanujan_sums``."""

from functools import lru_cache

import numpy as np


def _prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


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


def root_values(n: int, rows) -> list:
    """The integer each row v equals as sum_k v[k] z^k, z a primitive n-th root
    of unity, or None where it is irrational: a row is rational exactly when
    its reduction modulo the cyclotomic polynomial has no z^1.. coordinates."""
    red = np.atleast_2d(np.asarray(rows, dtype=np.int64)) @ reduction_matrix(n)
    return [None if row[1:].any() else int(row[0]) for row in red]
