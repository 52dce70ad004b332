"""Exact and outward-rounded rational interval arithmetic on one type.

A ``Weight`` is a mass or a real held as rational ends: an exact value
(``Weight.of``, lower == upper) or a certified enclosure.  Arithmetic keeps
the flag honest: a result is exact only when every operand is, and
``round_out``, ``PI``, ``sinpi`` and ``cospi`` are enclosures even where
their ends meet.  It supports the certified enclosures needed for
torus-system weights: sin(pi*q) and cos(pi*q) for rational q via argument
reduction plus an alternating Taylor series, with pi pinned between
50-digit rational bounds.  All endpoints are Fractions; rounding, when
applied, only ever widens an interval, so every enclosure stays sound.
Rounding goes onto a 2**-192 grid, and the Taylor series runs on integer
numerators over that grid (each term exactly p / (m * 2**192) for integers
p and m), building a Fraction only for the final enclosure.
``sinpi_grid`` is the one route to sin(pi t / m): ``sinpi`` and ``cospi``
wrap its grid numerators as a ``Weight``, and the cosine tables of
``cyclotomic`` read them without building a Fraction at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Optional, Union

Rat = Union[int, Fraction]

_PI_DIGITS = 314159265358979323846264338327950288419716939937510

#: endpoints are rounded onto this grid after transcendental evaluations
GRID_BITS = 192


@dataclass(frozen=True)
class Weight:
    """A mass or a real: an exact rational, or a certified interval enclosure.

    ``exact`` is part of the value: an arithmetic result is exact only when
    every operand is, and ``Weight.of`` is the one exact constructor.
    """

    lower: Fraction
    upper: Fraction
    exact: bool

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def of(cls, q: Rat) -> "Weight":
        q = Fraction(q)
        return cls(q, q, True)

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("weight is an interval, not an exact value")
        return self.lower

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.lower + other.lower, self.upper + other.upper, self.exact and other.exact)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.lower - other.upper, self.upper - other.lower, self.exact and other.exact)

    def __neg__(self) -> "Weight":
        return Weight(-self.upper, -self.lower, self.exact)

    def __mul__(self, other: "Weight") -> "Weight":
        products = (
            self.lower * other.lower,
            self.lower * other.upper,
            self.upper * other.lower,
            self.upper * other.upper,
        )
        return Weight(min(products), max(products), self.exact and other.exact)

    def scale(self, q: Rat) -> "Weight":
        q = Fraction(q)
        if q >= 0:
            return Weight(self.lower * q, self.upper * q, self.exact)
        return Weight(self.upper * q, self.lower * q, self.exact)

    def square(self) -> "Weight":
        if self.lower >= 0:
            return Weight(self.lower * self.lower, self.upper * self.upper, self.exact)
        if self.upper <= 0:
            return Weight(self.upper * self.upper, self.lower * self.lower, self.exact)
        return Weight(Fraction(0), max(self.lower * self.lower, self.upper * self.upper), self.exact)

    def recip(self) -> "Weight":
        if self.lower <= 0 <= self.upper:
            raise ZeroDivisionError("interval contains zero")
        return Weight(1 / self.upper, 1 / self.lower, self.exact)

    def clamp(self, lo: Fraction, hi: Fraction) -> "Weight":
        return Weight(max(self.lower, lo), min(self.upper, hi), self.exact)


PI = Weight(Fraction(_PI_DIGITS, 10**50), Fraction(_PI_DIGITS + 1, 10**50), False)


def round_out(w: Weight) -> Weight:
    """Widen the ends onto the 2**-GRID_BITS grid to keep denominators
    bounded; the result is an enclosure."""
    scale = 1 << GRID_BITS
    lo = Fraction((w.lower.numerator * scale) // w.lower.denominator, scale)
    hi_num = -((-w.upper.numerator * scale) // w.upper.denominator)
    return Weight(lo, Fraction(hi_num, scale), False)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _series(terms: int) -> tuple[list[int], int, list[int]]:
    """(m_k, common, common / m_k) for the Taylor terms k = 1 .. terms + 1,
    m_k = (2k)(2k+1) and common their least common multiple."""
    ms = [(2 * k) * (2 * k + 1) for k in range(1, terms + 2)]
    common = lcm(*ms)
    return ms, common, [common // m for m in ms]


_TERMS = 14
_SERIES = _series(_TERMS)


def _sin_taylor_grid(lo_n: int, lo_d: int, hi_n: int, hi_d: int, terms: int = _TERMS) -> tuple[int, int]:
    """Grid numerators of the enclosure of sin(x) for x in [lo_n/lo_d, hi_n/hi_d],
    0 <= x <= pi/2, by the alternating series.

    Term k >= 1 is round_out(term_{k-1} * round_out(x^2)) / ((2k)(2k+1)),
    i.e. an integer numerator p over m_k * 2**GRID_BITS with m_k = (2k)(2k+1),
    so the whole series runs on integers with floor and ceil divisions.  One
    extra term bounds the truncation error; the result is clipped to [0, 1]
    and rounded out.  Every step is a floor or ceil of a rational value, so
    the numerators do not depend on how the ends are written as fractions.
    """
    bits = GRID_BITS
    # x^2 rounded out onto the grid, as numerators over 2**bits
    sq_lo = (lo_n * lo_n << bits) // (lo_d * lo_d)
    sq_hi = _ceil_div(hi_n * hi_n << bits, hi_d * hi_d)
    ms, common, weights = _SERIES if terms == _TERMS else _series(terms)
    # every term is nonnegative, so its product with x^2 pairs like ends
    t_lo, t_hi = (lo_n * sq_lo) // lo_d, _ceil_div(hi_n * sq_hi, hi_d)
    lows, highs = [t_lo], [t_hi]
    for m in ms[:-1]:
        if not t_hi:
            break  # 0 <= t_lo <= t_hi, and every later term is 0 as well
        # floor(a / (m * 2**bits)) is floor(floor(a / 2**bits) / m), a shift
        # and a one-limb division; ceil likewise on -a
        t_lo, t_hi = (t_lo * sq_lo >> bits) // m, -((-t_hi * sq_hi >> bits) // m)
        lows.append(t_lo)
        highs.append(t_hi)
    # the signed sum of the terms, in units of 2**-bits / common: terms 1, 3,
    # ... are subtracted and 2, 4, ... added; the first omitted term bounds
    # the truncation error both ways
    lows, highs = list(map(mul, lows, weights)), list(map(mul, highs, weights))
    error = highs[terms] if len(highs) > terms else 0
    s_lo = sum(lows[1:terms:2]) - sum(highs[0:terms:2]) - error
    s_hi = sum(highs[1:terms:2]) - sum(lows[0:terms:2]) + error
    # x + sum, rounded out onto the grid and clipped to [0, 1]
    lo = max((lo_n * common << bits) + s_lo * lo_d, 0) // (lo_d * common)
    hi = min(_ceil_div((hi_n * common << bits) + s_hi * hi_d, hi_d * common), 1 << bits)
    return lo, hi


def sinpi_grid(t: int, m: int) -> tuple[int, int]:
    """Grid numerators of the enclosure of sin(pi t / m) for integers
    0 <= 2t <= m, exact at t / m = 1/2 (and at 0, where every term is 0).

    pi t / m is bracketed by the pi bounds times t / m, unreduced: the
    series takes floors and ceilings of rationals, so the numerators do not
    depend on how t / m is written.
    """
    if 2 * t == m:
        return 1 << GRID_BITS, 1 << GRID_BITS
    den = m * 10**50
    return _sin_taylor_grid(_PI_DIGITS * t, den, (_PI_DIGITS + 1) * t, den)


def sinpi(q: Rat) -> Weight:
    """Certified enclosure of sin(pi*q) for rational q."""
    return _sinpi_cached(Fraction(q) % 2)


@lru_cache(maxsize=65536)
def _sinpi_cached(q: Fraction) -> Weight:
    if q > 1:
        return -_sinpi_cached(q - 1)
    if q > Fraction(1, 2):
        q = 1 - q
    lo, hi = sinpi_grid(q.numerator, q.denominator)
    return Weight(Fraction(lo, 1 << GRID_BITS), Fraction(hi, 1 << GRID_BITS), False)


def cospi(q: Rat) -> Weight:
    """Certified enclosure of cos(pi*q) for rational q."""
    return sinpi(Fraction(q) + Fraction(1, 2))


_SINPI_SQ = {
    Fraction(0): Fraction(0),
    Fraction(1, 6): Fraction(1, 4),
    Fraction(1, 4): Fraction(1, 2),
    Fraction(1, 3): Fraction(3, 4),
    Fraction(1, 2): Fraction(1),
}


def sinpi_sq_exact(q: Rat) -> Optional[Fraction]:
    """Exact rational value of sin(pi*q)**2 when one exists, else None."""
    q = Fraction(q) % 1
    if q > Fraction(1, 2):
        q = 1 - q
    return _SINPI_SQ.get(q)
