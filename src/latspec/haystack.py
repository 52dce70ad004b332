"""Haystacks: families of primitive vectors with nonsingular r-subsets.

The generator h_n = sum_k m_k**n * beta_k (strictly increasing multipliers
m_k > 1 with collective gcd 1 over a unimodular basis) emits primitive
vectors such that any r distinct ones span a finite-index subgroup, i.e.
have nonzero determinant.  Coordinates grow exponentially in n, which is
why everything stays in arbitrary precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Optional, Sequence

from .lattice import LatVec, as_coords, det_exact, is_primitive, mat_from_columns

#: verify_haystack_sample refuses to enumerate more r-subsets than this.
SUBSET_LIMIT = 10**6


def admit_subsets(count: int, r: int) -> None:
    """Refuse a sample of ``count`` distinct vectors with over SUBSET_LIMIT r-subsets."""
    if 0 <= r <= count and comb(count, r) > SUBSET_LIMIT:
        raise ValueError(
            f"sample has {comb(count, r)} r-subsets (> {SUBSET_LIMIT}); verify a smaller sample"
        )


def _check_multipliers(multipliers: Sequence[int]) -> tuple[int, ...]:
    m = tuple(int(x) for x in multipliers)
    if any(x <= 1 for x in m):
        raise ValueError("multipliers must all exceed 1")
    if any(a >= b for a, b in zip(m, m[1:])):
        raise ValueError("multipliers must be strictly increasing")
    g = 0
    for x in m:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("multipliers must have collective gcd 1")
    if any(gcd(a, b) != 1 for a, b in combinations(m, 2)):
        # Collective coprimality already forces gcd(m_1**n, ..., m_r**n) = 1
        # for every n (p-adic valuations scale linearly), so this is purely
        # informational.
        warnings.warn("multipliers are not pairwise coprime", stacklevel=3)
    return m


class Haystack:
    """Lazy stream of elements h_n = sum_k m_k**n * beta_k, n = 1, 2, ...

    Coordinates grow exponentially in n, so elements are produced on demand
    and memoized.  Every emitted element is checked primitive.
    """

    def __init__(self, basis: Optional[Sequence], multipliers: Sequence[int]) -> None:
        self.multipliers = _check_multipliers(multipliers)
        r = len(self.multipliers)
        if basis is None:
            self.basis = tuple(
                tuple(1 if i == k else 0 for i in range(r)) for k in range(r)
            )
        else:
            cols = tuple(as_coords(b) for b in basis)
            if len(cols) != r or any(len(c) != r for c in cols):
                raise ValueError("basis must consist of r vectors of rank r")
            if det_exact(mat_from_columns(cols)) not in (1, -1):
                raise ValueError("basis is not unimodular")
            self.basis = cols
        self.rank = r
        self._cache: list[LatVec] = []
        self._powers = list(self.multipliers)

    def element(self, n: int) -> LatVec:
        """The n-th element (1-indexed)."""
        if n < 1:
            raise ValueError("elements are indexed from 1")
        while len(self._cache) < n:
            coords = tuple(
                sum(self._powers[k] * self.basis[k][i] for k in range(self.rank))
                for i in range(self.rank)
            )
            h = LatVec(coords)
            if not is_primitive(h):
                raise AssertionError(f"haystack element {coords} is not primitive")
            self._cache.append(h)
            self._powers = [p * mk for p, mk in zip(self._powers, self.multipliers)]
        return self._cache[n - 1]

    def prefix(self, count: int) -> list[LatVec]:
        if count < 0:
            raise ValueError("count must be nonnegative")
        return [self.element(n) for n in range(1, count + 1)]


def make_haystack(
    basis: Optional[Sequence],
    multipliers: Sequence[int],
    count: int,
) -> list[LatVec]:
    """First ``count`` haystack elements over a unimodular basis.

    ``basis`` is a sequence of r vectors whose column matrix has determinant
    +-1; ``None`` means the standard basis.
    """
    return Haystack(basis, multipliers).prefix(count)


@dataclass(frozen=True)
class HaystackVerdict:
    ok: bool
    non_primitive: Optional[tuple[int, ...]] = None
    singular_subset: Optional[tuple[tuple[int, ...], ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_haystack_sample(vectors: Sequence, r: int) -> HaystackVerdict:
    """Check a finite sample: all primitive, every r-subset nonsingular.

    Duplicates are collapsed first (the property quantifies over distinct
    elements).  The first violation in sample order is reported: a
    non-primitive element, or the lexicographically least (by position)
    singular r-subset.  Fewer than r distinct vectors pass vacuously; r must
    be at least 1.
    """
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    coords = [as_coords(v) for v in vectors]
    if any(len(c) != r for c in coords):
        raise ValueError("vector rank does not match r")
    seen = list(dict.fromkeys(coords))
    for c in seen:
        if not is_primitive(c):
            return HaystackVerdict(ok=False, non_primitive=c)
    admit_subsets(len(seen), r)
    for subset in combinations(seen, r):
        if det_exact(mat_from_columns(subset)) == 0:
            return HaystackVerdict(ok=False, singular_subset=subset)
    return HaystackVerdict(ok=True)
