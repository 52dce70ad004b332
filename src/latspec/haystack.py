"""Haystacks: families of primitive vectors with nonsingular r-subsets.

The generator h_n = sum_k m_k**n * beta_k (strictly increasing multipliers
m_k > 1 with collective gcd 1 over a unimodular basis) emits primitive
vectors such that any r distinct ones span a finite-index subgroup, i.e.
have nonzero determinant.  Coordinates grow exponentially in n, which is
why everything stays in arbitrary precision.

A haystack is built as one list of coordinate tuples, the prefix
h_1, ..., h_count; counts over COUNT_LIMIT, and samples with more than
SUBSET_LIMIT r-subsets to verify, are refused before any work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Optional, Sequence

from .config import admit
from .lattice import as_coords, det_exact, is_primitive

#: the multipliers of a rank-r haystack when none are given: the first r primes
MULTIPLIERS = (2, 3, 5, 7, 11, 13, 17)

#: verify_haystack_sample refuses to enumerate more r-subsets than this.
SUBSET_LIMIT = 10**6

#: make_haystack refuses to build more elements than this.  Coordinates grow
#: exponentially in n, so the cost of a prefix grows about as count**2; every
#: rank-2 sample SUBSET_LIMIT admits (count <= 1414) stays under it.
COUNT_LIMIT = 2000


def admit_subsets(count: int, r: int) -> None:
    """Refuse a sample of ``count`` distinct vectors with over SUBSET_LIMIT r-subsets."""
    if 0 <= r <= count:
        admit(comb(count, r), SUBSET_LIMIT, f"r-subsets of the sample, C({count}, {r})")


def admit_count(count: int) -> None:
    """Refuse a haystack of ``count`` elements before any is built."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    admit(count, COUNT_LIMIT, "haystack count")


def _checked(basis: Optional[Sequence], multipliers: Sequence[int], count: int):
    """The multipliers and the basis of a haystack of ``count`` elements, each
    refused as ``make_haystack`` says; ``None`` is the standard basis."""
    admit_count(count)
    m = tuple(int(x) for x in multipliers)
    if any(x <= 1 for x in m):
        raise ValueError("multipliers must all exceed 1")
    if any(a >= b for a, b in zip(m, m[1:])):
        raise ValueError("multipliers must be strictly increasing")
    if gcd(*m) != 1:
        raise ValueError("multipliers must have collective gcd 1")
    r = len(m)
    if basis is None:
        return m, tuple(tuple(1 if i == k else 0 for i in range(r)) for k in range(r))
    basis = tuple(as_coords(b) for b in basis)
    if len(basis) != r or any(len(c) != r for c in basis):
        raise ValueError("basis must consist of r vectors of rank r")
    # a determinant equals its transpose's: the vectors are read as rows
    if det_exact(basis) not in (1, -1):
        raise ValueError("basis is not unimodular")
    return m, basis


def _element(powers: Sequence[int], basis) -> tuple[int, ...]:
    """sum_k powers[k] * basis[k]."""
    return tuple(sum(p * b[i] for p, b in zip(powers, basis)) for i in range(len(basis)))


def last_element(basis: Optional[Sequence], multipliers: Sequence[int], count: int) -> tuple[int, ...]:
    """h_count alone (count >= 1), its arguments refused as ``make_haystack``
    refuses them: a caller can size the prefix before building it."""
    m, basis = _checked(basis, multipliers, count)
    return _element([x**count for x in m], basis)


def make_haystack(
    basis: Optional[Sequence],
    multipliers: Sequence[int],
    count: int,
) -> list[tuple[int, ...]]:
    """First ``count`` haystack elements h_1, ..., h_count as coordinate tuples.

    ``basis`` is a sequence of r vectors whose column matrix has determinant
    +-1; ``None`` means the standard basis.  Every element is checked
    primitive.  Counts above COUNT_LIMIT are refused before any is built.
    """
    m, basis = _checked(basis, multipliers, count)
    if any(gcd(a, b) != 1 for a, b in combinations(m, 2)):
        # Collective coprimality already forces gcd(m_1**n, ..., m_r**n) = 1
        # for every n (p-adic valuations scale linearly), so this is purely
        # informational.
        warnings.warn("multipliers are not pairwise coprime", stacklevel=2)
    out: list[tuple[int, ...]] = []
    powers = list(m)
    for _ in range(count):
        h = _element(powers, basis)
        if not is_primitive(h):
            raise AssertionError(f"haystack element {h} is not primitive")
        out.append(h)
        powers = [p * mk for p, mk in zip(powers, m)]
    return out


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
        if det_exact(subset) == 0:
            return HaystackVerdict(ok=False, singular_subset=subset)
    return HaystackVerdict(ok=True)
