"""Simplex volume spectra of finite point sets and pattern-witness search.

The r!-scaled volume of a simplex on vertices v_0..v_r is the determinant of
the difference matrix (v_1-v_0, ..., v_r-v_0); the spectrum of a finite set
is every nonzero |det| realized by an (r+1)-subset.  On top of the spectrum
sit two certificate searches: an arithmetic-progression certificate (a
dilation n with n, 2n, ..., Mn all realized, each with a witness simplex)
and a pattern search for configurations

    lam_0,  lam_0 + m_1*n*lam,  lam_0 + m_k*n*lam + n*lam_k   (k = 2..p)

inside the set, with (n, lam, m_1) shared across all probe tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, product
from math import gcd
from typing import AbstractSet, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .config import (
    DIGIT_LIMIT, RANK, REQUIRED, admit, array, digits, integer, parse_fraction, product as capped_product, read_kind,
)
from .haystack import MULTIPLIERS, admit_count, make_haystack
from .lattice import as_coords, is_primitive, simplex_det
from .prng import SplitMix64

Point = tuple[int, ...]


@dataclass(frozen=True)
class PointSet:
    """Finite subset of Z^rank inside the box [-window, window]^rank."""

    rank: int
    window: int
    points: frozenset[Point]

    @cached_property
    def sorted_points(self) -> list[Point]:
        return sorted(self.points)

    @cached_property
    def spectrum(self) -> frozenset[int]:
        """Every nonzero |det| over (rank+1)-subsets, scanned once per set."""
        return frozenset(kernels.distinct_abs_dets(self.sorted_points, self.rank))

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def __len__(self) -> int:
        return len(self.points)


#: most points a ``full``, ``random`` or ``congruence`` part may materialize,
#: counted before any point is built
POINT_LIMIT = 10**6

#: the largest rank and ``ap_max`` a request may ask for, read before any
#: point is built; ``ap_max`` 10**4 takes about 0.3 s on the 15 x 15 full grid
RANK_LIMIT = 64
AP_LIMIT = 10**4


def _window_points(kind: str, rank: int, window: int):
    """The W window points in lexicographic order, and W, once admitted."""
    count = admit(capped_product([2 * window + 1] * rank), POINT_LIMIT, f"points of the {kind} set, (2*window+1)^{rank}")
    return product(range(-window, window + 1), repeat=rank), count


def density(value, path: str, scope) -> Fraction:
    """A rational in [0, 1]."""
    if isinstance(value, bool):
        raise ValueError(f"density {json.dumps(value)} is not a rational")
    d = parse_fraction(value)
    if not 0 <= d <= 1:
        raise ValueError("density must lie in [0, 1]")
    return d


def point_set_tree(value, path: str, scope) -> dict:
    """A point-set descriptor read against the table of its kind."""
    return read_kind(value, POINT_SETS, path, scope)


#: the fields of each point-set kind; a ``random`` set without a seed takes
#: the seed its ``SetTree`` carries
POINT_SETS = {
    "full": {},
    "congruence": {"modulus": (integer, REQUIRED), "offset": (array(integer, RANK), None)},
    "random": {"density": (density, REQUIRED), "seed": (integer, None)},
    "explicit": {"points": (array(integer, None, RANK), REQUIRED)},
    "union": {"parts": (array(point_set_tree), REQUIRED)},
    "intersection": {"parts": (array(point_set_tree), REQUIRED)},
    "translate": {"base": (point_set_tree, REQUIRED), "offset": (array(integer, RANK), REQUIRED)},
}


class SetTree(NamedTuple):
    """A point-set descriptor as ``point_set_tree`` reads it, with the seed of
    its seedless ``random`` parts."""

    root: dict
    seed: Optional[int] = None


def _tree(descriptor, rank: int) -> SetTree:
    return descriptor if isinstance(descriptor, SetTree) else SetTree(point_set_tree(descriptor, "set", {"rank": rank}))


def build_point_set(descriptor, rank: int, window: int) -> PointSet:
    """Materialize a descriptor (a JSON tree, read against ``POINT_SETS``,
    or a ``SetTree``) on the given window.  Kinds and their cost, for a
    window of W = (2 * window + 1)^rank points:

    - ``full``: all W points;
    - ``congruence`` (offset + modulus * Z^rank): the product of one
      progression per axis, O(|E|) points, never the whole window;
    - ``random`` (seeded splitmix64): one 64-bit draw per window point in
      lexicographic order, all W drawn as one uint64 array, O(W);
    - ``explicit``: the listed points, clipped to the window;
    - ``union``, ``intersection``, ``translate``: the cost of their parts
      plus set operations on the results.

    A ``full``, ``random`` or ``congruence`` part that would materialize
    more than ``POINT_LIMIT`` points is refused with ``ValueError`` before
    any point is built, and so is a window below 0.  The same descriptor,
    rank, window and seed always regenerate the identical set.
    """
    tree = _tree(descriptor, rank)
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window}")
    return PointSet(rank=rank, window=window, points=frozenset(_points(tree.root, rank, window, tree.seed)))


def _points(node: dict, rank: int, window: int, seed: Optional[int]) -> set:
    kind = node["kind"]
    if kind == "full":
        return set(_window_points(kind, rank, window)[0])
    if kind == "congruence":
        n = node["modulus"]
        if n < 1:
            raise ValueError("modulus must be positive")
        offset = (0,) * rank if node["offset"] is None else node["offset"]
        if len(offset) != rank:
            raise ValueError("offset rank mismatch")
        # the least x >= -window with x = o (mod n), then every n-th to window
        starts = [-window + (o + window) % n for o in offset]
        axes = [max(0, (window - x) // n + 1) for x in starts]
        admit(capped_product(axes), POINT_LIMIT, "points of the congruence set in the window")
        return set(product(*(range(x, window + 1, n) for x in starts)))
    if kind == "random":
        seed = seed if node["seed"] is None else node["seed"]
        if seed is None:
            raise ValueError("a random set without a seed needs the experiment seed")
        d = node["density"]
        threshold = (d.numerator << 64) // d.denominator
        window_points, count = _window_points(kind, rank, window)
        if threshold >> 64:  # density 1: every 64-bit draw lies below 2^64
            return set(window_points)
        keep = SplitMix64(seed).next_u64_array(count) < np.uint64(threshold)
        return set(compress(window_points, keep.tolist()))
    if kind == "explicit":
        pts = set(map(tuple, node["points"]))
        if any(len(p) != rank for p in pts):
            raise ValueError("point rank mismatch")
        return {p for p in pts if all(abs(x) <= window for x in p)}
    if kind == "translate":
        offset = node["offset"]
        if len(offset) != rank:
            raise ValueError("offset rank mismatch")
        base = _points(node["base"], rank, window, seed)
        return {p for p in (tuple(x + o for x, o in zip(q, offset)) for q in base) if all(abs(x) <= window for x in p)}
    if kind == "intersection" and not node["parts"]:
        raise ValueError("an intersection needs at least one part")
    parts = [_points(part, rank, window, seed) for part in node["parts"]]
    return set().union(*parts) if kind == "union" else set.intersection(*parts)


@dataclass(frozen=True)
class DensityEstimate:
    """Exact window densities |E ∩ [-N,N]^r| / (2N+1)^r and their running maximum."""

    windows: tuple[int, ...]
    densities: tuple[Fraction, ...]
    proxy: Fraction


def _density(count: int, window: int, rank: int) -> Fraction:
    """count / (2*window+1)^rank, refused by ``windows`` when its reduced
    denominator passes DIGIT_LIMIT digits; an empty window is density 0."""
    density = Fraction(count, (2 * window + 1) ** rank) if count else Fraction(0)
    what = f"windows entry {window}: digits of the reduced denominator of the density over (2*window+1)^{rank}"
    admit(digits(density.denominator), DIGIT_LIMIT, what)
    return density


def upper_density_estimate(descriptor, rank: int, window_sizes: Sequence[int]) -> DensityEstimate:
    """Window densities of a descriptor (or ``SetTree``), read once."""
    sizes = tuple(int(n) for n in window_sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("window sizes must increase")
    tree = _tree(descriptor, rank)
    densities = []
    for n in sizes:
        densities.append(_density(len(build_point_set(tree, rank, n).points), n, rank))
    proxy = max(densities) if densities else Fraction(0)
    return DensityEstimate(windows=sizes, densities=tuple(densities), proxy=proxy)


# ---------------------------------------------------------------------------
# simplices and spectra

@dataclass(frozen=True)
class SimplexRecord:
    vertices: tuple[Point, ...]
    det: int

    @classmethod
    def from_vertices(cls, vertices: Sequence) -> "SimplexRecord":
        vs = tuple(as_coords(v) for v in vertices)
        return cls(vertices=vs, det=simplex_det(vs))

    def verify(self) -> bool:
        return simplex_det(self.vertices) == self.det


def volume_spectrum(e: PointSet, cap: Optional[int] = None) -> AbstractSet[int]:
    """Every nonzero |det| over (rank+1)-subsets of e, exhaustively.

    Empty when no nondegenerate simplex exists; restricted to values <= cap
    when a cap is given.  Without a cap it is ``e.spectrum``, so a second
    call on the same set scans nothing.
    """
    if cap is None:
        return e.spectrum
    return kernels.distinct_abs_dets(e.sorted_points, e.rank, cap)


@dataclass(frozen=True)
class ApCertificate:
    """Result of the arithmetic-progression certificate search."""

    ok: bool
    n: Optional[int] = None
    witnesses: dict = field(default_factory=dict)  # m -> SimplexRecord
    best_n: Optional[int] = None
    missing: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def ap_certificate(e: PointSet, m_max: int) -> ApCertificate:
    """Smallest n with n, 2n, ..., m_max*n all in the spectrum, plus witnesses.

    Any feasible n is itself a spectrum value (take m = 1) and a multiple of
    the spectrum gcd, so trying the gcd first and then the spectrum values in
    increasing order finds the true minimum or proves absence.  On failure
    the candidate with the fewest missing multiples is reported.
    """
    if m_max < 1:
        raise ValueError("m_max must be positive")
    if len(e.points) < e.rank + 1:
        return ApCertificate(ok=False, reason="fewer than rank+1 points")
    spectrum = volume_spectrum(e)
    if not spectrum:
        return ApCertificate(ok=False, reason="no nondegenerate simplex")
    g, top = gcd(*spectrum), max(spectrum)
    candidates = [g] + [v for v in sorted(spectrum) if v != g]
    best_n, best_hits = None, -1
    for n in candidates:
        # every multiple above the largest value is missing
        hits = sum(n * m in spectrum for m in range(1, min(m_max, top // n) + 1))
        if hits == m_max:
            targets = [n * m for m in range(1, m_max + 1)]
            idx = kernels.find_det_witnesses(e.sorted_points, e.rank, targets)
            pts = e.sorted_points
            witnesses = {}
            for m in range(1, m_max + 1):
                rec = SimplexRecord.from_vertices([pts[i] for i in idx[n * m]])
                if abs(rec.det) != n * m:  # cross-check kernel arithmetic exactly
                    raise AssertionError("witness determinant mismatch")
                witnesses[m] = rec
            return ApCertificate(ok=True, n=n, witnesses=witnesses)
        if hits > best_hits:  # candidates increase, so ties keep the smaller n
            best_n, best_hits = n, hits
    return ApCertificate(
        ok=False,
        best_n=best_n,
        missing=tuple(m for m in range(1, m_max + 1) if best_n * m not in spectrum),
        reason="no dilation realizes every multiple",
    )


# ---------------------------------------------------------------------------
# pattern search

@dataclass(frozen=True)
class PatternWitness:
    """A verified configuration for one probe tuple.

    The points lam0, lam0 + m1*n*lam and lam0 + m_k*n*lam + n*lam_k (one pair
    per probe vector lam_k) all belong to the searched set.
    """

    n: int
    lam: Point
    m1: int
    lam0: Point
    pairs: tuple[tuple[int, Point], ...]

    def points(self) -> list[Point]:
        r = len(self.lam)
        pts = [self.lam0]
        pts.append(tuple(self.lam0[i] + self.m1 * self.n * self.lam[i] for i in range(r)))
        for mk, lamk in self.pairs:
            pts.append(
                tuple(
                    self.lam0[i] + mk * self.n * self.lam[i] + self.n * lamk[i]
                    for i in range(r)
                )
            )
        return pts


def verify_pattern_witness(e: PointSet, w: PatternWitness) -> bool:
    return is_primitive(w.lam) and all(p in e.points for p in w.points())


#: most membership tests a pattern search may ask for, counted as
#: n_max x lambda_count x |E| x 2 m_max (1 + (p - 1) |probes|) before any
#: candidate is built; a search that misses takes up to about 3 us a test
#: (a full 81 x 81 grid on a 2-core VM), so about 5 s at the limit
SEARCH_LIMIT = 2 * 10**6


@dataclass(frozen=True)
class SearchBounds:
    """Finite search region for pattern_search."""

    n_max: int = 6
    m_max: int = 6
    lambda_count: int = 6
    multipliers: Optional[tuple[int, ...]] = None

    def candidates(self, rank: int) -> list[Point]:
        mult = MULTIPLIERS[:rank] if self.multipliers is None else self.multipliers
        return make_haystack(None, mult, self.lambda_count)


@dataclass(frozen=True)
class PatternSearchResult:
    ok: bool
    witnesses: tuple[PatternWitness, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _signed_range(m_max: int):
    for m in range(1, m_max + 1):
        yield m
        yield -m


def pattern_search(
    e: PointSet,
    p: int,
    probes: Sequence[Sequence],
    bounds: SearchBounds = SearchBounds(),
) -> PatternSearchResult:
    """Find one PatternWitness per probe with (n, lam, m1) shared by all.

    Probes are (p-1)-tuples of rank-r vectors.  Scan order is deterministic:
    n ascending, lam in candidate order, m1 = 1, -1, 2, -2, ...; per probe
    the base point lam0 runs over the set in sorted order and each m_k over
    the same signed order.  Negative multipliers are accepted and recorded
    as such in the witness.  A search of more than ``SEARCH_LIMIT``
    membership tests is refused before any candidate is built, naming its
    largest factor.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    r = e.rank
    checked = []
    for probe in probes:
        vs = tuple(as_coords(v) for v in probe)
        if len(vs) != p - 1 or any(len(v) != r for v in vs):
            return PatternSearchResult(ok=False, reason=f"invalid probe: {probe!r}")
        checked.append(vs)
    if not e.points:
        return PatternSearchResult(ok=False, reason="empty point set")
    admit_count(bounds.lambda_count)
    n_max, m_max = max(bounds.n_max, 0), max(bounds.m_max, 0)
    factors = {"n_max": n_max, "lambda_count": bounds.lambda_count, "|E|": len(e.points), "m_max": m_max}
    name = max(factors, key=factors.get)
    work = capped_product([n_max, bounds.lambda_count, len(e.points), 2 * m_max, 1 + (p - 1) * len(checked)])
    formula = "n_max x lambda_count x |E| x 2 m_max (1 + (p-1) |probes|)"
    admit(work, SEARCH_LIMIT, f"{name} {factors[name]} dominates: pattern search membership tests {formula}")
    members = e.points
    # make_haystack asserts that every candidate is primitive
    lams = bounds.candidates(r)
    if not work:  # no membership test can run
        return PatternSearchResult(ok=False, reason="exhausted bounds")
    signed = tuple(_signed_range(bounds.m_max))
    for n in range(1, bounds.n_max + 1):
        for lam in lams:
            step = tuple(n * x for x in lam)
            # (lam0, lam_k) -> the first m_k with lam0 + m_k*n*lam + n*lam_k in E, or None;
            # it does not depend on m1, so each is scanned once per (n, lam)
            first_hits = {}
            for m1 in signed:
                shift1 = tuple(m1 * x for x in step)
                witnesses = []
                for probe in checked:
                    for lam0 in e.sorted_points:
                        if tuple(a + b for a, b in zip(lam0, shift1)) not in members:
                            continue
                        for lamk in probe:
                            if (lam0, lamk) not in first_hits:
                                base = tuple(a + n * b for a, b in zip(lam0, lamk))
                                first_hits[lam0, lamk] = next(
                                    (mk for mk in signed if tuple(a + mk * b for a, b in zip(base, step)) in members), None
                                )
                            if first_hits[lam0, lamk] is None:
                                break
                        else:  # every lam_k of the probe hit from this lam0
                            pairs = tuple((first_hits[lam0, lamk], lamk) for lamk in probe)
                            witnesses.append(PatternWitness(n=n, lam=lam, m1=m1, lam0=lam0, pairs=pairs))
                            break
                    else:  # no lam0 closed this probe
                        break
                else:  # every probe closed
                    for w in witnesses:
                        if not verify_pattern_witness(e, w):
                            raise AssertionError("pattern witness failed re-verification")
                    return PatternSearchResult(ok=True, witnesses=tuple(witnesses))
    return PatternSearchResult(ok=False, reason="exhausted bounds")
