"""Spectral measures of sets under Z^r-actions and the expansion pipeline.

For a finite system the spectral measure of a set B is atomic with one atom
per character of the carrier.  The characters fall into Galois orbits, one
per cyclic subgroup, each with one integer row of root counts; an orbit's
weights are rational together or not at all, and its sums are integer
Ramanujan sums.  Every mass a theorem is checked against is computed by the
exact rational coset formulas and cross-checked against those orbit sums.
Kronecker systems get truncated atom lists with certified interval weights
and an exact Parseval tail bound; interval-valued verdicts are flagged as
estimates, never promoted.

On top of the measures sit the quantitative checks: the Bochner identity,
the expansion lower bound mu(S lam.B) >= mu(B)^2 / sigma_B(annihilator),
the small-annihilator scan over a haystack, the finite-measure-space
small-intersection dichotomy, rational-spectrum shrinking through ergodic
decomposition under n * Z^r, and the intersection-witness search that chains
all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .cyclotomic import enclose_real_root_rows, ramanujan_sums, totient
from .intervals import PI, Iv, cospi, round_out, sinpi, sinpi_sq_exact
from .lattice import as_coords, scale_lattice
from .systems import (
    BLOCK_CELLS,
    BoxUnion,
    ComponentPresentation,
    CyclicSubgroups,
    ErgodicComponent,
    ErgodicSetSpec,
    FiniteSystem,
    KroneckerSystem,
    box_grid,
    component_presentation,
    ergodic_components,
    kronecker_ergodicity_certificate,
    kronecker_orbit_saturation,
    orbit_saturation,
)

# ---------------------------------------------------------------------------
# characters

@dataclass(frozen=True)
class FiniteCharacter:
    """Character of Z^r pulled back from the dual of a finite carrier.

    Evaluation at lam is z^(sum exps[j] * lam[j]) for z a primitive root of
    unity of the carrier exponent; always rational (finite order).
    """

    exps: tuple[int, ...]
    dual_label: int

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps)


@dataclass(frozen=True)
class KroneckerCharacter:
    """Torus character xi_k(lam) = e(k^T Theta lam) via its pairing row.

    The row k^T Theta is held in integers over ``den``: ``rat`` is den times
    its rational part and ``sym[t]`` den times its coefficients of symbol t.
    """

    freq: tuple[int, ...]
    den: int
    rat: tuple[int, ...]
    sym: tuple[tuple[int, ...], ...]

    def annihilates(self, lam) -> bool:
        c = as_coords(lam)
        return all(_dot(row, c) == 0 for row in self.sym) and _dot(self.rat, c) % self.den == 0

    @property
    def is_trivial(self) -> bool:
        return self.is_rational and all(x % self.den == 0 for x in self.rat)

    @property
    def is_rational(self) -> bool:
        return not any(any(row) for row in self.sym)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v, strict=True))


Character = Union[FiniteCharacter, KroneckerCharacter]


# ---------------------------------------------------------------------------
# weights

@dataclass(frozen=True)
class Weight:
    """A mass: an exact rational, or a certified interval enclosure."""

    lower: Fraction
    upper: Fraction
    exact: bool

    @classmethod
    def of(cls, q) -> "Weight":
        q = Fraction(q)
        return cls(q, q, True)

    @classmethod
    def interval(cls, iv: Iv) -> "Weight":
        return cls(iv.lo, iv.hi, False)

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("weight is an interval, not an exact value")
        return self.lower

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            self.lower + other.lower,
            self.upper + other.upper,
            self.exact and other.exact,
        )

    def scale(self, q: Fraction) -> "Weight":
        q = Fraction(q)
        if q >= 0:
            return Weight(self.lower * q, self.upper * q, self.exact)
        return Weight(self.upper * q, self.lower * q, self.exact)

    def clamp(self, lo: Fraction, hi: Fraction) -> "Weight":
        return Weight(max(self.lower, lo), min(self.upper, hi), self.exact)


ZERO_WEIGHT = Weight.of(0)


@dataclass(frozen=True)
class Atom:
    character: Character
    weight: Weight


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic spectral measure sigma_B of a set, at its raw scale.

    ``total`` is the full mass mu(B) and ``trivial`` the trivial-atom mass
    mu(B)^2, both exact and positive; for finite systems the tail is exactly
    zero.  The normalized measure of the expansion bound is sigma_B / mu(B)^2:
    a normalized figure is one division of a raw mass by ``trivial``.
    """

    kind: str
    system: object
    base_set: object
    atoms: tuple[Atom, ...]
    tail: Weight
    total: Weight
    trivial: Weight


# ---------------------------------------------------------------------------
# finite-system tables (shared by the measure, Bochner and mass routines)

#: most root counts |A| x exponent of a finite measure, checked first (it bounds the
#: steps of the subgroup index), and most coordinates orbits x |B| x s of its rows
CELL_LIMIT = 2 * 10**7


@dataclass(frozen=True, eq=False)
class _OrbitTables:
    """The characters of A in Galois orbits, one per cyclic subgroup <c>.

    Label c pairs with h as z^(pairing(c) @ h), z a primitive exponent-th
    root of unity; orbit o holds the u * c, u a unit and c its least label.
    ``rows[o, k]`` counts the (a, b) in B^2 with chi_c(a - b) = z^k, so
    |A|^2 |u*c hat|^2 = sum_k rows[o, k] z^(u k); ``sums[o, e]`` is the sum
    over the orbit of chi(g) |A|^2 |chi hat|^2 for any g with chi_c(g) = z^e
    (read only at such e), and ``rational[o]`` tells whether the orbit's
    weights are rational.
    """

    subgroups: CyclicSubgroups
    pairing: np.ndarray
    rows: np.ndarray
    sums: np.ndarray
    rational: np.ndarray


def _with_sums(sub: CyclicSubgroups, pairing: np.ndarray, rows: np.ndarray) -> _OrbitTables:
    exponent = rows.shape[1]
    traces, rational = ramanujan_sums(rows)
    # over z each of the phi(d) characters of order d recurs phi(N) / phi(d) times
    repeats = totient(exponent) // np.bincount(sub.subgroup_of)
    return _OrbitTables(sub, pairing, rows, traces // repeats[:, None], np.array(rational, dtype=bool))


@lru_cache(maxsize=256)
def _orbit_tables(sys_: FiniteSystem, bset: frozenset) -> _OrbitTables:
    n, order = sys_.size, sys_.exponent
    if n * order > CELL_LIMIT:
        raise ValueError(f"|A| x exponent = {n} x {order} root counts, over the limit of {CELL_LIMIT}")
    # |B|^4 phi(exponent) bounds every orbit sum and each product of a row with them
    bound = len(bset) ** 4 * totient(order)
    if bound >= 1 << 63:
        raise ValueError(f"|B|^4 x phi(exponent) = {bound} bounds the orbit sums, over int64")
    sub = sys_.cyclic_subgroups()
    cells = len(sub.generator) * len(bset) * max(1, len(sys_.moduli))
    if cells > CELL_LIMIT:
        raise ValueError(f"orbits x |B| x s = {cells} coordinates, over the limit of {CELL_LIMIT}")
    pairing = sys_.vectors(sub.generator) * (order // np.array(sys_.moduli, dtype=np.int64))
    b = sys_.vectors(np.fromiter(bset, dtype=np.int64))
    rows = np.zeros((len(pairing), order), dtype=np.int64)
    for row, c, d in zip(rows, pairing, sub.order.tolist()):
        # the cyclic autocorrelation of B's histogram over the values of chi_c
        step = order // d
        hist = np.bincount((b @ c) % order // step, minlength=d)
        full = np.convolve(hist, hist[::-1])
        row[::step] = full[d - 1:]
        row[step::step] += full[:d - 1]
    return _with_sums(sub, pairing, rows)


def _coset_mass(sys_: FiniteSystem, cells: np.ndarray, g: int) -> Fraction:
    """Sum over the cosets C of <g> of |C ∩ B|^2, over |<g>| * |A|, for B an
    index array or a mask: sigma_B of the characters trivial on <g>, and the
    mean of mu(B ∩ (B + m*g)) over one period of m."""
    labels = sys_.coset_labels([g])
    per_coset = np.bincount(labels[cells], minlength=sys_.size)
    return Fraction(int(per_coset @ per_coset), sys_.order_of(g) * sys_.size)


@lru_cache(maxsize=65536)
def _cyclic_coset_mass(sys_: FiniteSystem, bset: frozenset, g: int) -> Fraction:
    return _coset_mass(sys_, np.fromiter(bset, dtype=np.int64), g)


def spectral_measure(sys_: FiniteSystem, b: Iterable[int]) -> SpectralMeasure:
    """Exact atomic spectral measure of b on a finite system.

    One atom per carrier character, in label order.  A Galois orbit's weights
    are rational together, each its trace over phi(d) |A|^2, or each a
    certified enclosure read from the orbit's row moved by its unit.  The
    trivial atom and the total are verified against mu(B)^2 and mu(B).
    """
    bset = frozenset(b)
    if not bset:
        raise ValueError("set must have positive measure")
    return _spectral_measure_cached(sys_, bset)


@lru_cache(maxsize=512)
def _spectral_measure_cached(sys_: FiniteSystem, bset: frozenset) -> SpectralMeasure:
    t = _orbit_tables(sys_, bset)
    n, order = sys_.size, sys_.exponent
    mu_b = Fraction(len(bset), n)
    orbit_of = t.subgroups.subgroup_of
    # a rational orbit's trace is shared evenly by its characters
    traces = zip(t.sums[:, 0].tolist(), np.bincount(orbit_of).tolist(), t.rational)
    by_orbit = [Weight.of(Fraction(tr, k * n * n)) if rational else None for tr, k, rational in traces]
    weights = [by_orbit[o] for o in orbit_of.tolist()]
    irrational = np.flatnonzero(~t.rational[orbit_of])
    block = max(1, BLOCK_CELLS // order)
    for lo in range(0, len(irrational), block):
        # the row of u * c is the orbit's row moved from k to u * k
        chars = irrational[lo:lo + block]
        rows = np.empty((len(chars), order), dtype=np.int64)
        moved = t.subgroups.unit_of[chars, None] * np.arange(order) % order
        rows[np.arange(len(chars))[:, None], moved] = t.rows[orbit_of[chars]]
        for c, iv in zip(chars.tolist(), enclose_real_root_rows(order, rows, n * n)):
            weights[c] = Weight.interval(iv)
    # chi_(u c)(lam) = chi_c(lam)^u
    exps = t.subgroups.unit_of[:, None] * (t.pairing @ sys_.vectors(list(sys_.gens)).T)[orbit_of] % order
    atoms = [
        Atom(character=FiniteCharacter(exps=tuple(e), dual_label=label), weight=w)
        for label, (e, w) in enumerate(zip(exps.tolist(), weights))
    ]
    trivial = [a for a in atoms if a.character.is_trivial]
    if len(trivial) != 1 or trivial[0].weight.value != mu_b * mu_b:
        raise AssertionError("trivial atom mass must equal mu(B)^2")
    if int(t.sums[:, 0].sum()) != len(bset) * n:
        raise AssertionError("atom total must equal mu(B)")
    return SpectralMeasure(
        kind="finite",
        system=sys_,
        base_set=bset,
        atoms=tuple(atoms),
        tail=ZERO_WEIGHT,
        total=Weight.of(mu_b),
        trivial=Weight.of(mu_b * mu_b),
    )


# ---------------------------------------------------------------------------
# Kronecker spectral measure

#: most atoms a truncated Kronecker measure may enumerate, (2 * trunc + 1)^dim,
#: checked before the first atom is built; a dim-2 atom takes about 0.27 ms
#: and 1.1 KB (CPython 3.11 on a 2-core VM), so the limit is about 27 s
ATOM_LIMIT = 10**5


@dataclass(frozen=True)
class _CIv:
    re: Iv
    im: Iv

    def __add__(self, other: "_CIv") -> "_CIv":
        return _CIv(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "_CIv") -> "_CIv":
        return _CIv(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def abs_sq(self) -> Iv:
        return self.re.square() + self.im.square()


def _interval_factor_sq(k: int, length: Fraction) -> tuple[Fraction, Optional[Iv]]:
    """(exact_part, interval_part) with |f(k)|^2 = exact_part * interval_part."""
    if k == 0:
        return length * length, None
    s2 = sinpi_sq_exact(Fraction(k) * length)
    pik_sq = PI.square().scale(Fraction(k * k))
    if s2 is not None:
        if s2 == 0:
            return Fraction(0), None
        return s2, pik_sq.recip()
    return Fraction(1), sinpi(Fraction(k) * length).square() * pik_sq.recip()


def _complex_factor(k: int, a: Fraction, b: Fraction) -> _CIv:
    if k == 0:
        return _CIv(Iv.point(b - a), Iv.point(0))
    x = cospi(2 * k * a) - cospi(2 * k * b)
    y = sinpi(2 * k * b) - sinpi(2 * k * a)
    denom = PI.scale(Fraction(2 * k)).recip()
    return _CIv(y * denom, -(x * denom))


def _kron_weight(b: BoxUnion, k: tuple[int, ...]) -> Weight:
    if all(x == 0 for x in k):
        v = b.volume()
        return Weight.of(v * v)
    if len(b.boxes) == 1:
        box = b.boxes[0]
        exact = Fraction(1)
        iv: Optional[Iv] = None
        for kj, (lo, hi) in zip(k, box.bounds, strict=True):
            e, part = _interval_factor_sq(kj, hi - lo)
            exact *= e
            if exact == 0:
                return Weight.of(0)
            if part is not None:
                iv = part if iv is None else iv * part
        if iv is None:
            return Weight.of(exact)
        scaled = round_out(iv.scale(exact))
        return Weight.interval(scaled.intersect(Iv(Fraction(0), Fraction(1))))
    total = _CIv(Iv.point(0), Iv.point(0))
    for box in b.boxes:
        f = _CIv(Iv.point(1), Iv.point(0))
        for kj, (lo, hi) in zip(k, box.bounds, strict=True):
            f = f * _complex_factor(kj, lo, hi)
        total = total + f
    sq = round_out(total.abs_sq()).intersect(Iv(Fraction(0), Fraction(1)))
    return Weight.interval(sq)


def spectral_measure_kronecker(
    sys_: KroneckerSystem, b: BoxUnion, trunc: int = 64
) -> SpectralMeasure:
    """Truncated atomic spectral measure of a box union on a torus system.

    Atoms are enumerated for |k|_inf <= trunc with certified interval
    weights; the Parseval identity makes mu(B) minus the enumerated mass an
    exact nonnegative tail bound, attached to the result.  More than
    ``ATOM_LIMIT`` atoms are refused with ``ValueError`` before any is built.
    """
    if trunc < 0:
        raise ValueError("truncation radius must be nonnegative")
    if b.dim != sys_.dim:
        raise ValueError("set dimension mismatch")
    count = (2 * trunc + 1) ** sys_.dim
    if count > ATOM_LIMIT:
        raise ValueError(
            f"(2*{trunc}+1)^{sys_.dim} = {count} atoms, over the limit of {ATOM_LIMIT}"
        )
    cert = kronecker_ergodicity_certificate(sys_)
    if not cert["ergodic"]:
        # the trivial-atom identity below presumes ergodicity; a nonzero
        # frequency with rational pairing would scale to an integer one
        raise ValueError("system is not ergodic; spectral measure undefined here")
    mu_b = b.volume()
    atoms = []
    lo_sum = Fraction(0)
    hi_sum = Fraction(0)
    for k in product(range(-trunc, trunc + 1), repeat=sys_.dim):
        w = _kron_weight(b, k)
        lo_sum += w.lower
        hi_sum += w.upper
        char = KroneckerCharacter(k, sys_.den, *sys_.pairing(k))
        atoms.append(Atom(character=char, weight=w))
    tail = Weight(max(Fraction(0), mu_b - hi_sum), max(Fraction(0), mu_b - lo_sum), False)
    return SpectralMeasure(
        kind="kronecker",
        system=sys_,
        base_set=b,
        atoms=tuple(atoms),
        tail=tail,
        total=Weight.of(mu_b),
        trivial=Weight.of(mu_b * mu_b),
    )


# ---------------------------------------------------------------------------
# masses and identities

def annihilator_mass(sigma: SpectralMeasure, lam) -> Weight:
    """Raw mass sigma_B of the characters with xi(lam) = 1.

    Divide by ``sigma.trivial.value`` for the normalized mass.  lam = 0
    returns the total mass (every character annihilates 0).  Finite
    systems give an exact rational, computed by the coset formula and
    cross-checked against the traces of the annihilating orbits; Kronecker
    systems give a certified interval including the tail.
    """
    c = as_coords(lam)
    if all(x == 0 for x in c):
        return sigma.total
    if sigma.kind == "finite":
        sys_: FiniteSystem = sigma.system
        g = sys_.phi(c)
        value = _cyclic_coset_mass(sys_, sigma.base_set, g)
        # independent atom route: the traces of the orbits trivial on g
        t = _orbit_tables(sys_, sigma.base_set)
        on_g = (t.pairing @ sys_.vectors(g)) % sys_.exponent == 0
        if Fraction(int(t.sums[on_g, 0].sum()), sys_.size**2) != value:
            raise AssertionError("coset formula disagrees with atom sum")
        return Weight.of(value)
    acc = ZERO_WEIGHT
    for a in sigma.atoms:
        if a.character.annihilates(c):
            acc = acc + a.weight
    # the annihilating share of the tail is anywhere in [0, tail.upper]
    acc = Weight(acc.lower, acc.upper + sigma.tail.upper, False)
    return acc.clamp(Fraction(0), sigma.total.upper)


def _kron_rational_annihilator_exact(sys_: KroneckerSystem, b: BoxUnion, lam) -> Fraction:
    """sigma_B of the annihilator of a rational torus direction, exactly.

    The correlation sequence mu(B ∩ m lam.B) is periodic, so the mass equals
    its plain average over one period (tail included, no truncation error):
    the coset formula on the rational grid that carries B and Theta lam.
    """
    return _coset_mass(*box_grid(b, sys_.rational_shift(lam)))


def rational_mass_excluding_trivial(sigma: SpectralMeasure) -> Weight:
    """Mass on rational, nontrivial characters.

    Finite systems: every atom is rational, so this is total - trivial,
    exactly.  Kronecker systems: the enumerated rational mass, exact zero
    when it vanishes; the measure exists only for ergodic systems, where
    the frequency matrix certifies that only k = 0 pairs rationally, so no
    rational mass hides in the tail.
    """
    if sigma.kind == "finite":
        return Weight.of(sigma.total.value - sigma.trivial.value)
    enumerated = ZERO_WEIGHT
    for a in sigma.atoms:
        if a.character.is_rational and not a.character.is_trivial:
            enumerated = enumerated + a.weight
    if enumerated.lower == enumerated.upper == 0:
        return Weight.of(0)
    return enumerated


@dataclass(frozen=True)
class BochnerReport:
    ok: bool
    checked: int
    violations: tuple[tuple[int, ...], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_bochner(sys_: FiniteSystem, b: Iterable[int], lam_box: int) -> BochnerReport:
    """Exact check of mu(B ∩ lam.B) against the character sum of sigma_B.

    Every lam in [-lam_box, lam_box]^rank is checked, distinct lam sharing an
    image once.  The character sum at the raw scale, |A|^2 sigma_B, adds one
    integer Ramanujan sum per Galois orbit and is compared to |A| times the
    counting value.
    """
    bset = frozenset(b)
    t = _orbit_tables(sys_, bset)
    lams = list(product(range(-lam_box, lam_box + 1), repeat=sys_.rank))
    gens = sys_.vectors(list(sys_.gens))
    flat = sys_.translate(0, np.array(lams, dtype=np.int64).reshape(len(lams), sys_.rank) @ gens)
    images, which = np.unique(flat, return_inverse=True)
    g = sys_.vectors(images)
    sums = sum(row[(g @ c) % sys_.exponent] for c, row in zip(t.pairing, t.sums))
    in_b = sys_.mask(bset)
    b_idx = np.flatnonzero(in_b)[:, None]
    # |B ∩ (B + g)| for blocks of images, |B| x s coordinates per image
    block = max(1, BLOCK_CELLS // max(1, len(bset) * len(sys_.moduli)))
    counts = np.zeros(len(g), dtype=np.int64)
    for lo in range(0, len(g), block):
        counts[lo:lo + block] = np.count_nonzero(in_b[sys_.translate(b_idx, -g[lo:lo + block])], axis=0)
    ok = (sums == counts * sys_.size).tolist()
    violations = tuple(lam for lam, i in zip(lams, which.tolist()) if not ok[i])
    return BochnerReport(ok=not violations, checked=len(lams), violations=violations)


@dataclass(frozen=True)
class ExpansionCheck:
    bound: Weight
    measured: Weight
    ok: bool
    applicable: bool
    estimate: bool
    note: str = ""


def expansion_bound_check(
    sys_,
    b,
    lam,
    sspec: Optional[ErgodicSetSpec] = None,
) -> ExpansionCheck:
    """Check mu(S lam.B) >= mu(B)^2 / sigma_B(annihilator of lam).

    Exact on finite systems, where a false verdict raises (it would be a
    library bug).  Averaging specs with step > 1 are not universal ergodic
    sets, so for them the comparison is reported but not asserted.  On
    Kronecker systems the saturation itself is exact only for rational
    directions; otherwise the spectral bound is reported as a certified
    lower estimate.
    """
    c = as_coords(lam)
    if all(x == 0 for x in c):
        raise ValueError("direction must be nonzero")
    if isinstance(sys_, FiniteSystem):
        return _expansion_bound(spectral_measure(sys_, b), c, sspec)
    return _expansion_bound(spectral_measure_kronecker(sys_, b), c, sspec)


def _expansion_bound(
    sigma: SpectralMeasure, c: tuple[int, ...], sspec: Optional[ErgodicSetSpec]
) -> ExpansionCheck:
    """expansion_bound_check read off sigma, the measure the caller holds of
    its base set B, along the nonzero direction c.

    A Kronecker sigma is read at whatever truncation it was built.
    """
    sys_, b = sigma.system, sigma.base_set
    applicable = sspec is None or sspec.universal
    if isinstance(sys_, FiniteSystem):
        bound = sigma.trivial.value / annihilator_mass(sigma, c).value
        _, measured = orbit_saturation(sys_, b, c, sspec)
        ok = measured >= bound
        if applicable and not ok:
            raise AssertionError(
                f"expansion bound violated: measured {measured} < bound {bound}"
            )
        return ExpansionCheck(
            bound=Weight.of(bound),
            measured=Weight.of(measured),
            ok=ok,
            applicable=applicable,
            estimate=False,
        )
    t = sigma.trivial.value
    mass = annihilator_mass(sigma, c)
    bound = Weight(t / mass.upper, 1 / max(mass.lower / t, Fraction(1)), False)
    sat = kronecker_orbit_saturation(sys_, b, c)
    if sat.exact:
        # rational direction: the annihilator mass is the exact average of
        # mu(B ∩ m lam.B) over one period, and must land inside the atom
        # interval
        exact_mass = _kron_rational_annihilator_exact(sys_, b, c)
        if not mass.lower <= exact_mass <= mass.upper:
            raise AssertionError("period-average mass escapes the atom interval")
        measured = Weight.of(sat.lower)
        exact_bound = Weight.of(t / exact_mass)
        ok = measured.value >= exact_bound.value
        if applicable and not ok:
            raise AssertionError(
                "expansion bound violated on a rational torus direction"
            )
        return ExpansionCheck(
            bound=exact_bound, measured=measured, ok=ok, applicable=applicable, estimate=False
        )
    measured = Weight(max(sat.lower, bound.lower), Fraction(1), False)
    return ExpansionCheck(
        bound=bound,
        measured=measured,
        ok=True,
        applicable=applicable,
        estimate=True,
        note="irrational torus direction: measured value is the certified spectral bound",
    )


# ---------------------------------------------------------------------------
# small intersections and haystack scans

@dataclass(frozen=True)
class SmallIntersectionResult:
    qualifying_index: Optional[int]
    threshold: Fraction
    violating_subset: Optional[tuple[int, ...]] = None
    violating_measure: Optional[Fraction] = None


def small_intersection_bound(
    weights: Sequence[Fraction],
    sets: Sequence[Iterable[int]],
    p: int,
) -> SmallIntersectionResult:
    """Find an index with nu(A_n) < p * nu(Y) / N, or a positive p-fold intersection.

    ``weights`` are the point masses of the finite space Y; ``sets`` are
    index collections.  The smallest qualifying index wins; when none
    qualifies, the lexicographically least p-subset with positive
    intersection measure is returned (one must exist).
    """
    n_sets = len(sets)
    if n_sets < 1 or p < 1:
        raise ValueError("need at least one set and p >= 1")
    w = [Fraction(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    total = sum(w, start=Fraction(0))
    if total == 0:
        # the strict conclusion is unsatisfiable on a null space; positive
        # total measure is part of the contract
        raise ValueError("total measure must be positive")
    threshold = Fraction(p) * total / n_sets
    idx_sets = [frozenset(int(i) for i in s) for s in sets]
    for i, s in enumerate(idx_sets):
        m = sum((w[j] for j in s), start=Fraction(0))
        if m < threshold:
            return SmallIntersectionResult(qualifying_index=i, threshold=threshold)
    if comb(n_sets, p) > 10**6:
        raise ValueError("too many p-subsets to scan; shrink the instance")
    for subset in combinations(range(n_sets), p):
        inter = idx_sets[subset[0]]
        for j in subset[1:]:
            inter = inter & idx_sets[j]
        m = sum((w[j] for j in inter), start=Fraction(0))
        if m > 0:
            return SmallIntersectionResult(
                qualifying_index=None,
                threshold=threshold,
                violating_subset=subset,
                violating_measure=m,
            )
    raise AssertionError(
        "no qualifying index and no positive p-fold intersection: impossible"
    )


@dataclass(frozen=True)
class IrrationalPart:
    """The certified-irrational part of a spectral measure, at its raw scale."""

    kind: str
    system: object
    atoms: tuple[Atom, ...]
    tail: Weight
    total: Weight

    def annihilator_mass(self, lam) -> Weight:
        acc = ZERO_WEIGHT
        for a in self.atoms:
            if a.character.annihilates(lam):
                acc = acc + a.weight
        acc = Weight(acc.lower, acc.upper + self.tail.upper, self.tail.upper == 0 and acc.exact)
        return acc.clamp(Fraction(0), self.total.upper)


def irrational_part(sigma: SpectralMeasure) -> IrrationalPart:
    """Split off the part of sigma supported outside the rational spectrum.

    No rational mass hides in a Kronecker tail: the measure exists only for
    ergodic systems, where only k = 0 pairs rationally.  Finite systems have
    no irrational atoms by construction, so their irrational part is the
    zero measure.
    """
    if sigma.kind == "finite":
        return IrrationalPart(
            kind="finite",
            system=sigma.system,
            atoms=(),
            tail=ZERO_WEIGHT,
            total=ZERO_WEIGHT,
        )
    atoms = tuple(a for a in sigma.atoms if not a.character.is_rational)
    lo = sum((a.weight.lower for a in atoms), start=Fraction(0))
    hi = sum((a.weight.upper for a in atoms), start=Fraction(0)) + sigma.tail.upper
    return IrrationalPart(
        kind="kronecker",
        system=sigma.system,
        atoms=atoms,
        tail=sigma.tail,
        total=Weight(lo, hi, lo == hi),
    )


@dataclass(frozen=True)
class HaystackSearchResult:
    lam: tuple[int, ...]
    index: int
    mass: Weight


def _ceil_fraction(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def haystack_annihilator_search(
    tau: IrrationalPart,
    sample: Sequence,
    delta: Fraction,
    rank: int,
) -> HaystackSearchResult:
    """First sample element lam with tau(annihilator of lam) < delta.

    The scan length rank * tau(total) / delta suffices for a haystack sample,
    so a certified miss within it is a hard failure; an uncertifiable miss
    (interval straddles delta) asks for a finer truncation instead.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    required = _ceil_fraction(Fraction(rank) * tau.total.upper / delta)
    if len(sample) < max(required, 1):
        raise ValueError(
            f"sample too short: need at least {max(required, 1)} haystack elements"
        )
    straddle = False
    for i, lam in enumerate(sample):
        c = as_coords(lam)
        mass = tau.annihilator_mass(c)
        if mass.upper < delta:
            return HaystackSearchResult(lam=c, index=i, mass=mass)
        if mass.lower < delta:
            straddle = True
    if straddle:
        raise RuntimeError(
            "annihilator masses straddle delta at this truncation; increase trunc"
        )
    raise AssertionError(
        "no small annihilator within the guaranteed scan: library bug"
    )


# ---------------------------------------------------------------------------
# the directional-expansion theorem pipeline

@dataclass(frozen=True)
class DirectionalExpansionResult:
    status: str  # "ok" | "vacuous" | "refused"
    rational_mass: Weight
    lam: Optional[tuple[int, ...]] = None
    measured: Optional[Weight] = None
    bound: Optional[Weight] = None
    delta: Optional[Fraction] = None
    estimate: bool = False
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def directional_expansion_theorem_check(
    sys_,
    b,
    eps_o: Fraction,
    eps: Fraction,
    sample: Sequence,
    sspec: Optional[ErgodicSetSpec] = None,
    trunc: int = 64,
) -> DirectionalExpansionResult:
    """Find a haystack element expanding b beyond 1 - eps.

    Requires the normalized rational nontrivial mass to be at most eps_o and
    eps > eps_o.  The admissible delta interval from those two numbers is
    split at its midpoint, the raw irrational part is scanned for an
    annihilator below delta * mu(B)^2, and the resulting direction's
    expansion is verified (exact on finite systems, certified-estimate on
    torus systems).  eps >= 1 makes the conclusion vacuous and is refused as
    such.
    """
    eps_o = Fraction(eps_o)
    eps = Fraction(eps)
    if eps_o < 0:
        raise ValueError("eps_o must be nonnegative")
    if eps <= eps_o:
        raise ValueError("eps must exceed eps_o")
    if isinstance(sys_, FiniteSystem):
        sigma = spectral_measure(sys_, b)
    else:
        sigma = spectral_measure_kronecker(sys_, b, trunc)
    t = sigma.trivial.value
    ratmass = rational_mass_excluding_trivial(sigma).scale(1 / t)
    if ratmass.lower > eps_o:
        return DirectionalExpansionResult(
            status="refused",
            rational_mass=ratmass,
            note=f"rational nontrivial mass exceeds eps_o = {eps_o}",
        )
    if not ratmass.exact and ratmass.upper > eps_o:
        return DirectionalExpansionResult(
            status="refused",
            rational_mass=ratmass,
            note="rational mass cannot be certified below eps_o at this truncation",
        )
    if eps >= 1:
        return DirectionalExpansionResult(
            status="vacuous",
            rational_mass=ratmass,
            note="eps >= 1 makes expansion > 1 - eps vacuous",
        )
    hi = (1 - (1 + eps_o) * (1 - eps)) / (1 - eps)
    delta = hi / 2
    tau = irrational_part(sigma)
    hit = haystack_annihilator_search(tau, sample, delta * t, sigma.system.rank)
    if all(x == 0 for x in hit.lam):
        raise ValueError("direction must be nonzero")
    check = _expansion_bound(sigma, hit.lam, sspec)
    target = 1 - eps
    if check.estimate:
        if check.measured.lower <= target:
            raise RuntimeError(
                "cannot certify expansion beyond 1 - eps at this truncation"
            )
    else:
        if not check.measured.value > target:
            raise AssertionError(
                "expansion theorem pipeline produced an insufficient direction"
            )
    return DirectionalExpansionResult(
        status="ok",
        rational_mass=ratmass,
        lam=hit.lam,
        measured=check.measured,
        bound=check.bound,
        delta=delta,
        estimate=check.estimate,
    )


# ---------------------------------------------------------------------------
# shrinking the rational spectrum

@dataclass(frozen=True)
class ShrinkResult:
    n: int
    component: ErgodicComponent
    presentation: ComponentPresentation
    c: Fraction
    nu_b: Fraction
    rational_mass: Fraction
    pi_mass: Fraction
    tried: tuple[int, ...]


def _factorial_candidates(exponent: int) -> list[int]:
    out = []
    f = 1
    m = 1
    while f < exponent:
        out.append(f)
        m += 1
        f *= m
    if not out or out[-1] != exponent:
        out.append(exponent)
    return out


def shrink_rational_spectrum(
    sys_: FiniteSystem, b: Iterable[int], eps_o: Fraction
) -> ShrinkResult:
    """Find n and an ergodic component of the n * Z^r sub-action whose
    normalized rational nontrivial mass falls below eps_o.

    Scans n through 1!, 2!, 3!, ... short-circuited at the carrier exponent,
    where success is guaranteed (the sub-action is trivial, components are
    points).  At each n the component is selected from the complement of the
    two Markov-bad families: rational mass at least three times the ambient
    pulled-back mass, or nu(B) at most mu(B)/3.  The returned component is
    re-measured through its standalone presentation as a cross-check.
    """
    eps_o = Fraction(eps_o)
    if eps_o <= 0:
        raise ValueError("eps_o must be positive")
    bset = frozenset(b)
    if not bset:
        raise ValueError("set must have positive measure")
    mu_b = sys_.measure(bset)
    tried = []
    for n in _factorial_candidates(sys_.exponent):
        tried.append(n)
        L = scale_lattice(sys_.rank, n)
        # each component with its nu(B), measured once; only those meeting B
        q_b = []
        for comp in ergodic_components(sys_, L):
            hits = len(bset & comp.support)
            if hits:
                q_b.append((comp, Fraction(hits, len(comp.support))))
        c = min(comp.weight for comp, _ in q_b)
        # the coset formula over the components: each coset C of phi(L) adds
        # |C ∩ B|^2 / (|C| |A|) = weight * nu(B)^2
        trivial_on = sum(comp.weight * nu**2 for comp, nu in q_b)
        pi_mass = (mu_b - trivial_on) / (mu_b * mu_b)
        if pi_mass == 0:
            selected, nu_b = _select(q_b)
        else:
            # drop the Markov-bad families: mass 1/nu - 1 >= 3 pi_mass, or nu <= mu(B)/3
            t_set = [(comp, nu) for comp, nu in q_b if 1 / nu - 1 < 3 * pi_mass and nu > mu_b / 3]
            if not t_set:
                raise AssertionError("Markov selection produced an empty component family")
            selected, nu_b = _select(t_set)
        mass = 1 / nu_b - 1
        if mass < eps_o:
            pres = component_presentation(sys_, L, selected)
            comp_b = pres.restrict(bset)
            sigma = spectral_measure(pres.system, comp_b)
            recomputed = rational_mass_excluding_trivial(sigma).value / sigma.trivial.value
            if recomputed != mass:
                raise AssertionError("component mass disagrees with its presentation")
            return ShrinkResult(
                n=n,
                component=selected,
                presentation=pres,
                c=c,
                nu_b=nu_b,
                rational_mass=mass,
                pi_mass=pi_mass,
                tried=tuple(tried),
            )
    raise AssertionError("shrinking must succeed at the carrier exponent")


def _select(
    comps: Sequence[tuple[ErgodicComponent, Fraction]]
) -> tuple[ErgodicComponent, Fraction]:
    """Deterministic pick of (component, nu(B)): largest nu(B), ties to the
    least support representative (least flat index, lexicographically least
    point)."""
    return max(comps, key=lambda pair: (pair[1], -min(pair[0].support)))


# ---------------------------------------------------------------------------
# the intersection theorem search

@dataclass(frozen=True)
class ProbeWitness:
    probe: tuple[tuple[int, ...], ...]
    ms: tuple[int, ...]


@dataclass(frozen=True)
class IntersectionWitness:
    n: int
    lam: tuple[int, ...]
    m1: int
    probes: tuple[ProbeWitness, ...]
    measure: Fraction
    component_measure: Fraction
    eps: Fraction
    eps_o: Fraction
    shrink: ShrinkResult
    expansion: DirectionalExpansionResult


def intersection_theorem_search(
    sys_: FiniteSystem,
    b: Iterable[int],
    p: int,
    sample: Sequence,
    sspec: Optional[ErgodicSetSpec] = None,
    probes: Sequence[Sequence] = (),
) -> IntersectionWitness:
    """Produce a fully verified positive-measure intersection witness.

    Pipeline: shrink the rational spectrum to get (n, component); run the
    expansion theorem on the component along the scaled haystack; pick m1
    with nu(B ∩ m1*lam.B) > nu(B)^2 / 2; then, per probe, a union-bound
    argument guarantees a common point, which pins each m_k.  The displayed
    intersection's measure in the ambient system is recomputed exactly and
    must be positive.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    sspec = sspec or ErgodicSetSpec()
    bset = frozenset(b)
    mu_b = sys_.measure(bset)
    if mu_b == 0:
        raise ValueError("set must have positive measure")
    probe_list = []
    for probe in probes:
        vs = tuple(as_coords(v) for v in probe)
        if len(vs) != p - 1 or any(len(v) != sys_.rank for v in vs):
            raise ValueError(f"probe {probe!r} must have p-1 vectors of full rank")
        probe_list.append(vs)
    eps = mu_b * mu_b / (36 * (p - 1))
    eps_o = eps / 2
    shrink = shrink_rational_spectrum(sys_, bset, eps_o)
    pres = shrink.presentation
    comp_sys = pres.system
    comp_b = pres.restrict(bset)
    expansion = directional_expansion_theorem_check(
        comp_sys, comp_b, eps_o, eps, sample, sspec
    )
    if not expansion.ok:
        raise AssertionError(f"expansion stage failed: {expansion.note}")
    lam = expansion.lam
    g1 = comp_sys.phi(lam)
    order = comp_sys.order_of(g1)
    nu_b = comp_sys.measure(comp_b)
    m_candidates = _positive_elements(sspec, order + 1)
    in_b = comp_sys.mask(comp_b)
    m1 = None
    for m in m_candidates:
        # b1 = {x in B : x + m*g1 in B}
        b1 = comp_sys.overlap(in_b, comp_sys.phi([-m * x for x in lam]))
        if Fraction(int(np.count_nonzero(b1)), comp_sys.size) > nu_b * nu_b / 2:
            m1 = m
            break
    if m1 is None:
        raise AssertionError(
            "no m1 with a large self-intersection along the averaging set "
            "(the averaging-set spec is not universal)"
        )
    b_idx = np.flatnonzero(in_b)
    m_shifts = comp_sys.multiples([m % order for m in m_candidates], g1)
    witnesses = []
    for probe in probe_list:
        # per probe vector, the options m*g1 + phi(lam_k) and the union of
        # the translates of B by them
        option_rows = []
        j = b1.copy()
        for lam_k in probe:
            shifts = m_shifts + comp_sys.vectors(comp_sys.phi(lam_k))
            union = np.zeros(comp_sys.size, dtype=bool)
            union[comp_sys.translate(b_idx[:, None], shifts)] = True
            j &= union
            option_rows.append(shifts)
        if not j.any():
            raise AssertionError("union-bound stage lost positivity: library bug")
        # the least flat index is the lexicographically least point
        x = int(np.argmax(j))
        ms = []
        for shifts in option_rows:
            back_in_b = in_b[comp_sys.translate(x, -shifts)]
            if not back_in_b.any():
                raise AssertionError("common point lost its translate: library bug")
            ms.append(m_candidates[int(np.argmax(back_in_b))])
        witnesses.append(ProbeWitness(probe=probe, ms=tuple(ms)))
    # exact ambient re-verification of the displayed intersection
    n = shrink.n
    measures = ambient_intersections(
        sys_, bset, n, lam, m1, [(w.ms, w.probe) for w in witnesses]
    )
    if min(measures) <= 0:
        raise AssertionError("ambient intersection is null: library bug")
    worst = min(measures)
    return IntersectionWitness(
        n=n,
        lam=lam,
        m1=m1,
        probes=tuple(witnesses),
        measure=worst,
        component_measure=nu_b,
        eps=eps,
        eps_o=eps_o,
        shrink=shrink,
        expansion=expansion,
    )


def _positive_elements(sspec: ErgodicSetSpec, count: int) -> list[int]:
    """First ``count`` elements of the averaging set that are >= 1."""
    first = max(0, -((sspec.offset - 1) // sspec.step))
    return [sspec.offset + sspec.step * t for t in range(first, first + count)]


def ambient_intersections(
    sys_: FiniteSystem,
    b: Iterable[int],
    n: int,
    lam: Sequence[int],
    m1: int,
    probes: Sequence[tuple[Sequence[int], Sequence[Sequence[int]]]],
) -> list[Fraction]:
    """Exact measures of the displayed intersections in the ambient system.

    The first entry is mu(I) for I = B ∩ (B + phi(m1*n*lam)); then one entry
    per probe ``(ms, vectors)``: mu of I intersected with every
    B + phi(m_k*n*lam + n*lam_k).
    """
    in_b = sys_.mask(b)

    def meets(vec) -> np.ndarray:
        return sys_.overlap(in_b, sys_.phi(tuple(vec)))

    base = meets(m1 * n * x for x in lam)
    current = [base]
    for ms, vectors in probes:
        inter = base
        for m_k, lam_k in zip(ms, vectors, strict=True):
            inter = inter & meets(m_k * n * lx + n * lk for lx, lk in zip(lam, lam_k, strict=True))
        current.append(inter)
    return [Fraction(int(np.count_nonzero(m)), sys_.size) for m in current]
