"""Spectral measures of sets under Z^r-actions and the expansion pipeline.

For a finite system the spectral measure of a set B is atomic with one atom
per character of the carrier, held as its dual label.  The characters fall
into Galois orbits, one per cyclic subgroup, each with one integer row of
root counts; an orbit's weights are rational together or not at all, and
its sums are integer Ramanujan sums.  Every mass a theorem is checked
against is computed by the exact rational coset formulas and cross-checked
against those orbit sums.  Kronecker systems get truncated atom lists with
certified interval weights and an exact Parseval tail bound; interval-valued
verdicts are flagged as estimates, never promoted.  Every mass is an
``intervals.Weight``, exact or an enclosure; an atom's character is a label
only, the dual label of a finite character or the frequency k of a torus
one, and whether k annihilates a direction is read from the system's integer
shift of that direction.

On top of the measures sit the quantitative checks: the Bochner identity,
the expansion lower bound mu(S lam.B) >= mu(B)^2 / sigma_B(annihilator),
the small-annihilator scan over a haystack, the finite-measure-space
small-intersection dichotomy, rational-spectrum shrinking through ergodic
decomposition under n * Z^r (on the coset labels of its image, one component
materialised), and the intersection-witness search that chains all of the
above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import ceil, comb
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .config import admit, product as capped_product
from .cyclotomic import cyclic_subgroup_count, enclose_real_root_grid, ramanujan_sums, totient
from .intervals import GRID_BITS, PI, Weight, cospi, round_out, sinpi, sinpi_sq_exact
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
    component_labels,
    component_presentation,
    dots,
    kronecker_ergodicity_certificate,
    kronecker_orbit_saturation,
    orbit_saturation,
)

# ---------------------------------------------------------------------------
# atoms

ZERO_WEIGHT = Weight.of(0)


@dataclass(frozen=True)
class Atom:
    """A character and its mass.  The character is a label only: the dual
    label c of a finite carrier (0 is trivial), or the frequency k of a torus
    character xi_k(lam) = e(k^T Theta lam); its system decides the rest."""

    character: Union[int, tuple[int, ...]]
    weight: Weight


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic spectral measure sigma_B of a set, at its raw scale.

    ``total`` is the full mass mu(B) and ``trivial`` the trivial-atom mass
    mu(B)^2, both exact and positive; for finite systems the tail is exactly
    zero.  The normalized measure of the expansion bound is sigma_B / mu(B)^2:
    a normalized figure is one division of a raw mass by ``trivial``.  The
    type of ``system`` tells the two models apart: a ``FiniteSystem``'s
    measure is a ``FiniteSpectralMeasure``, whose atoms are built on first
    read.
    """

    system: object
    base_set: object
    atoms: tuple[Atom, ...]
    tail: Weight
    total: Weight
    trivial: Weight


# ---------------------------------------------------------------------------
# finite-system tables (shared by the measure, Bochner and mass routines)

#: most steps |A| x exponent of the cyclic-subgroup index of a finite measure,
#: checked first, and most coordinates orbits x |B| x s of its rows
CELL_LIMIT = 2 * 10**7


@dataclass(frozen=True, eq=False)
class _OrbitTables:
    """The characters of A in Galois orbits, one per cyclic subgroup <c>.

    Label c pairs with h as z^(e_c @ h), z a primitive exponent-th root of
    unity and e_c the coordinates of c scaled to Z/exponent; orbit o holds
    the u * c, u a unit and c its least label, whose e_c is ``pairing[o]``.
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


def admit_spectral_measure(sys_: FiniteSystem, bset: frozenset) -> None:
    """Refuse a carrier and set whose orbit tables pass ``CELL_LIMIT`` or
    int64, before any table is built; a runner calls it before its first stage."""
    n, order = sys_.size, sys_.exponent
    admit(n * order, CELL_LIMIT, f"steps of the cyclic-subgroup index, |A| x exponent = {n} x {order}")
    # |B|^4 phi(exponent) bounds every orbit sum and each product of a row with them
    admit(len(bset) ** 4 * totient(order), (1 << 63) - 1, "int64 bound of the orbit sums, |B|^4 x phi(exponent)")
    cells = cyclic_subgroup_count(sys_.moduli) * len(bset) * max(1, len(sys_.moduli))
    admit(cells, CELL_LIMIT, "coordinates of the orbit rows, orbits x |B| x s")


@lru_cache(maxsize=256)
def _orbit_tables(sys_: FiniteSystem, bset: frozenset) -> _OrbitTables:
    admit_spectral_measure(sys_, bset)
    sub, order = sys_.cyclic_subgroups(), sys_.exponent
    pairing = sys_.vectors(sub.generator) * (order // np.array(sys_.moduli, dtype=np.int64))
    b = sys_.vectors(sys_.cells(bset))
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
    per_coset = np.bincount(sys_.coset_labels([g])[cells], minlength=sys_.size)
    return _trivial_on(per_coset, sys_.order_of(g), sys_.size)


def _trivial_on(per_coset: np.ndarray, subgroup: int, size: int) -> Fraction:
    """sigma_B of the characters trivial on a subgroup H of A, read from the
    counts |C ∩ B| over the cosets C of H: sum |C ∩ B|^2 over |H| * |A|."""
    return Fraction(int(per_coset @ per_coset), subgroup * size)


@lru_cache(maxsize=65536)
def _cyclic_coset_mass(sys_: FiniteSystem, bset: frozenset, g: int) -> Fraction:
    return _coset_mass(sys_, sys_.cells(bset), g)


def spectral_measure(sys_: FiniteSystem, b: Iterable[int]) -> FiniteSpectralMeasure:
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


#: an interval weight of a finite measure is a pair of integers over GRID
GRID = 1 << GRID_BITS


class FiniteSpectralMeasure(SpectralMeasure):
    """sigma_B on a finite system, held as its construction computed it: the
    orbit tables and the exact weight of each rational orbit.

    The enclosures of the irrational weights and the atoms are built on first
    read and kept on the instance; the masses the theorems use come from the
    tables and never need them.
    """

    def __init__(self, sys_: FiniteSystem, bset: frozenset, tables: _OrbitTables, orbit_weights: list):
        mu_b = Fraction(len(bset), sys_.size)
        fields = {
            "system": sys_,
            "base_set": bset,
            "tail": ZERO_WEIGHT,
            "total": Weight.of(mu_b),
            "trivial": Weight.of(mu_b * mu_b),
            "tables": tables,
            "orbit_weights": orbit_weights,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @cached_property
    def label_weights(self) -> list:
        """One weight per label: the exact value of a rational orbit's
        characters as a Fraction, shared by the orbit, or the grid numerators
        (lo, hi) over GRID of an interval weight."""
        t, sys_ = self.tables, self.system
        order = t.rows.shape[1]
        orbit_of = t.subgroups.subgroup_of
        weights = [self.orbit_weights[o] for o in orbit_of.tolist()]
        labels = np.arange(sys_.size)
        negated = sys_.index(-sys_.vectors(labels))
        # chi_(-c) is the conjugate of chi_c, of the same real weight; its row
        # is the reflection k -> -k and the cosine table is symmetric, so the
        # enclosure is the same integers: one per conjugate pair
        irrational = np.flatnonzero(~t.rational[orbit_of] & (labels < negated))
        block = max(1, BLOCK_CELLS // order)
        for lo in range(0, len(irrational), block):
            # the row of u * c is the orbit's row moved from k to u * k
            chars = irrational[lo:lo + block]
            rows = np.empty((len(chars), order), dtype=np.int64)
            moved = t.subgroups.unit_of[chars, None] * np.arange(order) % order
            rows[np.arange(len(chars))[:, None], moved] = t.rows[orbit_of[chars]]
            ends = zip(*enclose_real_root_grid(order, rows, sys_.size**2))
            for c, d, end in zip(chars.tolist(), negated[chars].tolist(), ends):
                weights[c] = weights[d] = end
        return weights

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        by_orbit = [None if q is None else Weight.of(q) for q in self.orbit_weights]
        orbit_of = self.tables.subgroups.subgroup_of.tolist()
        return tuple(
            Atom(
                label,
                Weight(Fraction(w[0], GRID), Fraction(w[1], GRID), False) if by_orbit[o] is None else by_orbit[o],
            )
            for label, (o, w) in enumerate(zip(orbit_of, self.label_weights))
        )


@lru_cache(maxsize=512)
def _spectral_measure_cached(sys_: FiniteSystem, bset: frozenset) -> FiniteSpectralMeasure:
    t = _orbit_tables(sys_, bset)
    n = sys_.size
    mu_b = Fraction(len(bset), n)
    # a rational orbit's trace is shared evenly by its characters
    traces = zip(t.sums[:, 0].tolist(), np.bincount(t.subgroups.subgroup_of).tolist(), t.rational)
    orbit_weights = [Fraction(tr, k * n * n) if rational else None for tr, k, rational in traces]
    if orbit_weights[t.subgroups.subgroup_of[0]] != mu_b * mu_b:
        raise AssertionError("trivial atom mass must equal mu(B)^2")
    if int(t.sums[:, 0].sum()) != len(bset) * n:
        raise AssertionError("atom total must equal mu(B)")
    return FiniteSpectralMeasure(sys_, bset, t, orbit_weights)


# ---------------------------------------------------------------------------
# Kronecker spectral measure

#: most atoms a truncated Kronecker measure may enumerate, (2 * trunc + 1)^dim,
#: checked before the first atom is built; a dim-2 atom takes about 0.27 ms
#: and 1.1 KB (CPython 3.11 on a 2-core VM), so the limit is about 27 s
ATOM_LIMIT = 10**5


def _factor_sq(k: int, length: Fraction) -> Weight:
    """|f(k)|^2 for f the Fourier coefficient of an interval of this length:
    length^2 at k = 0, else sin(pi k length)^2 / (pi k)^2, exact in the sine
    where its square is rational (an exact 0 where the sine is 0)."""
    if k == 0:
        return Weight.of(length * length)
    s2 = sinpi_sq_exact(Fraction(k) * length)
    if s2 == 0:
        return ZERO_WEIGHT
    inv_pik_sq = PI.square().scale(Fraction(k * k)).recip()
    if s2 is not None:
        return inv_pik_sq.scale(s2)
    return sinpi(Fraction(k) * length).square() * inv_pik_sq


def _complex_factor(k: int, a: Fraction, b: Fraction) -> tuple[Weight, Weight]:
    """Real and imaginary parts of the Fourier coefficient of [a, b) at k."""
    if k == 0:
        return Weight.of(b - a), ZERO_WEIGHT
    x = cospi(2 * k * a) - cospi(2 * k * b)
    y = sinpi(2 * k * b) - sinpi(2 * k * a)
    denom = PI.scale(Fraction(2 * k)).recip()
    return y * denom, -(x * denom)


def _kron_weight(b: BoxUnion, k: tuple[int, ...]) -> Weight:
    if all(x == 0 for x in k):
        v = b.volume()
        return Weight.of(v * v)
    if len(b.boxes) == 1:
        w = Weight.of(1)
        for kj, (lo, hi) in zip(k, b.boxes[0].bounds, strict=True):
            f = _factor_sq(kj, hi - lo)
            if f == ZERO_WEIGHT:
                return f
            w = w * f
        return round_out(w).clamp(Fraction(0), Fraction(1))
    total_re = total_im = ZERO_WEIGHT
    for box in b.boxes:
        re, im = Weight.of(1), ZERO_WEIGHT
        for kj, (lo, hi) in zip(k, box.bounds, strict=True):
            x, y = _complex_factor(kj, lo, hi)
            re, im = re * x - im * y, re * y + im * x
        total_re, total_im = total_re + re, total_im + im
    return round_out(total_re.square() + total_im.square()).clamp(Fraction(0), Fraction(1))


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
    admit(capped_product([2 * trunc + 1] * sys_.dim), ATOM_LIMIT, f"atoms (2*trunc+1)^{sys_.dim}")
    cert = kronecker_ergodicity_certificate(sys_)
    if not cert["ergodic"]:
        # the trivial-atom identity below presumes ergodicity; a nonzero
        # frequency with rational pairing would scale to an integer one
        raise ValueError("system is not ergodic; spectral measure undefined here")
    mu_b = b.volume()
    atoms = tuple(Atom(k, _kron_weight(b, k)) for k in product(range(-trunc, trunc + 1), repeat=sys_.dim))
    mass = sum((a.weight for a in atoms), ZERO_WEIGHT)
    tail = Weight(max(Fraction(0), mu_b - mass.upper), max(Fraction(0), mu_b - mass.lower), False)
    return SpectralMeasure(
        system=sys_,
        base_set=b,
        atoms=atoms,
        tail=tail,
        total=Weight.of(mu_b),
        trivial=Weight.of(mu_b * mu_b),
    )


# ---------------------------------------------------------------------------
# masses and identities

def _annihilated(sys_: KroneckerSystem, atoms: Sequence[Atom], lam) -> Weight:
    """Total weight of the atoms whose character is 1 at lam: those k with no
    symbol left in k . (den Theta lam) and its rational part 0 mod den."""
    rat, sym = sys_.shift(lam)
    acc = ZERO_WEIGHT
    for a in atoms:
        on_rat, *on_sym = dots((rat, *sym), a.character)
        if on_rat % sys_.den == 0 and not any(on_sym):
            acc = acc + a.weight
    return acc


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
    sys_ = sigma.system
    if isinstance(sys_, FiniteSystem):
        g = sys_.phi(c)
        value = _cyclic_coset_mass(sys_, sigma.base_set, g)
        # independent atom route: the traces of the orbits trivial on g
        t = _orbit_tables(sys_, sigma.base_set)
        on_g = (t.pairing @ sys_.vectors(g)) % sys_.exponent == 0
        if Fraction(int(t.sums[on_g, 0].sum()), sys_.size**2) != value:
            raise AssertionError("coset formula disagrees with atom sum")
        return Weight.of(value)
    acc = _annihilated(sys_, sigma.atoms, c)
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
    exactly.  Kronecker systems: exactly zero; the measure exists only for
    ergodic systems, where the frequency matrix certifies that only k = 0
    pairs rationally, atoms and tail alike.
    """
    if isinstance(sigma.system, FiniteSystem):
        return Weight.of(sigma.total.value - sigma.trivial.value)
    return ZERO_WEIGHT


@dataclass(frozen=True)
class BochnerReport:
    ok: bool
    checked: int
    violations: tuple[tuple[int, ...], ...] = ()


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
    flat = sys_.index(np.array(lams, dtype=np.int64).reshape(len(lams), sys_.rank) @ gens)
    images, which = np.unique(flat, return_inverse=True)
    g = sys_.vectors(images)
    # the orbit sums at each image's phases, one gather for a block of images
    by_phase, offsets = t.sums.ravel(), np.arange(len(t.sums)) * sys_.exponent
    block = max(1, BLOCK_CELLS // len(offsets))
    sums = np.empty(len(g), dtype=np.int64)
    for lo in range(0, len(g), block):
        sums[lo:lo + block] = by_phase[(g[lo:lo + block] @ t.pairing.T) % sys_.exponent + offsets].sum(axis=1)
    # |B ∩ (B + g)| counts the b in B with b - g in B
    ok = (sums == sys_.overlap_counts(sys_.mask(bset), -g) * sys_.size).tolist()
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

    Where the saturation is exact, each model gives the exact annihilator
    mass and the measured saturation, and one comparison decides: a finite
    system its coset-formula mass and ``orbit_saturation`` under the spec; a
    rational torus direction its period-average mass, which must land inside
    the atom interval, and ``kronecker_orbit_saturation``.  An irrational
    torus direction reports the certified spectral bound as an estimate.  A
    Kronecker sigma is read at whatever truncation it was built.
    """
    sys_, b = sigma.system, sigma.base_set
    applicable = sspec is None or sspec.universal
    t = sigma.trivial.value
    mass = annihilator_mass(sigma, c)
    if isinstance(sys_, FiniteSystem):
        exact_mass = mass.value
        _, measured = orbit_saturation(sys_, b, c, sspec)
    else:
        sat = kronecker_orbit_saturation(sys_, b, c)
        if not sat.exact:
            bound = Weight(t / mass.upper, 1 / max(mass.lower / t, Fraction(1)), False)
            return ExpansionCheck(
                bound=bound,
                measured=Weight(max(sat.lower, bound.lower), Fraction(1), False),
                ok=True,
                applicable=applicable,
                estimate=True,
                note="irrational torus direction: measured value is the certified spectral bound",
            )
        # the annihilator mass is the exact average of mu(B ∩ m lam.B) over
        # one period
        exact_mass = _kron_rational_annihilator_exact(sys_, b, c)
        if not mass.lower <= exact_mass <= mass.upper:
            raise AssertionError("period-average mass escapes the atom interval")
        measured = sat.lower
    bound = t / exact_mass
    ok = measured >= bound
    if applicable and not ok:
        raise AssertionError(f"expansion bound violated along {c}: measured {measured} < bound {bound}")
    return ExpansionCheck(
        bound=Weight.of(bound), measured=Weight.of(measured), ok=ok, applicable=applicable, estimate=False
    )


# ---------------------------------------------------------------------------
# small intersections and haystack scans

#: most p-subsets of the sets that small_intersection_bound scans, checked
#: before the scan when no set qualifies
P_SUBSET_LIMIT = 10**6


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
    admit(comb(n_sets, p), P_SUBSET_LIMIT, f"p-subsets of {n_sets} sets, C({n_sets}, {p})")
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

    system: object
    atoms: tuple[Atom, ...]
    tail: Weight
    total: Weight

    def annihilator_mass(self, lam) -> Weight:
        acc = _annihilated(self.system, self.atoms, lam) if self.atoms else ZERO_WEIGHT
        acc = Weight(acc.lower, acc.upper + self.tail.upper, self.tail.upper == 0 and acc.exact)
        return acc.clamp(Fraction(0), self.total.upper)


def irrational_part(sigma: SpectralMeasure) -> IrrationalPart:
    """Split off the part of sigma supported outside the rational spectrum.

    No rational mass hides in a Kronecker tail: the measure exists only for
    ergodic systems, where only k = 0 pairs rationally.  Finite systems have
    no irrational atoms by construction, so their irrational part is the
    zero measure.
    """
    if isinstance(sigma.system, FiniteSystem):
        return IrrationalPart(system=sigma.system, atoms=(), tail=ZERO_WEIGHT, total=ZERO_WEIGHT)
    atoms = tuple(a for a in sigma.atoms if any(a.character))
    mass = sum((a.weight for a in atoms), ZERO_WEIGHT)
    return IrrationalPart(
        system=sigma.system,
        atoms=atoms,
        tail=sigma.tail,
        total=Weight(mass.lower, mass.upper + sigma.tail.upper, mass.exact and sigma.tail.upper == 0),
    )


@dataclass(frozen=True)
class HaystackSearchResult:
    lam: tuple[int, ...]
    index: int
    mass: Weight


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
    required = ceil(Fraction(rank) * tau.total.upper / delta)
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
    if check.measured.lower <= 1 - eps:
        if check.estimate:
            raise RuntimeError("cannot certify expansion beyond 1 - eps at this truncation")
        raise AssertionError("expansion theorem pipeline produced an insufficient direction")
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
    points).  The components are the cosets of H = phi(n * Z^r), each of
    weight |H| / |A|, read off their labels and their counts |C ∩ B|.  At
    each n the component of largest nu(B) is taken, ties to the least label:
    it lies outside both Markov-bad families (rational mass at least three
    times the ambient pulled-back mass, or nu(B) at most mu(B)/3).  It is
    re-measured through its standalone presentation as a cross-check.
    """
    eps_o = Fraction(eps_o)
    if eps_o <= 0:
        raise ValueError("eps_o must be positive")
    bset = frozenset(b)
    if not bset:
        raise ValueError("set must have positive measure")
    size = sys_.size
    mu_b = Fraction(len(bset), size)
    b_idx = sys_.cells(bset)
    tried = []
    for n in _factorial_candidates(sys_.exponent):
        tried.append(n)
        L = scale_lattice(sys_.rank, n)
        labels = component_labels(sys_, L)
        h = int(np.count_nonzero(labels == 0))
        hits = np.bincount(labels[b_idx], minlength=size)
        pi_mass = (mu_b - _trivial_on(hits, h, size)) / (mu_b * mu_b)
        # nu = hits / |H|; the largest nu has 1/nu - 1 <= pi_mass and nu >= mu(B),
        # outside both Markov-bad families
        label = int(np.argmax(hits))
        nu_b = Fraction(int(hits[label]), h)
        mass = 1 / nu_b - 1
        if mass < eps_o:
            selected = ErgodicComponent(frozenset(np.flatnonzero(labels == label).tolist()), Fraction(h, size))
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
                c=selected.weight,
                nu_b=nu_b,
                rational_mass=mass,
                pi_mass=pi_mass,
                tried=tuple(tried),
            )
    raise AssertionError("shrinking must succeed at the carrier exponent")


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
    m_shifts = np.outer([m % order for m in m_candidates], comp_sys.vectors(g1))
    step = comp_sys.phi([sspec.step * x for x in lam])
    witnesses = []
    for probe in probe_list:
        # per probe vector, the options m*g1 + phi(lam_k) and the union of the
        # translates of B by them, the window of B + shifts[0] over <step * g1>
        option_rows = []
        j = b1.copy()
        for lam_k in probe:
            shifts = m_shifts + comp_sys.vectors(comp_sys.phi(lam_k))
            j &= comp_sys.window(comp_sys.shift(in_b, -shifts[0]), step, order + 1, np.logical_or)
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
