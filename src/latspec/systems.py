"""Concrete measure-preserving Z^r-systems with exactly computable measures.

Finite systems are translation actions on a finite abelian group A (an
invariant-factor chain of moduli) through a homomorphism phi: Z^r -> A
given by generator images, read from that presentation alone: the images
generate A when the column Hermite form of [images | diag(moduli)] has
pivots 1.  Every measure is an exact Fraction.  An element of A is its flat
index in [0, |A|), the lexicographic mixed-radix number of its coordinates,
computed and never tabulated: ``FiniteSystem.vectors`` is i // strides %
moduli, and ``FiniteSystem.index`` reads rows modulo the moduli in one pass.
A set is any iterable of flat indices, made an index array only by
``FiniteSystem.cells``, which refuses an element outside A.  An array over A
moves whole by ``FiniteSystem.shift``, a cyclic shift of each axis of its
``moduli``-shaped view, and every cyclic orbit is one ``FiniteSystem.window``
of shifts: coset labels, components, saturations and overlaps alike.

Kronecker systems are torus rotations x -> x + Theta*lam on disjoint unions
of rational half-open boxes, Theta held as integer matrices over one common
denominator, so every character and direction identity is integer
arithmetic in the declared-symbol model.  A rational direction moves the
torus on a grid 1/q * Z^dim, the finite carrier (Z/q)^dim, where box
overlaps and rational orbits are shifts and windows and Lebesgue measures
stay exact.  A torus saturation is an ``intervals.Weight``: exact along a
rational direction, the enclosure [mu(B), 1] along any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import admit, product as capped_product
from .formal import FormalReal
from .intervals import Weight
from .lattice import (
    SubLattice,
    as_coords,
    hnf,
    kernel_basis,
    mat_columns,
    snf,
    solve_lower,
)


# ---------------------------------------------------------------------------
# finite systems

@lru_cache(maxsize=64)
def _index_table(moduli: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(strides, mods)`` of a carrier's lexicographic numbering: i has coordinates ``i // strides % mods``."""
    strides = np.array([prod(moduli[i + 1:]) for i in range(len(moduli))], dtype=np.int64)
    mods = np.array(moduli, dtype=np.int64)
    for arr in (strides, mods):
        arr.setflags(write=False)
    return strides, mods


#: cells of one block of a batched array pass; it sets memory, never a result
BLOCK_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class CyclicSubgroups:
    """The cyclic subgroups of a carrier, numbered by their least generators.

    Subgroup s has order ``order[s]`` and least generator ``generator[s]``;
    element x generates subgroup ``subgroup_of[x]`` and is ``unit_of[x]``
    times its least generator, a unit mod the exponent.  Read-only arrays.
    """

    generator: np.ndarray
    order: np.ndarray
    subgroup_of: np.ndarray
    unit_of: np.ndarray


@lru_cache(maxsize=64)
def _cyclic_subgroups(moduli: tuple[int, ...]) -> CyclicSubgroups:
    """The least generator of <x> is the least u * x over the units u mod the
    exponent, taken in blocks of ``BLOCK_CELLS`` coordinates."""
    strides, mods = _index_table(moduli)
    coords = np.arange(prod(moduli))[:, None] // strides % mods
    exponent = moduli[-1] if moduli else 1
    units = [u for u in range(1, exponent) if gcd(u, exponent) == 1] or [1]
    least, unit = np.arange(len(coords)), np.ones(len(coords), dtype=np.int64)
    block = max(1, BLOCK_CELLS // max(1, coords.size))
    for lo in range(0, len(units), block):
        us = units[lo:lo + block]
        ux = (coords * np.array(us)[:, None, None] % mods) @ strides
        best, low = ux.argmin(axis=0), ux.min(axis=0)
        smaller = low < least
        least[smaller], unit[smaller] = low[smaller], np.array([pow(u, -1, exponent) for u in us])[best[smaller]]
    generator, subgroup_of = np.unique(least, return_inverse=True)
    # x has order N / gcd(N, its coordinates scaled to Z/N)
    order = exponent // np.gcd(np.gcd.reduce(coords[generator] * (exponent // mods), axis=1), exponent)
    out = CyclicSubgroups(generator, order, subgroup_of, unit)
    for arr in vars(out).values():
        arr.setflags(write=False)
    return out


def _cells(s: Iterable[int], size: int) -> np.ndarray:
    """The int64 index array of the set s over [0, size); an element outside
    is refused, never wrapped."""
    try:
        idx = s if isinstance(s, np.ndarray) else np.fromiter(s, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"set element past int64, outside [0, {size})") from None
    if idx.size and not 0 <= idx.min() <= idx.max() < size:
        bad = idx[(idx < 0) | (idx >= size)][0]
        raise ValueError(f"set element {bad} outside [0, {size})")
    return idx


def _flat(moduli: Sequence[int], x: Iterable[int]) -> int:
    """Flat index of the coordinate row x read modulo the moduli, exact for
    entries of any size."""
    i = 0
    for v, d in zip(x, moduli, strict=True):
        i = i * d + int(v) % d
    return i


@dataclass(frozen=True)
class FiniteSystem:
    """Ergodic translation action of Z^rank on a finite abelian group.

    ``moduli`` is the invariant-factor chain (entries > 1, each dividing the
    next); the empty tuple is the one-point system.  ``gens[j]`` is the flat
    index of the image of the j-th standard basis vector, and surjectivity
    of the induced homomorphism (checked by the constructors) is exactly
    ergodicity.
    """

    rank: int
    moduli: tuple[int, ...]
    gens: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(self.moduli) if self.moduli else 1

    @property
    def exponent(self) -> int:
        return self.moduli[-1] if self.moduli else 1

    @cached_property
    def _gen_columns(self) -> list[tuple[int, ...]]:
        return list(zip(*map(self._row, self.gens)))

    def phi(self, lam) -> int:
        """Flat index of phi(lam), in Python integers for lam of any size."""
        c = as_coords(lam)
        if len(c) != self.rank:
            raise ValueError("rank mismatch")
        return _flat(self.moduli, (sum(x * g for x, g in zip(c, col)) for col in self._gen_columns))

    def order_of(self, g: int) -> int:
        return lcm(*(d // gcd(x, d) for x, d in zip(self._row(g), self.moduli)))

    def measure(self, s: Iterable[int]) -> Fraction:
        return Fraction(int(np.count_nonzero(self.mask(s))), self.size)

    def cells(self, s: Iterable[int]) -> np.ndarray:
        """The int64 index array of the set s, refusing an element outside [0, |A|)."""
        return _cells(s, self.size)

    # -- coordinates and arrays --------------------------------------------

    def index(self, xs: Iterable[Sequence[int]]) -> np.ndarray:
        """Flat indices of coordinate rows read modulo the moduli: the last axis of an
        array, or rows of Python integers of any size read in one object-array pass."""
        strides, mods = _index_table(self.moduli)
        if not isinstance(xs, np.ndarray):
            xs = np.array(rows := list(xs), dtype=object).reshape(len(rows), len(self.moduli))
        return (xs % mods).astype(np.int64, copy=False) @ strides

    def vectors(self, idx) -> np.ndarray:
        """Coordinate rows of the elements at flat indices idx: ``idx // strides % moduli``."""
        strides, mods = _index_table(self.moduli)
        return np.asarray(idx, dtype=np.int64)[..., None] // strides % mods

    def _row(self, i: int) -> list[int]:
        """The coordinates of flat index i by divmod in Python integers: one row pays no numpy call."""
        row = []
        for d in reversed(self.moduli):
            i, x = divmod(i, d)
            row.append(x)
        return row[::-1]

    def cyclic_subgroups(self) -> CyclicSubgroups:
        return _cyclic_subgroups(self.moduli)

    def mask(self, s: Iterable[int]) -> np.ndarray:
        """Indicator of the set s over the flat indices."""
        out = np.zeros(self.size, dtype=bool)
        out[self.cells(s)] = True
        return out

    def translate(self, idx, g) -> np.ndarray:
        """Flat indices of x + g for the x at flat indices idx, g a coordinate
        row or an array of rows whose leading axes broadcast against idx."""
        return self.index(self.vectors(idx) + np.asarray(g, dtype=np.int64))

    def shift(self, values: np.ndarray, g) -> np.ndarray:
        """values read at x + g for every x, g a coordinate row: each axis of
        the ``moduli``-shaped view shifted cyclically, two slices joined."""
        out = values.reshape(self.moduli)
        for axis, (x, d) in enumerate(zip(g, self.moduli, strict=True)):
            if k := int(x) % d:
                head = (slice(None),) * axis
                out = np.concatenate((out[head + (slice(k, None),)], out[head + (slice(None, k),)]), axis=axis)
        return out.reshape(values.shape)

    def overlap(self, mask: np.ndarray, g: int) -> np.ndarray:
        """Indicator of B ∩ (B + g), for the set B with indicator mask."""
        return mask & self.shift(mask, [-x for x in self._row(g)])

    def overlap_counts(self, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """How many b in B have b + r in B, per coordinate row r, for the set B
        with indicator mask; |B| x s coordinates a row, ``BLOCK_CELLS`` a block."""
        b_idx = np.flatnonzero(mask)[:, None]
        block = max(1, BLOCK_CELLS // max(1, len(b_idx) * len(self.moduli)))
        counts = np.zeros(len(rows), dtype=np.int64)
        for lo in range(0, len(rows), block):
            counts[lo:lo + block] = np.count_nonzero(mask[self.translate(b_idx, rows[lo:lo + block])], axis=0)
        return counts

    def window(self, values: np.ndarray, g: int, count: int, op) -> np.ndarray:
        """op of values at x, x + g, ..., x + (count - 1) * g for every x (count
        >= 1), in log2(count) shifts: a window count >> (i + 1) wide joins its
        shift by that width, then widens by one shift of g if bit i of count is
        set.  Past the order of g the window repeats <g>, so count is capped at
        a power of two: right for an idempotent op only (np.minimum, np.logical_or)."""
        count = min(count, 1 << (self.order_of(g) - 1).bit_length())
        row = self._row(g)
        out = one = values.reshape(self.moduli)
        for i in reversed(range(count.bit_length() - 1)):
            out = op(out, self.shift(out, [(count >> i + 1) * x for x in row]))
            if count >> i & 1:
                out = op(one, self.shift(out, row))
        return out.reshape(values.shape)

    def coset_labels(self, generators: Iterable[int]) -> np.ndarray:
        """Least flat index in the coset of each element modulo <generators>,
        the minimum window over each generator's cyclic subgroup in turn."""
        labels = np.arange(self.size)
        for g in generators:
            labels = self.window(labels, g, self.size, np.minimum)
        return labels


#: most elements a finite carrier may have, checked before any per-element
#: table is built
CARRIER_LIMIT = 10**7


def finite_system_from_parts(
    rank: int,
    moduli: Sequence[int],
    gens: Sequence[Sequence[int]],
) -> FiniteSystem:
    mods = tuple(int(d) for d in moduli if int(d) != 1)
    if any(d < 1 for d in mods):
        raise ValueError("moduli must be positive")
    if any(b % a for a, b in zip(mods, mods[1:])):
        raise ValueError("moduli must form a divisibility chain")
    admit(capped_product(mods), CARRIER_LIMIT, "carrier elements, the product of the moduli")
    if len(gens) != rank:
        raise ValueError("need one generator image per basis vector")
    for g in gens:
        if len(g) != len(moduli):
            raise ValueError(f"generator image {list(g)} has {len(g)} entries for {len(moduli)} moduli")
    rows = [[x for x, d in zip(g, moduli) if int(d) != 1] for g in gens]
    # the images generate A exactly when they span Z^s beside the relations
    if mods and any(row[i] != 1 for i, row in enumerate(_hermite(mods, rows))):
        raise ValueError("generator images do not generate the group (non-ergodic)")
    return FiniteSystem(rank=rank, moduli=mods, gens=tuple(_flat(mods, r) for r in rows))


def _hermite(moduli: Sequence[int], rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column Hermite form of [rows^T | diag(moduli)]: a basis of the lattice over the subgroup the rows generate."""
    return hnf([[*(r[i] for r in rows), *(d * (i == j) for j, d in enumerate(moduli))] for i in range(len(moduli))])[0]


def finite_system(L: SubLattice) -> FiniteSystem:
    """The quotient system Z^rank / L with the canonical translation action."""
    q = snf(L.basis_matrix)
    d = q.invariant_factors
    u = q.to_normal
    gens = [[u[i][j] for i in range(L.rank)] for j in range(L.rank)]
    return finite_system_from_parts(L.rank, d, gens)


# ---------------------------------------------------------------------------
# ergodic set specifications

@dataclass(frozen=True)
class ErgodicSetSpec:
    """An averaging subset of Z given by its finite sections
    S_N = offset + step * [0, N); the interval [0, N) is offset 0, step 1.

    Only step = 1 families average correctly on every system; wider steps
    are still valid saturation scans but the expansion inequality is not
    asserted for them.
    """

    offset: int = 0
    step: int = 1

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("step must be a positive integer")

    @property
    def universal(self) -> bool:
        return self.step == 1


def orbit_saturation(
    sys_: FiniteSystem,
    b: Iterable[int],
    lam,
    sspec: Optional[ErgodicSetSpec] = None,
    terms: Optional[int] = None,
) -> tuple[np.ndarray, Fraction]:
    """The union of shifts of b along an averaging set, as its sorted flat
    indices, with its exact measure.

    ``sspec=None`` means S = Z: the union over the full cyclic subgroup
    generated by phi(lam).  With a spec and ``terms=None`` the stabilized
    (N -> infinity) union is returned; a finite ``terms`` gives the partial
    union over the first ``terms`` elements of S.
    """
    if terms is not None and sspec is None:
        raise ValueError("terms requires an ErgodicSetSpec")
    sspec = sspec or ErgodicSetSpec()
    g = sys_._row(sys_.phi(lam))
    # S shifts B by offset * g + t * step * g for t < terms: the window of
    # B + offset * g along -step * g, all of <step * g> once terms reaches its order
    start = sys_.shift(sys_.mask(b), [-sspec.offset * x for x in g])
    if terms is not None and terms < 1:
        return np.zeros(0, dtype=np.int64), Fraction(0)
    back = _flat(sys_.moduli, [-sspec.step * x for x in g])
    idx = np.flatnonzero(sys_.window(start, back, terms or sys_.size, np.logical_or))
    return idx, Fraction(len(idx), sys_.size)


def max_directional_expansion(
    sys_: FiniteSystem, b: Iterable[int], candidates: Sequence
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact maximum of the full-orbit saturation over candidate directions.

    Candidates are scanned in lexicographic order and ties keep the earlier
    (lexicographically least) direction.
    """
    cands = sorted({as_coords(v) for v in candidates})
    if not cands:
        raise ValueError("no candidates")
    if any(all(x == 0 for x in c) for c in cands):
        raise ValueError("candidates must be nonzero")
    bset = frozenset(b)
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for lam in cands:
        _, mu = orbit_saturation(sys_, bset, lam)
        if best is None or mu > best[0]:
            best = (mu, lam)
    return best


def component_labels(sys_: FiniteSystem, L: SubLattice) -> np.ndarray:
    """The ergodic component of each point under the sub-action of L: the
    least flat index of its coset of the image subgroup phi(L)."""
    if L.rank != sys_.rank:
        raise ValueError("rank mismatch")
    return sys_.coset_labels(sys_.phi(col) for col in mat_columns(L.basis_matrix))


#: most carrier elements ``ergodic_components`` lists, checked before any
#: label is computed: a decompose report of one-point components in rank 2
#: took about 1.1 KB of max RSS per listed element, 225 MB on (Z/447)^2
LISTING_LIMIT = 2 * 10**5


def ergodic_components(sys_: FiniteSystem, L: SubLattice) -> np.ndarray:
    """Decompose the uniform measure under the sub-action of L.

    Components are the cosets of the image subgroup phi(L), each carrying
    normalized counting measure and weight |coset| / |A|.  They come as one
    read-only int64 array, a row per coset: its flat indices in increasing
    order, the rows in order of their least element.  A carrier of more than
    ``LISTING_LIMIT`` elements is refused before any label is computed.
    """
    admit(sys_.size, LISTING_LIMIT, "listed elements of the components, |A|")
    labels = component_labels(sys_, L)
    # every coset has the size of the coset of 0, the image subgroup
    cosets = np.argsort(labels, kind="stable").reshape(-1, np.count_nonzero(labels == 0))
    cosets.setflags(write=False)
    return cosets


# ---------------------------------------------------------------------------
# component presentation (the sub-action of a sublattice on one coset,
# rewritten as an ergodic finite system in its own right)

# compared by identity: an array field has no single truth value to compare by
@dataclass(frozen=True, eq=False)
class ComponentPresentation:
    """A component of the L-action presented as an ergodic system.

    ``system`` is the coset rewritten as a group translation action of Z^r,
    where Z^r is identified with L through the columns of its basis matrix.
    ``to_component`` is a read-only array over the ambient carrier: the flat
    index in ``system`` of each point of the support, with the support's
    least point as 0, and -1 off the support.
    """

    system: FiniteSystem
    to_component: np.ndarray

    def restrict(self, s: Iterable[int]) -> frozenset[int]:
        labels = self.to_component[_cells(s, len(self.to_component))]
        return frozenset(labels[labels >= 0].tolist())


def component_presentation(sys_: FiniteSystem, L: SubLattice, least: int) -> ComponentPresentation:
    """The component of the L-action whose support's least flat index is
    ``least``, presented as an ergodic system."""
    images = [sys_.phi(col) for col in mat_columns(L.basis_matrix)]
    comp_sys = _image_system(sys_, images)
    # equivariance fills the support from its least point: x + g_j maps to
    # to_comp[x] + relabel(g_j), one coset of <g_1, ..., g_(j-1)> at a time,
    # until the next translate is a coset already labelled
    to_comp = np.full(sys_.size, -1, dtype=np.int64)
    members = np.array([least])
    to_comp[members] = 0
    for g, c in zip(images, comp_sys.gens):
        coset, layers = members, [members]
        while True:
            nxt = sys_.translate(coset, sys_.vectors(g))
            if to_comp[nxt[0]] >= 0:
                break
            to_comp[nxt] = comp_sys.translate(to_comp[coset], comp_sys.vectors(c))
            layers.append(nxt)
            coset = nxt
        members = np.concatenate(layers)
    to_comp.setflags(write=False)
    return ComponentPresentation(system=comp_sys, to_component=to_comp)


def _image_system(sys_: FiniteSystem, images: Sequence[int]) -> FiniteSystem:
    """The subgroup G = <images> of A as an ergodic system of Z^rank, with
    image j as the image of the j-th basis vector."""
    s = len(sys_.moduli)
    if s == 0:
        return finite_system_from_parts(sys_.rank, (), [()] * sys_.rank)
    # present G through its own Smith chain: lift G to the lattice spanned by
    # the images and the relations diag(moduli), express the relations in a
    # basis of that lattice, and take its Smith form
    rows = sys_.vectors(list(images)).tolist()
    h = _hermite(sys_.moduli, rows)

    def solve_hb(vec: Sequence[int]) -> list[int]:
        y = solve_lower(h, vec)
        if y is None:
            raise ArithmeticError("point not in the subgroup lattice")
        return y

    relations = [
        [solve_hb([sys_.moduli[i] if i == j else 0 for i in range(s)])[t] for j in range(s)]
        for t in range(s)
    ]
    q = snf(relations)
    factors = q.invariant_factors
    u = q.to_normal

    def relabel(a: Sequence[int]) -> list[int]:
        y = solve_hb(list(a))
        z = [sum(u[i][j] * y[j] for j in range(s)) % factors[i] for i in range(s)]
        return [z[i] for i in range(s) if factors[i] != 1]

    # relabel() drops the factor-1 coordinates, so the chain goes without them
    return finite_system_from_parts(
        sys_.rank, [f for f in factors if f != 1], [relabel(a) for a in rows]
    )


# ---------------------------------------------------------------------------
# Kronecker (torus rotation) systems

@dataclass(frozen=True)
class Box:
    """Half-open product of rational intervals inside [0, 1)^dim."""

    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        norm = tuple((Fraction(a), Fraction(b)) for a, b in self.bounds)
        object.__setattr__(self, "bounds", norm)
        for a, b in norm:
            if not (0 <= a < b <= 1):
                raise ValueError("box bounds must satisfy 0 <= lo < hi <= 1")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def volume(self) -> Fraction:
        return prod((b - a for a, b in self.bounds), start=Fraction(1))

    def overlaps(self, other: "Box") -> bool:
        return all(
            a1 < b2 and a2 < b1
            for (a1, b1), (a2, b2) in zip(self.bounds, other.bounds, strict=True)
        )


@dataclass(frozen=True)
class BoxUnion:
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("need at least one box")
        d = self.boxes[0].dim
        if any(b.dim != d for b in self.boxes):
            raise ValueError("mixed dimensions")
        for i in range(len(self.boxes)):
            for j in range(i + 1, len(self.boxes)):
                if self.boxes[i].overlaps(self.boxes[j]):
                    raise ValueError("boxes must be pairwise disjoint")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def volume(self) -> Fraction:
        return sum((b.volume() for b in self.boxes), start=Fraction(0))

    @classmethod
    def of(cls, *bounds_lists) -> "BoxUnion":
        return cls(tuple(Box(tuple(bb)) for bb in bounds_lists))


@dataclass(frozen=True)
class KroneckerSystem:
    """Torus rotation action lam.x = x + Theta*lam mod 1 on [0,1)^dim.

    Theta is held in integers over one common denominator:
    den * Theta = rat + sum_t sym[t] * alpha_t, where ``rat`` and each
    ``sym[t]`` are dim x rank integer matrices, one per name of ``symbols``
    (sorted).
    """

    rank: int
    dim: int
    symbols: tuple[str, ...]
    den: int
    rat: tuple[tuple[int, ...], ...]
    sym: tuple[tuple[tuple[int, ...], ...], ...]

    def pairing(self, freq: Sequence[int]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """den * k^T Theta: its rational row and one coefficient row per symbol."""
        k = [int(x) for x in freq]
        if len(k) != self.dim:
            raise ValueError("frequency dimension mismatch")
        return dots(zip(*self.rat), k), tuple(dots(zip(*m), k) for m in self.sym)

    def shift(self, lam) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """den * Theta lam: its rational column and one coefficient column per symbol."""
        c = as_coords(lam)
        if len(c) != self.rank:
            raise ValueError("rank mismatch")
        return dots(self.rat, c), tuple(dots(m, c) for m in self.sym)

    def rational_shift(self, lam) -> Optional[tuple[Fraction, ...]]:
        """Theta lam when no symbol survives in it, else None."""
        rat, sym = self.shift(lam)
        if any(any(col) for col in sym):
            return None
        return tuple(Fraction(x, self.den) for x in rat)


def dots(vectors: Iterable[Sequence[int]], x: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(v, x)) for v in vectors)


def _symbol_kernel(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Integer kernel of symbol-coefficient rows, each the coefficients of one
    symbol in one entry of k^T Theta (or k^T Theta lam) as a linear form in k.

    A frequency kills every irrational part exactly when it lies in this
    kernel; without rows (no symbols) every k does, as for one zero row.
    Empty kernel means only k = 0.
    """
    return kernel_basis(rows or [[0] * dim])


def kronecker_ergodicity_certificate(sys_: KroneckerSystem) -> dict:
    """Exact ergodicity decision, with the rank of the symbol kernel and a
    violating frequency when there is one.

    The full action is ergodic iff no nonzero frequency k makes every entry
    of k^T Theta an integer.  Killing the irrational parts is an integer
    kernel condition on the symbol-coefficient matrix, and any nonzero
    kernel vector scales (by the lcm of the rational-part denominators) to a
    genuine violating frequency, so triviality of that kernel is equivalent
    to ergodicity.  No search box is involved.
    """
    # one row per column j of Theta and symbol t, in that order
    rows = [[m[i][j] for i in range(sys_.dim)] for j in range(sys_.rank) for m in sys_.sym]
    kernel = _symbol_kernel(rows, sys_.dim)
    witness = None
    if kernel:
        k0 = kernel[0]
        rat, _ = sys_.pairing(k0)
        d = lcm(*(sys_.den // gcd(x, sys_.den) for x in rat))
        witness = tuple(d * x for x in k0)
    return {
        "ergodic": not kernel,
        "kernel_rank": len(kernel),
        "witness_frequency": witness,
    }


def kronecker_system(
    rank: int, dim: int, theta: Sequence[Sequence[FormalReal]], require_ergodic: bool = True
) -> KroneckerSystem:
    rows = [[x if isinstance(x, FormalReal) else FormalReal.of(x) for x in row] for row in theta]
    if len(rows) != dim or any(len(r) != rank for r in rows):
        raise ValueError("theta must be dim x rank")
    entries = [x for row in rows for x in row]
    symbols = tuple(sorted({name for x in entries for name in x.symbols()}))
    den = lcm(*(q.denominator for x in entries for q in (x.rational, *(c for _, c in x.terms))))
    sys_ = KroneckerSystem(
        rank=rank,
        dim=dim,
        symbols=symbols,
        den=den,
        rat=tuple(tuple(int(x.rational * den) for x in row) for row in rows),
        sym=tuple(tuple(tuple(int(x.coeff(t) * den) for x in row) for row in rows) for t in symbols),
    )
    if require_ergodic:
        cert = kronecker_ergodicity_certificate(sys_)
        if not cert["ergodic"]:
            raise ValueError(
                f"frequency matrix is not ergodic; violating frequency {cert['witness_frequency']}"
            )
    return sys_


#: most cells q^dim of the rational grid 1/q * Z^dim on which box overlaps
#: and rational orbits are counted, checked before any array is built
GRID_LIMIT = 10**6


def box_grid(b: BoxUnion, shift: Sequence[Fraction]) -> tuple[FiniteSystem, np.ndarray, int]:
    """``(grid, cells, g)`` for the least grid 1/q * Z^dim carrying the bounds
    of b and the shift: the grid as the finite carrier (Z/q)^dim, with Z^dim
    acting by unit steps, the indicator of the cells b covers, and the shift
    as the element g."""
    q = lcm(
        *(x.denominator for x in shift),
        *(x.denominator for box in b.boxes for a_b in box.bounds for x in a_b),
    )
    admit(capped_product([q] * b.dim), GRID_LIMIT, f"cells of the rational grid, q^{b.dim} for q the common denominator")
    shape = (q,) * b.dim
    cells = np.zeros(shape, dtype=bool)
    for box in b.boxes:
        cells[tuple(slice(int(lo * q), int(hi * q)) for lo, hi in box.bounds)] = True
    units = tuple(_flat(shape, [int(i == j) for i in range(b.dim)]) for j in range(b.dim))
    grid = FiniteSystem(rank=b.dim, moduli=shape if q > 1 else (), gens=units)
    return grid, cells.reshape(-1), _flat(shape, (x * q for x in shift))


def kronecker_orbit_saturation(sys_: KroneckerSystem, b: BoxUnion, lam) -> Weight:
    """mu of the orbit of b along a torus direction, as a ``Weight``.

    Exact only when the direction's frequency vector is fully rational (the
    orbit is then finite); otherwise the enclosure [mu(B), 1], whose lower
    end callers sharpen with the spectral bound.
    """
    shift = sys_.rational_shift(lam)
    if b.dim != sys_.dim:
        raise ValueError("set dimension mismatch")
    if shift is None:
        return Weight(b.volume(), Fraction(1), False)
    grid, cells, g = box_grid(b, shift)
    # the orbit of b is the union of the cosets of <g> that b meets
    orbit = grid.window(cells, g, grid.size, np.logical_or)
    return Weight.of(Fraction(int(np.count_nonzero(orbit)), grid.size))
