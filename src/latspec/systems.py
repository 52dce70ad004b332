"""Concrete measure-preserving Z^r-systems with exactly computable measures.

Two model classes are supported.  Finite systems are translation actions on
a finite abelian group A (an invariant-factor chain of moduli) through a
homomorphism phi: Z^r -> A given by generator images; every measure is an
exact Fraction.  An element of A is its flat index in [0, |A|), the
lexicographic mixed-radix number of its coordinates, and a set is a frozenset
of flat indices.  Coordinates enter through ``FiniteSystem.index`` and the
constructors and leave through ``FiniteSystem.vectors``.  Kronecker systems
are torus rotations x -> x + Theta*lam with sets restricted to disjoint
unions of rational half-open boxes.  Theta is given with formal-real entries
and held as integer matrices over one common denominator, so every character
and direction identity is integer arithmetic in the declared-symbol model.
A rational direction moves the torus on a grid 1/q * Z^dim, which is the
finite carrier (Z/q)^dim: box overlaps and rational orbits are finite-system
translates and cosets there, and Lebesgue measures stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .formal import FormalReal
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
def _index_table(moduli: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(coords, strides, mods)`` of the lexicographic numbering of a carrier.

    Row i of ``coords`` is the element with flat index i, and
    ``coords[i] @ strides == i``; the rows come in ``itertools.product`` order.
    """
    size = prod(moduli)
    coords = np.indices(moduli, dtype=np.int64).reshape(len(moduli), size).T
    coords = np.ascontiguousarray(coords)
    strides = np.array([prod(moduli[i + 1:]) for i in range(len(moduli))], dtype=np.int64)
    mods = np.array(moduli, dtype=np.int64)
    for arr in (coords, strides, mods):
        arr.setflags(write=False)
    return coords, strides, mods


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
    coords, strides, mods = _index_table(moduli)
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
        return list(zip(*self.vectors(list(self.gens)).tolist()))

    def phi(self, lam) -> int:
        """Flat index of phi(lam), in Python integers for lam of any size."""
        c = as_coords(lam)
        if len(c) != self.rank:
            raise ValueError("rank mismatch")
        return _flat(self.moduli, (sum(x * g for x, g in zip(c, col)) for col in self._gen_columns))

    def order_of(self, g: int) -> int:
        if not self.moduli:
            return 1
        return lcm(*(d // gcd(x, d) for x, d in zip(self.vectors(g).tolist(), self.moduli)))

    def measure(self, s: Iterable[int]) -> Fraction:
        return Fraction(len(set(s)), self.size)

    # -- coordinates and arrays --------------------------------------------

    def index(self, xs: Iterable[Sequence[int]]) -> np.ndarray:
        """Flat indices of the coordinate rows xs, each read modulo the moduli."""
        return np.array([_flat(self.moduli, x) for x in xs], dtype=np.int64)

    def vectors(self, idx) -> np.ndarray:
        """Coordinate rows of the elements at flat indices idx."""
        return _index_table(self.moduli)[0][idx]

    def cyclic_subgroups(self) -> CyclicSubgroups:
        return _cyclic_subgroups(self.moduli)

    def mask(self, s: Iterable[int]) -> np.ndarray:
        """Indicator of the set s over the flat indices."""
        out = np.zeros(self.size, dtype=bool)
        out[np.fromiter(s, dtype=np.int64)] = True
        return out

    def multiples(self, ks: Iterable[int], g: int) -> np.ndarray:
        """Coordinate rows k * g for k in ks (not reduced)."""
        return np.outer(np.array(list(ks), dtype=np.int64), self.vectors(g))

    def translate(self, idx, g) -> np.ndarray:
        """Flat indices of x + g for the x at flat indices idx.

        ``g`` is a coordinate row, or an array of rows whose leading axes
        broadcast against ``idx``.
        """
        coords, strides, mods = _index_table(self.moduli)
        return ((coords[idx] + np.asarray(g, dtype=np.int64)) % mods) @ strides

    def overlap(self, mask: np.ndarray, g: int) -> np.ndarray:
        """Indicator of B ∩ (B + g), for the set B with indicator mask."""
        back = self.translate(np.arange(self.size), -self.vectors(g))
        return mask & mask[back]

    def coset_labels(self, generators: Iterable[int]) -> np.ndarray:
        """Least flat index in the coset of each element modulo <generators>.

        Per generator g, log2(order of g) doubling steps take the minimum
        along x, x + g, x + 2g, ...; the subgroup itself is labelled 0.
        """
        every = np.arange(self.size)
        labels = every
        for g in generators:
            step = self.translate(every, self.vectors(g))
            for _ in range((self.order_of(g) - 1).bit_length()):
                labels = np.minimum(labels, labels[step])
                step = step[step]
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
    size = prod(mods)
    if size > CARRIER_LIMIT:
        raise ValueError(f"carrier of {size} elements, over the limit of {CARRIER_LIMIT}")
    if len(gens) != rank:
        raise ValueError("need one generator image per basis vector")
    for g in gens:
        if len(g) != len(moduli):
            raise ValueError(f"generator image {list(g)} has {len(g)} entries for {len(moduli)} moduli")
    keep = [i for i, d in enumerate(moduli) if int(d) != 1]
    images = tuple(_flat(mods, [g[i] for i in keep]) for g in gens)
    sys_ = FiniteSystem(rank=rank, moduli=mods, gens=images)
    if sys_.coset_labels(images).any():
        raise ValueError("generator images do not generate the group (non-ergodic)")
    return sys_


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
    """An averaging subset of Z given by its finite sections S_N.

    ``interval`` is S_N = [0, N); ``ap`` is S_N = offset + step * [0, N).
    Only step = 1 families average correctly on every system; wider steps
    are still valid saturation scans but the expansion inequality is not
    asserted for them.
    """

    kind: str = "interval"
    offset: int = 0
    step: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "ap"):
            raise ValueError("kind must be 'interval' or 'ap'")
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        if self.kind == "interval" and (self.offset != 0 or self.step != 1):
            raise ValueError("interval spec has offset 0 and step 1")

    def elements(self, count: int) -> list[int]:
        return [self.offset + self.step * t for t in range(count)]

    @property
    def universal(self) -> bool:
        return self.step == 1


def orbit_saturation(
    sys_: FiniteSystem,
    b: Iterable[int],
    lam,
    sspec: Optional[ErgodicSetSpec] = None,
    terms: Optional[int] = None,
) -> tuple[frozenset[int], Fraction]:
    """The union of shifts of b along an averaging set, with its exact measure.

    ``sspec=None`` means S = Z: the union over the full cyclic subgroup
    generated by phi(lam).  With a spec and ``terms=None`` the stabilized
    (N -> infinity) union is returned; a finite ``terms`` gives the partial
    union over the first ``terms`` elements of S.
    """
    if terms is not None and sspec is None:
        raise ValueError("terms requires an ErgodicSetSpec")
    g = sys_.phi(lam)
    order = sys_.order_of(g)
    # k and k + order give the same shift, and the first ``order`` terms of
    # an interval or progression already meet every reachable residue
    count = order if terms is None else min(terms, order)
    ks = sorted({k % order for k in (sspec or ErgodicSetSpec()).elements(count)})
    sat = np.zeros(sys_.size, dtype=bool)
    sat[sys_.translate(np.fromiter(b, dtype=np.int64)[:, None], sys_.multiples(ks, g))] = True
    return frozenset(np.flatnonzero(sat).tolist()), Fraction(int(sat.sum()), sys_.size)


def is_ergodic_direction(sys_, lam) -> bool:
    """Does the cyclic subgroup of lam act ergodically?"""
    c = as_coords(lam)
    if all(x == 0 for x in c):
        raise ValueError("direction must be nonzero")
    if isinstance(sys_, KroneckerSystem):
        return not _symbol_kernel(sys_.shift(c)[1], sys_.dim)
    return sys_.order_of(sys_.phi(c)) == sys_.size


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


@dataclass(frozen=True)
class ErgodicComponent:
    """One ergodic piece of the action of a finite-index sublattice."""

    support: frozenset[int]
    weight: Fraction

    def measure(self, s: Iterable[int]) -> Fraction:
        return Fraction(len(self.support.intersection(s)), len(self.support))


def ergodic_components(sys_: FiniteSystem, L: SubLattice) -> list[ErgodicComponent]:
    """Decompose the uniform measure under the sub-action of L.

    Components are the cosets of the image subgroup phi(L), each carrying
    normalized counting measure and weight |coset| / |A|; they are listed by
    lexicographically least representative.
    """
    if L.rank != sys_.rank:
        raise ValueError("rank mismatch")
    labels = sys_.coset_labels(sys_.phi(col) for col in mat_columns(L.basis_matrix))
    by_label = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[by_label], return_index=True)
    cosets = np.split(by_label, starts[1:])
    weight = Fraction(len(cosets[0]), sys_.size)
    return [ErgodicComponent(support=frozenset(c.tolist()), weight=weight) for c in cosets]


def birkhoff_annihilator_average(
    sys_: FiniteSystem, b: Iterable[int], lam, n: int
) -> Fraction:
    """(1/n) * sum_{k<n} mu(B intersect (k*lam).B), exact."""
    if n < 1:
        raise ValueError("horizon must be positive")
    g = sys_.phi(lam)
    order = sys_.order_of(g)
    # the term of k depends on k mod order only: count each residue once,
    # weighted by how many k < n share it
    ks = range(min(n, order))
    in_b = sys_.mask(b)
    b_idx = np.flatnonzero(in_b)
    hits = in_b[sys_.translate(b_idx[:, None], sys_.multiples(ks, g))]
    per_k = hits.sum(axis=0).tolist()
    total = sum(c * ((n - k + order - 1) // order) for k, c in zip(ks, per_k))
    return Fraction(total, n * sys_.size)


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
        labels = self.to_component[np.fromiter(s, dtype=np.int64)]
        return frozenset(labels[labels >= 0].tolist())


def component_presentation(
    sys_: FiniteSystem, L: SubLattice, comp: ErgodicComponent
) -> ComponentPresentation:
    images = [sys_.phi(col) for col in mat_columns(L.basis_matrix)]
    comp_sys = _image_system(sys_, images)
    # equivariance fills the support from its least point: x + g_j maps to
    # to_comp[x] + relabel(g_j), one coset of <g_1, ..., g_(j-1)> at a time,
    # until the next translate is a coset already labelled
    to_comp = np.full(sys_.size, -1, dtype=np.int64)
    members = np.array([min(comp.support)])
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
    cols = sys_.vectors(list(images)).tolist() + [
        [sys_.moduli[i] if i == j else 0 for i in range(s)] for j in range(s)
    ]
    m = [[cols[j][i] for j in range(len(cols))] for i in range(s)]
    h, _ = hnf(m)

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
        sys_.rank, [f for f in factors if f != 1], [relabel(a) for a in cols[: len(images)]]
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
        return _dots(zip(*self.rat), k), tuple(_dots(zip(*m), k) for m in self.sym)

    def shift(self, lam) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """den * Theta lam: its rational column and one coefficient column per symbol."""
        c = as_coords(lam)
        if len(c) != self.rank:
            raise ValueError("rank mismatch")
        return _dots(self.rat, c), tuple(_dots(m, c) for m in self.sym)

    def rational_shift(self, lam) -> Optional[tuple[Fraction, ...]]:
        """Theta lam when no symbol survives in it, else None."""
        rat, sym = self.shift(lam)
        if any(any(col) for col in sym):
            return None
        return tuple(Fraction(x, self.den) for x in rat)


def _dots(vectors: Iterable[Sequence[int]], x: Sequence[int]) -> tuple[int, ...]:
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
    """Exact ergodicity decision with the reasoning recorded.

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
        "method": "integer kernel of the symbol-coefficient matrix",
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


@dataclass(frozen=True)
class KroneckerSaturation:
    """Orbit-saturation answer for a torus direction.

    Exact only when the direction's frequency vector is fully rational (the
    orbit is then finite); otherwise ``lower`` is the trivial certified
    bound mu(B) and callers should sharpen it with the spectral bound.
    """

    lower: Fraction
    upper: Fraction
    exact: bool
    note: str = ""


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
    if q**b.dim > GRID_LIMIT:
        raise ValueError(f"rational grid of {q}^{b.dim} cells, over the limit of {GRID_LIMIT}")
    shape = (q,) * b.dim
    cells = np.zeros(shape, dtype=bool)
    for box in b.boxes:
        cells[tuple(slice(int(lo * q), int(hi * q)) for lo, hi in box.bounds)] = True
    units = tuple(_flat(shape, [int(i == j) for i in range(b.dim)]) for j in range(b.dim))
    grid = FiniteSystem(rank=b.dim, moduli=shape if q > 1 else (), gens=units)
    return grid, cells.reshape(-1), _flat(shape, (x * q for x in shift))


def box_overlap_volume(b: BoxUnion, shift: Sequence[Fraction]) -> Fraction:
    """Exact Lebesgue volume of b intersected with its translate by shift mod 1."""
    grid, cells, g = box_grid(b, [Fraction(x) for x in shift])
    return Fraction(int(grid.overlap(cells, g).sum()), grid.size)


def kronecker_orbit_saturation(sys_: KroneckerSystem, b: BoxUnion, lam) -> KroneckerSaturation:
    shift = sys_.rational_shift(lam)
    if b.dim != sys_.dim:
        raise ValueError("set dimension mismatch")
    if shift is None:
        return KroneckerSaturation(
            lower=b.volume(),
            upper=Fraction(1),
            exact=False,
            note="irrational direction: estimate only; see spectral expansion bound",
        )
    grid, cells, g = box_grid(b, shift)
    # the orbit of b is the union of the cosets of <g> that b meets
    met = np.unique(grid.coset_labels([g])[cells])
    vol = Fraction(len(met) * grid.order_of(g), grid.size)
    return KroneckerSaturation(lower=vol, upper=vol, exact=True)
