"""Seeded request lists for the benchmark's four workloads.

A run's request list is a number of rounds of one workload's template.
Every round draws fresh inputs of the same shapes, so the cost of a round
does not depend on the seed, while no (system, set) pair and no point set is
used twice in a run: latspec's ``lru_cache``s stay as cold per request as for
a CLI user who starts a fresh process.  The seed reaches the program only
through the generated configs.

Why these workloads:

* ``volume``: the determinant kernels do nearly all the work while
  ``spectral`` and ``systems`` sit idle, so this is the bypass workload for
  every spectral or systems change.  Point counts span about 10 to 225 so a
  change in how cost grows with the point count shows.
* ``finite-reports``: many distinct finite carriers, |A| from 54 to 441 and
  |B| = |A|/3, cyclic (exponent = |A|) and split (Z/d)^2.  Cold
  table construction dominates and follows the exponent, not just |A|.
* ``expand-scan``: carriers scanned over 48 to 80 candidate directions;
  the spectral tables are built once and queried per direction, and orbit
  saturation dominates.
* ``kronecker``: the only workload that reaches ``intervals`` and ``formal``:
  Kronecker spectral reports over truncation radii and box counts, plus
  dim-1 expansion-bound checks on rational and irrational directions.

Sizes are scaled so that one run of 60 s, which serves its request list
ten times, holds enough requests for a latency tail on a 2-core machine;
see README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, prod

WORKLOADS = ("volume", "finite-reports", "expand-scan", "kronecker")
#: The workloads in BENCHMARK.json; between them they reach every layer.
#: ``expand-scan`` and ``kronecker`` run the same way but are left out there:
#: the contract's time for all runs holds two workloads of runs long enough
#: to outlast the slow spells of a shared host, and the small pure-Python
#: requests of ``expand-scan`` are the ones those spells slow most.
BENCHMARKED = ("volume", "finite-reports")
SIZES = ("full", "tiny")

#: Rounds in a full-size run, whatever its length: a longer run serves the
#: same requests in more passes (harness.pass_count).
ROUNDS = 2


class _Repeat(Exception):
    """A drawn input was already used in this run."""


@dataclass
class Request:
    """One request: a CLI config, or the arguments of one library call."""

    id: str
    experiment: str
    config: dict
    keys: tuple
    size: dict
    expect: dict = field(default_factory=dict)
    csv: bool = False

    @property
    def is_cli(self) -> bool:
        return self.experiment != "expansion_bound_check"


def round_count(size: str) -> int:
    return 1 if size == "tiny" else ROUNDS


def generate(workload: str, seed: int, rounds: int, size: str = "full") -> list[list[Request]]:
    """``rounds`` rounds of seeded requests; raises if an input would repeat."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    gen = _Generator(workload, seed, size)
    return [gen.round(r) for r in range(rounds)]


# ---------------------------------------------------------------------------
# generator


class _Generator:
    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.size = size
        self.seed = seed
        self.used: set = set()
        # equal-cost variants of deterministic point sets, shuffled once per run
        self.run_rng = random.Random(f"{workload}/{size}/{seed}")
        self._variants: dict = {}

    def round(self, r: int) -> list[Request]:
        self.rng = random.Random(f"{self.workload}/{self.size}/{self.seed}/{r}")
        self.r = r
        self.out: list[Request] = []
        tiny = self.size == "tiny"
        getattr(self, "_" + self.workload.replace("-", "_"))(tiny)
        return self.out

    def draw(self, make, *args, **kwargs) -> None:
        """Call a request maker until it draws inputs not used yet in the run."""
        for _ in range(100):
            try:
                return make(*args, **kwargs)
            except _Repeat:
                continue
        raise ValueError(f"{make.__name__}{args}: no fresh input in 100 draws")

    def add(self, experiment, config, keys, size, expect=None, csv=False):
        if any(key in self.used for key in keys):
            raise _Repeat
        self.used.update(keys)
        rid = f"{self.r}/{len(self.out)}"
        if experiment != "expansion_bound_check":
            config = {"experiment": experiment, **config}
        self.out.append(Request(rid, experiment, config, tuple(keys), size, expect or {}, csv))

    def variant(self, name: str, groups: list[list]):
        """The next unused member of a family of deterministic sets.

        Members are handed out group by group, each group in a seeded order,
        so every run that draws the same number of members draws the same
        mix of costs.
        """
        if name not in self._variants:
            order = []
            for group in groups:
                group = list(group)
                self.run_rng.shuffle(group)
                order.extend(group)
            self._variants[name] = iter(order)
        member = next(self._variants[name], None)
        if member is None:
            raise ValueError(f"{name}: ran out of distinct sets")
        return member

    # -- point sets --------------------------------------------------------

    def point_request(self, experiment, rank, window, desc, extra=None, count=None, csv=False):
        key = ("points", rank, window, json.dumps(desc, sort_keys=True))
        if experiment == "density":
            key = ("points", rank, tuple(extra["windows"]), json.dumps(desc, sort_keys=True))
        config = {"rank": rank, "set": desc, **(extra or {})}
        if experiment != "density":
            config["window"] = window
        expect = {"point_count": count} if count is not None else {}
        if "cap" in config:
            expect["cap"] = config["cap"]
        self.add(experiment, config, [key], {"rank": rank, "window": window}, expect, csv)

    def full_grid(self, experiment, window, extra=None, csv=False):
        # translates by (dx, dy) clip the grid to (side-|dx|) x (side-|dy|):
        # one group per point count, largest first
        side = 2 * window + 1
        groups: dict[int, list] = {}
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                groups.setdefault((side - abs(dx)) * (side - abs(dy)), []).append((dx, dy))
        shifts = [groups[count] for count in sorted(groups, reverse=True)]
        dx, dy = self.variant(f"full/{experiment}/{window}", shifts)
        desc = {"kind": "full"}
        if (dx, dy) != (0, 0):
            desc = {"kind": "translate", "base": {"kind": "full"}, "offset": [dx, dy]}
        count = (side - abs(dx)) * (side - abs(dy))
        self.point_request(experiment, 2, window, desc, extra, count, csv)

    def congruence(self, experiment, rank, modulus, per_axis, extra=None):
        """offset + modulus * Z^rank on a window holding ``per_axis`` points
        per axis for every offset, so all modulus^rank offsets cost the same."""
        window = (modulus * per_axis - 1) // 2
        if (2 * window + 1) != modulus * per_axis:
            raise ValueError("modulus * per_axis must be odd")
        offsets = [[list(o) for o in product(range(modulus), repeat=rank)]]
        offset = self.variant(f"cong/{experiment}/{rank}/{modulus}/{per_axis}", offsets)
        desc = {"kind": "congruence", "modulus": modulus, "offset": offset}
        self.point_request(experiment, rank, window, desc, extra, per_axis**rank)

    def random_set(self, experiment, rank, window, density, extra=None, csv=False):
        desc = {"kind": "random", "density": density, "seed": self.rng.randrange(1, 2**63)}
        self.point_request(experiment, rank, window, desc, extra, csv=csv)

    def explicit_big(self, n):
        # coordinates near 2^31 push det_bound past 2^62: exact Python path
        span = 1 << 31
        pts = sorted({(self.rng.randrange(-span, span), self.rng.randrange(-span, span)) for _ in range(n)})
        desc = {"kind": "explicit", "points": [list(p) for p in pts]}
        self.point_request("volume-spectrum", 2, span, desc, count=len(pts))

    # -- finite systems ----------------------------------------------------

    def carrier(self, shape: str, n: int):
        """A lattice L with Z^2/L of the given shape, as (config matrix, HNF).

        ``cyclic`` gives Z/n, ``split`` gives (Z/n)^2.  The HNF H = [[a, 0],
        [c, b]] is canonical for L; the config gets H times a random
        unimodular matrix, so the CLI has real normal-form work to do.
        """
        rng = self.rng
        if shape == "split":
            a, b, c = n, n, 0
        else:
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            while True:
                a = rng.choice(divisors)
                b = n // a
                c = rng.randrange(b)
                if gcd(gcd(a, b), c) == 1:
                    break
        h = [[a, 0], [c, b]]
        m = h
        for _ in range(2):
            k = rng.randint(-3, 3)
            u = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
            m = [[sum(m[i][t] * u[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
        return m, (a, c, b)

    def finite_request(self, experiment, shape, n, extra=None, csv=False):
        """A finite system with B a random third of the carrier, as preimages.

        [0, a) x [0, b) holds exactly one preimage per element of Z^2/L, so
        the preimage list is a canonical name for B.
        """
        m, (a, c, b) = self.carrier(shape, n)
        residues = [(x, y) for x in range(a) for y in range(b)]
        chosen = sorted(self.rng.sample(residues, len(residues) // 3))
        key = ("finite", (a, c, b), tuple(chosen))
        moduli = (n, n) if shape == "split" else (n,)
        size = {"A": a * b, "exponent": n, "B": len(chosen)}
        config = {
            "system": {"kind": "finite", "matrix": m},
            "set_b": {"kind": "preimages", "points": [list(p) for p in chosen]},
            **(extra or {}),
        }
        expect = {"A": a * b, "B": len(chosen)}
        if "sublattice" in config:
            k = config["sublattice"][0][0]
            expect["components"] = prod(gcd(k, d) for d in moduli)
        self.add(experiment, config, [key], size, expect, csv)

    def haystack_request(self, rank, count):
        coprime = {2: [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 7), (5, 7), (4, 7)],
                   3: [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (3, 5, 7), (4, 5, 7)]}
        mult = list(self.rng.choice(coprime[rank]))
        basis = _unimodular(self.rng, rank)
        key = ("haystack", tuple(mult), tuple(map(tuple, basis)), count)
        config = {"rank": rank, "multipliers": mult, "count": count, "basis": basis}
        self.add("haystack-verify", config, [key], {"rank": rank, "count": count}, {"count": count})

    # -- Kronecker systems -------------------------------------------------

    def theta(self, dim: int):
        """An ergodic frequency matrix: symbol coefficients with trivial kernel."""
        pick = self.rng.choice
        coeffs = ["1", "2", "1/2", "3/2", "2/3", "3"]
        rats = ["1/3", "1/4", "2/5", "1/6", "3/7", "1/2"]
        if dim == 1:
            alpha = {"rational": pick(["0", "1/5", "1/3"]), "symbols": {"alpha": pick(coeffs)}}
            return [[alpha, pick(rats)]]
        return [
            [{"symbols": {"alpha": pick(coeffs)}}, pick(rats)],
            [{"symbols": {"beta": pick(coeffs)}}, {"rational": pick(rats), "symbols": {"alpha": pick(coeffs)}}],
        ]

    def boxes(self, dim: int, count: int):
        """``count`` disjoint boxes, one per vertical strip of width 1/count."""
        rng = self.rng
        q = 7
        out = []
        for i in range(count):
            box = []
            for axis in range(dim):
                den = q * count if axis == 0 else q
                base = i * q if axis == 0 else 0
                lo = rng.randrange(q - 1)
                hi = rng.randrange(lo + 1, q + 1)
                box.append([str(Fraction(base + lo, den)), str(Fraction(base + hi, den))])
            out.append(box)
        return out

    def kronecker_report(self, dim, trunc, nboxes):
        theta = self.theta(dim)
        boxes = self.boxes(dim, nboxes)
        lambdas = [[0, 3], [1, 0], [2, -1]]
        key = ("kronecker", json.dumps(theta, sort_keys=True), json.dumps(boxes))
        config = {
            "system": {"kind": "kronecker", "rank": 2, "dim": dim, "theta": theta},
            "set_b": {"kind": "boxes", "boxes": boxes},
            "trunc": trunc,
            "annihilator_lambdas": lambdas,
        }
        size = {"dim": dim, "K": trunc, "boxes": nboxes}
        expect = {"atoms": (2 * trunc + 1) ** dim, "mu_b": str(_box_volume(boxes))}
        self.add("spectral-report", config, [key], size, expect)

    def kronecker_check(self, nboxes, rational: bool):
        theta = self.theta(1)
        boxes = self.boxes(1, nboxes)
        m = self.rng.randint(1, 4)
        lam = [0, m] if rational else [1, self.rng.randint(-3, 3)]
        key = ("kronecker", json.dumps(theta, sort_keys=True), json.dumps(boxes))
        config = {
            "system": {"kind": "kronecker", "rank": 2, "dim": 1, "theta": theta},
            "set_b": {"kind": "boxes", "boxes": boxes},
            "lambda": lam,
        }
        size = {"dim": 1, "K": 64, "boxes": nboxes}
        self.add("expansion_bound_check", config, [key], size, {"estimate": not rational})

    # -- templates ---------------------------------------------------------
    #
    # Each full-size template puts both reported latencies inside a block of
    # same-shape requests.  Per round: the HEAVIEST requests, a TAIL block,
    # and a MEDIAN block of six with three more lighter requests than heavier
    # ones.  In a 2-round run the median falls on the third and fourth
    # fastest of the twelve MEDIAN requests and the 11th slowest request, the
    # reported tail, on the second fastest TAIL request or near it.  Both
    # sit low in a block of equal-cost requests: a slow spell of the host
    # that no serving of some of the block's requests escaped does not move
    # them.

    def _volume(self, tiny: bool) -> None:
        if tiny:
            self.draw(self.full_grid, "volume-spectrum", 3, {"ap_max": 3}, csv=True)
            self.draw(self.congruence, "volume-spectrum", 2, 5, 5)
            self.draw(self.random_set, "volume-spectrum", 2, 3, "1/2", {"cap": 12})
            self.draw(self.random_set, "volume-spectrum", 3, 1, "1/2")
            self.draw(self.explicit_big, 8)
            self.draw(self.full_grid, "pattern-search", 4, _pattern(3))
            self.draw(self.random_set, "density", 2, None, "1/3", {"windows": [2, 4]})
            return
        # HEAVIEST: a 225-point full grid with its AP certificate
        self.draw(self.full_grid, "volume-spectrum", 7, {"ap_max": 5})
        for _ in range(5):  # TAIL: 225-point congruence sets
            self.draw(self.congruence, "volume-spectrum", 2, 11, 15)
        self.draw(self.congruence, "volume-spectrum", 3, 5, 3)
        for _ in range(6):  # MEDIAN: 121-point congruence sets
            self.draw(self.congruence, "volume-spectrum", 2, 17, 11)
        self.draw(self.full_grid, "volume-spectrum", 5, {"ap_max": 4}, csv=True)
        self.draw(self.congruence, "volume-spectrum", 2, 7, 9, {"ap_max": 4})
        self.draw(self.random_set, "volume-spectrum", 2, 10, "1/3", {"cap": 60}, csv=True)
        self.draw(self.full_grid, "volume-spectrum", 4, {"ap_max": 3})
        self.draw(self.random_set, "volume-spectrum", 2, 3, "1/2", {"ap_max": 3})
        self.draw(self.random_set, "volume-spectrum", 3, 1, "1/2")
        self.draw(self.explicit_big, 18)
        self.draw(self.full_grid, "pattern-search", 6, _pattern(3))
        self.draw(self.random_set, "pattern-search", 2, 10, "1/2", _pattern(2))
        self.draw(self.random_set, "density", 2, None, "1/3", {"windows": [4, 8, 12, 16]}, csv=True)

    def _finite_reports(self, tiny: bool) -> None:
        sr = {"lambda_bound": 3}
        if tiny:
            self.draw(self.finite_request, "spectral-report", "cyclic", 12, sr)
            self.draw(self.finite_request, "spectral-report", "split", 4, sr)
            self.draw(self.finite_request, "decompose", "cyclic", 10, _decompose(2))
            self.draw(self.finite_request, "intersect", "split", 3, _intersect(2))
            self.draw(self.haystack_request, 2, 6)
            return
        # HEAVIEST: the largest split carrier, (Z/20)^2, and the largest exponent
        self.draw(self.finite_request, "spectral-report", "split", 20, sr)
        self.draw(self.finite_request, "spectral-report", "cyclic", 120, sr)
        for _ in range(4):  # TAIL: Z/80
            self.draw(self.finite_request, "spectral-report", "cyclic", 80, sr)
        for _ in range(6):  # MEDIAN: Z/54
            self.draw(self.finite_request, "spectral-report", "cyclic", 54, sr)
        self.draw(self.finite_request, "spectral-report", "cyclic", 30, sr)
        self.draw(self.finite_request, "spectral-report", "split", 8, sr)
        self.draw(self.finite_request, "decompose", "cyclic", 180, _decompose(6))
        self.draw(self.finite_request, "decompose", "split", 14, _decompose(2))
        self.draw(self.finite_request, "intersect", "cyclic", 96, _intersect(3))
        for d, p in ((15, 2), (21, 3)):
            self.draw(self.finite_request, "intersect", "split", d, _intersect(p))
        self.draw(self.haystack_request, 3, 14)
        self.draw(self.haystack_request, 2, 10)

    def _expand_scan(self, tiny: bool) -> None:
        if tiny:
            self.draw(self.finite_request, "expand-scan", "split", 4, {"coord_bound": 2}, csv=True)
            self.draw(self.finite_request, "expand-scan", "cyclic", 10, {"coord_bound": 2, "ergodic_set": _ap(3)}, csv=True)
            return
        # HEAVIEST: Z/80 and Z/40 over 80 directions
        for n in (80, 40):
            self.draw(self.finite_request, "expand-scan", "cyclic", n, {"coord_bound": 4}, csv=True)
        for _ in range(4):  # TAIL: (Z/8)^2 over 80 directions
            self.draw(self.finite_request, "expand-scan", "split", 8, {"coord_bound": 4}, csv=True)
        for _ in range(6):  # MEDIAN: (Z/6)^2 over 80 directions
            self.draw(self.finite_request, "expand-scan", "split", 6, {"coord_bound": 4}, csv=True)
        lighter = (("split", 6), ("cyclic", 20), ("cyclic", 15), ("split", 4), ("cyclic", 12), ("split", 3), ("cyclic", 10))
        for shape, n in lighter:
            self.draw(self.finite_request, "expand-scan", shape, n, {"coord_bound": 3}, csv=True)
        for shape, n in (("split", 5), ("cyclic", 21)):
            scan = {"coord_bound": 3, "ergodic_set": _ap(2)}
            self.draw(self.finite_request, "expand-scan", shape, n, scan, csv=True)

    def _kronecker(self, tiny: bool) -> None:
        if tiny:
            self.draw(self.kronecker_report, 1, 8, 1)
            self.draw(self.kronecker_report, 2, 2, 2)
            self.draw(self.kronecker_check, 1, rational=True)
            self.draw(self.kronecker_check, 2, rational=False)
            return
        # HEAVIEST: dim 2, K = 5 and dim 1, K = 64, three boxes each
        self.draw(self.kronecker_report, 2, 5, 3)
        self.draw(self.kronecker_report, 1, 64, 3)
        for _ in range(4):  # TAIL: dim 1, K = 128, one box
            self.draw(self.kronecker_report, 1, 128, 1)
        self.draw(self.kronecker_report, 2, 4, 1)
        for _ in range(6):  # MEDIAN: dim 1, K = 64, one box
            self.draw(self.kronecker_report, 1, 64, 1)
        self.draw(self.kronecker_report, 2, 3, 1)
        self.draw(self.kronecker_report, 1, 32, 1)
        for rational in (True, False) * 4:
            self.draw(self.kronecker_check, 1, rational=rational)


def _pattern(p: int) -> dict:
    probes = [[[0, 1]], [[1, 2]]] if p == 2 else [[[0, 1], [1, 1]], [[1, 0], [2, 1]]]
    return {"p": p, "probes": probes, "bounds": {"n_max": 3, "m_max": 3}}


def _decompose(k: int) -> dict:
    return {"sublattice": [[k, 0], [0, k]], "eps_o": "1/10"}


def _intersect(p: int) -> dict:
    probes = [[[1, 0]]] if p == 2 else [[[1, 0], [0, 1]]]
    return {"p": p, "probes": probes, "haystack": {"multipliers": [2, 3], "count": 8}}


def _ap(step: int) -> dict:
    # a step prime to the carrier exponent saturates like the full interval,
    # so the CLI's expansion-bound verdict passes
    return {"kind": "ap", "offset": 1, "step": step}


def _unimodular(rng: random.Random, rank: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3):
        i, j = rng.sample(range(rank), 2)
        k = rng.randint(-2, 2)
        for row in m:
            row[j] += k * row[i]
    return [[m[i][j] for i in range(rank)] for j in range(rank)]  # columns as vectors


def _box_volume(boxes) -> Fraction:
    total = Fraction(0)
    for box in boxes:
        vol = Fraction(1)
        for lo, hi in box:
            vol *= Fraction(hi) - Fraction(lo)
        total += vol
    return total
