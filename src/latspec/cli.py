"""Config-driven experiment runner.

Every verification and search in the library is exposed as a subcommand
taking a JSON config and emitting a JSON report.  Each subcommand has one
table in ``TABLES`` (a Kronecker spectral-report: ``KRONECKER_REPORT``),
field -> (reader, default), and nested objects have tables of their own
(``SYSTEMS``, ``SET_B``, ``THETA_ENTRY``, ``ERGODIC_SETS``, ``BOUNDS``,
``HAYSTACK``, ``volume.POINT_SETS``); runs and ``--verify-only`` replays
read the config through them with ``config.read``, which refuses unknown
fields and arrays of another shape.  Exact rationals are serialized as
{"num": "...", "den": "..."} string pairs; interval-valued estimates as
{"lower": float, "upper": float, "exact": false}.  Reports are deterministic
for a fixed config and seed except for the "generated_at" and
"elapsed_seconds" fields, and echo the config as given.  Exit codes: 0
success, 1 failed verdict or hard failure (a library fault, named by its
type), 2 a refusal in one line: a malformed config or report (``config
error:``), a request over a resource limit (``limit:``) or a failed
allocation.  Logs go to stderr; the report goes to --out or stdout.

Subcommands: volume-spectrum, pattern-search, expand-scan, spectral-report,
decompose, intersect, haystack-verify, density.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import __version__
from .config import (
    ALIKE, DIGIT_LIMIT, RANK, REQUIRED, ConfigError, Length, LimitError, admit, array, at_least, at_most, digits, exclusive, integer,
    json_object, mapping, parse_fraction, product as capped_product, quote, rational, raw, read, read_kind,
)
from .formal import FormalReal
from .haystack import MULTIPLIERS, admit_subsets, last_element, make_haystack, verify_haystack_sample
from .lattice import is_primitive, simplex_det, sublattice
from .spectral import (
    GRID, Weight, admit_spectral_measure, ambient_intersections, annihilator_mass, expansion_bound_check,
    intersection_theorem_search, rational_mass_excluding_trivial, shrink_rational_spectrum, spectral_measure,
    spectral_measure_kronecker, verify_bochner,
)
from .systems import (
    BoxUnion, ErgodicSetSpec, FiniteSystem, KroneckerSystem, ergodic_components, finite_system,
    finite_system_from_parts, kronecker_system, max_directional_expansion, orbit_saturation,
)
from .volume import (
    AP_LIMIT, RANK_LIMIT, PatternWitness, SearchBounds, SetTree, ap_certificate, build_point_set, pattern_search,
    point_set_tree, upper_density_estimate, verify_pattern_witness, volume_spectrum,
)

#: the most lambdas a box bound may ask for: (2 * bound + 1) ** rank, for
#: `coord_bound` (expand-scan) and `lambda_bound` (spectral-report), checked
#: before the box is built; a full box of rank-6 tuples is about 100 MB, and
#: the default lambda_bound of 4 stays within it up to rank 6
BOX_LIMIT = 10**6


def _box_bound(bound: int, key: str, rank: int) -> int:
    if bound < 0:
        raise ConfigError(f"{key} must be nonnegative, got {bound}")
    admit(capped_product([2 * bound + 1] * rank), BOX_LIMIT, f"lambdas (2*{key}+1)^{rank}")
    return bound


# ---------------------------------------------------------------------------
# serialization helpers

def ser_fraction(q: Fraction) -> dict:
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def ser_weight(w: Weight) -> dict:
    if w.exact:
        return ser_fraction(w.value)
    return {"lower": float(w.lower), "upper": float(w.upper), "exact": False}


def _ser_label_weights(weights: list) -> list[dict]:
    """ser_weight of each entry of ``FiniteSpectralMeasure.label_weights``:
    an exact Fraction, or grid numerators read as floats (int true division
    is correctly rounded, so lo / GRID is float(Fraction(lo, GRID))).  One
    dict per distinct entry: an orbit shares its Fraction and a conjugate
    pair its numerators."""
    shown: dict[int, dict] = {}
    for w in weights:
        if id(w) not in shown:
            exact = isinstance(w, Fraction)
            shown[id(w)] = ser_fraction(w) if exact else {"lower": w[0] / GRID, "upper": w[1] / GRID, "exact": False}
    return [shown[id(w)] for w in weights]


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values: list) -> list[str]:
    out = list(map(float.__repr__, values))
    if "nan" in out or "inf" in out or "-inf" in out:
        out = [_FLOAT_WORDS.get(r, r) for r in out]
    return out


#: encoders of a list of JSON scalars of one type, as json.dumps writes them
_SCALARS = {
    str: lambda values: list(map(encode_basestring_ascii, values)),
    int: lambda values: list(map(int.__repr__, values)),
    float: _floats,
    bool: lambda values: ["true" if v else "false" for v in values],
    type(None): lambda values: ["null"] * len(values),
}


def _stdlib(values: list, nl: str) -> list[str]:
    # JSON text holds no raw newline, so a nested value is indented by its newlines
    return [json.dumps(v, indent=2, sort_keys=True).replace("\n", nl) for v in values]


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    The stdlib writes an indented document through its pure-Python encoder,
    one generator step per token.  Here the members of a list are encoded
    together: scalars of one type by one ``map``, dicts of one key set and
    lists of one length by encoding each key's (or position's) values as
    one list and filling a template per member, a dict met twice once.
    Types and keys outside JSON's (non-str keys, subclasses) go to the
    stdlib itself, which also raises for what it cannot encode.
    """
    return _json_one(obj, "\n")


def _json_one(obj, nl: str) -> str:
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is dict:
        if not obj:
            return "{}"
        items = sorted(obj.items())
        if not all(type(k) is str for k, _ in items):
            return _stdlib([obj], nl)[0]
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([encode_basestring_ascii(k) + ": " + _json_one(v, inner) for k, v in items]) + nl + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_json_many(obj, inner)) + nl + "]"
    encode = _SCALARS.get(kind)
    return encode([obj])[0] if encode else _stdlib([obj], nl)[0]


def _json_many(values, nl: str) -> list[str]:
    """The JSON text of each of values, nested at the indentation nl."""
    if len(values) == 1:
        return [_json_one(values[0], nl)]
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind in _SCALARS:
            return _SCALARS[kind](values)
        inner = nl + "  "
        if kind is dict:
            # a dict met twice is encoded once
            distinct = {id(v): v for v in values}
            if len(distinct) < len(values):
                texts = dict(zip(distinct, _json_many(list(distinct.values()), nl)))
                return [texts[id(v)] for v in values]
            shapes = set(map(tuple, values))
            if len(shapes) == 1:
                keys = shapes.pop()
                if not keys:
                    return ["{}"] * len(values)
                if not all(type(k) is str for k in keys):
                    return _stdlib(values, nl)
                keys = sorted(keys)
                columns = [_json_many([v[k] for v in values], inner) for k in keys]
                heads = [encode_basestring_ascii(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys]
                return list(map(("{{" + inner + ("," + inner).join(heads) + nl + "}}").format, *columns))
        elif kind is list or kind is tuple:
            lengths = set(map(len, values))
            if len(lengths) == 1:
                size = lengths.pop()
                if not size:
                    return ["[]"] * len(values)
                texts = _json_many(list(chain.from_iterable(values)), inner)
                columns = [texts[i::size] for i in range(size)]
                return list(map(("[" + inner + ("," + inner).join(["{}"] * size) + nl + "]").format, *columns))
        else:
            return _stdlib(values, nl)
    # mixed members: each group of one type and shape is encoded together
    groups: dict = {}
    for i, v in enumerate(values):
        kind = type(v)
        shape = tuple(v) if kind is dict else len(v) if kind is list or kind is tuple else None
        groups.setdefault((kind, shape), []).append(i)
    out = [""] * len(values)
    for members in groups.values():
        for i, text in zip(members, _json_many([values[i] for i in members], nl)):
            out[i] = text
    return out


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# config tables: field -> (reader, default), read by config.read


#: array lengths from a config's ``p`` (refused below 2 when read), a Kronecker ``dim``, a finite system's
#: ``moduli`` and the system read first
P_1 = Length("p-1", lambda scope: scope["p"] - 1)
DIM = Length("dim", lambda scope: scope["dim"])
GEN_WIDTH = Length("len(moduli)", lambda scope: None if scope["moduli"] is None else len(scope["moduli"]))
SYSTEM_RANK = Length("system.rank", lambda scope: scope["system"].rank)
SYSTEM_DIM = Length("system.dim", lambda scope: scope["system"].dim)
MODULI = Length("len(system.moduli)", lambda scope: len(scope["system"].moduli))


def theta_entry(value, path: str, scope) -> FormalReal:
    """A Kronecker frequency: a rational, or an object of ``THETA_ENTRY``."""
    if not isinstance(value, dict):
        return FormalReal.of(parse_fraction(value))
    fields = read(value, THETA_ENTRY, path)
    return FormalReal(fields["rational"], tuple(sorted(fields["symbols"].items())))


THETA_ENTRY = {"rational": (rational, 0), "symbols": (mapping(rational), {})}

#: a finite system takes ``matrix``, or ``rank``, ``moduli`` and ``gens``
SYSTEMS = {
    "finite": {
        "matrix": (array(integer, None, ALIKE), None), "rank": (integer, None), "moduli": (array(integer), None),
        "gens": (array(integer, RANK, GEN_WIDTH), None),
    },
    "kronecker": {"rank": (integer, REQUIRED), "dim": (integer, REQUIRED), "theta": (array(theta_entry, DIM, RANK), REQUIRED)},
}


def system(value, path: str, scope):
    """A finite or Kronecker system of ``SYSTEMS``."""
    fields = read_kind(value, SYSTEMS, path)
    if fields["kind"] == "kronecker":
        return kronecker_system(fields["rank"], fields["dim"], fields["theta"])
    exclusive(fields, "matrix", ("rank", "moduli", "gens"), f"{path}.")
    if fields["matrix"] is not None:
        return finite_system(sublattice(fields["matrix"]))
    if None in (fields["rank"], fields["moduli"], fields["gens"]):
        raise ConfigError("finite system needs 'matrix' or 'rank' + 'moduli' + 'gens'")
    return finite_system_from_parts(fields["rank"], fields["moduli"], fields["gens"])


def set_b(value, path: str, scope):
    """The set B of ``SET_B`` in the system read before it: a ``BoxUnion``, or flat indices of a finite system."""
    sys_ = scope["system"]
    if isinstance(sys_, KroneckerSystem):
        return BoxUnion.of(*read_kind(value, {"boxes": SET_B["boxes"]}, path, scope)["boxes"])
    fields = read_kind(value, {kind: SET_B[kind] for kind in ("elements", "preimages")}, path, scope)
    # the reader gave each point its length: an empty set is reshaped to hold none
    width = len(sys_.moduli) if fields["kind"] == "elements" else sys_.rank
    points = np.array(fields["points"], dtype=object).reshape(len(fields["points"]), width)
    if fields["kind"] == "preimages":
        # phi of each point, in Python integers: the point times the generator images
        points = points @ sys_.vectors(list(sys_.gens)).astype(object)
    return frozenset(sys_.index(points).tolist())


#: elements and preimages are sets of a finite system, boxes of a Kronecker one
SET_B = {
    "elements": {"points": (array(integer, None, MODULI, label="set_b element"), REQUIRED)},
    "preimages": {"points": (array(integer, None, SYSTEM_RANK, label="set_b preimage"), REQUIRED)},
    "boxes": {"boxes": (array(rational, None, SYSTEM_DIM, 2), REQUIRED)},
}


def ergodic_set(value, path: str, scope) -> Optional[ErgodicSetSpec]:
    """An averaging set of ``ERGODIC_SETS``, the interval when it names no kind; None for the interval, S = Z."""
    if isinstance(value, dict) and "kind" not in value:
        value = {**value, "kind": "interval"}
    fields = read_kind(value, ERGODIC_SETS, path)
    return ErgodicSetSpec(fields["offset"], fields["step"]) if fields["kind"] == "ap" else None


#: the interval [0, N) is S = Z; an arithmetic progression offset + step * [0, N)
ERGODIC_SETS = {"interval": {}, "ap": {"offset": (integer, ErgodicSetSpec.offset), "step": (integer, ErgodicSetSpec.step)}}


def bounds(value, path: str, scope) -> SearchBounds:
    """The search region of ``BOUNDS``."""
    return SearchBounds(**read(value, BOUNDS, path, scope))


BOUNDS = {
    "n_max": (integer, SearchBounds.n_max), "m_max": (integer, SearchBounds.m_max),
    "lambda_count": (integer, SearchBounds.lambda_count), "multipliers": (array(integer, RANK), None),
}


def haystack(value, path: str, scope) -> dict:
    """The sample of ``HAYSTACK``; no multipliers are the first rank primes."""
    return read(value, HAYSTACK, path, scope)


HAYSTACK = {"multipliers": (array(integer, SYSTEM_RANK), None), "count": (integer, 8), "basis": (array(integer, SYSTEM_RANK, SYSTEM_RANK), None)}


#: the fields every config may carry
COMMON = {"experiment": (raw, None), "seed": (integer, None)}

_RANK_AND_SET = {"rank": (at_most(RANK_LIMIT), REQUIRED), "set": (point_set_tree, REQUIRED)}


def _system_and_set_fields(experiment: str) -> dict:
    """The system and its set B; every experiment but spectral-report requires a finite system."""

    def finite_system(value, path: str, scope) -> FiniteSystem:
        sys_ = system(value, path, scope)
        if not isinstance(sys_, FiniteSystem):
            raise ConfigError(f"{experiment} requires a finite system")
        return sys_

    return {"system": (system if experiment == "spectral-report" else finite_system, REQUIRED), "set_b": (set_b, REQUIRED)}


#: the fields of each experiment, besides ``COMMON``
TABLES = {
    "volume-spectrum": {**_RANK_AND_SET, "window": (integer, REQUIRED), "cap": (integer, None), "ap_max": (at_most(AP_LIMIT), None)},
    "pattern-search": {
        **_RANK_AND_SET, "window": (integer, REQUIRED), "p": (at_least(2), REQUIRED),
        "probes": (array(integer, None, P_1, RANK), REQUIRED), "bounds": (bounds, {}),
    },
    "expand-scan": {**_system_and_set_fields("expand-scan"), "coord_bound": (integer, REQUIRED), "ergodic_set": (ergodic_set, {})},
    "spectral-report": {**_system_and_set_fields("spectral-report"), "lambda_bound": (integer, 4)},
    "decompose": {**_system_and_set_fields("decompose"), "sublattice": (array(integer, SYSTEM_RANK, ALIKE), None), "eps_o": (rational, "1/10")},
    "intersect": {
        **_system_and_set_fields("intersect"), "p": (at_least(2), REQUIRED),
        "probes": (array(integer, None, P_1, SYSTEM_RANK), REQUIRED), "haystack": (haystack, {}), "ergodic_set": (ergodic_set, {}),
    },
    "haystack-verify": {
        "rank": (integer, REQUIRED), "vectors": (array(integer, None, RANK), None), "multipliers": (array(integer, RANK), None),
        "count": (integer, None), "basis": (array(integer, RANK, RANK), None),
    },
    "density": {**_RANK_AND_SET, "windows": (array(integer), REQUIRED)},
}

#: the fields of a spectral-report of a Kronecker system; ``TABLES["spectral-report"]`` is that of a finite one
KRONECKER_REPORT = {
    **_system_and_set_fields("spectral-report"), "trunc": (integer, 64), "annihilator_lambdas": (array(integer, None, SYSTEM_RANK), []),
}


def read_config(experiment: str, cfg) -> dict:
    """cfg read against ``COMMON`` and the table of experiment, ``KRONECKER_REPORT`` for a Kronecker spectral-report."""
    system_ = cfg.get("system") if isinstance(cfg, dict) else None
    kronecker = experiment == "spectral-report" and isinstance(system_, dict) and system_.get("kind") == "kronecker"
    return read(cfg, {**COMMON, **(KRONECKER_REPORT if kronecker else TABLES[experiment])})


# ---------------------------------------------------------------------------
# experiment runners: each takes a read config and the seed, and returns
# (results, verdicts, csv_rows, csv_header)

def _run_volume_spectrum(c: dict, seed: Optional[int]):
    e = build_point_set(SetTree(c["set"], seed), c["rank"], c["window"])
    spectrum = sorted(volume_spectrum(e, c["cap"]))
    results = {"point_count": len(e), "spectrum": spectrum}
    verdicts = []
    if c["ap_max"] is not None:
        cert = ap_certificate(e, c["ap_max"])
        results["ap_certificate"] = {
            "ok": cert.ok,
            "n": cert.n,
            "witnesses": {
                str(m): {"vertices": [list(v) for v in rec.vertices], "det": rec.det} for m, rec in sorted(cert.witnesses.items())
            },
            "best_n": cert.best_n,
            "missing": list(cert.missing),
            "reason": cert.reason,
        }
        verdicts.append({"name": "ap-certificate", "pass": cert.ok, "n": cert.n})  # each witness's det checked exactly
    return results, verdicts, [[v] for v in spectrum], ["value"]


def _run_pattern_search(c: dict, seed: Optional[int]):
    e = build_point_set(SetTree(c["set"], seed), c["rank"], c["window"])
    res = pattern_search(e, c["p"], c["probes"], c["bounds"])
    witnesses = [
        {"n": w.n, "lambda": list(w.lam), "m1": w.m1, "lambda0": list(w.lam0), "pairs": [{"m": mk, "probe": list(lk)} for mk, lk in w.pairs]}
        for w in res.witnesses
    ]
    results = {"ok": res.ok, "reason": res.reason, "witnesses": witnesses}
    return results, [{"name": "pattern-witnesses", "pass": res.ok, "detail": res.reason}], None, None


def _run_expand_scan(c: dict, seed: Optional[int]):
    """Scan every nonzero lambda in the coordinate box.

    Each CSV row's ``measure`` and ``bound_holds`` use the configured
    ``ergodic_set`` (S = Z without one).  ``max_expansion``, ``argmax_lambda``
    and the verdict always take S = Z, through ``max_directional_expansion``:
    they state directional expandability, which is defined by full orbits.
    With an ``ap`` set whose step shares a factor with the exponent they can
    exceed every ``measure`` in the CSV.
    """
    sys_, bset = c["system"], c["set_b"]
    bound = _box_bound(c["coord_bound"], "coord_bound", sys_.rank)
    # every row's bound reads the spectral measure: refuse it before the
    # candidates are listed
    admit_spectral_measure(sys_, bset)
    sspec = c["ergodic_set"]
    candidates = [lam for lam in product(range(-bound, bound + 1), repeat=sys_.rank) if any(x != 0 for x in lam)]
    measured = [(lam, orbit_saturation(sys_, bset, lam, sspec)[1]) for lam in candidates]
    best_mu, best_lam = max_directional_expansion(sys_, bset, candidates)
    rows = []
    all_ok = True
    for lam, mu in measured:
        chk = expansion_bound_check(sys_, bset, lam, sspec)
        # a step > 1 averaging set is not universal: its rows are reported only
        all_ok = all_ok and (chk.ok or not chk.applicable)
        rows.append(list(lam) + [mu.numerator, mu.denominator, chk.bound.value.numerator, chk.bound.value.denominator, int(chk.ok)])
    results = {
        "max_expansion": ser_fraction(best_mu),
        "argmax_lambda": list(best_lam),
        "candidate_count": len(candidates),
        "verdict": ("" if best_mu == 1 else "not ") + "directionally expandable within candidates",
    }
    header = [f"lambda_{i + 1}" for i in range(sys_.rank)] + ["measure_num", "measure_den", "bound_num", "bound_den", "bound_holds"]
    return results, [{"name": "expansion-bounds-hold", "pass": all_ok}], rows, header


def _run_spectral_report(c: dict, seed: Optional[int]):
    sys_, bset = c["system"], c["set_b"]
    if isinstance(sys_, FiniteSystem):
        lam_bound = _box_bound(c["lambda_bound"], "lambda_bound", sys_.rank)
        sigma = spectral_measure(sys_, bset)
        boch = verify_bochner(sigma, lam_bound)
        mu_b = sigma.total.value
        # normalized figures are raw masses over the trivial mass mu(B)^2
        t = sigma.trivial.value
        labels = sys_.vectors(range(sys_.size)).tolist()
        results = {
            "kind": "finite",
            "carrier_moduli": list(sys_.moduli),
            "mu_b": ser_fraction(mu_b),
            "total_mass": ser_weight(sigma.total),
            "trivial_mass": ser_weight(sigma.trivial),
            "normalized_total": ser_fraction(mu_b / t),
            "rational_nontrivial_mass": ser_weight(rational_mass_excluding_trivial(sigma).scale(1 / t)),
            "atoms": [{"label": label, "weight": shown} for label, shown in zip(labels, _ser_label_weights(sigma.label_weights))],
            "bochner_checked": boch.checked,
        }
        verdicts = [
            {"name": "trivial-atom-is-muB-squared", "pass": sigma.trivial.value == mu_b * mu_b},
            {"name": "total-mass-is-muB", "pass": sigma.total.value == mu_b},
            {"name": "bochner-identity", "pass": boch.ok},
        ]
        return results, verdicts, None, None
    sigma = spectral_measure_kronecker(sys_, bset, c["trunc"])
    results = {
        "kind": "kronecker",
        "trunc": c["trunc"],
        "mu_b": ser_fraction(sigma.total.value),
        "tail": ser_weight(sigma.tail),
        "trivial_mass": ser_weight(sigma.trivial),
        "rational_nontrivial_mass": ser_weight(rational_mass_excluding_trivial(sigma).scale(1 / sigma.trivial.value)),
        "annihilator_masses": {json.dumps(lam): ser_weight(annihilator_mass(sigma, tuple(lam))) for lam in c["annihilator_lambdas"]},
        "atom_count": len(sigma.atoms),
    }
    tail_ok = sigma.tail.lower >= 0 and sigma.tail.upper >= sigma.tail.lower
    return results, [{"name": "tail-nonnegative", "pass": tail_ok}], None, None


def _run_decompose(c: dict, seed: Optional[int]):
    sys_, bset = c["system"], c["set_b"]
    results = {}
    verdicts = []
    if c["sublattice"] is not None:
        cosets = ergodic_components(sys_, sublattice(c["sublattice"]))
        weight = ser_fraction(Fraction(cosets.shape[1], sys_.size))
        results["components"] = [{"support": support, "weight": weight} for support in sys_.vectors(cosets).tolist()]
        verdicts.append({"name": "component-weights-sum-to-one", "pass": cosets.size == sys_.size})
        covered = np.bincount(cosets.ravel(), minlength=sys_.size)
        verdicts.append({"name": "components-partition-carrier", "pass": bool(np.all(covered == 1))})
    eps_o = c["eps_o"]
    shrink = shrink_rational_spectrum(sys_, bset, eps_o)
    mu_b = sys_.measure(bset)
    results["shrink"] = {
        "n": shrink.n,
        "component_support": sys_.vectors(np.flatnonzero(shrink.presentation.to_component >= 0)).tolist(),
        "c": ser_fraction(shrink.c),
        "nu_b": ser_fraction(shrink.nu_b),
        "rational_nontrivial_mass": ser_fraction(shrink.rational_mass),
        "tried": list(shrink.tried),
    }
    verdicts.append({"name": "shrink-rational-mass-below-eps_o", "pass": shrink.rational_mass < eps_o})
    disjunction = shrink.nu_b >= Fraction(1, 3) or mu_b < 3 * shrink.nu_b
    verdicts.append({"name": "shrink-measure-disjunction", "pass": disjunction})
    return results, verdicts, None, None


def _run_intersect(c: dict, seed: Optional[int]):
    sys_, h = c["system"], c["haystack"]
    sample = make_haystack(h["basis"], MULTIPLIERS[: sys_.rank] if h["multipliers"] is None else h["multipliers"], h["count"])
    witness = intersection_theorem_search(sys_, c["set_b"], c["p"], sample, c["ergodic_set"], c["probes"])
    results = {
        "n": witness.n,
        "lambda": list(witness.lam),
        "m1": witness.m1,
        "probes": [{"probe": [list(v) for v in w.probe], "ms": list(w.ms)} for w in witness.probes],
        "intersection_measure": ser_fraction(witness.measure),
        "eps": ser_fraction(witness.eps),
        "eps_o": ser_fraction(witness.eps_o),
        "shrink_n": witness.shrink.n,
    }
    verdicts = [{"name": "intersection-positive", "pass": witness.measure > 0}, {"name": "lambda-primitive", "pass": is_primitive(witness.lam)}]
    return results, verdicts, None, None


def _run_haystack_verify(c: dict, seed: Optional[int]):
    rank, vectors, multipliers, count = c["rank"], c["vectors"], c["multipliers"], c["count"]
    exclusive(c, "vectors", ("multipliers", "count", "basis"))
    if vectors is None:
        if multipliers is None or count is None:
            raise ConfigError("haystack-verify needs 'vectors' or 'multipliers' + 'count'")
        admit_subsets(count, rank)
        # every element is printed: a last one too long to print is refused first
        if count > 0:
            top = max(map(abs, last_element(c["basis"], multipliers, count)))
            admit(digits(top), DIGIT_LIMIT, f"count {count}: digits of the largest coordinate of h_{count}")
        vectors = make_haystack(c["basis"], multipliers, count)
    verdict = verify_haystack_sample(vectors, rank)
    results = {
        "vectors": [list(v) for v in vectors],
        "ok": verdict.ok,
        "non_primitive": list(verdict.non_primitive) if verdict.non_primitive else None,
        "singular_subset": [list(v) for v in verdict.singular_subset] if verdict.singular_subset else None,
    }
    return results, [{"name": "haystack-sample", "pass": verdict.ok}], None, None


def _run_density(c: dict, seed: Optional[int]):
    est = upper_density_estimate(SetTree(c["set"], seed), c["rank"], c["windows"])
    results = {"windows": list(est.windows), "densities": [ser_fraction(d) for d in est.densities], "proxy": ser_fraction(est.proxy)}
    rows = [[n, d.numerator, d.denominator] for n, d in zip(est.windows, est.densities, strict=True)]
    return results, [], rows, ["window", "num", "den"]


_RUNNERS = {
    "volume-spectrum": _run_volume_spectrum,
    "pattern-search": _run_pattern_search,
    "expand-scan": _run_expand_scan,
    "spectral-report": _run_spectral_report,
    "decompose": _run_decompose,
    "intersect": _run_intersect,
    "haystack-verify": _run_haystack_verify,
    "density": _run_density,
}
#: the experiments whose runners return CSV rows; every other one refuses --csv before it runs
TABULAR = {"volume-spectrum", "expand-scan", "density"}


# ---------------------------------------------------------------------------
# witness re-verification (--verify-only)

def _verify_report(report: dict, experiment: str, cfg, c: dict, seed: Optional[int]) -> list[dict]:
    """The checks of a report, refused unless it is of experiment, made from the
    config cfg (read as c) and, when a seed is given, with that seed."""
    kind, res = report["experiment"], json_object(report["results"], "the report's results")
    if kind != experiment:
        raise ConfigError(f"the report is of experiment {quote(kind)}, not {experiment!r}")
    if report["config"] != cfg:
        raise ConfigError("the report was made from another config than --config")
    if seed is not None and report["seed"] != seed:
        raise ConfigError(f"the report was made with seed {quote(report['seed'])}, not --seed {seed}")
    seed = report.get("seed")
    checks = []

    def add(name: str, ok: bool):
        checks.append({"name": name, "pass": bool(ok)})

    if "window" in c:
        e = build_point_set(SetTree(c["set"], seed), c["rank"], c["window"])
    sys_, bset = c.get("system"), c.get("set_b")
    if kind == "volume-spectrum":
        cert = res.get("ap_certificate")
        if cert and cert["ok"]:
            for m_str, rec in cert["witnesses"].items():
                verts = [tuple(v) for v in rec["vertices"]]
                ok = all(v in e.points for v in verts) and abs(simplex_det(verts)) == cert["n"] * int(m_str)
                add(f"ap-witness-m={m_str}", ok)
    elif kind == "pattern-search":
        for i, w in enumerate(res["witnesses"]):
            pairs = tuple((p["m"], tuple(p["probe"])) for p in w["pairs"])
            witness = PatternWitness(n=w["n"], lam=tuple(w["lambda"]), m1=w["m1"], lam0=tuple(w["lambda0"]), pairs=pairs)
            add(f"pattern-witness-{i}", verify_pattern_witness(e, witness))
    elif kind == "expand-scan":
        _, measured = orbit_saturation(sys_, bset, tuple(res["argmax_lambda"]))
        add("argmax-measure-reproduces", measured == parse_fraction(res["max_expansion"]))
    elif kind == "intersect":
        probes = [(w["ms"], w["probe"]) for w in res["probes"]]
        measures = ambient_intersections(sys_, bset, res["n"], res["lambda"], res["m1"], probes)
        for mu_i in measures[1:]:
            add("probe-intersection-positive", mu_i > 0)
        add("intersection-measure-reproduces", min(measures) == parse_fraction(res["intersection_measure"]))
    elif kind == "haystack-verify":
        verdict = verify_haystack_sample([tuple(v) for v in res["vectors"]], c["rank"])
        add("haystack-verdict-reproduces", verdict.ok == res["ok"])
    elif kind == "spectral-report" and isinstance(sys_, FiniteSystem):
        sigma = spectral_measure(sys_, bset)
        add("total-mass-reproduces", ser_weight(sigma.total) == res["total_mass"])
        add("trivial-mass-reproduces", ser_weight(sigma.trivial) == res["trivial_mass"])
    elif kind == "spectral-report":
        sigma = spectral_measure_kronecker(sys_, bset, c["trunc"])
        add("tail-reproduces", ser_weight(sigma.tail) == res["tail"])
    elif kind == "decompose":
        shrink = shrink_rational_spectrum(sys_, bset, c["eps_o"])
        add("shrink-n-reproduces", shrink.n == res["shrink"]["n"])
        add("shrink-mass-below-eps_o", shrink.rational_mass < c["eps_o"])
    elif kind == "density":
        est = upper_density_estimate(SetTree(c["set"], seed), c["rank"], c["windows"])
        add("densities-reproduce", [ser_fraction(d) for d in est.densities] == res["densities"])
    return checks


# ---------------------------------------------------------------------------
# entry point

def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# built once per process: ``main`` only parses
_PARSER = argparse.ArgumentParser(prog="latspec", description="exact lattice-dynamics experiments")
_PARSER.add_argument("experiment", choices=_RUNNERS)
_PARSER.add_argument("--config", required=True, help="JSON config path")
_PARSER.add_argument("--out", help="report path (default stdout); with --verify-only, the report to check")
_PARSER.add_argument("--csv", help="CSV export path for tabular outputs")
_PARSER.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
_PARSER.add_argument("--seed", type=int, help="overrides the config seed")
_PARSER.add_argument("--verify-only", action="store_true", help="recheck the witnesses in an existing report instead of running")


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    # the one mapping from exceptions to exit codes, for runs and replays alike
    try:
        return _serve(args)
    except LimitError as exc:
        _log(f"limit: {exc}")
        return 2
    except (OSError, KeyError, ValueError) as exc:
        _log(f"config error: {f'missing field {exc}' if isinstance(exc, KeyError) else exc}")
        return 2
    except MemoryError as exc:
        # numpy's allocation failure is a MemoryError that names its size
        _log(f"out of memory: {exc}" if str(exc) else "out of memory")
        return 2
    except Exception as exc:
        # a fault of the library, named by its type but where it states an invariant in its own words
        _log(f"hard failure: {exc if isinstance(exc, (AssertionError, RuntimeError)) else f'{type(exc).__name__}: {exc}'}")
        return 1


def _serve(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    c = read_config(args.experiment, cfg)
    if c["experiment"] not in (None, args.experiment):
        raise ConfigError("config 'experiment' does not match the subcommand")
    seed = args.seed if args.seed is not None else c["seed"]

    if args.verify_only:
        if not args.out:
            raise ConfigError("--verify-only needs --out pointing at the report")
        with open(args.out) as fh:
            report = json_object(json.load(fh), "the report")
        try:
            checks = _verify_report(report, args.experiment, cfg, c, args.seed)
        except (AttributeError, IndexError, OverflowError, TypeError) as exc:
            # the replay reads its witnesses from the report: one of another type (or an infinite float) is the report's fault
            raise ConfigError(f"the report's results are not those of {args.experiment}: {type(exc).__name__}: {exc}") from None
        for chk in checks:
            _log(f"{'PASS' if chk['pass'] else 'FAIL'}  {chk['name']}")
        return 0 if all(chk["pass"] for chk in checks) else 1

    if args.csv and args.experiment not in TABULAR:
        raise ConfigError("this experiment has no tabular output for --csv")
    start = time.monotonic()
    results, verdicts, rows, header = _RUNNERS[args.experiment](c, seed)
    elapsed = time.monotonic() - start

    report = {
        "library": "latspec",
        "version": __version__,
        "experiment": args.experiment,
        "config": cfg,
        "seed": seed,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(elapsed, 6),
        "results": results,
        "verdicts": verdicts,
    }
    body = json_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
        _log(f"report written to {args.out}")
    else:
        print(body)
    if args.csv:
        _write_csv(args.csv, header, rows)
        _log(f"csv written to {args.csv}")
    for v in verdicts:
        _log(f"{'PASS' if v['pass'] else 'FAIL'}  {v['name']}")
    return 0 if all(v["pass"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
