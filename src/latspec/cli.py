"""Config-driven experiment runner.

Every verification and search in the library is exposed as a subcommand
taking a JSON config and emitting a JSON report.  Exact rationals are
serialized as {"num": "...", "den": "..."} string pairs; interval-valued
estimates as {"lower": float, "upper": float, "exact": false}.  Reports are
deterministic for a fixed config and seed except for the "generated_at" and
"elapsed_seconds" fields.  Exit codes: 0 success, 1 failed verdict or hard
failure, 2 config error (a malformed config or report, refused with a
one-line reason).  Logs go to stderr; the report goes to --out or
stdout.

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
from .formal import FormalReal
from .haystack import MULTIPLIERS, admit_subsets, make_haystack, verify_haystack_sample
from .lattice import is_primitive, simplex_det, sublattice
from .spectral import (
    GRID,
    Weight,
    ambient_intersections,
    annihilator_mass,
    expansion_bound_check,
    intersection_theorem_search,
    rational_mass_excluding_trivial,
    shrink_rational_spectrum,
    spectral_measure,
    spectral_measure_kronecker,
    verify_bochner,
)
from .systems import (
    BoxUnion,
    ErgodicSetSpec,
    FiniteSystem,
    ergodic_components,
    finite_system,
    finite_system_from_parts,
    kronecker_system,
    max_directional_expansion,
    orbit_saturation,
)
from .volume import (
    PatternWitness,
    SearchBounds,
    _int,
    _integral,
    ap_certificate,
    build_point_set,
    parse_fraction,
    pattern_search,
    upper_density_estimate,
    verify_pattern_witness,
    volume_spectrum,
)

class ConfigError(Exception):
    pass


#: the most lambdas a box bound may ask for: (2 * bound + 1) ** rank, for
#: `coord_bound` (expand-scan) and `lambda_bound` (spectral-report), checked
#: before the box is built; a full box of rank-6 tuples is about 100 MB, and
#: the default lambda_bound of 4 stays within it up to rank 6
BOX_LIMIT = 10**6


def _box_bound(cfg: dict, key: str, rank: int, default: Optional[int] = None) -> int:
    bound = _int(cfg[key] if default is None else cfg.get(key, default), key)
    if bound < 0:
        raise ConfigError(f"{key} must be nonnegative, got {bound}")
    if (2 * bound + 1) ** rank > BOX_LIMIT:
        raise ConfigError(
            f"{key} {bound} asks for (2*{bound}+1)^{rank} lambdas, over the limit of {BOX_LIMIT}"
        )
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
# config parsing

def _object(value, what: str) -> dict:
    """A config field that must be a JSON object, refused by name otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def _parse_formal(entry) -> FormalReal:
    if isinstance(entry, (int, str)):
        return FormalReal.of(parse_fraction(entry))
    if isinstance(entry, dict):
        rational = parse_fraction(entry.get("rational", 0))
        symbols = entry.get("symbols", {})
        if not isinstance(symbols, dict):
            raise ConfigError(f"frequency symbols must map names to rationals, got {symbols!r}")
        terms = tuple((name, parse_fraction(coeff)) for name, coeff in sorted(symbols.items()))
        return FormalReal(rational, terms)
    raise ConfigError(f"cannot parse frequency entry {entry!r}")


def _parse_system(desc: dict):
    kind = desc.get("kind")
    if kind == "finite":
        if "matrix" in desc:
            return finite_system(sublattice(_integral(desc["matrix"], "matrix")))
        if "moduli" in desc:
            moduli = [int(d) for d in _integral(desc["moduli"], "moduli")]
            rank = _int(desc["rank"], "rank")
            return finite_system_from_parts(rank, moduli, _integral(desc["gens"], "gens"))
        raise ConfigError("finite system needs 'matrix' or 'moduli' + 'gens'")
    if kind == "kronecker":
        theta = [[_parse_formal(e) for e in row] for row in desc["theta"]]
        return kronecker_system(_int(desc["rank"], "rank"), _int(desc["dim"], "dim"), theta)
    raise ConfigError(f"unknown system kind {kind!r}")


def _parse_set_b(sys_, desc: dict):
    kind = desc.get("kind")
    if isinstance(sys_, FiniteSystem):
        if kind not in ("elements", "preimages"):
            raise ConfigError("finite set_b kinds: 'elements', 'preimages'")
        width = len(sys_.moduli) if kind == "elements" else sys_.rank
        points = _integral(desc["points"], f"set_b {kind[:-1]}")
        for p in points:
            if len(p) != width:
                raise ConfigError(f"set_b {kind[:-1]} {p} has length {len(p)}, expected {width}")
        if kind == "elements":
            return frozenset(sys_.index(points).tolist())
        # reduced mod the exponent, each product with a generator column is
        # below exponent * modulus <= 10**14 under the carrier limit
        reduced = [[int(x) % sys_.exponent for x in p] for p in points]
        images = sys_.vectors(list(sys_.gens))
        return frozenset(sys_.translate(0, np.array(reduced, dtype=np.int64).reshape(len(points), sys_.rank) @ images).tolist())
    if kind == "boxes":
        return BoxUnion.of(
            *[
                [(parse_fraction(lo), parse_fraction(hi)) for lo, hi in box]
                for box in desc["boxes"]
            ]
        )
    raise ConfigError("kronecker set_b kind must be 'boxes'")


def _system_and_set(cfg: dict, experiment: str):
    """The system and the set B of a config, for runs and replays alike;
    every experiment but spectral-report requires a finite system."""
    sys_ = _parse_system(_object(cfg["system"], "system"))
    if experiment != "spectral-report" and not isinstance(sys_, FiniteSystem):
        raise ConfigError(f"{experiment} requires a finite system")
    return sys_, _parse_set_b(sys_, _object(cfg["set_b"], "set_b"))


def _parse_haystack(cfg: dict, rank: int) -> list[tuple[int, ...]]:
    desc = _object(cfg.get("haystack", {}), "haystack")
    multipliers = tuple(int(m) for m in _integral(desc.get("multipliers", MULTIPLIERS[:rank]), "multipliers"))
    count = _int(desc.get("count", 8), "count")
    return make_haystack(_integral(desc.get("basis"), "basis"), multipliers, count)


def _parse_sspec(cfg: dict) -> ErgodicSetSpec:
    desc = _object(cfg.get("ergodic_set", {}), "ergodic_set")
    offset, step = _int(desc.get("offset", 0), "offset"), _int(desc.get("step", 1), "step")
    kind = desc.get("kind", "interval")
    if kind not in ("interval", "ap"):
        raise ConfigError("kind must be 'interval' or 'ap'")
    sspec = ErgodicSetSpec(offset=offset, step=step)
    if kind == "interval" and (offset, step) != (0, 1):
        raise ConfigError("interval spec has offset 0 and step 1")
    return sspec


def _point_set(cfg: dict, seed: Optional[int]):
    rank, window = _int(cfg["rank"], "rank"), _int(cfg["window"], "window")
    return build_point_set(_seeded(cfg["set"], seed), rank, window)


def _densities(cfg: dict, seed: Optional[int]):
    rank, desc = _int(cfg["rank"], "rank"), _seeded(cfg["set"], seed)
    return upper_density_estimate(desc, rank, [int(n) for n in _integral(cfg["windows"], "windows")])


def _require(cfg: dict, *keys):
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"config is missing required field {key!r}")


# ---------------------------------------------------------------------------
# experiment runners: each returns (results, verdicts, csv_rows, csv_header)

def _run_volume_spectrum(cfg: dict, seed: Optional[int]):
    _require(cfg, "rank", "window", "set")
    e = _point_set(cfg, seed)
    cap = cfg.get("cap")
    spectrum = sorted(volume_spectrum(e, None if cap is None else _int(cap, "cap")))
    results = {"point_count": len(e), "spectrum": spectrum}
    verdicts = []
    if "ap_max" in cfg:
        cert = ap_certificate(e, _int(cfg["ap_max"], "ap_max"))
        results["ap_certificate"] = {
            "ok": cert.ok,
            "n": cert.n,
            "witnesses": {
                str(m): {"vertices": [list(v) for v in rec.vertices], "det": rec.det}
                for m, rec in sorted(cert.witnesses.items())
            },
            "best_n": cert.best_n,
            "missing": list(cert.missing),
            "reason": cert.reason,
        }
        witness_ok = cert.ok and all(
            rec.verify() and abs(rec.det) == cert.n * m for m, rec in cert.witnesses.items()
        )
        verdicts.append(
            {"name": "ap-certificate", "pass": bool(witness_ok), "n": cert.n}
        )
    rows = [[v] for v in spectrum]
    return results, verdicts, rows, ["value"]


def _run_pattern_search(cfg: dict, seed: Optional[int]):
    _require(cfg, "rank", "window", "set", "p", "probes")
    e = _point_set(cfg, seed)
    bounds_cfg = _object(cfg.get("bounds", {}), "bounds")
    bounds = SearchBounds(
        n_max=_int(bounds_cfg.get("n_max", 6), "n_max"),
        m_max=_int(bounds_cfg.get("m_max", 6), "m_max"),
        lambda_count=_int(bounds_cfg.get("lambda_count", 6), "lambda_count"),
        multipliers=tuple(_integral(bounds_cfg["multipliers"], "multipliers")) if "multipliers" in bounds_cfg else None,
    )
    res = pattern_search(e, _int(cfg["p"], "p"), _integral(cfg["probes"], "probes"), bounds)
    results = {
        "ok": res.ok,
        "reason": res.reason,
        "witnesses": [
            {
                "n": w.n,
                "lambda": list(w.lam),
                "m1": w.m1,
                "lambda0": list(w.lam0),
                "pairs": [{"m": mk, "probe": list(lk)} for mk, lk in w.pairs],
            }
            for w in res.witnesses
        ],
    }
    verdicts = [{"name": "pattern-witnesses", "pass": bool(res.ok), "detail": res.reason}]
    return results, verdicts, None, None


def _candidate_box(rank: int, bound: int) -> list[tuple[int, ...]]:
    return [
        lam
        for lam in product(range(-bound, bound + 1), repeat=rank)
        if any(x != 0 for x in lam)
    ]


def _run_expand_scan(cfg: dict, seed: Optional[int]):
    """Scan every nonzero lambda in the coordinate box.

    Each CSV row's ``measure`` and ``bound_holds`` use the configured
    ``ergodic_set`` (S = Z without one).  ``max_expansion``, ``argmax_lambda``
    and the verdict always take S = Z, through ``max_directional_expansion``:
    they state directional expandability, which is defined by full orbits.
    With an ``ap`` set whose step shares a factor with the exponent they can
    exceed every ``measure`` in the CSV.
    """
    _require(cfg, "system", "set_b", "coord_bound")
    sys_, bset = _system_and_set(cfg, "expand-scan")
    bound = _box_bound(cfg, "coord_bound", sys_.rank)
    sspec = _parse_sspec(cfg) if "ergodic_set" in cfg else None
    candidates = _candidate_box(sys_.rank, bound)

    measured = [(lam, orbit_saturation(sys_, bset, lam, sspec)[1]) for lam in candidates]
    best_mu, best_lam = max_directional_expansion(sys_, bset, candidates)
    rows = []
    all_ok = True
    for lam, mu in measured:
        chk = expansion_bound_check(sys_, bset, lam, sspec)
        ok = bool(chk.ok)
        # a step > 1 averaging set is not universal: its rows are reported only
        all_ok = all_ok and (ok or not chk.applicable)
        rows.append(
            list(lam)
            + [
                mu.numerator,
                mu.denominator,
                chk.bound.value.numerator,
                chk.bound.value.denominator,
                int(ok),
            ]
        )
    expandable = best_mu == 1
    results = {
        "max_expansion": ser_fraction(best_mu),
        "argmax_lambda": list(best_lam),
        "candidate_count": len(candidates),
        "verdict": (
            "directionally expandable within candidates"
            if expandable
            else "not directionally expandable within candidates"
        ),
    }
    verdicts = [
        {"name": "expansion-bounds-hold", "pass": all_ok},
    ]
    header = (
        [f"lambda_{i + 1}" for i in range(sys_.rank)]
        + ["measure_num", "measure_den", "bound_num", "bound_den", "bound_holds"]
    )
    return results, verdicts, rows, header


def _run_spectral_report(cfg: dict, seed: Optional[int]):
    _require(cfg, "system", "set_b")
    sys_, bset = _system_and_set(cfg, "spectral-report")
    if isinstance(sys_, FiniteSystem):
        lam_bound = _box_bound(cfg, "lambda_bound", sys_.rank, default=4)
        sigma = spectral_measure(sys_, bset)
        boch = verify_bochner(sys_, bset, lam_bound)
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
            "rational_nontrivial_mass": ser_weight(
                rational_mass_excluding_trivial(sigma).scale(1 / t)
            ),
            "atoms": [
                {"label": label, "weight": shown} for label, shown in zip(labels, _ser_label_weights(sigma.label_weights))
            ],
            "bochner_checked": boch.checked,
        }
        verdicts = [
            {"name": "trivial-atom-is-muB-squared", "pass": sigma.trivial.value == mu_b * mu_b},
            {"name": "total-mass-is-muB", "pass": sigma.total.value == mu_b},
            {"name": "bochner-identity", "pass": bool(boch.ok)},
        ]
        return results, verdicts, None, None
    trunc = _int(cfg.get("trunc", 64), "trunc")
    sigma = spectral_measure_kronecker(sys_, bset, trunc)
    lam_list = [[int(x) for x in lam] for lam in _integral(cfg.get("annihilator_lambdas", []), "annihilator_lambdas")]
    for lam in lam_list:
        if len(lam) != sys_.rank:
            raise ConfigError(f"annihilator lambda {lam} has length {len(lam)}, expected {sys_.rank}")
    ann = {
        json.dumps(lam): ser_weight(annihilator_mass(sigma, tuple(lam)))
        for lam in lam_list
    }
    results = {
        "kind": "kronecker",
        "trunc": trunc,
        "mu_b": ser_fraction(sigma.total.value),
        "tail": ser_weight(sigma.tail),
        "trivial_mass": ser_weight(sigma.trivial),
        "rational_nontrivial_mass": ser_weight(
            rational_mass_excluding_trivial(sigma).scale(1 / sigma.trivial.value)
        ),
        "annihilator_masses": ann,
        "atom_count": len(sigma.atoms),
    }
    verdicts = [
        {
            "name": "tail-nonnegative",
            "pass": sigma.tail.lower >= 0 and sigma.tail.upper >= sigma.tail.lower,
        }
    ]
    return results, verdicts, None, None


def _run_decompose(cfg: dict, seed: Optional[int]):
    _require(cfg, "system", "set_b")
    sys_, bset = _system_and_set(cfg, "decompose")
    results = {}
    verdicts = []
    if "sublattice" in cfg:
        L = sublattice(_integral(cfg["sublattice"], "sublattice"))
        comps = ergodic_components(sys_, L)
        weight_sum = sum((c.weight for c in comps), start=Fraction(0))
        results["components"] = [
            {"support": sys_.vectors(sorted(c.support)).tolist(), "weight": ser_fraction(c.weight)}
            for c in comps
        ]
        verdicts.append({"name": "component-weights-sum-to-one", "pass": weight_sum == 1})
        covered = set()
        for c in comps:
            covered |= c.support
        verdicts.append(
            {"name": "components-partition-carrier", "pass": len(covered) == sys_.size}
        )
    eps_o = parse_fraction(cfg.get("eps_o", "1/10"))
    shrink = shrink_rational_spectrum(sys_, bset, eps_o)
    mu_b = sys_.measure(bset)
    results["shrink"] = {
        "n": shrink.n,
        "component_support": sys_.vectors(sorted(shrink.component.support)).tolist(),
        "c": ser_fraction(shrink.c),
        "nu_b": ser_fraction(shrink.nu_b),
        "rational_nontrivial_mass": ser_fraction(shrink.rational_mass),
        "tried": list(shrink.tried),
    }
    verdicts.append(
        {"name": "shrink-rational-mass-below-eps_o", "pass": shrink.rational_mass < eps_o}
    )
    verdicts.append(
        {
            "name": "shrink-measure-disjunction",
            "pass": shrink.nu_b >= Fraction(1, 3) or mu_b < 3 * shrink.nu_b,
        }
    )
    return results, verdicts, None, None


def _run_intersect(cfg: dict, seed: Optional[int]):
    _require(cfg, "system", "set_b", "p", "probes")
    sys_, bset = _system_and_set(cfg, "intersect")
    sample = _parse_haystack(cfg, sys_.rank)
    sspec = _parse_sspec(cfg)
    witness = intersection_theorem_search(
        sys_, bset, _int(cfg["p"], "p"), sample, sspec, _integral(cfg["probes"], "probes")
    )
    results = {
        "n": witness.n,
        "lambda": list(witness.lam),
        "m1": witness.m1,
        "probes": [
            {"probe": [list(v) for v in w.probe], "ms": list(w.ms)}
            for w in witness.probes
        ],
        "intersection_measure": ser_fraction(witness.measure),
        "eps": ser_fraction(witness.eps),
        "eps_o": ser_fraction(witness.eps_o),
        "shrink_n": witness.shrink.n,
    }
    verdicts = [
        {"name": "intersection-positive", "pass": witness.measure > 0},
        {"name": "lambda-primitive", "pass": is_primitive(witness.lam)},
    ]
    return results, verdicts, None, None


def _run_haystack_verify(cfg: dict, seed: Optional[int]):
    _require(cfg, "rank")
    rank = _int(cfg["rank"], "rank")
    if "vectors" in cfg:
        vectors = [tuple(int(x) for x in v) for v in _integral(cfg["vectors"], "vectors")]
    else:
        _require(cfg, "multipliers", "count")
        multipliers = [int(m) for m in _integral(cfg["multipliers"], "multipliers")]
        count = _int(cfg["count"], "count")
        # the elements are distinct vectors of len(multipliers) coordinates, so
        # both refusals of verify_haystack_sample are known before any is built
        if count > 0 and len(multipliers) != rank:
            raise ValueError("vector rank does not match r")
        admit_subsets(count, rank)
        vectors = make_haystack(_integral(cfg.get("basis"), "basis"), multipliers, count)
    verdict = verify_haystack_sample(vectors, rank)
    results = {
        "vectors": [list(v) for v in vectors],
        "ok": verdict.ok,
        "non_primitive": list(verdict.non_primitive) if verdict.non_primitive else None,
        "singular_subset": (
            [list(v) for v in verdict.singular_subset] if verdict.singular_subset else None
        ),
    }
    verdicts = [{"name": "haystack-sample", "pass": verdict.ok}]
    return results, verdicts, None, None


def _run_density(cfg: dict, seed: Optional[int]):
    _require(cfg, "rank", "set", "windows")
    est = _densities(cfg, seed)
    results = {
        "windows": list(est.windows),
        "densities": [ser_fraction(d) for d in est.densities],
        "proxy": ser_fraction(est.proxy),
    }
    rows = [
        [n, d.numerator, d.denominator]
        for n, d in zip(est.windows, est.densities, strict=True)
    ]
    return results, [], rows, ["window", "num", "den"]


def _seeded(set_desc, seed: Optional[int], what: str = "set") -> dict:
    """Inject the experiment seed into seedless random generators; every
    descriptor of the tree must be a JSON object, and ``parts`` a list."""
    desc = dict(_object(set_desc, what))
    if desc.get("kind") == "random" and "seed" not in desc and seed is not None:
        desc["seed"] = seed
    if "parts" in desc:
        if not isinstance(desc["parts"], list):
            raise ConfigError(f"{what}.parts must be a JSON array, got {json.dumps(desc['parts'])}")
        desc["parts"] = [_seeded(p, seed, f"{what}.parts[{i}]") for i, p in enumerate(desc["parts"])]
    if "base" in desc:
        desc["base"] = _seeded(desc["base"], seed, f"{what}.base")
    return desc


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


# ---------------------------------------------------------------------------
# witness re-verification (--verify-only)

def _verify_report(report: dict) -> list[dict]:
    cfg = report["config"]
    kind = report["experiment"]
    seed = report.get("seed")
    checks = []

    def add(name: str, ok: bool):
        checks.append({"name": name, "pass": bool(ok)})

    if kind == "volume-spectrum":
        e = _point_set(cfg, seed)
        cert = report["results"].get("ap_certificate")
        if cert and cert["ok"]:
            for m_str, rec in cert["witnesses"].items():
                verts = [tuple(v) for v in rec["vertices"]]
                ok = (
                    all(v in e.points for v in verts)
                    and abs(simplex_det(verts)) == cert["n"] * int(m_str)
                )
                add(f"ap-witness-m={m_str}", ok)
    elif kind == "pattern-search":
        e = _point_set(cfg, seed)
        for i, w in enumerate(report["results"]["witnesses"]):
            witness = PatternWitness(
                n=w["n"],
                lam=tuple(w["lambda"]),
                m1=w["m1"],
                lam0=tuple(w["lambda0"]),
                pairs=tuple((p["m"], tuple(p["probe"])) for p in w["pairs"]),
            )
            add(f"pattern-witness-{i}", verify_pattern_witness(e, witness))
    elif kind == "expand-scan":
        sys_, bset = _system_and_set(cfg, kind)
        lam = tuple(report["results"]["argmax_lambda"])
        mu = parse_fraction(report["results"]["max_expansion"])
        _, measured = orbit_saturation(sys_, bset, lam)
        add("argmax-measure-reproduces", measured == mu)
    elif kind == "intersect":
        sys_, bset = _system_and_set(cfg, kind)
        res = report["results"]
        measures = ambient_intersections(
            sys_,
            bset,
            res["n"],
            res["lambda"],
            res["m1"],
            [(w["ms"], w["probe"]) for w in res["probes"]],
        )
        for mu_i in measures[1:]:
            add("probe-intersection-positive", mu_i > 0)
        claimed = parse_fraction(res["intersection_measure"])
        add("intersection-measure-reproduces", min(measures) == claimed)
    elif kind == "haystack-verify":
        vectors = [tuple(v) for v in report["results"]["vectors"]]
        verdict = verify_haystack_sample(vectors, _int(cfg["rank"], "rank"))
        add("haystack-verdict-reproduces", verdict.ok == report["results"]["ok"])
    elif kind == "spectral-report":
        sys_, bset = _system_and_set(cfg, kind)
        if isinstance(sys_, FiniteSystem):
            sigma = spectral_measure(sys_, bset)
            add(
                "total-mass-reproduces",
                ser_weight(sigma.total) == report["results"]["total_mass"],
            )
            add(
                "trivial-mass-reproduces",
                ser_weight(sigma.trivial) == report["results"]["trivial_mass"],
            )
        else:
            sigma = spectral_measure_kronecker(sys_, bset, _int(cfg.get("trunc", 64), "trunc"))
            add(
                "tail-reproduces",
                ser_weight(sigma.tail) == report["results"]["tail"],
            )
    elif kind == "decompose":
        sys_, bset = _system_and_set(cfg, kind)
        eps_o = parse_fraction(cfg.get("eps_o", "1/10"))
        shrink = shrink_rational_spectrum(sys_, bset, eps_o)
        add("shrink-n-reproduces", shrink.n == report["results"]["shrink"]["n"])
        add(
            "shrink-mass-below-eps_o",
            shrink.rational_mass < eps_o,
        )
    elif kind == "density":
        est = _densities(cfg, seed)
        add(
            "densities-reproduce",
            [ser_fraction(d) for d in est.densities] == report["results"]["densities"],
        )
    else:
        raise ConfigError(f"cannot verify reports for experiment {kind!r}")
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
_PARSER.add_argument(
    "--verify-only",
    action="store_true",
    help="recheck the witnesses in an existing report instead of running",
)


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    # the one mapping from exceptions to exit codes, for runs and replays alike
    try:
        return _serve(args)
    except (ConfigError, OSError, KeyError, TypeError, ValueError) as exc:
        _log(f"config error: {f'missing field {exc}' if isinstance(exc, KeyError) else exc}")
        return 2
    except (AssertionError, RuntimeError) as exc:
        _log(f"hard failure: {exc}")
        return 1


def _serve(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("experiment", args.experiment) != args.experiment:
        raise ConfigError("config 'experiment' does not match the subcommand")

    seed = args.seed if args.seed is not None else cfg.get("seed")

    if args.verify_only:
        if not args.out:
            raise ConfigError("--verify-only needs --out pointing at the report")
        with open(args.out) as fh:
            checks = _verify_report(json.load(fh))
        for chk in checks:
            _log(f"{'PASS' if chk['pass'] else 'FAIL'}  {chk['name']}")
        return 0 if all(c["pass"] for c in checks) else 1

    start = time.monotonic()
    results, verdicts, rows, header = _RUNNERS[args.experiment](cfg, seed)
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
        if rows is None:
            raise ConfigError("this experiment has no tabular output for --csv")
        _write_csv(args.csv, header, rows)
        _log(f"csv written to {args.csv}")
    for v in verdicts:
        _log(f"{'PASS' if v['pass'] else 'FAIL'}  {v['name']}")
    return 0 if all(v["pass"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
