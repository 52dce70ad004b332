"""Config fuzzing of the point-set, finite-system, haystack and Kronecker
subcommands.

Every config ends in one of three ways: it runs (exit 0), it fails its
verdict (exit 1) or it is refused with a one-line reason (exit 2).  No
config may end in an escaping exception or a traceback on stderr.  Sizes
stay small so each property runs in a few seconds, but the values reach
past the valid ranges: zero, negative and non-chain moduli, generator rows
of the wrong length, windows, caps and bounds below zero, densities outside
[0, 1] or with a zero denominator, probes a vector short or long, non-increasing
windows, haystack counts and ranks that do not match the multipliers,
non-ergodic or malformed frequency matrices, boxes that are empty,
overlapping or outside the torus, and JSON objects replaced by null, a
list, a string, a number or a bool.  Three faults draw their field from the
config tables themselves: a renamed field, a scalar for an array field, and
an array one entry longer or shorter than the shape its reader names.
"""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latspec import cli, volume
from latspec.cli import main, read_config

_INT = st.integers(-3, 9)

#: a rational written as {"num": "...", "den": "..."}, zero denominators included
_NUM_DEN = st.builds(lambda n, d: {"num": str(n), "den": str(d)}, st.integers(-1, 4), st.integers(0, 3))

_NON_OBJECTS = st.sampled_from([None, [], [{"kind": "full"}], "full", 0, 2.5, True])


def _objects_in(node, path=()):
    """The paths of the JSON objects nested in node, node itself excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(child, dict):
            yield path + (key,)
        yield from _objects_in(child, path + (key,))


def _replace_an_object(draw, cfg, odds=8):
    """One time in odds, one nested JSON object of a copy of cfg replaced by
    a non-object (the strategies share some dicts between configs)."""
    paths = list(_objects_in(cfg))
    if paths and draw(st.integers(0, odds - 1)) == 0:
        cfg = json.loads(json.dumps(cfg))
        *parents, last = draw(st.sampled_from(paths))
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = draw(_NON_OBJECTS)
    return cfg


def _vec(rank):
    return st.lists(st.integers(-6, 6), min_size=max(rank, 0), max_size=max(rank, 0))


def _sets(rank):
    leaves = st.one_of(
        st.just({"kind": "full"}),
        st.builds(
            lambda n, o: {"kind": "congruence", "modulus": n, "offset": o},
            st.integers(-1, 7),
            _vec(rank),
        ),
        st.builds(
            lambda d, s: {"kind": "random", "density": d, "seed": s},
            st.one_of(st.sampled_from(["0", "1", "1/2", "1/3", "3/2", "-1/4", "1/0"]), _NUM_DEN),
            st.integers(0, 2**64 - 1),
        ),
        st.builds(
            lambda pts: {"kind": "explicit", "points": pts},
            st.lists(_vec(rank), max_size=8),
        ),
        st.just({"kind": "mystery"}),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda b, o: {"kind": "translate", "base": b, "offset": o}, kids, _vec(rank)),
            st.builds(lambda ps: {"kind": "union", "parts": ps}, st.lists(kids, max_size=3)),
            st.builds(lambda ps: {"kind": "intersection", "parts": ps}, st.lists(kids, max_size=3)),
        ),
        max_leaves=4,
    )


@st.composite
def _configs(draw):
    rank = draw(st.integers(0, 3))
    cfg = {"rank": rank, "set": draw(_sets(rank))}
    experiment = draw(st.sampled_from(["volume-spectrum", "pattern-search", "density"]))
    cfg["experiment"] = experiment
    # keep the window small enough that a rank-3 scan stays fast
    window = draw(st.integers(-2, 2 if rank == 3 else 4))
    if experiment == "volume-spectrum":
        cfg["window"] = window
        if draw(st.booleans()):
            cfg["cap"] = draw(st.integers(-2, 40))
        if draw(st.booleans()):
            cfg["ap_max"] = draw(st.integers(-1, 4))
    elif experiment == "pattern-search":
        cfg["window"] = window
        # one p in four is refused, below 2
        p = draw(st.sampled_from([2, 3] * 3 + [0, 1]))
        cfg["p"] = p
        # most probes hold the p - 1 vectors their shape asks for; one draw in eight is a vector short or long
        size = max(p - 1 + draw(st.sampled_from([0] * 14 + [-1, 1])), 0)
        cfg["probes"] = draw(st.lists(st.lists(_vec(rank), min_size=size, max_size=size), max_size=2))
        cfg["bounds"] = {"n_max": draw(_INT), "m_max": draw(_INT), "lambda_count": draw(_INT)}
    else:
        cfg["windows"] = draw(st.lists(st.integers(-2, 6), max_size=4))
    # faults are drawn rarely enough that most configs reach their runner; the simplest draw has none
    if draw(st.sampled_from([False] * 7 + [True])):
        del cfg[draw(st.sampled_from(sorted(k for k in cfg if k != "experiment")))]
    return _replace_an_object(draw, cfg, 16)


def _check_exit(cfg, backend="numpy"):
    """Serve ``cfg`` on one kernel backend; return the exit code and the
    report body without its two volatile fields (None when refused)."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.setenv("LATSPEC_KERNELS", backend)
        path, report = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([cfg["experiment"], "--config", path, "--out", report])
        body = None
        if os.path.exists(report):
            with open(report) as fh:
                body = json.load(fh)
            del body["generated_at"], body["elapsed_seconds"]
    assert code in (0, 1, 2), code
    assert "Traceback" not in err.getvalue()
    # a config ends as a verdict or a refusal, never as a library fault named by its type
    assert not re.search(r"hard failure: \w+(Error|Exception|Warning):", err.getvalue()), err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
    return code, body


#: most points per rank whose spectrum the Python path replays in the property
_REPLAYED = {1: 40, 2: 40, 3: 16}


@st.composite
def _volume_configs(draw):
    """Valid volume-spectrum configs, most of them small enough to replay."""
    rank = draw(st.integers(1, 3))
    sets = [
        {"kind": "full"},
        {"kind": "congruence", "modulus": draw(st.integers(1, 3)), "offset": draw(_vec(rank))},
        {"kind": "random", "density": draw(st.sampled_from(["1/3", "1/2", {"num": "1", "den": "3"}])), "seed": draw(st.integers(0, 2**64 - 1))},
    ]
    explicit = {"kind": "explicit", "points": draw(st.lists(_vec(rank), max_size=14))}
    desc = draw(st.sampled_from(sets + [explicit]))
    # explicit sets stay small on any window
    window = 6 if desc is explicit else draw(st.integers(1, 1 if rank == 3 else 3))
    if draw(st.booleans()):
        desc = {"kind": "translate", "base": desc, "offset": draw(_vec(rank))}
    cfg = {"experiment": "volume-spectrum", "rank": rank, "window": window, "set": desc}
    if draw(st.booleans()):
        cfg["cap"] = draw(st.integers(1, 40))
    if draw(st.booleans()):
        cfg["ap_max"] = draw(st.integers(1, 4))
    return cfg


@given(st.one_of(_configs(), _volume_configs()))
# a cap of -1 used to end in an IndexError traceback on the int64 scan
@example({"experiment": "volume-spectrum", "rank": 2, "window": 2, "set": {"kind": "full"}, "cap": -1})
# rank 0 used to be refused with a reason from inside the scan
@example({"experiment": "volume-spectrum", "rank": 0, "window": 2, "set": {"kind": "full"}})
# a cap between the gcd and the simplex bound, with an AP certificate
@example({"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "congruence", "modulus": 2, "offset": [1, 0]}, "cap": 20, "ap_max": 3})
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_point_set_configs_exit_0_1_or_2_without_traceback(cfg):
    code, body = _check_exit(cfg)
    # small volume spectra: the exhaustive Python path must give the same report
    if body and cfg["experiment"] == "volume-spectrum":
        if body["results"]["point_count"] <= _REPLAYED.get(int(cfg["rank"]), 0):
            assert _check_exit(cfg, "python") == (code, body)


def _ints(length, bound=9):
    return st.lists(st.integers(-bound, bound), min_size=length, max_size=length)


@st.composite
def _finite_system(draw, rank):
    """``(width, descriptor)`` of an ergodic system: a triangular matrix with
    a nonzero diagonal, or a divisibility chain of width at most the rank (the
    one-point system at rank 0) whose generator images start with the
    standard basis."""
    if draw(st.booleans()):
        matrix = [
            [0] * i + [draw(st.sampled_from([1, 2, 3, -2]))] + draw(_ints(rank - i - 1, 3))
            for i in range(rank)
        ]
        return rank, {"kind": "finite", "matrix": matrix}
    moduli = [draw(st.integers(2, 6))] if rank else []
    if rank > 1 and draw(st.booleans()):
        moduli.append(moduli[-1] * draw(st.integers(1, 3)))
    width = len(moduli)
    gens = [[int(i == j) for i in range(width)] for j in range(width)]
    gens += draw(st.lists(_ints(width), min_size=rank - width, max_size=rank - width))
    return width, {"kind": "finite", "rank": rank, "moduli": moduli, "gens": gens}


_ERGODIC_SETS = st.one_of(
    st.just({"kind": "interval"}),
    st.builds(lambda o, s: {"kind": "ap", "offset": o, "step": s}, st.integers(-3, 3), st.integers(1, 3)),
)

# one fault per config at most, so that most configs get past the parser
_FAULTS = st.sampled_from(
    [None] * 8
    + [
        "rank 0", "zero modulus", "negative modulus", "non-chain", "long gens row",
        "short gens row", "gens row dropped", "long point", "no points", "boxes",
        "eps_o", "p", "probe", "ergodic_set", "bound", "field dropped",
    ]
)


@st.composite
def _finite_configs(draw):
    fault = draw(_FAULTS)
    rank = 0 if fault == "rank 0" else draw(st.integers(1, 3))
    width, system = draw(_finite_system(rank))
    moduli, gens = system.get("moduli"), system.get("gens", system.get("matrix"))
    if moduli and fault in ("zero modulus", "negative modulus", "non-chain"):
        moduli[draw(st.integers(0, width - 1))] = {"zero modulus": 0, "negative modulus": -4}.get(fault, 7)
    if gens and fault in ("long gens row", "short gens row"):
        gens[-1] = draw(_ints(len(gens[-1]) + (1 if fault.startswith("long") else -1)))
    if gens and fault == "gens row dropped":
        gens.pop()
    if "moduli" in system and draw(st.booleans()):
        points = {"kind": "elements", "points": draw(st.lists(_ints(width), min_size=1, max_size=8))}
    else:
        points = {"kind": "preimages", "points": draw(st.lists(_ints(rank), min_size=1, max_size=8))}
    if fault == "long point":
        points["points"][0].append(1)
    points = {"no points": {"kind": "elements", "points": []}, "boxes": {"kind": "boxes"}}.get(fault, points)
    experiment = draw(st.sampled_from(["intersect", "expand-scan", "decompose", "spectral-report"]))
    cfg = {"experiment": experiment, "system": system, "set_b": points}
    if experiment == "spectral-report":
        cfg["lambda_bound"] = -1 if fault == "bound" else draw(st.integers(0, 2))
    elif experiment == "decompose":
        good = st.sampled_from(["1/10", "1/2", "2", 3])
        cfg["eps_o"] = draw(st.sampled_from(["0", "-1/3", "1/0"]) if fault == "eps_o" else good)
        if draw(st.booleans()):
            cfg["sublattice"] = [[3 * int(i == j) for i in range(rank)] for j in range(rank)]
    elif experiment == "intersect":
        p = draw(st.integers(-1, 1) if fault == "p" else st.integers(2, 3))
        probe = [draw(_ints(rank, 3)) for _ in range(max(p - 1, 0))]
        if fault == "probe":
            probe = probe[1:] if draw(st.booleans()) else [v + [0] for v in probe]
        cfg["p"], cfg["probes"] = p, [probe]
    else:
        cfg["coord_bound"] = -1 if fault == "bound" else draw(st.integers(0, 2))
    if experiment in ("intersect", "expand-scan") and draw(st.booleans()):
        cfg["ergodic_set"] = draw(_ERGODIC_SETS)
    if fault == "ergodic_set":
        cfg["ergodic_set"] = draw(
            st.sampled_from([{"kind": "ap", "step": 0}, {"kind": "interval", "offset": 1}, {"kind": "bogus"}])
        )
    if fault == "field dropped":
        del cfg[draw(st.sampled_from(sorted(k for k in cfg if k != "experiment")))]
    return _replace_an_object(draw, cfg)


def _cyclic(modulus, gens):
    return {
        "system": {"kind": "finite", "rank": len(gens), "moduli": [modulus], "gens": gens},
        "set_b": {"kind": "elements", "points": [[0]]},
    }


@given(_finite_configs())
# each of these ended in a traceback (exit 1) or ran on a misread system
@example({"experiment": "spectral-report", **_cyclic(10**5, [[1]])})
@example({"experiment": "decompose", **_cyclic(10**12, [[1]])})
@example({"experiment": "decompose", **_cyclic(4, [[1, 5]])})
@example(
    {
        "experiment": "decompose",
        "system": {"kind": "finite", "rank": 1, "moduli": [2, 4], "gens": [[1]]},
        "set_b": {"kind": "elements", "points": [[0, 0]]},
    }
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_finite_system_configs_exit_0_1_or_2_without_traceback(cfg):
    _check_exit(cfg)


_MULTIPLIERS = st.sampled_from([(2, 3), (3, 4), (2, 3, 5), (2, 5, 9), (6, 10, 15), (2, 3, 5, 7)])
_HAYSTACK_FAULTS = st.sampled_from(
    [None] * 8 + ["rank", "multipliers", "count", "basis", "vector length", "field dropped"]
)


@st.composite
def _haystack_configs(draw):
    """Samples as vector lists or as haystack prefixes, at most one fault each."""
    fault = draw(_HAYSTACK_FAULTS)
    multipliers = list(draw(_MULTIPLIERS))
    rank = len(multipliers)
    if fault == "multipliers":
        multipliers = draw(st.lists(st.integers(-1, 12), max_size=4))
    cfg = {"experiment": "haystack-verify", "rank": draw(st.integers(-1, 4)) if fault == "rank" else rank}
    if draw(st.booleans()):
        vectors = draw(st.lists(_ints(rank, 12), max_size=10))
        if fault == "vector length" and vectors:
            vectors[-1] = vectors[-1][1:]
        cfg["vectors"] = vectors
    else:
        cfg["multipliers"] = multipliers
        cfg["count"] = draw(st.integers(-2, 0) if fault == "count" else st.integers(0, 12))
        if draw(st.booleans()) or fault == "basis":
            # a unimodular basis, or a singular or ragged one
            basis = [[int(i == j) + (j == i + 1) for i in range(rank)] for j in range(rank)]
            if fault == "basis":
                basis = draw(st.sampled_from([basis[:-1], [row + [0] for row in basis], [[0] * rank] * rank]))
            cfg["basis"] = basis
    if fault == "field dropped":
        del cfg[draw(st.sampled_from(sorted(k for k in cfg if k != "experiment")))]
    return cfg


@given(_haystack_configs())
# C(10^6, 2) pairs, and a rank mismatch: each used to generate the whole sample first
@example({"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 10**6})
@example({"experiment": "haystack-verify", "rank": 1, "multipliers": [2, 3], "count": 10**6})
# rank 0 with no vectors ended in an IndexError traceback
@example({"experiment": "haystack-verify", "rank": 0, "vectors": []})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_haystack_configs_exit_0_1_or_2_without_traceback(cfg):
    _check_exit(cfg)


_SYMBOLS = ({"symbols": {"alpha": "1"}}, {"symbols": {"beta": "1"}})
_RATIONALS = st.sampled_from([0, 1, "1/3", "-2/5", "1/2"])
_EXTRA = st.one_of(
    _RATIONALS,
    st.sampled_from([{"symbols": {"alpha": "1", "beta": "1/3"}}, {"symbols": {"beta": "-2"}, "rational": "1/2"}]),
)
_ENDS = ("0", "1/6", "1/3", "1/2", "2/3", "1")
_KRONECKER_FAULTS = st.sampled_from(
    [None] * 11
    + [
        "non-ergodic", "bad entry", "row count", "row length", "bad box", "overlap",
        "no boxes", "box dim", "trunc", "lambda", "field dropped",
    ]
)


def _interval(draw):
    i, j = sorted(draw(st.lists(st.integers(0, len(_ENDS) - 1), min_size=2, max_size=2, unique=True)))
    return [_ENDS[i], _ENDS[j]]


@st.composite
def _kronecker_configs(draw):
    """Ergodic torus systems of dim 1-2 (row i carries its own symbol) with
    disjoint boxes, and at most one fault each."""
    fault = draw(_KRONECKER_FAULTS)
    rank = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    theta = [
        [_SYMBOLS[i] if fault != "non-ergodic" else draw(_RATIONALS)] + draw(st.lists(_EXTRA, min_size=rank - 1, max_size=rank - 1))
        for i in range(dim)
    ]
    if fault == "bad entry":
        theta[-1][-1] = draw(st.sampled_from([[1], "1/0", None, {"symbols": ["alpha"]}]))
    elif fault == "row count":
        theta = theta[:-1] if dim == 2 else theta * 2
    elif fault == "row length":
        theta[0].append(0)
    boxes = [[_interval(draw) for _ in range(dim)]]
    if draw(st.booleans()):
        # a second box, disjoint from the first along the first axis
        boxes = [[["0", "1/3"]] + boxes[0][1:], [["1/2", "1"]] + [_interval(draw) for _ in range(dim - 1)]]
    if fault == "bad box":
        boxes[0][0] = draw(st.sampled_from([["1/2", "1/2"], ["2/3", "1/3"], ["-1/4", "1/2"], ["0", "3/2"], ["0", "1/0"]]))
    elif fault == "overlap":
        boxes.append(boxes[0])
    elif fault == "no boxes":
        boxes = []
    elif fault == "box dim":
        boxes[0].append(["0", "1"])
    cfg = {
        "experiment": "spectral-report",
        "system": {"kind": "kronecker", "rank": rank, "dim": dim, "theta": theta},
        "set_b": {"kind": "boxes", "boxes": boxes},
        "trunc": -1 if fault == "trunc" else draw(st.integers(0, 6)),
    }
    if draw(st.booleans()) or fault == "lambda":
        width = rank + 1 if fault == "lambda" else rank
        cfg["annihilator_lambdas"] = draw(st.lists(_ints(width, 4), min_size=fault == "lambda", max_size=3))
    if fault == "field dropped":
        del cfg[draw(st.sampled_from(sorted(k for k in cfg if k != "experiment")))]
    return _replace_an_object(draw, cfg)


_ALPHA = {"symbols": {"alpha": "1"}}


@given(_kronecker_configs())
# 129^3 atoms at the default trunc used to be enumerated for minutes
@example(
    {
        "experiment": "spectral-report",
        "system": {"kind": "kronecker", "rank": 1, "dim": 3, "theta": [[_ALPHA], [_ALPHA], [_ALPHA]]},
        "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]] * 3]},
    }
)
# a symbol list in place of a symbol map ended in an AttributeError traceback
@example(
    {
        "experiment": "spectral-report",
        "system": {"kind": "kronecker", "rank": 1, "dim": 1, "theta": [[{"symbols": ["alpha"]}]]},
        "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]},
        "trunc": 2,
    }
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kronecker_configs_exit_0_1_or_2_without_traceback(cfg):
    _check_exit(cfg)


def _kind(node, tables):
    return node["kind"] if isinstance(node, dict) and isinstance(node.get("kind"), str) and node["kind"] in tables else None


def _read_objects(cfg):
    """(node, table, path) of each object of cfg read against a table named in
    ``cli`` or ``volume``: the config itself, its system, set_b, ergodic_set,
    bounds and haystack, and each point set of a known kind."""
    kronecker = cfg["experiment"] == "spectral-report" and _kind(cfg.get("system"), cli.SYSTEMS) == "kronecker"
    out = [(cfg, cli.KRONECKER_REPORT if kronecker else cli.TABLES[cfg["experiment"]], "")]
    for key, tables in (("system", cli.SYSTEMS), ("set_b", cli.SET_B), ("ergodic_set", cli.ERGODIC_SETS)):
        if _kind(cfg.get(key), tables):
            out.append((cfg[key], tables[cfg[key]["kind"]], key))
    for key, table in (("bounds", cli.BOUNDS), ("haystack", cli.HAYSTACK)):
        if isinstance(cfg.get(key), dict):
            out.append((cfg[key], table, key))
    sets = [(cfg.get("set"), "set")]
    while sets:
        node, path = sets.pop()
        if _kind(node, volume.POINT_SETS):
            out.append((node, volume.POINT_SETS[node["kind"]], path))
            sets += [(part, f"{path}.parts[{i}]") for i, part in enumerate(node.get("parts", [])) if isinstance(node.get("parts"), list)]
            sets.append((node.get("base"), f"{path}.base"))
    return out


def _misspelt(draw, name):
    i = draw(st.integers(0, len(name) - 1))
    return draw(st.sampled_from([name[:i] + name[i + 1:], name[:i] + name[i] * 2 + name[i + 1:], name + "_"]))


@st.composite
def _table_faults(draw):
    """A config of any generator above with one field renamed (``rename``
    True), or with a scalar in place of one array field."""
    cfg = json.loads(json.dumps(draw(st.one_of(_configs(), _finite_configs(), _haystack_configs(), _kronecker_configs()))))
    rename = draw(st.booleans())
    fields = [
        (node, name, table)
        for node, table, _ in _read_objects(cfg)
        for name, (reader, _) in table.items()
        if name in node and (rename or reader.__name__.startswith("array of"))
    ]
    if not fields:
        return cfg, None
    node, name, table = draw(st.sampled_from(fields))
    if rename:
        new = _misspelt(draw, name)
        if new in table or new == "kind":
            return cfg, None
        node[new] = node.pop(name)
    else:
        node[name] = draw(st.sampled_from([5, -1, "5", 2.5, True, None]))
    return cfg, rename


@given(_table_faults())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_table_faults_exit_0_1_or_2_and_renamed_fields_exit_2(case):
    cfg, rename = case
    code, _ = _check_exit(cfg)
    if rename:
        assert code == 2


def _shaped_arrays(cfg):
    """(path, array, innermost) of every array at a level whose length the
    shape of its field names (the ``any`` levels left out)."""
    out = []
    for node, table, at in _read_objects(cfg):
        for name, (reader, _) in table.items():
            head, _, shape = reader.__name__.partition(", ")
            if not head.startswith("array of") or not shape or name not in node:
                continue
            levels = shape.split(" x ")
            arrays = [(f"{at}.{name}" if at else name, node[name])]
            for depth, length in enumerate(levels):
                arrays = [(path, a) for path, a in arrays if isinstance(a, list)]
                if length != "any":
                    # the first array of an alike level sets the length the others are refused by
                    out += [(path, a, depth == len(levels) - 1) for path, a in arrays if length != cli.ALIKE or not path.endswith("[0]")]
                arrays = [(f"{path}[{i}]", v) for path, a in arrays for i, v in enumerate(a)]
    return out


def _with_every_shaped_field(cfg):
    """cfg with the shaped fields no generator draws: the multipliers of a
    pattern-search and the haystack of an intersect, one per axis."""
    if isinstance(cfg.get("bounds"), dict) and isinstance(cfg.get("rank"), int) and 0 <= cfg["rank"] <= 3:
        cfg["bounds"].setdefault("multipliers", [2, 3, 5][: cfg["rank"]])
    system = cfg.get("system")
    if cfg["experiment"] == "intersect" and _kind(system, cli.SYSTEMS) == "finite" and "haystack" not in cfg:
        rank = system.get("rank", len(system.get("matrix") or []))
        if isinstance(rank, int) and 1 <= rank <= 3:
            basis = [[int(i == j) for i in range(rank)] for j in range(rank)]
            cfg["haystack"] = {"multipliers": [2, 3, 5][:rank], "count": 4, "basis": basis}
    return cfg


@st.composite
def _length_faults(draw):
    """A config of any generator above, and a copy with one shaped array one
    entry longer or shorter, and that array's path (None when it has none)."""
    cfg = _with_every_shaped_field(json.loads(json.dumps(draw(st.one_of(_configs(), _finite_configs(), _haystack_configs(), _kronecker_configs())))))
    faulty = json.loads(json.dumps(cfg))
    # an empty array of arrays has no entry to copy
    arrays = [(path, a) for path, a, innermost in _shaped_arrays(faulty) if a or innermost]
    if not arrays:
        return cfg, cfg, None
    path, array = draw(st.sampled_from(arrays))
    if array and draw(st.booleans()):
        array.pop()
    else:
        array.append(json.loads(json.dumps(array[0])) if array else 0)
    return cfg, faulty, path


_SIX = {
    "experiment": "spectral-report",
    "system": {"kind": "finite", "rank": 2, "moduli": [6], "gens": [[1], [2]]},
    "set_b": {"kind": "elements", "points": [[0]]},
}

_SQUARE = {
    "experiment": "spectral-report",
    "system": {"kind": "finite", "matrix": [[6, 0], [0, 6]]},
    "set_b": {"kind": "elements", "points": [[0, 0]]},
}


@given(_length_faults())
# a gens row or a gens list of another length was refused by the library, naming no field
@example((_SIX, {**_SIX, "system": {**_SIX["system"], "gens": [[1, 0], [2]]}}, "system.gens[0]"))
@example((_SIX, {**_SIX, "system": {**_SIX["system"], "gens": [[1]]}}, "system.gens"))
# so was a ragged matrix or sublattice
@example((_SQUARE, {**_SQUARE, "system": {"kind": "finite", "matrix": [[6, 0], [0]]}}, "system.matrix[1]"))
@example(({**_SQUARE, "experiment": "decompose", "sublattice": [[2, 0], [0, 2]]}, {**_SQUARE, "experiment": "decompose", "sublattice": [[2, 0], [0, 2, 0]]}, "sublattice[1]"))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_wrong_lengths_exit_0_1_or_2_and_are_refused_by_path(case):
    cfg, faulty, path = case
    code, _ = _check_exit(faulty)
    try:
        read_config(cfg["experiment"], cfg)
    except Exception:
        return  # another fault of the config may be refused first
    if path is not None:
        # every other array has its length: the one changed is refused, by its path
        assert code == 2
        with pytest.raises(cli.ConfigError, match=rf"^{re.escape(path)} has \d+ entr(y|ies), expected .+$"):
            read_config(faulty["experiment"], faulty)
