"""SHA-256 pins of Kronecker outputs: CLI report bodies and library results.

Each digest is taken over sorted JSON, with every Fraction written as
``p/q`` and every result record as the fields ``PINS`` names for its type,
so a change of how the frequency matrix or the rational grid is held cannot
move a figure, a verdict or a witness, and a record can gain or lose a
member that no pin names without moving a digest.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from _reference import box_overlap_volume, is_ergodic_direction
from latspec.cli import main
from latspec.formal import FormalReal
from latspec.haystack import make_haystack
from latspec.intervals import Weight
from latspec.spectral import (
    DirectionalExpansionResult,
    ExpansionCheck,
    IntersectionWitness,
    ProbeWitness,
    ShrinkResult,
    _expansion_bound,
    directional_expansion_theorem_check,
    expansion_bound_check,
    irrational_part,
    rational_mass_excluding_trivial,
    spectral_measure_kronecker,
)
from latspec.systems import (
    BoxUnion,
    ComponentPresentation,
    FiniteSystem,
    KroneckerSaturation,
    kronecker_ergodicity_certificate,
    kronecker_orbit_saturation,
    kronecker_system,
)

ALPHA = {"symbols": {"alpha": "1"}}
BETA = {"symbols": {"beta": "1"}}

#: Kronecker spectral-report configs and the SHA-256 of ``results`` + ``verdicts``
GOLDEN_REPORTS = {
    "dim-1-two-boxes": (
        {
            "experiment": "spectral-report",
            "system": {"kind": "kronecker", "rank": 2, "dim": 1, "theta": [[ALPHA, "1/3"]]},
            "set_b": {"kind": "boxes", "boxes": [[["0", "1/4"]], [["1/2", "5/6"]]]},
            "trunc": 9,
            "annihilator_lambdas": [[0, 3], [0, 1], [1, 0], [2, -1], [0, -6]],
        },
        "ee76c48dfa715ef256394d620453c62d9a30a1fb2c0f1947e8483237ebd48ebc",
    ),
    "dim-1-rank-3": (
        {
            "experiment": "spectral-report",
            "system": {
                "kind": "kronecker",
                "rank": 3,
                "dim": 1,
                "theta": [[{"rational": "1/2", "symbols": {"alpha": "2/3"}}, BETA, "-5/4"]],
            },
            "set_b": {"kind": "boxes", "boxes": [[["1/5", "7/10"]]]},
            "trunc": 7,
            "annihilator_lambdas": [[0, 0, 4], [3, 0, 0], [0, 0, 1], [1, 1, 1]],
        },
        "e8685499622f982ba886ed06f7946d369e963c1708aec9040d22b31535abb3d1",
    ),
    "dim-2-three-boxes": (
        {
            "experiment": "spectral-report",
            "system": {
                "kind": "kronecker",
                "rank": 2,
                "dim": 2,
                "theta": [
                    [ALPHA, {"rational": "1/2", "symbols": {"beta": "2"}}],
                    ["1/5", {"symbols": {"alpha": "-1/3", "beta": "1"}}],
                ],
            },
            "set_b": {
                "kind": "boxes",
                "boxes": [
                    [["0", "1/3"], ["0", "1/2"]],
                    [["1/3", "1/2"], ["1/4", "3/4"]],
                    [["3/4", "1"], ["1/2", "1"]],
                ],
            },
            "trunc": 4,
            "annihilator_lambdas": [[1, 0], [0, 1], [3, 1], [-2, 6]],
        },
        "df0059d8798232a7e69e9109cd5ec4d793c2e65ae69f6881b1d3d049d89a75b2",
    ),
    "dim-2-rational-column": (
        {
            "experiment": "spectral-report",
            "system": {
                "kind": "kronecker",
                "rank": 2,
                "dim": 2,
                "theta": [[ALPHA, "1/2"], [BETA, "-4/3"]],
            },
            "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"], ["0", "1/3"]]]},
            "trunc": 5,
            "annihilator_lambdas": [[0, 1], [0, 6], [0, 3], [1, 1]],
        },
        "1ccc0b83034c48da2394c5e049c573adea9f86d89e4329d08e84f43dfa75614a",
    ),
    "dim-3": (
        {
            "experiment": "spectral-report",
            "system": {
                "kind": "kronecker",
                "rank": 2,
                "dim": 3,
                "theta": [
                    [ALPHA, "1/3"],
                    [BETA, {"symbols": {"gamma": "1/2"}}],
                    [{"rational": "-1/4", "symbols": {"gamma": "1"}}, ALPHA],
                ],
            },
            "set_b": {
                "kind": "boxes",
                "boxes": [
                    [["0", "1/2"], ["0", "1/2"], ["0", "1/2"]],
                    [["1/2", "1"], ["1/3", "1"], ["1/4", "3/4"]],
                ],
            },
            "trunc": 2,
            "annihilator_lambdas": [[1, 0], [0, 1], [3, 0], [2, -2]],
        },
        "bbe0b7cfb0aefc6419024155ac340d8a0bbfa60ff6a6ce697ee56f6317c590ac",
    ),
}


#: the result records the golden computations reach, each with the fields its
#: digests pin; a record of another type is refused like any unknown object
PINS = {
    ShrinkResult: ("n", "presentation", "comp_b", "c", "nu_b", "rational_mass", "pi_mass", "tried"),
    ComponentPresentation: ("system", "to_component"),
    FiniteSystem: ("rank", "moduli", "gens"),
    IntersectionWitness: ("n", "lam", "m1", "probes", "measure", "eps", "eps_o", "shrink"),
    ProbeWitness: ("probe", "ms"),
    Weight: ("lower", "upper", "exact"),
    KroneckerSaturation: ("lower", "upper", "exact"),
    ExpansionCheck: ("bound", "measured", "ok", "applicable", "estimate", "note"),
    DirectionalExpansionResult: ("status", "rational_mass", "lam", "measured", "bound", "delta", "estimate", "note"),
}


def _pinned(record) -> dict:
    names = PINS[type(record)]
    lacking = set(names) - {f.name for f in dataclasses.fields(record)}
    if lacking:
        raise TypeError(f"cannot pin {type(record).__name__}: no field {', '.join(sorted(lacking))}")
    return {name: getattr(record, name) for name in names}


def _canon(obj) -> str:
    """obj as sorted JSON: a Fraction as ``p/q``, a set as its sorted list,
    an array as its list and a record as its pinned fields."""
    def default(x):
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}"
        if isinstance(x, (frozenset, set)):
            return sorted(x)
        if isinstance(x, np.ndarray):
            return x.tolist()
        if type(x) in PINS:
            return _pinned(x)
        raise TypeError(f"cannot pin {x!r}")

    return json.dumps(obj, default=default, sort_keys=True)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_kronecker_reports_match_their_golden_digests(tmp_path, name):
    cfg, digest = GOLDEN_REPORTS[name]
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectral-report", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert _sha256(_canon({"results": report["results"], "verdicts": report["verdicts"]})) == digest
    assert main(["spectral-report", "--config", str(path), "--out", str(out), "--verify-only"]) == 0


# ---------------------------------------------------------------------------
# library outputs

A, B, C = (FormalReal.sym(x) for x in ("alpha", "beta", "gamma"))
F = Fraction

SYSTEMS = {
    "d1": kronecker_system(2, 1, [[A, F(1, 3)]]),
    "d1-neg": kronecker_system(2, 1, [[A * F(3, 4) + F(1, 6), F(-7, 5)]]),
    "d2": kronecker_system(2, 2, [[A, F(1, 2)], [B, F(-4, 3)]]),
    "d2-mixed": kronecker_system(3, 2, [[A, F(5, 6), B * 2], [B * F(1, 3), F(7, 4), A + F(1, 9)]]),
    "d3": kronecker_system(2, 3, [[A, F(1, 3)], [B, C * F(1, 2)], [C + F(-1, 4), F(3, 2)]]),
    "d3-rational": kronecker_system(2, 3, [[A, F(1, 3)], [B, F(-1, 2)], [C, F(5, 4)]]),
}

BOXES = {
    1: [
        BoxUnion.of([(F(0), F(1, 6))]),
        BoxUnion.of([(F(0), F(1, 4))], [(F(1, 2), F(5, 6))]),
        BoxUnion.of([(F(0), F(1))]),
        BoxUnion.of([(F(1, 7), F(2, 7))], [(F(3, 7), F(1, 2))], [(F(9, 10), F(1))]),
    ],
    2: [
        BoxUnion.of([(F(0), F(1, 2)), (F(0), F(1, 3))]),
        BoxUnion.of(
            [(F(0), F(1, 2)), (F(1, 4), F(3, 4))],
            [(F(1, 2), F(5, 6)), (F(0), F(1, 10))],
        ),
        BoxUnion.of([(F(0), F(1)), (F(0), F(1))]),
    ],
    3: [
        BoxUnion.of([(F(0), F(1, 2))] * 3),
        BoxUnion.of(
            [(F(0), F(1, 3)), (F(1, 2), F(1)), (F(0), F(1, 4))],
            [(F(1, 3), F(1)), (F(0), F(1, 6)), (F(1, 4), F(5, 8))],
        ),
    ],
}

DIRECTIONS = {
    1: [(1,), (2,), (-3,)],
    2: [(1, 0), (0, 1), (0, 3), (0, -2), (2, -1), (-3, 5), (0, 6)],
    3: [(1, 0, 0), (0, 1, 0), (0, -12, 0), (0, 0, 1), (3, 0, -1), (1, 2, 3)],
}

NON_ERGODIC = {
    "rational-1": kronecker_system(1, 1, [[F(1, 2)]], require_ergodic=False),
    "rational-2": kronecker_system(2, 2, [[F(1, 4), F(2, 3)], [F(1, 6), F(0)]], require_ergodic=False),
    "shared-symbol": kronecker_system(2, 2, [[A, F(1, 2)], [A, F(1, 3)]], require_ergodic=False),
    "scaled-rows": kronecker_system(
        2, 2, [[A * F(1, 2), B * F(1, 3)], [A * F(1, 3), B * F(2, 9) + F(5, 7)]], require_ergodic=False
    ),
    "dim-3": kronecker_system(
        2, 3, [[A, F(1, 5)], [A * 2 + F(1, 2), B], [F(1, 3), B * -1]], require_ergodic=False
    ),
}


def _certificates():
    return {name: kronecker_ergodicity_certificate(s) for name, s in {**SYSTEMS, **NON_ERGODIC}.items()}


def _ergodic_directions():
    return {
        name: [is_ergodic_direction(s, lam) for lam in DIRECTIONS[s.rank]]
        for name, s in {**SYSTEMS, **NON_ERGODIC}.items()
    }


def _saturations():
    return {
        name: [
            [kronecker_orbit_saturation(s, b, lam) for lam in DIRECTIONS[s.rank]]
            for b in BOXES[s.dim]
        ]
        for name, s in SYSTEMS.items()
    }


def _overlaps():
    shifts = {
        1: [[0], [F(1, 2)], [F(-1, 3)], [F(7, 4)], [F(5)], [F(-13, 12)]],
        2: [[0, 0], [F(1, 2), F(-1, 3)], [F(5, 4), F(2)], [F(-7, 10), F(1, 6)]],
        3: [[0, 0, 0], [F(1, 2), F(1, 3), F(-1, 4)], [F(3), F(-5, 6), F(9, 8)]],
    }
    return {dim: [[box_overlap_volume(b, s) for s in shifts[dim]] for b in boxes] for dim, boxes in BOXES.items()}


def _expansion_checks():
    out = [
        expansion_bound_check(SYSTEMS[name], b, lam)
        for name in ("d1", "d1-neg")
        for b in BOXES[1][:2]
        for lam in ((0, 1), (0, 2), (1, 0), (2, -1))
    ]
    # dim 2 and 3 read the bound off a coarser measure
    for name, trunc in (("d2", 6), ("d2-mixed", 4), ("d3", 2), ("d3-rational", 2)):
        s = SYSTEMS[name]
        for b in BOXES[s.dim]:
            sigma = spectral_measure_kronecker(s, b, trunc)
            out += [_expansion_bound(sigma, lam, None) for lam in DIRECTIONS[s.rank]]
    return out


def _pipelines():
    sample = make_haystack(None, (2, 3), 40)
    sample3 = make_haystack(None, (2, 3, 5), 40)
    runs = [
        ("d1", BOXES[1][0], F(0), F(1, 2), sample, 32),
        ("d1-neg", BOXES[1][1], F(0), F(1, 2), sample, 24),
        ("d1", BOXES[1][2], F(0), F(3, 2), sample, 8),
        ("d2", BOXES[2][0], F(0), F(1, 2), sample, 8),
        ("d2-mixed", BOXES[2][1], F(0), F(3, 4), sample3, 3),
        ("d3", BOXES[3][0], F(0), F(3, 4), sample, 3),
        ("d3-rational", BOXES[3][1], F(0), F(3, 4), sample, 3),
    ]
    out = []
    for name, b, eps_o, eps, smp, trunc in runs:
        try:
            out.append(directional_expansion_theorem_check(SYSTEMS[name], b, eps_o, eps, smp, trunc=trunc))
        except (RuntimeError, AssertionError, ValueError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _rational_and_irrational_masses():
    out = []
    for name, trunc in (("d1", 12), ("d1-neg", 12), ("d2", 4), ("d2-mixed", 3), ("d3", 2), ("d3-rational", 2)):
        s = SYSTEMS[name]
        for b in BOXES[s.dim]:
            sigma = spectral_measure_kronecker(s, b, trunc)
            tau = irrational_part(sigma)
            out.append(
                [rational_mass_excluding_trivial(sigma), tau.total, len(tau.atoms)]
                + [tau.annihilator_mass(lam) for lam in DIRECTIONS[s.rank]]
            )
    return out


GOLDEN_LIBRARY = {
    "certificates": (_certificates, "4e5ca0da44452330fa632116bd766338767cfbd870ded89924c69980842be7d9"),
    "ergodic-directions": (_ergodic_directions, "e6e34f2dea199f9277a621d9f9e1076bddee9cb342909fad605a8c66ce184587"),
    "orbit-saturations": (_saturations, "ea406c8011110d4b9e4bd7ea76dc6253c5b91faa7d5e41deeb9388fc91d366f7"),
    "box-overlaps": (_overlaps, "b89589f3ae4db4b9144231c1dd2341def9f594be2b82e1820841838c7be63bfb"),
    "expansion-checks": (_expansion_checks, "faa9b5e56b64e85c7acfecb92a1f452d14c57bd8ecf35bca3b168a94eeb14235"),
    "rational-and-irrational-masses": (
        _rational_and_irrational_masses,
        "aaabde10514765b37179cda80214a3f8b2fcc3644dac0cdce2ead3b9f40d60ae",
    ),
    "pipelines": (_pipelines, "bac9510493c8da37514f6139f167cda580ad3faaf6839cd55c6ed3347ab77ba3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LIBRARY))
def test_kronecker_library_outputs_match_their_golden_digests(name):
    compute, digest = GOLDEN_LIBRARY[name]
    assert _sha256(_canon(compute())) == digest


def test_a_record_type_without_pins_cannot_be_pinned(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Planted:
        lower: Fraction

    monkeypatch.setitem(globals(), "kronecker_orbit_saturation", lambda s, b, lam: Planted(b.volume()))
    with pytest.raises(TypeError, match=r"^cannot pin .*Planted\(lower=Fraction\(1, 6\)\)"):
        _canon(_saturations())


def test_a_pin_on_a_field_the_record_lacks_names_it(monkeypatch):
    # KroneckerSaturation lost its unread note
    monkeypatch.setitem(PINS, KroneckerSaturation, ("lower", "upper", "exact", "note"))
    with pytest.raises(TypeError, match=r"^cannot pin KroneckerSaturation: no field note$"):
        _canon(_saturations())
