"""Report display: the JSON writer, atoms printed from grid numerators, the
measures' lazy parts, and preimage sets read in one array pass."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _fleet import random_fleet
from latspec import cli, spectral
from latspec.cli import _ser_label_weights, json_text, main, ser_fraction, set_b
from latspec.cyclotomic import enclose_real_root_grid
from latspec.spectral import spectral_measure
from test_cli import GOLDEN_FINITE
from test_kronecker_golden import GOLDEN_REPORTS


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the writer

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 5, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f[]{},:é€𝄞 ')
)
_KEYS = st.text() | st.text(alphabet='"\\{}[],: \n\té€')


def _containers(children):
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=6)
        | st.dictionaries(st.integers(-3, 3), children, max_size=4)
        # members of one shape, the writer's batched case, mixed with others
        | st.lists(st.fixed_dictionaries({"label": st.lists(st.integers(), min_size=2, max_size=2), "weight": children}), min_size=4, max_size=8)
    )


_JSON = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_JSON)
@example({})
@example([])
@example([[], {}, (), [[]], [{}]])
@example({"a": {"b": [1, 2.5, None, True, "x"]}, "": [], "{}": {"[": "]"}})
@example([{"exact": False, "lower": 0.1, "upper": 0.2}, {"num": "1", "den": "3"}] * 3)
@example([1, 1.0, "1", True, None, [1], {"1": 1}, (1,)])
def test_json_text_equals_the_stdlib_indented_dump(obj):
    assert json_text(obj) == _stdlib(obj)


def test_json_text_refuses_what_the_stdlib_refuses():
    for bad in ({"a": object()}, [1, {2, 3}], {"k": [0, 1, 2, 3, object()]}):
        with pytest.raises(TypeError):
            json_text(bad)


_CLI_GOLDEN = {f"finite-{name}": cfg for name, (cfg, _, _) in GOLDEN_FINITE.items()}
_CLI_GOLDEN.update({f"kronecker-{name}": cfg for name, (cfg, _) in GOLDEN_REPORTS.items()})


@pytest.mark.parametrize("name", sorted(_CLI_GOLDEN))
def test_report_files_are_the_stdlib_indented_dump(tmp_path, name):
    cfg = _CLI_GOLDEN[name]
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert main([cfg.get("experiment", "spectral-report"), "--config", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert text == _stdlib(json.loads(text)) + "\n"


# ---------------------------------------------------------------------------
# atoms printed from the grid numerators


def test_each_interval_weight_is_the_enclosure_of_its_own_row():
    # one enclosure serves a conjugate pair c, -c; each must still be the
    # enclosure of the character's own row, the orbit's row moved by its unit
    irrational = 0
    for sys_, b in random_fleet(57, 40):
        sigma = spectral_measure(sys_, b)
        t = sigma
        n = sys_.exponent
        for c, w in enumerate(sigma.label_weights):
            if isinstance(w, Fraction):
                continue
            irrational += 1
            row = np.zeros(n, dtype=np.int64)
            row[t.subgroups.unit_of[c] * np.arange(n) % n] = t.rows[t.subgroups.subgroup_of[c]]
            (lo,), (hi,) = enclose_real_root_grid(n, row[None, :], sys_.size**2)
            assert (w[0], w[1]) == (lo, hi)
    assert irrational > 100


def test_printed_weights_equal_the_atom_weights():
    irrational = 0
    for sys_, b in random_fleet(57, 40):
        sigma = spectral_measure(sys_, b)
        shown = _ser_label_weights(sigma.label_weights)
        assert len(shown) == len(sigma.atoms) == sys_.size
        for label, (atom, entry) in enumerate(zip(sigma.atoms, shown)):
            assert atom.character == label
            w = atom.weight
            if w.exact:
                assert entry == ser_fraction(w.value)
            else:
                irrational += 1
                assert entry == {"lower": float(w.lower), "upper": float(w.upper), "exact": False}
                assert w.lower.denominator & (w.lower.denominator - 1) == 0  # a power of two
    assert irrational > 100


# ---------------------------------------------------------------------------
# what a subcommand builds

_Z7 = {"kind": "finite", "matrix": [[7, 0], [3, 1]]}
_Z7_B = {"kind": "preimages", "points": [[0, 0], [1, 0]]}
_LAZY = {
    "spectral-report": {"system": _Z7, "set_b": _Z7_B, "lambda_bound": 2},
    "decompose": {"system": _Z7, "set_b": _Z7_B, "sublattice": [[7, 0], [0, 1]], "eps_o": "1/10"},
    "intersect": {"system": _Z7, "set_b": _Z7_B, "p": 2, "probes": [[[1, 0]]], "haystack": {"multipliers": [2, 3], "count": 8}},
    "expand-scan": {"system": _Z7, "set_b": _Z7_B, "coord_bound": 1},
}


def _serve(tmp_path, experiment):
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({**_LAZY[experiment], "experiment": experiment}))
    return main([experiment, "--config", str(path), "--out", str(out)])


def _refuse(calls, name):
    def refuse(*args, **kwargs):
        calls.append(name)
        raise LookupError(f"{name} was called")

    return refuse


@pytest.mark.parametrize("experiment", ["spectral-report", "decompose", "intersect"])
def test_subcommands_build_no_atom(tmp_path, monkeypatch, experiment):
    spectral._spectral_measure_cached.cache_clear()
    calls = []
    monkeypatch.setattr(spectral, "Atom", _refuse(calls, "Atom"))
    assert _serve(tmp_path, experiment) == 0
    assert calls == []


@pytest.mark.parametrize("experiment", ["expand-scan", "decompose", "intersect"])
def test_subcommands_build_no_enclosure(tmp_path, monkeypatch, experiment):
    spectral._spectral_measure_cached.cache_clear()
    calls = []
    monkeypatch.setattr(spectral, "enclose_real_root_grid", _refuse(calls, "enclose_real_root_grid"))
    assert _serve(tmp_path, experiment) == 0
    assert calls == []


def test_the_report_does_enclose_the_irrational_weights(tmp_path, monkeypatch):
    # the laziness tests above would pass vacuously on a carrier without
    # irrational atoms: Z/7 has them
    spectral._spectral_measure_cached.cache_clear()
    calls = []
    monkeypatch.setattr(spectral, "enclose_real_root_grid", _refuse(calls, "enclose_real_root_grid"))
    # the probe's LookupError is a library fault to the CLI: a hard failure
    assert _serve(tmp_path, "spectral-report") == 1
    assert calls == ["enclose_real_root_grid"]


def test_atoms_are_built_once_and_kept_on_the_measure():
    (sys_, b), (other_sys, other_b) = random_fleet(58, 2)
    sigma, other = spectral_measure(sys_, b), spectral_measure(other_sys, other_b)
    # hashing, comparing and printing a measure read no lazy part: a
    # field-wise dataclass __eq__ or __hash__ would build every enclosure
    hash(sigma), sigma == other, repr(sigma)
    for measure in (sigma, other):
        assert "atoms" not in vars(measure) and "label_weights" not in vars(measure)
    atoms = sigma.atoms
    assert sigma.atoms is atoms and "label_weights" in vars(sigma)


# ---------------------------------------------------------------------------
# preimage sets


def test_preimages_in_one_pass_equal_phi_point_by_point():
    rng = random.Random(61)
    for sys_, _ in random_fleet(59, 30):
        for scale in (3, 2**40, 2**63, 2**90):
            points = [[rng.randint(-scale, scale) for _ in range(sys_.rank)] for _ in range(rng.randint(0, 12))]
            got = set_b({"kind": "preimages", "points": points}, "set_b", {"system": sys_})
            assert got == frozenset(sys_.phi(p) for p in points)
        # an integral float reads as its integer, as in phi
        floats = [[float(rng.choice([4, -7, 10**20, -(2**70)])) for _ in range(sys_.rank)] for _ in range(4)]
        assert set_b({"kind": "preimages", "points": floats}, "set_b", {"system": sys_}) == frozenset(sys_.phi(p) for p in floats)


def test_preimage_length_mismatch_is_still_a_config_error():
    sys_ = random_fleet(60, 1, rank_choices=(2,))[0][0]
    with pytest.raises(cli.ConfigError, match=r"^set_b.points\[1\] has 1 entry, expected system.rank 2$"):
        set_b({"kind": "preimages", "points": [[0, 0], [1]]}, "set_b", {"system": sys_})
