"""CLI runner: determinism, exit codes, CSV, witness re-verification."""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from latspec.cli import main, parse_fraction, ser_fraction
from latspec.haystack import COUNT_LIMIT


def run_cli(args):
    return main([str(a) for a in args])


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def strip_volatile(report: dict) -> dict:
    out = dict(report)
    out.pop("generated_at", None)
    out.pop("elapsed_seconds", None)
    return out


EX2_CFG = {
    "experiment": "expand-scan",
    "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
    "set_b": {"kind": "preimages", "points": [[0, 0]]},
    "coord_bound": 3,
}


def test_serialization_round_trip():
    from fractions import Fraction

    q = Fraction(-7, 12)
    assert parse_fraction(ser_fraction(q)) == q
    assert parse_fraction("3/4") == Fraction(3, 4)


def test_expand_scan_report(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", EX2_CFG)
    out = tmp_path / "report.json"
    csv_path = tmp_path / "scan.csv"
    assert run_cli(["expand-scan", "--config", cfg, "--out", out, "--csv", csv_path]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["max_expansion"] == {"num": "1", "den": "2"}
    assert "not directionally expandable" in report["results"]["verdict"]
    header = csv_path.read_text().splitlines()[0]
    assert header == "lambda_1,lambda_2,measure_num,measure_den,bound_num,bound_den,bound_holds"


def test_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", EX2_CFG)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(["expand-scan", "--config", cfg, "--out", out]) == 0
        outs.append(strip_volatile(json.loads(out.read_text())))
    assert outs[0] == outs[1]


def test_determinism_with_threads(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", EX2_CFG)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["expand-scan", "--config", cfg, "--out", a]) == 0
    assert run_cli(["expand-scan", "--config", cfg, "--out", b, "--threads", 4]) == 0
    assert strip_volatile(json.loads(a.read_text())) == strip_volatile(json.loads(b.read_text()))


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli(["density", "--config", bad]) == 2
    missing = write_cfg(tmp_path, "missing.json", {"experiment": "density", "rank": 2})
    assert run_cli(["density", "--config", missing]) == 2
    mismatched = write_cfg(tmp_path, "mm.json", {"experiment": "density"})
    assert run_cli(["expand-scan", "--config", mismatched]) == 2


def test_volume_spectrum_and_verify_only(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "vs.json",
        {
            "experiment": "volume-spectrum",
            "rank": 2,
            "window": 6,
            "set": {"kind": "congruence", "modulus": 2, "offset": [0, 0]},
            "ap_max": 4,
        },
    )
    out = tmp_path / "vs_report.json"
    assert run_cli(["volume-spectrum", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["ap_certificate"]["n"] == 4
    assert all(v % 4 == 0 for v in report["results"]["spectrum"])
    # witness re-verification over the same report
    assert run_cli(["volume-spectrum", "--config", cfg, "--out", out, "--verify-only"]) == 0
    # tamper with a witness: verification must fail with exit 1
    tampered = json.loads(out.read_text())
    tampered["results"]["ap_certificate"]["witnesses"]["1"]["vertices"][0] = [1, 1]
    out.write_text(json.dumps(tampered))
    assert run_cli(["volume-spectrum", "--config", cfg, "--out", out, "--verify-only"]) == 1


def test_pattern_search_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "ps.json",
        {
            "experiment": "pattern-search",
            "rank": 2,
            "window": 8,
            "set": {"kind": "full"},
            "p": 2,
            "probes": [[[0, 1]]],
            "bounds": {"n_max": 2, "m_max": 2},
        },
    )
    out = tmp_path / "ps_report.json"
    assert run_cli(["pattern-search", "--config", cfg, "--out", out]) == 0
    assert run_cli(["pattern-search", "--config", cfg, "--out", out, "--verify-only"]) == 0


def test_intersect_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "int.json",
        {
            "experiment": "intersect",
            "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "p": 2,
            "probes": [[[1, 0]]],
            "haystack": {"multipliers": [2, 3], "count": 8},
        },
    )
    out = tmp_path / "int_report.json"
    assert run_cli(["intersect", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["n"] == 2
    assert parse_fraction(report["results"]["intersection_measure"]) > 0
    assert run_cli(["intersect", "--config", cfg, "--out", out, "--verify-only"]) == 0


def test_spectral_report_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "sr.json",
        {
            "experiment": "spectral-report",
            "system": {"kind": "finite", "matrix": [[4, 0], [0, 1]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "lambda_bound": 3,
        },
    )
    out = tmp_path / "sr_report.json"
    assert run_cli(["spectral-report", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["trivial_mass"] == {"num": "1", "den": "16"}
    assert all(v["pass"] for v in report["verdicts"])
    assert run_cli(["spectral-report", "--config", cfg, "--out", out, "--verify-only"]) == 0


def test_kronecker_spectral_report_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "kr.json",
        {
            "experiment": "spectral-report",
            "system": {
                "kind": "kronecker",
                "rank": 2,
                "dim": 1,
                "theta": [[{"symbols": {"alpha": "1"}}, "0"]],
            },
            "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]},
            "trunc": 16,
            "annihilator_lambdas": [[0, 1]],
        },
    )
    out = tmp_path / "kr_report.json"
    assert run_cli(["spectral-report", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    mass = report["results"]["annihilator_masses"]["[0, 1]"]
    assert mass["exact"] is False
    assert mass["lower"] <= 0.5 <= mass["upper"]


def test_decompose_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "dc.json",
        {
            "experiment": "decompose",
            "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
            "set_b": {"kind": "preimages", "points": [[0, 0]]},
            "sublattice": [[2, 0], [0, 2]],
            "eps_o": "1/10",
        },
    )
    out = tmp_path / "dc_report.json"
    assert run_cli(["decompose", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["shrink"]["n"] == 2
    assert len(report["results"]["components"]) == 4
    assert run_cli(["decompose", "--config", cfg, "--out", out, "--verify-only"]) == 0


def test_haystack_verify_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "hs.json",
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 6},
    )
    out = tmp_path / "hs_report.json"
    assert run_cli(["haystack-verify", "--config", cfg, "--out", out]) == 0
    bad = write_cfg(
        tmp_path,
        "hs_bad.json",
        {"experiment": "haystack-verify", "rank": 2, "vectors": [[1, 0], [-1, 0]]},
    )
    assert run_cli(["haystack-verify", "--config", bad, "--out", tmp_path / "b.json"]) == 1


def test_density_cli_with_seed_override(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "d.json",
        {
            "experiment": "density",
            "rank": 2,
            "set": {"kind": "random", "density": "1/2"},
            "windows": [4, 6],
            "seed": 1,
        },
    )
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert run_cli(["density", "--config", cfg, "--out", a, "--csv", tmp_path / "d.csv"]) == 0
    assert run_cli(["density", "--config", cfg, "--out", b]) == 0
    assert strip_volatile(json.loads(a.read_text())) == strip_volatile(json.loads(b.read_text()))
    assert run_cli(["density", "--config", cfg, "--out", c, "--seed", 2]) == 0
    assert json.loads(c.read_text())["results"] != json.loads(a.read_text())["results"]
    assert (tmp_path / "d.csv").read_text().splitlines()[0] == "window,num,den"
    assert run_cli(["density", "--config", cfg, "--out", a, "--verify-only"]) == 0


def test_csv_rejected_without_tabular_output(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "hs.json",
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 4},
    )
    assert (
        run_cli(
            ["haystack-verify", "--config", cfg, "--out", tmp_path / "r.json", "--csv", tmp_path / "x.csv"]
        )
        == 2
    )


def test_refusals_exit_2_without_traceback(tmp_path, capsys):
    system = {"kind": "finite", "matrix": [[2, 0], [0, 2]]}
    set_b = {"kind": "elements", "points": [[0, 0]]}
    configs = [
        ("decompose", {"experiment": "decompose", "system": system, "set_b": set_b, "eps_o": "1/0"}),
        (
            "decompose",
            {
                "experiment": "decompose",
                "system": system,
                "set_b": set_b,
                "eps_o": {"num": "1", "den": "0"},
            },
        ),
        (
            "density",
            {
                "experiment": "density",
                "rank": 2,
                "set": {"kind": "random", "density": "1/0", "seed": 1},
                "windows": [4],
            },
        ),
    ]
    for i, (experiment, cfg) in enumerate(configs):
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        assert run_cli([experiment, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1
    # a malformed report given to --verify-only is refused the same way
    cfg = write_cfg(tmp_path, "density.json", configs[2][1])
    report = write_cfg(tmp_path, "report.json", {"experiment": "density"})
    assert run_cli(["density", "--config", cfg, "--out", report, "--verify-only"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1


def test_set_elements_are_read_modulo_the_moduli(tmp_path):
    def report(points, name):
        cfg = write_cfg(
            tmp_path,
            f"{name}.json",
            {
                "experiment": "spectral-report",
                "system": {"kind": "finite", "matrix": [[2, 0], [0, 4]]},
                "set_b": {"kind": "elements", "points": points},
            },
        )
        out = tmp_path / f"{name}_report.json"
        assert run_cli(["spectral-report", "--config", cfg, "--out", out]) == 0
        return json.loads(out.read_text())["results"]

    assert report([[10**20 + 1, 0], [3, -1]], "raw") == report([[1, 0], [1, 3]], "reduced")


def test_box_bounds_are_refused_before_the_box_is_built(tmp_path, capsys):
    system = {"kind": "finite", "matrix": [[2, 0], [0, 2]]}
    set_b = {"kind": "elements", "points": [[0, 0]]}
    base = {
        "spectral-report": ("lambda_bound", {"experiment": "spectral-report", "system": system, "set_b": set_b}),
        "expand-scan": ("coord_bound", {"experiment": "expand-scan", "system": system, "set_b": set_b}),
    }
    # -1 used to pass vacuously (no lambda checked), 10**20 ended in an
    # OverflowError traceback, and a 1001 x 1001 box is past the limit
    for experiment, (key, cfg) in base.items():
        for i, bound in enumerate((-1, 10**20, 500)):
            path = write_cfg(tmp_path, f"{experiment}{i}.json", {**cfg, key: bound})
            assert run_cli([experiment, "--config", path]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1
            assert key in err
    # a zero bound is a box of one lambda, and still runs
    path = write_cfg(tmp_path, "zero.json", {**base["spectral-report"][1], "lambda_bound": 0})
    out = tmp_path / "zero-report.json"
    assert run_cli(["spectral-report", "--config", path, "--out", out]) == 0
    assert json.loads(out.read_text())["results"]["bochner_checked"] == 1


def test_point_and_simplex_limits_exit_2_with_one_line(tmp_path, capsys):
    line = {"kind": "explicit", "points": [[x, 0] for x in range(-950, 950)]}
    configs = [
        # (2 * 10**5 + 1)^2 window points, and 4 * 10**10 for a congruence set mod 1
        ({"experiment": "density", "rank": 2, "set": {"kind": "full"}, "windows": [10**5]}, "points"),
        (
            {
                "experiment": "volume-spectrum",
                "rank": 2,
                "window": 10**5,
                "set": {"kind": "congruence", "modulus": 1, "offset": [0, 0]},
            },
            "points",
        ),
        # C(1900, 3) triangles
        ({"experiment": "volume-spectrum", "rank": 2, "window": 1000, "set": line}, "simplices"),
    ]
    for i, (cfg, word) in enumerate(configs):
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        assert run_cli([cfg["experiment"], "--config", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1
        assert word in err and "over" in err


def _cyclic_cfg(experiment, moduli, gens, points):
    return {
        "experiment": experiment,
        "system": {"kind": "finite", "rank": len(gens), "moduli": moduli, "gens": gens},
        "set_b": {"kind": "elements", "points": points},
    }


def test_finite_refusals_exit_2_with_one_line(tmp_path, capsys, monkeypatch):
    rank0 = {"experiment": "volume-spectrum", "rank": 0, "window": 2, "set": {"kind": "full"}}
    configs = [
        # a 10^5 x 10^5 exponent table used to end in an allocation traceback
        (_cyclic_cfg("spectral-report", [10**5], [[1]], [[0], [1]]), "numpy", "root counts"),
        (_cyclic_cfg("decompose", [10**12], [[1]], [[0]]), "numpy", "carrier"),
        # a long generator row used to be truncated and run, a short one to crash
        (_cyclic_cfg("decompose", [4], [[1, 5]], [[0]]), "numpy", "generator image"),
        (_cyclic_cfg("decompose", [2, 4], [[1]], [[0, 0]]), "numpy", "generator image"),
        # rank 0 used to be refused with a reason from inside the scan
        (rank0, "numpy", "rank must be at least 1, got 0"),
        (rank0, "python", "rank must be at least 1, got 0"),
        # an element of the wrong length used to be refused with a zip() message
        (_cyclic_cfg("spectral-report", [4], [[1], [0]], [[0], [1, 2]]), "numpy", "set_b element [1, 2] has length 2, expected 1"),
        (_cyclic_cfg("spectral-report", [2, 4], [[1, 0], [0, 1]], [[1]]), "numpy", "set_b element [1] has length 1, expected 2"),
        (
            {**_cyclic_cfg("decompose", [4], [[1], [0]], []), "set_b": {"kind": "preimages", "points": [[1, 2, 3]]}},
            "numpy",
            "set_b preimage [1, 2, 3] has length 3, expected 2",
        ),
    ]
    for i, (cfg, backend, reason) in enumerate(configs):
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        start = time.perf_counter()
        assert run_cli([cfg["experiment"], "--config", path]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1
        assert reason in err


def test_expand_scan_verdict_skips_rows_that_are_not_asserted(tmp_path):
    # a step-2 averaging set is not a universal ergodic set, so its rows
    # report the comparison without asserting it; the scan used to exit 1
    cfg = {
        "experiment": "expand-scan",
        "system": {"kind": "finite", "rank": 2, "moduli": [4], "gens": [[1], [0]]},
        "set_b": {"kind": "preimages", "points": [[4, -6], [-2, -5]]},
        "coord_bound": 1,
        "ergodic_set": {"kind": "ap", "offset": 0, "step": 2},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out, csv_path = tmp_path / "report.json", tmp_path / "scan.csv"
    assert run_cli(["expand-scan", "--config", path, "--out", out, "--csv", csv_path]) == 0
    assert json.loads(out.read_text())["verdicts"] == [{"name": "expansion-bounds-hold", "pass": True}]
    holds = [line.rsplit(",", 1)[1] for line in csv_path.read_text().splitlines()[1:]]
    assert len(holds) == 8 and "0" in holds  # the CSV still shows every comparison


def test_kronecker_and_haystack_refusals_exit_2_with_one_line(tmp_path, capsys):
    alpha = {"symbols": {"alpha": "1"}}
    configs = [
        # 129^3 atoms at the default trunc would take about 9 min and 2.8 GB
        (
            {
                "experiment": "spectral-report",
                "system": {"kind": "kronecker", "rank": 3, "dim": 3, "theta": [[alpha, "0", "0"], ["0", alpha, "0"], ["0", "0", alpha]]},
                "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]] * 3]},
            },
            "(2*64+1)^3 = 2146689 atoms, over the limit of 100000",
        ),
        # used to be refused with a zip() message
        (
            {
                "experiment": "spectral-report",
                "system": {"kind": "kronecker", "rank": 2, "dim": 1, "theta": [[alpha, "1/3"]]},
                "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]},
                "trunc": 2,
                "annihilator_lambdas": [[0, 1, 2]],
            },
            "annihilator lambda [0, 1, 2] has length 3, expected 2",
        ),
        # C(10^6, 2) pairs, and a rank mismatch, refused before the sample is generated
        (
            {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 10**6},
            "sample has 499999500000 r-subsets (> 1000000)",
        ),
        (
            {"experiment": "haystack-verify", "rank": 1, "multipliers": [2, 3], "count": 10**6},
            "vector rank does not match r",
        ),
    ]
    for i, (cfg, reason) in enumerate(configs):
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        start = time.perf_counter()
        assert run_cli([cfg["experiment"], "--config", path]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1
        assert reason in err


def _refused_in_one_line(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, "cfg.json", cfg)
    start = time.perf_counter()
    assert run_cli([cfg["experiment"], "--config", path]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().startswith("config error:") and len(err.strip().splitlines()) == 1
    return err


def test_intersect_haystack_count_is_refused_before_any_element(tmp_path, capsys):
    # 16 000 elements used to be built in about 6 s, where 8 suffice
    cfg = {
        "experiment": "intersect",
        "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
        "set_b": {"kind": "preimages", "points": [[0, 0]]},
        "p": 2,
        "probes": [[[1, 0]]],
        "haystack": {"multipliers": [2, 3], "count": 16000},
    }
    err = _refused_in_one_line(tmp_path, capsys, cfg)
    assert f"haystack count 16000 is over the limit of {COUNT_LIMIT}" in err


def test_pattern_search_lambda_count_is_refused_before_any_element(tmp_path, capsys):
    # 12 000 candidates used to be built in about 5 s; the first gives the witness
    cfg = {
        "experiment": "pattern-search",
        "rank": 2,
        "window": 8,
        "set": {"kind": "full"},
        "p": 2,
        "probes": [[[0, 1]]],
        "bounds": {"n_max": 2, "m_max": 2, "lambda_count": 12000},
    }
    err = _refused_in_one_line(tmp_path, capsys, cfg)
    assert f"haystack count 12000 is over the limit of {COUNT_LIMIT}" in err


def test_expand_scan_max_expansion_takes_full_orbits_under_an_ap_set(tmp_path):
    # on Z/4 a step-2 progression saturates B = {0} to {0, 2} at most, while
    # the full orbit of phi(lambda) = 1 is the whole carrier
    base = _cyclic_cfg("expand-scan", [4], [[1], [0]], [[0]])
    base["coord_bound"] = 1
    measures, maxima = {}, {}
    for name, extra in (("z", {}), ("ap", {"ergodic_set": {"kind": "ap", "offset": 0, "step": 2}})):
        path = write_cfg(tmp_path, f"{name}.json", {**base, **extra})
        out, csv_path = tmp_path / f"{name}.json.out", tmp_path / f"{name}.csv"
        assert run_cli(["expand-scan", "--config", path, "--out", out, "--csv", csv_path]) == 0
        results = json.loads(out.read_text())["results"]
        maxima[name] = (parse_fraction(results["max_expansion"]), results["argmax_lambda"], results["verdict"])
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        measures[name] = [Fraction(int(r[2]), int(r[3])) for r in rows]
    assert maxima["ap"] == maxima["z"] == (1, [-1, -1], "directionally expandable within candidates")
    assert max(measures["z"]) == 1
    assert max(measures["ap"]) == Fraction(1, 2)


#: finite configs with the SHA-256 of their ``results`` + ``verdicts`` (sorted
#: JSON) and of their CSV, pinned so that a change of element representation
#: cannot move a report body
GOLDEN_FINITE = {
    "spectral-report-elements": (
        {
            "experiment": "spectral-report",
            "system": {"kind": "finite", "rank": 2, "moduli": [2, 6], "gens": [[1, 1], [0, 1]]},
            "set_b": {"kind": "elements", "points": [[0, 0], [1, 3], [0, 5], [7, -1], [1, 2]]},
            "lambda_bound": 2,
        },
        "3ca8dd170a25e26511063ac93b9684d84cb6dd0920bff0ddfac3c592b9ecc883",
        None,
    ),
    "spectral-report-preimages": (
        {
            "experiment": "spectral-report",
            "system": {"kind": "finite", "matrix": [[3, 1], [-1, 4]]},
            "set_b": {"kind": "preimages", "points": [[0, 0], [1, 0], [2, 1], [-5, 7]]},
            "lambda_bound": 3,
        },
        "54f178b4aeb3cc6e2c2bb55e85b09bcd80b11cde83407341435ab4027e854edd",
        None,
    ),
    "factor-one-rank-1": (
        {
            "experiment": "spectral-report",
            "system": {"kind": "finite", "rank": 1, "moduli": [1, 9], "gens": [[0, 2]]},
            "set_b": {"kind": "elements", "points": [[0], [4], [13]]},
        },
        "2e5437afd670f31e28e91582677d58d28ba140aab7d138bf2b2e5684712f82e4",
        None,
    ),
    "factor-one-rank-2": (
        {
            "experiment": "decompose",
            "system": {"kind": "finite", "rank": 2, "moduli": [2, 1, 4], "gens": [[1, 0, 1], [0, 0, 1]]},
            "set_b": {"kind": "preimages", "points": [[0, 0], [1, 0], [1, 3]]},
            "sublattice": [[2, 0], [0, 2]],
            "eps_o": "1/10",
        },
        "671f07ff83c9deb42885cf6ae49f2b368a29b8ff687ab66304cfa541ec4ef33c",
        None,
    ),
    "factor-one-rank-3": (
        {
            "experiment": "spectral-report",
            "system": {"kind": "finite", "rank": 3, "moduli": [1, 2, 6], "gens": [[0, 1, 0], [0, 0, 1], [0, 1, 3]]},
            "set_b": {"kind": "preimages", "points": [[0, 0, 0], [1, 1, 0], [0, 2, 1]]},
            "lambda_bound": 1,
        },
        "0751ab242c862cde0d73d294a9a8756fd903130e630d992cf1f4d1e179d0adfc",
        None,
    ),
    # two components tie on nu(B) = 1: the lexicographically least wins
    "decompose-rank-3": (
        {
            "experiment": "decompose",
            "system": {"kind": "finite", "matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 4]]},
            "set_b": {"kind": "preimages", "points": [[0, 1, 1], [0, 1, 3], [1, 0, 0], [1, 0, 2]]},
            "sublattice": [[2, 0, 0], [0, 1, 0], [1, 0, 2]],
            "eps_o": "1/10",
        },
        "8673337d81a909e5425eeec52f40edff03d36a7467af60a4c106ec1e2fe888bc",
        None,
    ),
    "intersect": (
        {
            "experiment": "intersect",
            "system": {"kind": "finite", "rank": 2, "moduli": [6], "gens": [[1], [2]]},
            "set_b": {"kind": "elements", "points": [[0], [1], [3]]},
            "p": 3,
            "probes": [[[1, 0], [0, 1]], [[2, -1], [1, 1]]],
            "haystack": {"multipliers": [2, 3], "count": 8},
        },
        "a9e6ca7608b45634d4d997a52e9c37180fcffe66391fe01f46a3a2568dc02497",
        None,
    ),
    "expand-scan-ap": (
        {
            "experiment": "expand-scan",
            "system": {"kind": "finite", "rank": 2, "moduli": [2, 4], "gens": [[1, 1], [0, 1]]},
            "set_b": {"kind": "preimages", "points": [[0, 0], [1, 2], [3, -1]]},
            "coord_bound": 2,
            "ergodic_set": {"kind": "ap", "offset": 1, "step": 3},
        },
        "e0b987f375f62e93764b4cd11b39c2c0c2e25961e7042c6d343f075d49819506",
        "f06038df5a822697616da1507497878a1f35f253719e01840242be87a1f5cfb5",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_FINITE))
def test_finite_reports_match_their_golden_digests(tmp_path, name):
    cfg, body_digest, csv_digest = GOLDEN_FINITE[name]
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out, csv_path = tmp_path / "report.json", tmp_path / "rows.csv"
    args = [cfg["experiment"], "--config", path, "--out", out]
    if csv_digest:
        args += ["--csv", csv_path]
    assert run_cli(args) == 0
    report = json.loads(out.read_text())
    body = json.dumps({"results": report["results"], "verdicts": report["verdicts"]}, sort_keys=True)
    assert _sha256(body) == body_digest
    if csv_digest:
        assert _sha256(csv_path.read_text()) == csv_digest
    assert run_cli([cfg["experiment"], "--config", path, "--out", out, "--verify-only"]) == 0


_Z4_MATRIX = {"kind": "finite", "matrix": [[4]]}


@pytest.mark.parametrize(
    "system, set_b, reason",
    [
        # each of these used to be truncated to an integer and run with exit 0
        (_Z4_MATRIX, {"kind": "elements", "points": [[1.5]]}, "set_b element entry 1.5 is not an integer"),
        (_Z4_MATRIX, {"kind": "elements", "points": [[True]]}, "set_b element entry true is not an integer"),
        (_Z4_MATRIX, {"kind": "preimages", "points": [[0.9]]}, "set_b preimage entry 0.9 is not an integer"),
        (_Z4_MATRIX, {"kind": "preimages", "points": [[False]]}, "set_b preimage entry false is not an integer"),
        (
            {"kind": "finite", "rank": 1, "moduli": [4], "gens": [[1.7]]},
            {"kind": "elements", "points": [[0]]},
            "gens entry 1.7 is not an integer",
        ),
        (
            {"kind": "finite", "rank": 1, "moduli": [4], "gens": [[True]]},
            {"kind": "elements", "points": [[0]]},
            "gens entry true is not an integer",
        ),
        (
            {"kind": "finite", "rank": 1, "moduli": [4.5], "gens": [[1]]},
            {"kind": "elements", "points": [[0]]},
            "moduli entry 4.5 is not an integer",
        ),
        (
            {"kind": "finite", "rank": 1, "moduli": [True], "gens": [[1]]},
            {"kind": "elements", "points": [[0]]},
            "moduli entry true is not an integer",
        ),
        ({"kind": "finite", "matrix": [[4.2]]}, {"kind": "elements", "points": [[0]]}, "matrix entry 4.2 is not an integer"),
        ({"kind": "finite", "matrix": [[True]]}, {"kind": "elements", "points": []}, "matrix entry true is not an integer"),
    ],
)
def test_non_integer_finite_coordinates_exit_2_with_one_line(tmp_path, capsys, system, set_b, reason):
    cfg = {"experiment": "spectral-report", "system": system, "set_b": set_b}
    err = _refused_in_one_line(tmp_path, capsys, cfg)
    assert reason in err


def test_integral_floats_read_as_integers(tmp_path):
    def results(system, points, name):
        cfg = {"experiment": "spectral-report", "system": system, "set_b": {"kind": "elements", "points": points}}
        out = tmp_path / f"{name}.json"
        assert run_cli(["spectral-report", "--config", write_cfg(tmp_path, f"{name}.cfg", cfg), "--out", out]) == 0
        return json.loads(out.read_text())["results"]

    floats = results({"kind": "finite", "rank": 1, "moduli": [4.0], "gens": [[1.0]]}, [[1.0], [6.0]], "floats")
    assert floats == results({"kind": "finite", "rank": 1, "moduli": [4], "gens": [[1]]}, [[1], [2]], "ints")


_FINITE_2 = {"kind": "finite", "rank": 2, "moduli": [4], "gens": [[1], [0]]}
_KRONECKER_2 = {"kind": "kronecker", "rank": 2, "dim": 1, "theta": [[{"symbols": {"alpha": "1"}}, "1/3"]]}

_INTERSECT = {
    "experiment": "intersect",
    "system": {"kind": "finite", "rank": 2, "moduli": [6], "gens": [[1], [2]]},
    "set_b": {"kind": "elements", "points": [[0], [1], [3]]},
    "p": 3,
    "probes": [[[1, 0], [0, 1]], [[2, -1], [1, 1]]],
    "haystack": {"multipliers": [2, 3], "count": 8},
}

_PATTERN = {
    "experiment": "pattern-search",
    "rank": 2,
    "window": 8,
    "set": {"kind": "full"},
    "p": 2,
    "probes": [[[0, 1]]],
    "bounds": {"n_max": 2, "m_max": 2, "lambda_count": 3, "multipliers": [2, 3]},
}

#: one working config per integer field, and the path to one entry of it
_INTEGER_FIELDS = {
    "rank": ({"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "full"}}, ["rank"]),
    "window": ({"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "full"}}, ["window"]),
    "cap": ({"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "full"}, "cap": 5}, ["cap"]),
    "ap_max": (
        {"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "full"}, "ap_max": 2},
        ["ap_max"],
    ),
    "windows": ({"experiment": "density", "rank": 2, "set": {"kind": "full"}, "windows": [2, 3]}, ["windows", 1]),
    "system-rank": (
        {"experiment": "expand-scan", "system": _FINITE_2, "set_b": {"kind": "elements", "points": [[0]]}, "coord_bound": 1},
        ["system", "rank"],
    ),
    "coord_bound": (
        {"experiment": "expand-scan", "system": _FINITE_2, "set_b": {"kind": "elements", "points": [[0]]}, "coord_bound": 1},
        ["coord_bound"],
    ),
    "offset": (
        {
            "experiment": "expand-scan",
            "system": _FINITE_2,
            "set_b": {"kind": "elements", "points": [[0]]},
            "coord_bound": 1,
            "ergodic_set": {"kind": "ap", "offset": 1, "step": 1},
        },
        ["ergodic_set", "offset"],
    ),
    "step": (
        {
            "experiment": "expand-scan",
            "system": _FINITE_2,
            "set_b": {"kind": "elements", "points": [[0]]},
            "coord_bound": 1,
            "ergodic_set": {"kind": "ap", "offset": 1, "step": 1},
        },
        ["ergodic_set", "step"],
    ),
    "lambda_bound": (
        {"experiment": "spectral-report", "system": _FINITE_2, "set_b": {"kind": "elements", "points": [[0]]}, "lambda_bound": 1},
        ["lambda_bound"],
    ),
    "kronecker-rank": (
        {"experiment": "spectral-report", "system": _KRONECKER_2, "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]}, "trunc": 2},
        ["system", "rank"],
    ),
    "dim": (
        {"experiment": "spectral-report", "system": _KRONECKER_2, "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]}, "trunc": 2},
        ["system", "dim"],
    ),
    "trunc": (
        {"experiment": "spectral-report", "system": _KRONECKER_2, "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]}, "trunc": 2},
        ["trunc"],
    ),
    "p": (
        _INTERSECT,
        ["p"],
    ),
    "count": (
        _INTERSECT,
        ["haystack", "count"],
    ),
    "multipliers": (
        _INTERSECT,
        ["haystack", "multipliers", 0],
    ),
    "haystack-verify-count": (
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 4},
        ["count"],
    ),
    "haystack-verify-multipliers": (
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 4},
        ["multipliers", 1],
    ),
    # the fields below used to be truncated and run
    "n_max": (_PATTERN, ["bounds", "n_max"]),
    "m_max": (_PATTERN, ["bounds", "m_max"]),
    "lambda_count": (_PATTERN, ["bounds", "lambda_count"]),
    "bounds-multipliers": (_PATTERN, ["bounds", "multipliers", 1]),
    "pattern-probes": (_PATTERN, ["probes", 0, 0, 1]),
    "intersect-probes": (_INTERSECT, ["probes", 1, 0, 0]),
    "haystack-basis": (
        {**_INTERSECT, "haystack": {"multipliers": [2, 3], "count": 8, "basis": [[1, 0], [1, 1]]}},
        ["haystack", "basis", 1, 0],
    ),
    "haystack-verify-vectors": (
        {"experiment": "haystack-verify", "rank": 2, "vectors": [[1, 2], [3, 1]]},
        ["vectors", 0, 0],
    ),
    "haystack-verify-basis": (
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 4, "basis": [[1, 0], [1, 1]]},
        ["basis", 1, 1],
    ),
    "sublattice": (
        {
            "experiment": "decompose",
            "system": _FINITE_2,
            "set_b": {"kind": "elements", "points": [[0], [1]]},
            "sublattice": [[2, 0], [0, 2]],
        },
        ["sublattice", 0, 0],
    ),
    "annihilator_lambdas": (
        {
            "experiment": "spectral-report",
            "system": _KRONECKER_2,
            "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]},
            "trunc": 2,
            "annihilator_lambdas": [[0, 1]],
        },
        ["annihilator_lambdas", 0, 1],
    ),
}


def _set_field(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("name", sorted(_INTEGER_FIELDS))
def test_scalar_integer_fields_refuse_fractions_and_read_integral_floats(tmp_path, capsys, name):
    cfg, path = _INTEGER_FIELDS[name]
    field = next(key for key in reversed(path) if isinstance(key, str))
    node = cfg
    for key in path:
        node = node[key]
    out = tmp_path / "report.json"
    assert run_cli([cfg["experiment"], "--config", write_cfg(tmp_path, "ok.json", cfg), "--out", out]) == 0
    body = json.loads(out.read_text())["results"]
    # an integral float reads as the integer it is
    floated = write_cfg(tmp_path, "float.json", _set_field(cfg, path, float(node)))
    assert run_cli([cfg["experiment"], "--config", floated, "--out", out]) == 0
    assert json.loads(out.read_text())["results"] == body
    capsys.readouterr()
    # a fraction used to be truncated and run
    bad = write_cfg(tmp_path, "bad.json", _set_field(cfg, path, node + 0.5))
    assert run_cli([cfg["experiment"], "--config", bad]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"config error: {field} entry {node + 0.5} is not an integer"
