"""CLI runner: determinism, exit codes, CSV, witness re-verification."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import latspec
from latspec import cli, kernels
from latspec.cli import main, parse_fraction, ser_fraction
from latspec.config import digits
from latspec.haystack import COUNT_LIMIT
from latspec.systems import LISTING_LIMIT
from latspec.volume import AP_LIMIT, RANK_LIMIT


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


def test_volume_spectrum_with_ap_max_scans_the_spectrum_once(tmp_path, monkeypatch):
    # ap_certificate reads the spectrum the report already scanned; a capped
    # spectrum is its own scan
    calls = []
    scan = kernels.distinct_abs_dets

    def counting(points, rank, cap=None):
        calls.append(cap)
        return scan(points, rank, cap)

    monkeypatch.setattr(kernels, "distinct_abs_dets", counting)
    base = {"experiment": "volume-spectrum", "rank": 2, "window": 4, "set": {"kind": "full"}, "ap_max": 3}
    for extra, scans in (({}, [None]), ({"cap": 30}, [30, None])):
        calls.clear()
        cfg = write_cfg(tmp_path, "vs.json", {**base, **extra})
        assert run_cli(["volume-spectrum", "--config", cfg, "--out", tmp_path / "vs_report.json"]) == 0
        assert calls == scans, extra


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


def test_intersect_measures_hold_python_integers(tmp_path):
    # a measure over a numpy count multiplied in int64 and wrapped on (Z/100)^2
    pts = [[x, y] for x in range(100) for y in range(100) if (31 * x * x + 17 * y * y + 13 * x * y + x) % 101 < 34]
    cfg = write_cfg(
        tmp_path,
        "int.json",
        {
            "experiment": "intersect",
            "system": {"kind": "finite", "matrix": [[100, 0], [0, 100]]},
            "set_b": {"kind": "preimages", "points": pts},
            "p": 2,
            "probes": [[[1, 0]]],
        },
    )
    out = tmp_path / "int_report.json"
    assert run_cli(["intersect", "--config", cfg, "--out", out]) == 0
    results = json.loads(out.read_text())["results"]
    assert parse_fraction(results["intersection_measure"]) == Fraction(3331, 10000)
    assert results["n"] == 100 and results["lambda"] == [2, 3]


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


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    cfg = write_cfg(
        tmp_path,
        "d.json",
        {"experiment": "density", "rank": 2, "set": {"kind": "random", "density": "1/2"}, "windows": [3], "seed": 1},
    )
    plain, seeded, again = (tmp_path / name for name in ("plain.json", "seeded.json", "again.json"))
    assert run_cli(["density", "--config", cfg, "--out", plain]) == 0
    # a --seed call, then a --verify-only call, then a plain call: nothing carries over
    assert run_cli(["density", "--config", cfg, "--out", seeded, "--seed", 2]) == 0
    assert run_cli(["density", "--config", cfg, "--out", seeded, "--verify-only"]) == 0
    assert run_cli(["density", "--config", cfg, "--out", again]) == 0
    first, last = (strip_volatile(json.loads(p.read_text())) for p in (plain, again))
    assert first == last and first["seed"] == 1
    assert json.loads(seeded.read_text())["seed"] == 2


def test_help_exits_0_and_an_unknown_subcommand_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0 and "verify-only" in capsys.readouterr().out
    cfg = write_cfg(tmp_path, "d.json", {"experiment": "density"})
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-experiment", "--config", cfg])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


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
            assert err.strip().startswith("config error:" if bound < 0 else "limit:") and len(err.strip().splitlines()) == 1
            assert key in err
    # a zero bound is a box of one lambda, and still runs
    path = write_cfg(tmp_path, "zero.json", {**base["spectral-report"][1], "lambda_bound": 0})
    out = tmp_path / "zero-report.json"
    assert run_cli(["spectral-report", "--config", path, "--out", out]) == 0
    assert json.loads(out.read_text())["results"]["bochner_checked"] == 1


def test_point_and_simplex_limits_exit_2_with_one_line(tmp_path, capsys):
    line = {"kind": "explicit", "points": [[x, 0] for x in range(-950, 950)]}
    scatter = {"kind": "explicit", "points": [[x * 7919 % 10007, x * 104729 % 9973] for x in range(300)]}
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
        # C(300, 3) values at most, and the AP certificate scans uncapped
        ({"experiment": "volume-spectrum", "rank": 2, "window": 10**4, "set": scatter}, "spectrum values of a 300-point set, cap None = 4455100"),
        (
            {"experiment": "volume-spectrum", "rank": 2, "window": 10**4, "set": scatter, "cap": 10**5, "ap_max": 2},
            "spectrum values of a 300-point set, cap None = 4455100",
        ),
    ]
    for i, (cfg, word) in enumerate(configs):
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        assert run_cli([cfg["experiment"], "--config", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().startswith("limit:") and len(err.strip().splitlines()) == 1
        assert word in err and "over the limit of" in err


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
        (_cyclic_cfg("spectral-report", [10**5], [[1]], [[0], [1]]), "numpy", "limit: steps of the cyclic-subgroup index"),
        (_cyclic_cfg("decompose", [10**12], [[1]], [[0]]), "numpy", "limit: carrier elements"),
        # a long generator row used to be truncated and run, a short one to crash
        (_cyclic_cfg("decompose", [4], [[1, 5]], [[0]]), "numpy", "system.gens[0] has 2 entries, expected len(moduli) 1"),
        (_cyclic_cfg("decompose", [2, 4], [[1]], [[0, 0]]), "numpy", "system.gens[0] has 1 entry, expected len(moduli) 2"),
        (_cyclic_cfg("decompose", [6], [[1, 0], [2]], [[0]]), "numpy", "system.gens[0] has 2 entries, expected len(moduli) 1"),
        ({**_cyclic_cfg("decompose", [6], [[1], [2]], [[0]]), "system": {"kind": "finite", "rank": 2, "moduli": [6], "gens": [[1]]}},
         "numpy", "system.gens has 1 entry, expected rank 2"),
        # a ragged matrix used to be refused as "ragged matrix", naming no field
        (
            {"experiment": "spectral-report", "system": {"kind": "finite", "matrix": [[6, 0], [0]]}, "set_b": {"kind": "elements", "points": [[0]]}},
            "numpy",
            "system.matrix[1] has 1 entry, expected 2",
        ),
        ({**_cyclic_cfg("decompose", [4], [[1], [0]], [[0]]), "sublattice": [[2, 0], [0]]}, "numpy", "sublattice[1] has 1 entry, expected 2"),
        # rank 0 used to be refused with a reason from inside the scan
        (rank0, "numpy", "rank must be at least 1, got 0"),
        (rank0, "python", "rank must be at least 1, got 0"),
        # an element of the wrong length used to be refused with a zip() message
        (_cyclic_cfg("spectral-report", [4], [[1], [0]], [[0], [1, 2]]), "numpy", "set_b.points[1] has 2 entries, expected len(system.moduli) 1"),
        (_cyclic_cfg("spectral-report", [2, 4], [[1, 0], [0, 1]], [[1]]), "numpy", "set_b.points[0] has 1 entry, expected len(system.moduli) 2"),
        (
            {**_cyclic_cfg("decompose", [4], [[1], [0]], []), "set_b": {"kind": "preimages", "points": [[1, 2, 3]]}},
            "numpy",
            "set_b.points[0] has 3 entries, expected system.rank 2",
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
        prefix = "limit:" if reason.startswith("limit:") else "config error:"
        assert err.strip().startswith(prefix) and len(err.strip().splitlines()) == 1
        assert reason in err


def test_carriers_at_the_limit_are_refused_from_their_presentation(tmp_path, capsys):
    # the generation check and the coordinate table walked the carrier before
    # these refusals: 2.2 s and 412 MB, 1.5 s and 443 MB, 1.2 s and 602 MB
    cube = [[int(i == j) for i in range(20)] for j in range(20)]
    configs = [
        (
            {"experiment": "spectral-report", "system": {"kind": "finite", "matrix": [[10**7]]}, "set_b": {"kind": "elements", "points": [[0], [5]]}},
            "steps of the cyclic-subgroup index, |A| x exponent = 10000000 x 10000000 = 100000000000000, over the limit of 20000000",
        ),
        (
            _cyclic_cfg("spectral-report", [3000, 3000], [[1, 0], [0, 1]], [[0, 0], [1, 2]]),
            "steps of the cyclic-subgroup index, |A| x exponent = 9000000 x 3000 = 27000000000, over the limit of 20000000",
        ),
        (
            {**_cyclic_cfg("spectral-report", [2] * 20, cube, [[0] * 20, [1] + [0] * 19]), "lambda_bound": 0},
            "coordinates of the orbit rows, orbits x |B| x s = 41943040, over the limit of 20000000",
        ),
    ]
    for i, (cfg, reason) in enumerate(configs):
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = run_cli(["spectral-report", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and err.strip() == f"limit: {reason}", err
        assert seconds < 0.5 and peak < 64 * 2**20, (reason, seconds, peak)


@pytest.mark.parametrize("error", [MemoryError(), "numpy"])
def test_an_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    def run(c, seed):
        if error == "numpy":
            # 512 PiB: past the address space, refused without touching memory
            return np.zeros((1 << 36, 1 << 20), dtype=np.int64)
        raise error

    monkeypatch.setitem(cli._RUNNERS, "density", run)
    path = write_cfg(tmp_path, "cfg.json", {"experiment": "density", "rank": 2, "set": {"kind": "full"}, "windows": [1]})
    assert run_cli(["density", "--config", path]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("out of memory") and len(err.splitlines()) == 1 and "Traceback" not in err
    if error == "numpy":
        assert "Unable to allocate 512. PiB" in err


def test_expand_scan_refusal_on_a_6000_point_cyclic_carrier_stays_small(tmp_path, capsys):
    # the saturations ahead of the refusal built |B| x order translates,
    # 184 MiB traced; on Z/40000 they ended in an allocation traceback.  At
    # coord_bound 499999 the candidate list ahead of it took 92 MiB traced
    for bound in (1, 499999):
        cfg = {**_cyclic_cfg("expand-scan", [6000], [[1]], [[x] for x in range(0, 6000, 3)]), "coord_bound": bound}
        path = write_cfg(tmp_path, "cfg.json", cfg)
        tracemalloc.start()
        try:
            code = run_cli(["expand-scan", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err.strip()
        assert code == 2 and peak < 16 * 2**20, (bound, peak)
        assert err == "limit: steps of the cyclic-subgroup index, |A| x exponent = 6000 x 6000 = 36000000, over the limit of 20000000"


def test_decompose_listing_just_over_its_limit_is_refused_before_any_label(tmp_path, capsys):
    # every component used to be listed, at about 0.45-1.4 KB per element
    # of the carrier: 4.5-14 GB at the carrier limit
    size = LISTING_LIMIT + 1
    path = write_cfg(tmp_path, "cfg.json", {**_cyclic_cfg("decompose", [size], [[1]], [[0]]), "sublattice": [[2]]})
    tracemalloc.start()
    try:
        code = run_cli(["decompose", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.strip()
    assert code == 2 and peak < 2**20, peak
    assert err == f"limit: listed elements of the components, |A| = {size}, over the limit of {LISTING_LIMIT}"


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
            "limit: atoms (2*trunc+1)^3 = 2146689, over the limit of 100000",
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
            "annihilator_lambdas[0] has 3 entries, expected system.rank 2",
        ),
        # C(10^6, 2) pairs, and a rank mismatch, refused before the sample is generated
        (
            {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 10**6},
            "limit: r-subsets of the sample, C(1000000, 2) = 499999500000, over the limit of 1000000",
        ),
        (
            {"experiment": "haystack-verify", "rank": 1, "multipliers": [2, 3], "count": 10**6},
            "multipliers has 2 entries, expected rank 1",
        ),
    ]
    for i, (cfg, reason) in enumerate(configs):
        path = write_cfg(tmp_path, f"cfg{i}.json", cfg)
        start = time.perf_counter()
        assert run_cli([cfg["experiment"], "--config", path]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        prefix = "limit:" if reason.startswith("limit:") else "config error:"
        assert err.strip().startswith(prefix) and len(err.strip().splitlines()) == 1
        assert reason in err


def _refused_in_one_line(tmp_path, capsys, cfg, prefix="config error:"):
    path = write_cfg(tmp_path, "cfg.json", cfg)
    start = time.perf_counter()
    assert run_cli([cfg["experiment"], "--config", path]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().startswith(prefix) and len(err.strip().splitlines()) == 1
    return err


_FOUR = {"kind": "finite", "matrix": [[2, 0], [0, 2]]}
_ORIGIN = {"kind": "elements", "points": [[0, 0]]}
_KRONECKER_2D = {
    "kind": "kronecker", "rank": 2, "dim": 2, "theta": [[{"symbols": {"alpha": "1"}}, "0"], ["0", {"symbols": {"beta": "1"}}]],
}
_QUARTER = {"kind": "boxes", "boxes": [[["0", "1/2"], ["0", "1/2"]]]}


_PLANE = [[1, 0], [0, 1]]


#: one config per limit the CLI can reach, and the line that refuses it
_LIMITS = {
    "rank": ("volume-spectrum", {"rank": 65, "window": 1, "set": {"kind": "full"}}, "rank = 65, over the limit of 64"),
    "ap_max": ("volume-spectrum", {"rank": 2, "window": 1, "set": {"kind": "full"}, "ap_max": 10001}, "ap_max = 10001, over the limit of 10000"),
    "coord_bound": (
        "expand-scan", {"system": _FOUR, "set_b": _ORIGIN, "coord_bound": 500}, "lambdas (2*coord_bound+1)^2 = 1002001, over the limit of 1000000",
    ),
    "lambda_bound": (
        "spectral-report", {"system": _FOUR, "set_b": _ORIGIN, "lambda_bound": 500},
        "lambdas (2*lambda_bound+1)^2 = 1002001, over the limit of 1000000",
    ),
    "count-digits": (
        "haystack-verify", {"rank": 2, "multipliers": [2, 1000003], "count": 800},
        "count 800: digits of the largest coordinate of h_800 = 4801, over the limit of 4300",
    ),
    # (2 * 10^70 + 1)^64 has 4500 digits
    "windows-digits": (
        "density", {"rank": 64, "windows": [10**70], "set": {"kind": "explicit", "points": [[0] * 64]}},
        f"windows entry {10**70}: digits of the reduced denominator of the density over (2*window+1)^64 = 4500, over the limit of 4300",
    ),
    "r-subsets": (
        "haystack-verify", {"rank": 2, "multipliers": [2, 3], "count": 10**6},
        "r-subsets of the sample, C(1000000, 2) = 499999500000, over the limit of 1000000",
    ),
    "haystack-count": (
        "intersect", {"system": _FOUR, "set_b": _ORIGIN, "p": 2, "probes": [[[1, 0]]], "haystack": {"count": 2001}},
        "haystack count = 2001, over the limit of 2000",
    ),
    "simplices": (
        "volume-spectrum", {"rank": 2, "window": 1000, "set": {"kind": "explicit", "points": [[x, 0] for x in range(-950, 950)]}},
        "simplices of a 1900-point set, C(1900, 3) = 1141362300, over the limit of 1000000000",
    ),
    "spectrum-values": (
        "volume-spectrum",
        {"rank": 2, "window": 10**4, "set": {"kind": "explicit", "points": [[x * 7919 % 10007, x * 104729 % 9973] for x in range(300)]}},
        "bound on the spectrum values of a 300-point set, cap None = 4455100, over the limit of 1000000",
    ),
    "subgroup-index": (
        "spectral-report", _cyclic_cfg("spectral-report", [10**5], [[1]], [[0], [1]]),
        "steps of the cyclic-subgroup index, |A| x exponent = 100000 x 100000 = 10000000000, over the limit of 20000000",
    ),
    # |B|^4 phi(271) passes 2^63 from |B| = 13596 on
    "orbit-sums": (
        "spectral-report", _cyclic_cfg("spectral-report", [271, 271], _PLANE, [[i // 271, i % 271] for i in range(0, 271 * 271, 5)][:13596]),
        "int64 bound of the orbit sums, |B|^4 x phi(exponent) = more than 10^18, over the limit of 9223372036854775807",
    ),
    "orbit-rows": (
        "spectral-report", {**_cyclic_cfg("spectral-report", [2] * 20, np.eye(20, dtype=int).tolist(), [[0] * 20, [1] + [0] * 19]), "lambda_bound": 0},
        "coordinates of the orbit rows, orbits x |B| x s = 41943040, over the limit of 20000000",
    ),
    "atoms": (
        "spectral-report", {"system": _KRONECKER_2D, "set_b": _QUARTER, "trunc": 200}, "atoms (2*trunc+1)^2 = 160801, over the limit of 100000",
    ),
    # (2 * trunc + 1)^2 used to be printed, past Python's digit limit
    "trunc-2200-digits": (
        "spectral-report", {"system": _KRONECKER_2D, "set_b": _QUARTER, "trunc": 10**2199},
        "atoms (2*trunc+1)^2 = more than 10^18, over the limit of 100000",
    ),
    "carrier": (
        "decompose", _cyclic_cfg("decompose", [10**4, 10**4], _PLANE, [[0, 0]]),
        "carrier elements, the product of the moduli = 100000000, over the limit of 10000000",
    ),
    "listing": (
        "decompose", {**_cyclic_cfg("decompose", [200001], [[1]], [[0]]), "sublattice": [[200001]]},
        "listed elements of the components, |A| = 200001, over the limit of 200000",
    ),
    # the product of the moduli used to be printed, past Python's digit limit
    "moduli-10-3000": (
        "spectral-report", _cyclic_cfg("spectral-report", [10**3000, 10**3000], _PLANE, [[0, 0]]),
        "carrier elements, the product of the moduli = more than 10^18, over the limit of 10000000",
    ),
    "full-points": (
        "volume-spectrum", {"rank": 2, "window": 10**5, "set": {"kind": "full"}},
        "points of the full set, (2*window+1)^2 = 40000400001, over the limit of 1000000",
    ),
    "congruence-points": (
        "volume-spectrum", {"rank": 2, "window": 10**5, "set": {"kind": "congruence", "modulus": 2}},
        "points of the congruence set in the window = 10000200001, over the limit of 1000000",
    ),
    "pattern-search": (
        "pattern-search", {"rank": 2, "window": 2, "set": {"kind": "full"}, "p": 2, "probes": [[[1000, 0]]], "bounds": {"n_max": 1000}},
        "n_max 1000 dominates: pattern search membership tests n_max x lambda_count x |E| x 2 m_max (1 + (p-1) |probes|) = 3600000, "
        "over the limit of 2000000",
    ),
}


@pytest.mark.parametrize("name", list(_LIMITS))
def test_every_limit_is_refused_in_one_limit_line(tmp_path, capsys, name):
    experiment, cfg, line = _LIMITS[name]
    err = _refused_in_one_line(tmp_path, capsys, {"experiment": experiment, **cfg}, "limit:")
    assert err == f"limit: {line}\n"


def test_digits_are_counted_from_the_bit_length():
    # integers Python can print, at powers of ten and of two
    values = [v for k in range(1, 4300, 7) for v in (10**k - 1, 10**k, 10**k + 1)] + [2**b for b in range(0, 14280, 11)]
    assert [digits(v) for v in values] == [len(str(v)) for v in values]
    assert digits(1) == 1 and digits(10**4300) == 4301


def test_a_malformed_config_is_not_a_limit(tmp_path, capsys):
    # the field of a box limit, given a value that no box has
    cfg = {"experiment": "expand-scan", "system": _FOUR, "set_b": _ORIGIN, "coord_bound": -1}
    assert _refused_in_one_line(tmp_path, capsys, cfg) == "config error: coord_bound must be nonnegative, got -1\n"


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
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:")
    assert f"haystack count = 16000, over the limit of {COUNT_LIMIT}" in err


@pytest.mark.parametrize(
    "rank, multipliers",
    [
        pytest.param(2, [2, 3, 5], id="rank2-three"),  # used to end in an IndexError traceback
        pytest.param(3, [2, 3], id="rank3-two"),  # used to report exhausted bounds
    ],
)
def test_pattern_search_multipliers_other_than_one_per_axis_are_refused(tmp_path, capsys, rank, multipliers):
    cfg = {
        "experiment": "pattern-search", "rank": rank, "window": 4, "set": {"kind": "full"}, "p": 2,
        "probes": [[[0] * (rank - 1) + [1]]], "bounds": {"multipliers": multipliers},
    }
    err = _refused_in_one_line(tmp_path, capsys, cfg)
    assert f"bounds.multipliers has {len(multipliers)} entries, expected rank {rank}" in err


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
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:")
    assert f"haystack count = 12000, over the limit of {COUNT_LIMIT}" in err


def test_expand_scan_admits_its_spectral_stage_before_any_saturation(tmp_path, capsys, monkeypatch):
    # 48 saturations of (Z/1000)^2 used to run before the |A| x exponent refusal
    def no_saturation(*args, **kwargs):
        raise AssertionError("a saturation ran before the spectral stage was admitted")

    monkeypatch.setattr(cli, "orbit_saturation", no_saturation)
    monkeypatch.setattr(latspec.systems, "orbit_saturation", no_saturation)
    cfg = {
        "experiment": "expand-scan",
        "system": {"kind": "finite", "rank": 2, "moduli": [1000, 1000], "gens": [[1, 0], [0, 1]]},
        "set_b": {"kind": "elements", "points": [[0, 0], [1, 5], [7, 3]]},
        "coord_bound": 2,
    }
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:")
    assert "|A| x exponent = 1000000 x 1000 = 1000000000, over the limit of 20000000" in err


def test_a_density_too_long_to_print_is_refused_naming_windows(tmp_path, capsys):
    # the (2 * 10^100 + 1)^64 denominator used to end in Python's digit limit
    cfg = {"experiment": "density", "rank": 64, "windows": [10**100], "set": {"kind": "explicit", "points": [[0] * 64]}}
    # the reduced denominator (2 * 10^100 + 1)^64 has 6420 digits
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:")
    assert f"windows entry {10**100}: digits of the reduced denominator of the density over (2*window+1)^64 = 6420, over the limit of 4300" in err


@pytest.mark.parametrize(
    "windows, points, code",
    [
        ([10**60], [[0] * 64], 0),  # a denominator of 3860 digits
        ([10**100], [[10**100 + 1] * 64], 0),  # no point in the window: density 0
        ([1, 10**68], [[0] * 64], 2),  # 4372 digits
    ],
    ids=["3860-digits", "empty", "4372-digits"],
)
def test_densities_print_up_to_the_digit_limit(tmp_path, windows, points, code):
    cfg = {"experiment": "density", "rank": 64, "windows": windows, "set": {"kind": "explicit", "points": points}}
    out = tmp_path / "r.json"
    assert run_cli(["density", "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", out]) == code
    if code == 0:
        assert json.loads(out.read_text())["results"]["densities"][-1]["den"] == str((2 * windows[-1] + 1) ** 64 if points[0][0] == 0 else 1)


def test_a_haystack_too_long_to_print_is_refused_before_any_element(tmp_path, capsys):
    # 7.5 s of work used to end in Python's digit limit, naming no field
    cfg = {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 1000003], "count": 800}
    # its largest coordinate 1000003^800 has 4801 digits
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:")
    assert "count 800: digits of the largest coordinate of h_800 = 4801, over the limit of 4300" in err


def test_a_haystack_prints_up_to_the_digit_limit(tmp_path, capsys):
    # (10^100 + 1)^42 has 4201 digits and (10^100 + 1)^43 has 4301
    multipliers = [2, 10**100 + 1]
    cfg = {"experiment": "haystack-verify", "rank": 2, "multipliers": multipliers, "count": 42}
    out = tmp_path / "r.json"
    assert run_cli(["haystack-verify", "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", out]) == 0
    assert json.loads(out.read_text())["results"]["vectors"][-1] == [2**42, (10**100 + 1) ** 42]
    capsys.readouterr()
    err = _refused_in_one_line(tmp_path, capsys, {**cfg, "count": 43}, "limit:")
    assert "count 43: digits of the largest coordinate of h_43 = 4301, over the limit of 4300" in err


def test_pattern_search_is_admitted_by_its_work(tmp_path, capsys):
    # 1000 dilations of a 25-point grid with a probe that never hits used to
    # scan for seconds; n_max 10^6 ran unbounded
    cfg = {
        "experiment": "pattern-search", "rank": 2, "window": 2, "set": {"kind": "full"}, "p": 2,
        "probes": [[[1000, 0]]], "bounds": {"n_max": 1000},
    }
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:")
    assert "n_max 1000 dominates: pattern search membership tests" in err and "= 3600000, over the limit of 2000000" in err
    err = _refused_in_one_line(tmp_path, capsys, {**cfg, "window": 150, "bounds": {"n_max": 1}}, "limit:")
    assert "|E| 90601 dominates" in err
    # a product past Python's digit limit is not printed
    err = _refused_in_one_line(tmp_path, capsys, {**cfg, "bounds": {"n_max": 10**3000, "m_max": 10**3000}}, "limit:")
    assert "= more than 10^18, over the limit of 2000000" in err and f"n_max {10**3000} dominates" in err
    # no work admitted is no membership test: both used to run on past 5 s
    for zero in ({"m_max": 0}, {"lambda_count": 0}):
        path = write_cfg(tmp_path, "zero.json", {**cfg, "bounds": {"n_max": 10**9, **zero}})
        start = time.perf_counter()
        assert run_cli(["pattern-search", "--config", path, "--out", tmp_path / "zero_report.json"]) == 1
        assert time.perf_counter() - start < 0.5
        report = json.loads((tmp_path / "zero_report.json").read_text())
        assert report["results"]["reason"] == "exhausted bounds"


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "volume-spectrum", "rank": 2, "window": -1, "set": {"kind": "full"}},
        {"experiment": "density", "rank": 2, "windows": [-3, -1, 2], "set": {"kind": "full"}},
    ],
    ids=["volume-spectrum", "density"],
)
def test_negative_windows_exit_2_with_one_line(tmp_path, capsys, cfg):
    # both used to exit 0: an empty spectrum, and densities 0/25 and 0/1 for
    # boxes that do not exist
    assert "window must be nonnegative, got -" in _refused_in_one_line(tmp_path, capsys, cfg)


@pytest.mark.parametrize("experiment", ["expand-scan", "intersect"])
@pytest.mark.parametrize(
    "ergodic_set, reason",
    [
        ({"kind": "interval", "offset": 1}, "unknown field 'ergodic_set.offset'"),
        # an interval reads no offset or step: these used to be accepted and never read
        ({"kind": "interval", "offset": 0, "step": 1}, "unknown field 'ergodic_set.offset'"),
        ({"step": 1}, "unknown field 'ergodic_set.step'"),
        ({"kind": "geometric"}, "ergodic_set.kind must be one of 'interval', 'ap', got \"geometric\""),
    ],
    ids=["interval-offset", "interval-offset-0-step-1", "no-kind-step", "unknown-kind"],
)
def test_ergodic_set_refusals_exit_2_with_one_line(tmp_path, capsys, experiment, ergodic_set, reason):
    own = {"expand-scan": {"coord_bound": 1}, "intersect": {"p": 2, "probes": [[[1, 0]]]}}[experiment]
    cfg = {
        "experiment": experiment,
        "system": {"kind": "finite", "matrix": [[2, 0], [0, 2]]},
        "set_b": {"kind": "preimages", "points": [[0, 0]]},
        **own,
        "ergodic_set": ergodic_set,
    }
    assert _refused_in_one_line(tmp_path, capsys, cfg).strip() == f"config error: {reason}"


@pytest.mark.parametrize(
    "experiment, results",
    [
        ("expand-scan", {"argmax_lambda": [1, 0], "max_expansion": "1/2"}),
        ("decompose", {"shrink": {"n": 1}}),
        ("intersect", {"n": 1, "lambda": [1, 0], "m1": 1, "probes": [], "intersection_measure": "1/2"}),
    ],
)
def test_replays_of_finite_experiments_refuse_a_kronecker_system(tmp_path, capsys, experiment, results):
    # the replays used to parse the system without the runner's check, and
    # ended in a traceback or an unrelated message
    cfg = {
        "experiment": experiment,
        "system": {"kind": "kronecker", "rank": 2, "dim": 1, "theta": [[{"symbols": {"alpha": "1"}}, "1/3"]]},
        "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    report = write_cfg(tmp_path, "report.json", {"experiment": experiment, "config": cfg, "results": results})
    assert run_cli([experiment, "--config", path, "--out", report, "--verify-only"]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {experiment} requires a finite system"


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
    # the point-set fields below, shared by volume-spectrum, pattern-search
    # and density, used to be truncated and run
    "congruence-modulus": (
        {"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "congruence", "modulus": 2}},
        ["set", "modulus"],
    ),
    "congruence-offset": (
        {"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "congruence", "modulus": 2, "offset": [1, 0]}},
        ["set", "offset", 0],
    ),
    "random-seed": (
        {"experiment": "density", "rank": 2, "set": {"kind": "random", "density": "1/2", "seed": 3}, "windows": [2, 3]},
        ["set", "seed"],
    ),
    "explicit-points": (
        {"experiment": "volume-spectrum", "rank": 2, "window": 3, "set": {"kind": "explicit", "points": [[0, 0], [1, 0], [0, 1], [2, 1]]}},
        ["set", "points", 3, 1],
    ),
    "translate-offset": (
        {**_PATTERN, "set": {"kind": "translate", "offset": [1, 0], "base": {"kind": "full"}}},
        ["set", "offset", 0],
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


_DECOMPOSE = {
    "experiment": "decompose",
    "system": _FINITE_2,
    "set_b": {"kind": "elements", "points": [[0], [1]]},
    "eps_o": "1/10",
}
_KRONECKER_REPORT = {
    "experiment": "spectral-report",
    "system": _KRONECKER_2,
    "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]},
    "trunc": 2,
}


@pytest.mark.parametrize(
    "cfg, path, reason",
    [
        # each of these used to read true as 1 and run with exit 0
        (_INTEGER_FIELDS["congruence-modulus"][0], ["set", "modulus"], "modulus entry true is not an integer"),
        (_KRONECKER_REPORT, ["system", "theta", 0, 1], "cannot parse rational from True"),
        (_KRONECKER_REPORT, ["system", "theta", 0, 0, "symbols", "alpha"], "cannot parse rational from True"),
        (_KRONECKER_REPORT, ["set_b", "boxes", 0, 0, 1], "cannot parse rational from True"),
        (_DECOMPOSE, ["eps_o"], "cannot parse rational from True"),
        ({**_DECOMPOSE, "eps_o": {"num": "1", "den": "10"}}, ["eps_o", "num"], "num entry true is not an integer"),
        (_INTEGER_FIELDS["random-seed"][0], ["set", "density"], "density true is not a rational"),
    ],
    ids=["congruence-modulus", "theta-entry", "symbol-coefficient", "box-bound", "eps_o", "eps_o-num", "random-density"],
)
def test_json_booleans_are_refused_where_numbers_are_read(tmp_path, capsys, cfg, path, reason):
    out = tmp_path / "report.json"
    assert run_cli([cfg["experiment"], "--config", write_cfg(tmp_path, "ok.json", cfg), "--out", out]) == 0
    capsys.readouterr()
    assert reason in _refused_in_one_line(tmp_path, capsys, _set_field(cfg, path, True))


_SPECTRAL_FINITE = {"experiment": "spectral-report", "system": _FINITE_2, "set_b": {"kind": "elements", "points": [[0]]}}

#: one working config per JSON-object field, the path to it and the name a refusal gives it
_OBJECT_FIELDS = {
    "expand-scan-system": (EX2_CFG, ["system"], "system"),
    "expand-scan-set_b": (EX2_CFG, ["set_b"], "set_b"),
    "expand-scan-ergodic_set": ({**EX2_CFG, "ergodic_set": {"kind": "interval"}}, ["ergodic_set"], "ergodic_set"),
    "spectral-report-system": (_SPECTRAL_FINITE, ["system"], "system"),
    "spectral-report-set_b": (_SPECTRAL_FINITE, ["set_b"], "set_b"),
    "spectral-report-kronecker-set_b": (_KRONECKER_REPORT, ["set_b"], "set_b"),
    "decompose-system": (_DECOMPOSE, ["system"], "system"),
    "decompose-set_b": (_DECOMPOSE, ["set_b"], "set_b"),
    "intersect-system": (_INTERSECT, ["system"], "system"),
    "intersect-set_b": (_INTERSECT, ["set_b"], "set_b"),
    "intersect-ergodic_set": ({**_INTERSECT, "ergodic_set": {"kind": "interval"}}, ["ergodic_set"], "ergodic_set"),
    "intersect-haystack": (_INTERSECT, ["haystack"], "haystack"),
    "pattern-search-bounds": (_PATTERN, ["bounds"], "bounds"),
    "volume-spectrum-set": (_INTEGER_FIELDS["rank"][0], ["set"], "set"),
    "density-set-parts": (
        {"experiment": "density", "rank": 2, "set": {"kind": "union", "parts": [{"kind": "full"}]}, "windows": [2]},
        ["set", "parts", 0],
        "set.parts[0]",
    ),
    "pattern-search-set-base": (
        {**_PATTERN, "set": {"kind": "translate", "offset": [1, 0], "base": {"kind": "full"}}},
        ["set", "base"],
        "set.base",
    ),
}


@pytest.mark.parametrize("name", sorted(_OBJECT_FIELDS))
def test_object_fields_of_the_wrong_shape_are_refused_by_name(tmp_path, capsys, name):
    # null, a list, a string, a number or a bool used to end in an
    # AttributeError traceback (exit 1), or in a refusal naming no field
    cfg, path, what = _OBJECT_FIELDS[name]
    assert run_cli([cfg["experiment"], "--config", write_cfg(tmp_path, "ok.json", cfg), "--out", tmp_path / "r.json"]) == 0
    capsys.readouterr()
    for value in (None, [], [{"kind": "full"}], "full", 3, 2.5, True):
        err = _refused_in_one_line(tmp_path, capsys, _set_field(cfg, path, value))
        assert err.strip() == f"config error: {what} must be a JSON object, got {json.dumps(value)}"


def test_density_reads_every_rational_form(tmp_path):
    # {"num", "den"} used to be refused: "argument should be a string or a Rational instance"
    bodies = []
    for density in ("1/3", {"num": "1", "den": "3"}, {"num": 2, "den": 6}):
        cfg = {"experiment": "density", "rank": 2, "set": {"kind": "random", "density": density, "seed": 5}, "windows": [2, 4]}
        out = tmp_path / "r.json"
        assert run_cli(["density", "--config", write_cfg(tmp_path, "d.json", cfg), "--out", out]) == 0
        bodies.append(json.loads(out.read_text())["results"])
    assert bodies[0] == bodies[1] == bodies[2]


def test_ap_max_over_the_limit_exits_2_naming_it(tmp_path, capsys):
    # 10**30 ended in an OverflowError traceback from range(1, m_max + 1)
    cfg = {"experiment": "volume-spectrum", "rank": 2, "window": 7, "set": {"kind": "full"}, "ap_max": 10**30}
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:").strip()
    assert err == f"limit: ap_max = more than 10^18, over the limit of {AP_LIMIT}"


@pytest.mark.parametrize(
    "cfg",
    [
        # 3**(10**6) window points used to be refused by the integer string limit
        {"experiment": "volume-spectrum", "rank": 10**6, "window": 1, "set": {"kind": "full"}},
        # (0,) * 10**30 ended in an OverflowError traceback
        {"experiment": "volume-spectrum", "rank": 10**30, "window": 1, "set": {"kind": "congruence", "modulus": 2}},
        {"experiment": "density", "rank": 10**6, "windows": [1], "set": {"kind": "full"}},
    ],
    ids=["full", "congruence", "density"],
)
def test_ranks_over_the_limit_exit_2_naming_it(tmp_path, capsys, cfg):
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:").strip()
    shown = cfg["rank"] if cfg["rank"] <= 10**18 else "more than 10^18"
    assert err == f"limit: rank = {shown}, over the limit of {RANK_LIMIT}"


def test_a_full_set_of_rank_10_30_is_refused_without_forming_its_count(tmp_path):
    # 3**(10**30) never finished: the run goes to a child process with a timeout
    cfg = {"experiment": "volume-spectrum", "rank": 10**30, "window": 1, "set": {"kind": "full"}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    env = {**os.environ, "PYTHONPATH": str(Path(latspec.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "latspec.cli", "volume-spectrum", "--config", str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 2
    assert done.stderr.strip() == f"limit: rank = more than 10^18, over the limit of {RANK_LIMIT}"


def test_a_decompose_run_leaves_numpy_ma_unimported(tmp_path):
    # FiniteSystem.measure used to count a set with a bare np.unique, whose
    # lazy import of numpy.ma took about 15 ms of the first request
    path = write_cfg(tmp_path, "cfg.json", _DECOMPOSE)
    script = (
        "import sys\n"
        "from latspec import cli\n"
        f"assert cli.main(['decompose', '--config', {str(path)!r}, '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(latspec.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


#: one working config per array field, and the path a refusal names
_ARRAY_FIELDS = {
    "theta": (_KRONECKER_REPORT, ["system", "theta"], "system.theta"),
    "boxes": (_KRONECKER_REPORT, ["set_b", "boxes"], "set_b.boxes"),
    "set_b-points": (_SPECTRAL_FINITE, ["set_b", "points"], "set_b.points"),
    "moduli": (_SPECTRAL_FINITE, ["system", "moduli"], "system.moduli"),
    "gens": (_SPECTRAL_FINITE, ["system", "gens"], "system.gens"),
    "windows": (_INTEGER_FIELDS["windows"][0], ["windows"], "windows"),
    "annihilator_lambdas": (_INTEGER_FIELDS["annihilator_lambdas"][0], ["annihilator_lambdas"], "annihilator_lambdas"),
    "pattern-probes": (_PATTERN, ["probes"], "probes"),
    "intersect-probes": (_INTERSECT, ["probes"], "probes"),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_FIELDS))
def test_scalars_in_array_fields_are_refused_by_name(tmp_path, capsys, name):
    # each used to end in "'int' object is not iterable", naming no field
    cfg, path, what = _ARRAY_FIELDS[name]
    assert run_cli([cfg["experiment"], "--config", write_cfg(tmp_path, "ok.json", cfg), "--out", tmp_path / "r.json"]) == 0
    capsys.readouterr()
    for value in (5, "5", 2.5, True):
        err = _refused_in_one_line(tmp_path, capsys, _set_field(cfg, path, value))
        assert err.strip() == f"config error: {what} must be a JSON array, got {json.dumps(value)}"


@pytest.mark.parametrize(
    "cfg, path, field",
    [
        # each used to run with exit 0, the misspelt trunc at the default of 64
        (_DECOMPOSE, ["colour"], "colour"),
        (_KRONECKER_REPORT, ["trnc"], "trnc"),
        ({**EX2_CFG, "ergodic_set": {"kind": "ap", "offset": 1}}, ["ergodic_set", "offest"], "ergodic_set.offest"),
        (_INTEGER_FIELDS["congruence-offset"][0], ["set", "ofset"], "set.ofset"),
    ],
    ids=["colour", "trnc", "ergodic_set.offest", "set.ofset"],
)
def test_unknown_fields_exit_2_naming_their_path(tmp_path, capsys, cfg, path, field):
    assert run_cli([cfg["experiment"], "--config", write_cfg(tmp_path, "ok.json", cfg), "--out", tmp_path / "r.json"]) == 0
    capsys.readouterr()
    err = _refused_in_one_line(tmp_path, capsys, _set_field(cfg, path, 2))
    assert err.strip() == f"config error: unknown field {field!r}"


@pytest.mark.parametrize(
    "rank, window, desc",
    [
        # each used to end in "Exceeds the limit (4300 digits) for integer string conversion"
        (2, 10**2200, {"kind": "full"}),
        (64, 10**100, {"kind": "full"}),
        # used to end in "Python int too large to convert to C ssize_t"
        (2, 10**1000, {"kind": "congruence", "modulus": 3}),
    ],
    ids=["full-window-10-2200", "full-rank-64", "congruence-modulus-3"],
)
def test_huge_windows_are_refused_naming_the_window(tmp_path, capsys, rank, window, desc):
    cfg = {"experiment": "volume-spectrum", "rank": rank, "window": window, "set": desc}
    err = _refused_in_one_line(tmp_path, capsys, cfg, "limit:").strip()
    assert err.startswith(f"limit: points of the {desc['kind']} set")
    assert err.endswith(", over the limit of 1000000")
    if desc["kind"] == "full":
        assert f"(2*window+1)^{rank} = " in err


def test_a_congruence_set_as_coarse_as_its_window_is_admitted(tmp_path):
    # three points per axis at window 10**1000: -window, 0 and window
    w = 10**1000
    cfg = {"experiment": "volume-spectrum", "rank": 2, "window": w, "set": {"kind": "congruence", "modulus": w}}
    out = tmp_path / "r.json"
    assert run_cli(["volume-spectrum", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", out]) == 0
    assert json.loads(out.read_text())["results"]["point_count"] == 9


@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_a_hard_failure_exits_1_in_one_line(tmp_path, capsys, monkeypatch, error):
    def broken(c, seed):
        raise error("the library contradicted itself")

    monkeypatch.setitem(cli._RUNNERS, "expand-scan", broken)
    assert run_cli(["expand-scan", "--config", write_cfg(tmp_path, "c.json", EX2_CFG)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hard failure: the library contradicted itself\n"


def test_verify_only_needs_out(tmp_path, capsys):
    assert run_cli(["expand-scan", "--config", write_cfg(tmp_path, "c.json", EX2_CFG), "--verify-only"]) == 2
    assert capsys.readouterr().err == "config error: --verify-only needs --out pointing at the report\n"


def test_verify_only_refuses_a_report_of_another_experiment(tmp_path, capsys):
    # a volume-spectrum report without ap_max holds no witness: a density
    # replay of it used to exit 0 having checked nothing
    vol = {"experiment": "volume-spectrum", "rank": 2, "window": 2, "set": {"kind": "full"}}
    out = tmp_path / "vol.json"
    assert run_cli(["volume-spectrum", "--config", write_cfg(tmp_path, "v.json", vol), "--out", out]) == 0
    capsys.readouterr()
    density = write_cfg(tmp_path, "d.json", {"experiment": "density", "rank": 2, "set": {"kind": "full"}, "windows": [1]})
    assert run_cli(["density", "--config", density, "--out", out, "--verify-only"]) == 2
    assert capsys.readouterr().err == "config error: the report is of experiment \"volume-spectrum\", not 'density'\n"


def test_verify_only_refuses_a_report_of_another_config(tmp_path, capsys):
    # the replay used to read the report's own config and ignore --config:
    # a congruence config passed against a report of the full grid
    full = {"experiment": "density", "rank": 2, "set": {"kind": "full"}, "windows": [1, 2]}
    out = tmp_path / "r.json"
    assert run_cli(["density", "--config", write_cfg(tmp_path, "a.json", full), "--out", out]) == 0
    capsys.readouterr()
    other = {**full, "set": {"kind": "congruence", "modulus": 2}, "windows": [3]}
    assert run_cli(["density", "--config", write_cfg(tmp_path, "b.json", other), "--out", out, "--verify-only"]) == 2
    assert capsys.readouterr().err == "config error: the report was made from another config than --config\n"


def test_verify_only_refuses_a_report_of_another_seed(tmp_path, capsys):
    # --seed used to be ignored by a replay, which took the report's seed
    cfg = write_cfg(tmp_path, "d.json", {"experiment": "density", "rank": 2, "set": {"kind": "random", "density": "1/2"}, "windows": [3]})
    out = tmp_path / "r.json"
    assert run_cli(["density", "--config", cfg, "--out", out, "--seed", 1]) == 0
    capsys.readouterr()
    assert run_cli(["density", "--config", cfg, "--out", out, "--verify-only", "--seed", 5]) == 2
    assert capsys.readouterr().err == "config error: the report was made with seed 1, not --seed 5\n"
    assert run_cli(["density", "--config", cfg, "--out", out, "--verify-only", "--seed", 1]) == 0
    assert run_cli(["density", "--config", cfg, "--out", out, "--verify-only"]) == 0


def test_a_config_for_another_experiment_is_refused(tmp_path, capsys):
    cfg = {**_DECOMPOSE, "experiment": "spectral-report"}
    assert run_cli(["decompose", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert capsys.readouterr().err == "config error: config 'experiment' does not match the subcommand\n"


def test_a_report_on_stdout_is_the_out_body(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", EX2_CFG)
    out = tmp_path / "r.json"
    assert run_cli(["expand-scan", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert run_cli(["expand-scan", "--config", cfg]) == 0
    printed = capsys.readouterr().out

    def blanked(text):
        return re.sub(r'"(generated_at|elapsed_seconds)": [^\n]*?(,?)\n', r'"\1": null\2\n', text)

    assert blanked(printed) == blanked(out.read_text())
    assert blanked(printed) != printed


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({**_SPECTRAL_FINITE, "system": {"kind": "finite", "rank": 2, "moduli": [4]}}, "finite system needs 'matrix' or 'rank' + 'moduli' + 'gens'"),
        ({**_KRONECKER_REPORT, "set_b": {"kind": "elements", "points": [[0]]}}, "set_b.kind must be one of 'boxes', got \"elements\""),
        (
            {**_SPECTRAL_FINITE, "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"]]]}},
            "set_b.kind must be one of 'elements', 'preimages', got \"boxes\"",
        ),
    ],
    ids=["finite-without-generators", "kronecker-elements", "finite-boxes"],
)
def test_a_system_and_set_that_do_not_fit_are_refused(tmp_path, capsys, cfg, message):
    assert _refused_in_one_line(tmp_path, capsys, cfg).strip() == f"config error: {message}"


_SIX_SQUARED = {"system": {"kind": "finite", "matrix": [[6, 0], [0, 6]]}, "set_b": {"kind": "elements", "points": [[0, 0], [1, 2]]}}
_GRID = {"rank": 2, "window": 3, "set": {"kind": "full"}, "p": 2, "probes": [[[1, 0]]]}
_SAMPLE = {**_SIX_SQUARED, "p": 2, "probes": [[[1, 0]]]}


#: configs with an array of another length, a field their kind never reads or two
#: fields that exclude each other; each used to run, fail its verdict or be refused
#: without naming its field
@pytest.mark.parametrize(
    "experiment, cfg, line",
    [
        pytest.param("spectral-report", {**_SIX_SQUARED, "trunc": 7}, "unknown field 'trunc'", id="finite-trunc"),
        pytest.param(
            "spectral-report", {**_SIX_SQUARED, "annihilator_lambdas": [[0, 1, 2]]}, "unknown field 'annihilator_lambdas'",
            id="finite-annihilator-lambdas",
        ),
        pytest.param("spectral-report", {**_KRONECKER_REPORT, "lambda_bound": 2}, "unknown field 'lambda_bound'", id="kronecker-lambda-bound"),
        pytest.param(
            "pattern-search", {**_GRID, "probes": [[[1, 0, 0]]]}, "probes[0][0] has 3 entries, expected rank 2", id="pattern-probe-vector"
        ),
        pytest.param("pattern-search", {**_GRID, "p": 3}, "probes[0] has 1 entry, expected p-1 2", id="pattern-probe-count"),
        pytest.param(
            "volume-spectrum", {"rank": 2, "window": 3, "set": {"kind": "explicit", "points": [[0, 0], [1, 2, 3]]}},
            "set.points[1] has 3 entries, expected rank 2", id="explicit-point",
        ),
        pytest.param(
            "volume-spectrum", {"rank": 2, "window": 3, "set": {"kind": "congruence", "modulus": 2, "offset": [1, 0, 0]}},
            "set.offset has 3 entries, expected rank 2", id="congruence-offset",
        ),
        pytest.param(
            "density", {"rank": 2, "windows": [1], "set": {"kind": "union", "parts": [{"kind": "translate", "base": {"kind": "full"}, "offset": [1]}]}},
            "set.parts[0].offset has 1 entry, expected rank 2", id="translate-offset",
        ),
        pytest.param(
            "intersect", {**_SAMPLE, "haystack": {"multipliers": [2, 3, 5], "count": 8}},
            "haystack.multipliers has 3 entries, expected system.rank 2", id="intersect-multipliers",
        ),
        pytest.param(
            "decompose", {**_SIX_SQUARED, "sublattice": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]},
            "sublattice has 3 entries, expected system.rank 2", id="sublattice",
        ),
        pytest.param(
            "intersect", {**_SAMPLE, "haystack": {"basis": [[1, 0, 0], [0, 1, 0]]}},
            "haystack.basis[0] has 3 entries, expected system.rank 2", id="intersect-basis",
        ),
        pytest.param(
            "haystack-verify", {"rank": 2, "multipliers": [2, 3], "count": 4, "basis": [[1, 0, 0], [0, 1, 0]]},
            "basis[0] has 3 entries, expected rank 2", id="haystack-basis",
        ),
        pytest.param("haystack-verify", {"rank": 2, "vectors": [[1, 2, 3]]}, "vectors[0] has 3 entries, expected rank 2", id="vectors"),
        pytest.param(
            "intersect", {**_SAMPLE, "probes": [[[1, 0, 0]]]}, "probes[0][0] has 3 entries, expected system.rank 2", id="intersect-probe"
        ),
        pytest.param(
            "spectral-report", {**_KRONECKER_REPORT, "system": {**_KRONECKER_2, "theta": [[{"symbols": {"alpha": "1"}}, "1/3", "0"]]}},
            "system.theta[0] has 3 entries, expected rank 2", id="theta",
        ),
        pytest.param(
            "spectral-report", {**_KRONECKER_REPORT, "set_b": {"kind": "boxes", "boxes": [[["0", "1/2"], ["0", "1/2"]]]}},
            "set_b.boxes[0] has 2 entries, expected system.dim 1", id="box-dim",
        ),
        pytest.param(
            "spectral-report", {**_KRONECKER_REPORT, "set_b": {"kind": "boxes", "boxes": [[["0", "1/4", "1/2"]]]}},
            "set_b.boxes[0][0] has 3 entries, expected 2", id="box-interval",
        ),
        pytest.param(
            "pattern-search", {**_GRID, "bounds": {"multipliers": [2, 3, 5]}}, "bounds.multipliers has 3 entries, expected rank 2",
            id="bounds-multipliers",
        ),
        pytest.param(
            "haystack-verify", {"rank": 1, "multipliers": [2, 3], "count": 4}, "multipliers has 2 entries, expected rank 1",
            id="haystack-multipliers",
        ),
        pytest.param(
            "spectral-report", {**_KRONECKER_REPORT, "annihilator_lambdas": [[0, 1], [0, 1, 2]]},
            "annihilator_lambdas[1] has 3 entries, expected system.rank 2", id="annihilator-lambda",
        ),
        pytest.param(
            "spectral-report", {"system": {"kind": "finite", "matrix": [[6]]}, "set_b": {"kind": "elements", "points": [[0], [1, 2]]}},
            "set_b.points[1] has 2 entries, expected len(system.moduli) 1", id="element",
        ),
        pytest.param(
            "decompose", {**_SIX_SQUARED, "set_b": {"kind": "preimages", "points": [[1, 2, 3]]}},
            "set_b.points[0] has 3 entries, expected system.rank 2", id="preimage",
        ),
        pytest.param(
            "haystack-verify", {"rank": 2, "vectors": [[1, 2], [3, 5]], "multipliers": [2, 3], "count": 9, "basis": [[1, 0], [0, 1]]},
            "vectors and multipliers exclude each other", id="vectors-and-prefix",
        ),
        pytest.param(
            "spectral-report",
            {"system": {"kind": "finite", "matrix": [[6, 0], [0, 6]], "rank": 1, "moduli": [5], "gens": [[1]]}, "set_b": {"kind": "elements", "points": [[0, 0]]}},
            "system.matrix and system.rank exclude each other", id="matrix-and-parts",
        ),
    ],
)
def test_fields_of_another_shape_or_unread_are_refused_by_path(tmp_path, capsys, experiment, cfg, line):
    assert _refused_in_one_line(tmp_path, capsys, {"experiment": experiment, **cfg}) == f"config error: {line}\n"


@pytest.mark.parametrize("experiment, cfg", [("pattern-search", {**_GRID, "p": 0}), ("intersect", {**_SAMPLE, "p": 1})])
def test_a_p_below_2_is_refused_as_such_not_as_a_probe_length(tmp_path, capsys, experiment, cfg):
    assert _refused_in_one_line(tmp_path, capsys, {"experiment": experiment, **cfg}) == "config error: p must be at least 2\n"


def test_an_element_has_one_coordinate_per_invariant_factor_above_1(tmp_path, capsys):
    # Z^2 / diag(1, 6) is Z/6: its elements have one coordinate, not the matrix's two
    cfg = {"experiment": "spectral-report", "system": {"kind": "finite", "matrix": [[1, 0], [0, 6]]}, "set_b": {"kind": "elements", "points": [[0], [1]]}}
    assert run_cli(["spectral-report", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
    capsys.readouterr()
    cfg["set_b"]["points"] = [[0, 0]]
    assert _refused_in_one_line(tmp_path, capsys, cfg) == "config error: set_b.points[0] has 2 entries, expected len(system.moduli) 1\n"


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "spectral-report", **_SIX_SQUARED},
        {"experiment": "decompose", **_SIX_SQUARED},
        {"experiment": "intersect", **_SAMPLE},
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 4},
        {"experiment": "pattern-search", **_GRID},
    ],
    ids=lambda cfg: cfg["experiment"],
)
def test_csv_without_tabular_output_is_refused_before_the_run(tmp_path, capsys, monkeypatch, cfg):
    # a spectral-report used to run and write its --out report before this refusal
    monkeypatch.setitem(cli._RUNNERS, cfg["experiment"], lambda c, seed: pytest.fail("the runner started"))
    out, table = tmp_path / "r.json", tmp_path / "t.csv"
    assert run_cli([cfg["experiment"], "--config", write_cfg(tmp_path, "c.json", cfg), "--out", out, "--csv", table]) == 2
    assert capsys.readouterr().err == "config error: this experiment has no tabular output for --csv\n"
    assert not out.exists() and not table.exists()


@pytest.mark.parametrize(
    "error, line, code",
    [
        (OverflowError("int too large"), "hard failure: OverflowError: int too large", 1),
        (TypeError("unsupported operand"), "hard failure: TypeError: unsupported operand", 1),
        (IndexError("list index out of range"), "hard failure: IndexError: list index out of range", 1),
        (ZeroDivisionError("division by zero"), "hard failure: ZeroDivisionError: division by zero", 1),
        (cli.ConfigError("a malformed field"), "config error: a malformed field", 2),
        (ValueError("a malformed field"), "config error: a malformed field", 2),
        (cli.LimitError("points = 9, over the limit of 8"), "limit: points = 9, over the limit of 8", 2),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_library_faults_are_hard_failures_naming_their_type(tmp_path, capsys, monkeypatch, error, line, code):
    # an OverflowError or a TypeError used to read as a config error (exit 2), an IndexError as a traceback
    def broken(c, seed):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "expand-scan", broken)
    assert run_cli(["expand-scan", "--config", write_cfg(tmp_path, "c.json", EX2_CFG)]) == code
    assert capsys.readouterr().err == f"{line}\n"


#: a rational field given a number past the float range, which JSON reads as inf
@pytest.mark.parametrize(
    "cfg, path",
    [
        (_INTEGER_FIELDS["random-seed"][0], ["set", "density"]),
        (_DECOMPOSE, ["eps_o"]),
        (_KRONECKER_REPORT, ["set_b", "boxes", 0, 0, 1]),
        (_KRONECKER_REPORT, ["system", "theta", 0, 1]),
    ],
    ids=["density", "eps_o", "box-endpoint", "theta"],
)
def test_an_infinite_rational_is_a_config_error(tmp_path, capsys, cfg, path):
    # Fraction(inf) raises an OverflowError, which used to end as a hard failure (exit 1)
    text = json.dumps(_set_field(cfg, path, "INFINITE")).replace('"INFINITE"', "1e400")
    config = tmp_path / "cfg.json"
    config.write_text(text)
    assert run_cli([cfg["experiment"], "--config", config]) == 2
    assert capsys.readouterr().err == "config error: cannot parse rational from inf\n"


_PATTERN_GRID = {"experiment": "pattern-search", **_GRID}


@pytest.mark.parametrize(
    "cfg, report, line",
    [
        (_PATTERN_GRID, lambda r: [], "the report must be a JSON object, got []"),
        (_PATTERN_GRID, lambda r: {**r, "results": []}, "the report's results must be a JSON object, got []"),
        (
            _PATTERN_GRID, lambda r: {**r, "results": {**r["results"], "witnesses": 5}},
            "the report's results are not those of pattern-search: TypeError: 'int' object is not iterable",
        ),
        (
            EX2_CFG, lambda r: {**r, "results": {**r["results"], "argmax_lambda": [float("inf"), 0]}},
            "the report's results are not those of expand-scan: OverflowError: cannot convert float infinity to integer",
        ),
    ],
    ids=["report-list", "results-list", "witnesses-int", "lambda-inf"],
)
def test_a_report_of_another_shape_is_a_config_error(tmp_path, capsys, cfg, report, line):
    # the replay indexed these and ended as a hard failure naming TypeError or OverflowError (exit 1)
    config, out = write_cfg(tmp_path, "cfg.json", cfg), tmp_path / "report.json"
    assert run_cli([cfg["experiment"], "--config", config, "--out", out]) in (0, 1)
    out.write_text(json.dumps(report(json.loads(out.read_text()))))
    capsys.readouterr()
    assert run_cli([cfg["experiment"], "--config", config, "--out", out, "--verify-only"]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


_HUGE = list(range(200_000))


@pytest.mark.parametrize(
    "cfg, report",
    [
        (_HUGE, None),
        ({**_PATTERN_GRID, "window": _HUGE}, None),
        ({**_PATTERN_GRID, "bounds": _HUGE}, None),
        ({**_PATTERN_GRID, "set": {"kind": _HUGE}}, None),
        ({**_PATTERN_GRID, "probes": {"huge": _HUGE}}, None),
        ({**_PATTERN_GRID, "x" * 200_000: 1}, None),
        ({"experiment": "decompose", **_SIX_SQUARED, "eps_o": _HUGE}, None),
        (_PATTERN_GRID, lambda r: _HUGE),
        (_PATTERN_GRID, lambda r: {**r, "experiment": _HUGE}),
    ],
    ids=["config", "integer", "object", "kind", "array", "field-name", "rational", "report", "report-experiment"],
)
def test_a_huge_value_is_quoted_by_a_short_prefix(tmp_path, capsys, cfg, report):
    # the whole value used to be quoted: a 200 000-entry list made a 1.49 MB line
    experiment = cfg["experiment"] if isinstance(cfg, dict) else "volume-spectrum"
    config, out = write_cfg(tmp_path, "cfg.json", cfg), tmp_path / "report.json"
    args = [experiment, "--config", config, "--out", out]
    if report:
        assert run_cli(args) in (0, 1)
        out.write_text(json.dumps(report(json.loads(out.read_text()))))
        capsys.readouterr()
        args.append("--verify-only")
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "volume-spectrum", "rank": 2, "window": 2, "set": {"kind": "full"}},
        _PATTERN_GRID,
        EX2_CFG,
        {"experiment": "spectral-report", **_SIX_SQUARED},
        _KRONECKER_REPORT,
        {"experiment": "decompose", **_SIX_SQUARED},
        {"experiment": "intersect", **_SAMPLE},
        {"experiment": "haystack-verify", "rank": 2, "multipliers": [2, 3], "count": 4},
        {"experiment": "density", "rank": 2, "set": {"kind": "full"}, "windows": [1, 2]},
    ],
    ids=lambda cfg: cfg["experiment"] + ("-kronecker" if cfg.get("system", {}).get("kind") == "kronecker" else ""),
)
def test_the_runners_with_csv_rows_are_those_of_tabular(cfg):
    # --csv is refused before the run for every experiment outside TABULAR
    _, _, rows, header = cli._RUNNERS[cfg["experiment"]](cli.read_config(cfg["experiment"], cfg), None)
    assert (rows is not None) == (header is not None) == (cfg["experiment"] in cli.TABULAR)
