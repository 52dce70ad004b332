"""Tests of the benchmark itself: inputs, span arithmetic and output checks."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from latspec.lattice import sublattice  # noqa: E402
from latspec.systems import finite_system  # noqa: E402
from latspec.volume import build_point_set  # noqa: E402
from perfbench import harness, tracing, workloads  # noqa: E402


def _configs(workload, seed, rounds, size="full"):
    return [r.config for rnd in workloads.generate(workload, seed, rounds, size) for r in rnd]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(workload):
    assert _configs(workload, 7, 2) == _configs(workload, 7, 2)
    assert _configs(workload, 7, 2) != _configs(workload, 8, 2)
    # a longer run extends the shorter one's list without changing it
    assert _configs(workload, 7, 3)[: len(_configs(workload, 7, 2))] == _configs(workload, 7, 2)


def _canonical_input(req):
    """The input as the program sees it, independent of how it was drawn."""
    cfg = req.config
    if req.experiment in ("volume-spectrum", "pattern-search"):
        return ("points", build_point_set(cfg["set"], cfg["rank"], cfg["window"]).points)
    if req.experiment == "density":
        return ("points", tuple(build_point_set(cfg["set"], cfg["rank"], w).points for w in cfg["windows"]))
    if req.experiment == "haystack-verify":
        return ("haystack", json.dumps(cfg, sort_keys=True))
    system = cfg["system"]
    if system["kind"] == "kronecker":
        return ("kronecker", json.dumps(system, sort_keys=True), json.dumps(cfg["set_b"]))
    sys_ = finite_system(sublattice(system["matrix"]))
    return ("finite", sys_, frozenset(sys_.phi(p) for p in cfg["set_b"]["points"]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_input_repeats_within_a_run(workload):
    requests = [r for rnd in workloads.generate(workload, 3, 4) for r in rnd]
    seen = [_canonical_input(r) for r in requests]
    assert len(set(seen)) == len(seen)


def test_finite_sets_are_a_third_of_the_carrier():
    for req in (r for rnd in workloads.generate("finite-reports", 3, 1) for r in rnd):
        if "set_b" in req.config:
            _, sys_, b = _canonical_input(req)
            assert sys_.size == req.expect["A"] and len(b) == req.expect["B"] == sys_.size // 3


def test_self_time_arithmetic_on_a_hand_built_tree():
    # (name, start, end, parent, request, hook_s)
    spans = [
        ("cli.main", 0.0, 10.0, None, "r", 0.5),           # 0
        ("spectral.expansion_bound_check", 1.0, 6.0, 0, "r", 0.0),  # 1
        ("systems.orbit_saturation", 2.0, 3.0, 1, "r", 0.0),  # 2
        ("systems.orbit_saturation", 3.0, 4.5, 1, "r", 0.0),  # 3
        ("systems.orbit_saturation", 7.0, 8.0, 0, "r", 0.0),  # 4
        ("volume.build_point_set", 20.0, 24.0, None, "s", 0.0),  # 5
        ("volume.build_point_set", 21.0, 22.0, 5, "s", 0.0),   # 6: recursion
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.5, 1.0, 1.5, 1.0, 3.0, 1.0])
    inclusive = tracing.inclusive_times(spans)
    assert inclusive["systems.orbit_saturation"] == pytest.approx(3.5)
    assert inclusive["volume.build_point_set"] == pytest.approx(4.0)  # nested call counted once
    metrics = tracing.layer_metrics(spans, dict.fromkeys(tracing.COUNTERS, 0))
    assert metrics["cli.self_s"] == pytest.approx(3.5)
    assert metrics["spectral.self_s"] == pytest.approx(2.5)
    assert metrics["systems.self_s"] == pytest.approx(3.5)
    assert metrics["volume.self_s"] == pytest.approx(4.0)
    assert metrics["systems.orbit_saturation_calls"] == 3
    # self times partition the root spans' time, less the tracer's own
    roots = sum(end - start for _, start, end, parent, _, _ in spans if parent is None)
    assert sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(roots - 0.5)


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [
        ("cli.main", 0.0, 10.0, None, "r", 0.0),
        ("lattice.snf", 1.0, 5.0, 0, "r", 0.0),
        ("lattice.hnf", 4.0, 6.0, 0, "r", 0.0),
        ("lattice.hnf", 9.0, 12.0, 0, "r", 0.0),  # clipped to the parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tail_latency_keeps_ten_requests_beyond_it():
    lat = [float(i) for i in range(1, 101)]
    assert harness.tail_latency(lat) == (90.0, 90.0, 100)
    assert harness.tail_latency([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_output_checks(workload, trace, tmp_path):
    for seed in (harness.DEFAULT_SEED, harness.DEFAULT_SEED):  # the same digests twice
        result = harness.run_workload(workload, seed, 1, trace, size="tiny", results_dir=tmp_path)
        report = json.loads((tmp_path / f"BENCH_{workload}{'_trace' if trace else ''}.json").read_text())
        assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["metadata"]["seed"] == harness.DEFAULT_SEED
    assert set(report["metadata"]) >= {"python", "numpy", "kernel_backend", "nproc", "cpu_model", "git_commit"}
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == list(expected)
    if workload == "volume" and not trace:
        assert any(r.get("cross_checked") for r in report["requests"])
    if trace:
        assert all(r.get("replayed") for r in report["requests"] if r["experiment"] != "expansion_bound_check")


def test_trace_counts_saturations_and_spectra(tmp_path):
    scan = harness.run_workload("expand-scan", 5, 1, True, size="tiny", results_dir=tmp_path)["metrics"]
    assert scan["systems.orbit_saturation_calls"] == 3 * scan["cli.expand_scan_candidates"]
    assert 0 < scan["systems.orbit_saturation_distinct"] < scan["systems.orbit_saturation_calls"]
    vol = harness.run_workload("volume", 5, 1, True, size="tiny", results_dir=tmp_path)["metrics"]
    # every request of a traced run is served traced once
    traced = workloads.generate("volume", 5, 1, "tiny")[0]
    spectrum_requests = sum(r.experiment == "volume-spectrum" for r in traced)
    # a request with ap_max computes the spectrum a second time inside ap_certificate
    assert vol["volume.ap_certificate_calls"] >= 1
    assert vol["volume.volume_spectrum_calls"] == spectrum_requests + vol["volume.ap_certificate_calls"]
    assert vol["kernels.python_path_calls"] >= 1  # the explicit large-coordinate set


def test_tracer_leaves_the_package_as_it_found_it():
    import latspec.cli
    import latspec.systems

    before = (latspec.cli.orbit_saturation, latspec.systems.orbit_saturation, latspec.cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert latspec.systems.orbit_saturation is not before[1]
        assert latspec.cli.orbit_saturation is latspec.systems.orbit_saturation
    finally:
        tracer.uninstall()
    assert (latspec.cli.orbit_saturation, latspec.systems.orbit_saturation, latspec.cli.main) == before


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER
