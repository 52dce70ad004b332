"""Runs one workload as a closed loop with one client and checks every output.

Each request is one call of ``latspec.cli.main`` on a generated config file
(``--threads 1``), or, where the CLI has no subcommand, one call of a public
library function.  The next request starts when the previous one returns.

The request list is served in several passes.  Every package ``lru_cache`` is
cleared before each serving, so every serving does the work of a fresh CLI
process, and a request's latency is the fastest of its servings: the one a
shared host disturbed least.  Outputs are checked after the timed loop, so
latencies hold only the program's own work.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from latspec import cli, kernels, spectral
from latspec.formal import FormalReal
from latspec.systems import BoxUnion, kronecker_system

from . import tracing, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
#: Simplex count up to which a volume-spectrum request is replayed on the
#: exact Python kernel path and compared with the default backend.
CROSS_CHECK_SIMPLICES = 6000
SETUP_REPEATS = 5
#: An end-to-end run (``--trace 0``) of S seconds serves every request in
#: up to round(S / SECONDS_PER_PASS) passes, at least two, and starts no pass
#: that would end after S seconds; a traced run serves each request twice,
#: once traced and once not.
SECONDS_PER_PASS = 6.25
#: Each serving starts at a quiet moment of the host: the harness first runs
#: a fixed pure-Python probe of about a millisecond until one takes at most
#: QUIET times the fastest probe of the run, or QUIET_TRIES probes have run.
#: On a shared host a probe's time predicts how much the next ~100 ms of work
#: is slowed by the other tenants; the gate costs a few ms per serving.
QUIET = 1.4
QUIET_TRIES = 12
CALIBRATION_PROBES = 200

#: name -> (unit, better); the order is the order of the printed table
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in tracing.LAYERS},
    "kernels.distinct_abs_dets_s": ("s", "lower"),
    "kernels.find_det_witnesses_s": ("s", "lower"),
    "kernels.simplices": ("count", "lower"),
    "kernels.simplices_per_s": ("1/s", "higher"),
    "kernels.python_path_calls": ("count", "lower"),
    "volume.volume_spectrum_calls": ("count", "lower"),
    "volume.ap_certificate_calls": ("count", "lower"),
    "volume.ap_certificate_s": ("s", "lower"),
    "volume.pattern_search_s": ("s", "lower"),
    "volume.build_point_set_s": ("s", "lower"),
    "spectral.spectral_measure_s": ("s", "lower"),
    "spectral.spectral_measure_calls": ("count", "lower"),
    "spectral.atoms": ("count", "lower"),
    "spectral.interval_atoms": ("count", "lower"),
    "spectral.verify_bochner_s": ("s", "lower"),
    "spectral.shrink_rational_spectrum_s": ("s", "lower"),
    "spectral.intersection_theorem_search_s": ("s", "lower"),
    "spectral.cache_hit_ratio": ("ratio", "higher"),
    "systems.orbit_saturation_s": ("s", "lower"),
    "systems.orbit_saturation_calls": ("count", "lower"),
    "systems.orbit_saturation_distinct": ("count", "lower"),
    "spectral.expansion_bound_check_s": ("s", "lower"),
    "spectral.annihilator_mass_s": ("s", "lower"),
    "systems.max_directional_expansion_s": ("s", "lower"),
    "systems.finite_system_s": ("s", "lower"),
    "systems.ergodic_components_s": ("s", "lower"),
    "lattice.sublattice_s": ("s", "lower"),
    "lattice.snf_s": ("s", "lower"),
    "haystack.make_haystack_s": ("s", "lower"),
    "haystack.verify_haystack_sample_s": ("s", "lower"),
    "spectral.spectral_measure_kronecker_s": ("s", "lower"),
    "spectral.kronecker_atoms": ("count", "lower"),
    "systems.kronecker_orbit_saturation_s": ("s", "lower"),
    "cli.requests": ("count", "lower"),
    "cli.expand_scan_candidates": ("count", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# ---------------------------------------------------------------------------
# statistics


def pass_count(seconds: float) -> int:
    return max(2, round(seconds / SECONDS_PER_PASS))


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, sample count) at the highest percentile that
    still has at least 10 requests beyond it.  With 10 requests or fewer no
    percentile qualifies, and the lowest latency is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(1, n - 10)
    return ordered[k - 1], 100.0 * k / n, n


def input_digest(req) -> str:
    return canonical_digest({"experiment": req.experiment, "config": req.config})


def canonical_digest(body) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# executing requests


class _Library:
    """A library-call request with its arguments built before timing."""

    def __init__(self, req: workloads.Request) -> None:
        cfg = req.config
        theta = [[_formal(e) for e in row] for row in cfg["system"]["theta"]]
        self.system = kronecker_system(cfg["system"]["rank"], cfg["system"]["dim"], theta)
        self.boxes = BoxUnion.of(
            *[[(Fraction(lo), Fraction(hi)) for lo, hi in box] for box in cfg["set_b"]["boxes"]]
        )
        self.lam = tuple(cfg["lambda"])


def _formal(entry) -> FormalReal:
    if isinstance(entry, str):
        return FormalReal.of(Fraction(entry))
    terms = tuple((name, Fraction(c)) for name, c in sorted(entry.get("symbols", {}).items()))
    return FormalReal(Fraction(entry.get("rational", "0")), terms)


def _weight(w) -> list:
    return [str(w.lower), str(w.upper), bool(w.exact)]


class Run:
    """One workload run: set-up, timed rounds, output checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", results_dir: Path = RESULTS) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.results_dir = Path(results_dir)
        self.rounds = workloads.round_count(size)
        self.passes = pass_count(seconds)
        self.failures: dict[str, str] = {}
        self.records: dict[str, dict] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Generate configs and the temporary directory; returns the median
        of SETUP_REPEATS set-ups (only the first one is kept)."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        times = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.results_dir))
            rounds = workloads.generate(self.workload, self.seed, self.rounds, self.size)
            library = {}
            for req in (r for rnd in rounds for r in rnd):
                if req.is_cli:
                    (tmp / _fname(req, "cfg.json")).write_text(json.dumps(req.config))
                else:
                    library[req.id] = _Library(req)
            times.append(time.perf_counter() - start)
            if i == 0:
                self.tmp, self.round_list, self.library = tmp, rounds, library
            else:
                shutil.rmtree(tmp)
        return statistics.median(times)

    def cleanup(self) -> None:
        if getattr(self, "tmp", None) is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    # -- the closed loop ---------------------------------------------------

    def _args(self, req, serving=0, verify=False) -> list[str]:
        args = [req.experiment, "--config", str(self.tmp / _fname(req, "cfg.json")),
                "--out", str(self.tmp / _fname(req, f"out{serving}.json")), "--threads", "1"]
        if verify:
            args.append("--verify-only")
        elif req.csv:
            args += ["--csv", str(self.tmp / _fname(req, f"out{serving}.csv"))]
        return args

    def _execute(self, req, serving: int, tracer=None) -> float:
        """Serve one request cold; record exit code and library result.
        Returns the latency."""
        rec = self.records.setdefault(
            req.id, {"id": req.id, "experiment": req.experiment, "size": req.size,
                     "rc": [], "latencies_s": [], "results": []})
        for fn in self.caches.values():
            fn.cache_clear()
        gc.collect()
        self._wait_quiet()
        if tracer is not None:
            tracer.request = req.id
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                if req.is_cli:
                    rc = cli.main(self._args(req, serving))
                else:
                    lib = self.library[req.id]
                    rec["results"].append(spectral.expansion_bound_check(lib.system, lib.boxes, lib.lam))
                    rc = 0
            except (Exception, SystemExit) as exc:  # the loop must go on; the request failed
                rc = None
                rec.setdefault("error", f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec["rc"].append(rc)
        rec["latencies_s"].append(latency)
        rec["latency_s"] = min(rec["latencies_s"])
        return latency

    def _wait_quiet(self) -> None:
        gate = self.gate
        gate["waits"] += 1
        for _ in range(QUIET_TRIES):
            t = _probe()
            gate["probes"] += 1
            gate["best_probe_s"] = min(gate["best_probe_s"], t)
            if t <= QUIET * gate["best_probe_s"]:
                return
        gate["timeouts"] += 1

    def serve(self) -> dict:
        """Serve every request in every pass; returns the run's timing facts."""
        requests = [r for rnd in self.round_list for r in rnd]
        self.caches = tracing.lru_caches()
        self.gate = {"waits": 0, "probes": 0, "timeouts": 0,
                     "best_probe_s": min(_probe() for _ in range(CALIBRATION_PROBES))}
        # objects alive before the loop are left out of every collection in
        # it, so the collection before each serving is short
        gc.collect()
        gc.freeze()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                return self._traced(requests) if self.trace else self._timed(requests)
        finally:
            gc.unfreeze()

    def _timed(self, requests) -> dict:
        loop_s = 0.0
        self.import_times = []
        run_start = time.perf_counter()
        for serving in range(self.passes):
            # a slow host must not stretch the run: its passes take longer
            elapsed = time.perf_counter() - run_start
            if serving >= 2 and elapsed * (serving + 1) / serving > self.seconds:
                self.passes = serving
                break
            start = time.perf_counter()
            for req in requests:
                self._execute(req, serving)
            loop_s += time.perf_counter() - start
            # the import part of set-up is timed between passes, so that its
            # samples span the run as the servings do
            self._wait_quiet()
            self.import_times.append(import_seconds())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"loop_s": loop_s, "peak_rss_mb": rss_mb, "requests": requests}

    def _traced(self, requests) -> dict:
        """Every request is served once untraced and once traced; which comes
        first alternates from request to request, so warm-up and drift fall
        on both sides."""
        self.tracer = tracing.Tracer()
        untraced = traced = 0.0
        cache_stats = {name: {"hits": 0, "misses": 0} for name in self.caches}
        for serving in range(2):
            for i, req in enumerate(requests):
                if (i + serving) % 2 == 0:
                    untraced += self._execute(req, serving)
                    continue
                traced += self._execute(req, serving, self.tracer)
                # the caches were cleared before this serving
                for name, fn in self.caches.items():
                    info = fn.cache_info()
                    cache_stats[name]["hits"] += info.hits
                    cache_stats[name]["misses"] += info.misses
        return {
            "traced_wall_s": traced,
            "untraced_wall_s": untraced,
            "cache_stats": cache_stats,
            "requests": requests,
        }

    # -- output checks -----------------------------------------------------

    def fail(self, req, reason: str) -> None:
        self.failures.setdefault(req if isinstance(req, str) else req.id, reason)

    def check(self, requests) -> None:
        """Exit code, verdicts, expected facts and a digest per request."""
        for req in requests:
            rec = self.records[req.id]
            bad = [rc for rc in rec["rc"] if rc != 0]
            if bad:
                self.fail(req, rec.get("error") or f"exit code {bad[0]}, expected 0")
                continue
            try:
                digests = {canonical_digest(self._body(req, rec, s)) for s in range(len(rec["rc"]))}
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.fail(req, f"output check: {type(exc).__name__}: {exc}")
                continue
            if len(digests) != 1:
                self.fail(req, "servings of the same request gave different bodies")
                continue
            rec["digest"] = digests.pop()
        if self.workload == "volume":
            self._cross_check(requests)
        self._check_digests(requests)

    def _body(self, req, rec, serving: int) -> dict:
        """The checked body of one serving's output."""
        if not req.is_cli:
            res = rec["results"][serving]
            if not res.ok or res.estimate != req.expect["estimate"]:
                raise ValueError(f"expansion check ok={res.ok} estimate={res.estimate}")
            return {
                "bound": _weight(res.bound),
                "measured": _weight(res.measured),
                "ok": res.ok,
                "applicable": res.applicable,
                "estimate": res.estimate,
                "note": res.note,
            }
        report = json.loads((self.tmp / _fname(req, f"out{serving}.json")).read_text())
        body = {"results": report["results"], "verdicts": report["verdicts"]}
        failed = [v["name"] for v in report["verdicts"] if not v["pass"]]
        if failed:
            raise ValueError(f"failed verdicts {failed}")
        _check_expected(req, report["results"], self._csv_rows(req, serving))
        if req.experiment == "volume-spectrum":
            rec["points"] = report["results"]["point_count"]
        return body

    def _csv_rows(self, req, serving: int):
        if not req.csv:
            return None
        lines = (self.tmp / _fname(req, f"out{serving}.csv")).read_text().splitlines()
        return [line.split(",") for line in lines[1:]]

    def _cross_check(self, requests) -> None:
        """Replay the small volume-spectrum requests on the exact Python
        kernel path; the report bodies must be identical."""
        previous = os.environ.get("LATSPEC_KERNELS")
        os.environ["LATSPEC_KERNELS"] = "python"
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                for req in requests:
                    rec = self.records[req.id]
                    if req.id in self.failures or "points" not in rec:
                        continue
                    if comb(rec["points"], req.config["rank"] + 1) > CROSS_CHECK_SIMPLICES:
                        continue
                    args = self._args(req)
                    args[args.index("--out") + 1] = str(self.tmp / _fname(req, "python.json"))
                    if "--csv" in args:
                        args = args[: args.index("--csv")]
                    if cli.main(args) != 0:
                        self.fail(req, "python kernel path: nonzero exit")
                        continue
                    report = json.loads((self.tmp / _fname(req, "python.json")).read_text())
                    body = {"results": report["results"], "verdicts": report["verdicts"]}
                    rec["cross_checked"] = True
                    if canonical_digest(body) != rec["digest"]:
                        self.fail(req, "python kernel path: report body differs")
        finally:
            if previous is None:
                del os.environ["LATSPEC_KERNELS"]
            else:
                os.environ["LATSPEC_KERNELS"] = previous

    def _check_digests(self, requests) -> None:
        """Output digests are keyed by a digest of the request's input.

        Default seed: every round-0 request matches the digest recorded with
        the benchmark.  Any seed: every request matches the digest of the
        same input in earlier runs in this checkout.
        """
        ledger_path = self.results_dir / "digests_seen.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        recorded = {}
        if self.seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text()).get(f"{self.workload}/{self.size}", {})
        for req in requests:
            if req.id in self.failures:
                continue
            key = input_digest(req)
            digest = self.records[req.id]["digest"]
            self.records[req.id]["input"] = key
            if self.seed == DEFAULT_SEED and req.id.startswith("0/") and req.id not in recorded:
                self.fail(req, "no digest recorded for this request of the default seed")
            elif req.id in recorded and recorded[req.id] != [key, digest]:
                self.fail(req, "input or output digest differs from the one recorded for the default seed")
            elif ledger.setdefault(key, digest) != digest:
                self.fail(req, "output digest differs from an earlier run on the same input")
        if self.seed == DEFAULT_SEED:
            for rid in recorded:
                if rid not in self.records:
                    self.fail(rid, "recorded request was not run")
        _write_json(ledger_path, ledger)

    def replay(self, requests) -> None:
        """Untimed ``--verify-only`` replay of every CLI report."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            for req in requests:
                if not req.is_cli or req.id in self.failures:
                    continue
                try:
                    rc = cli.main(self._args(req, verify=True))
                except (Exception, SystemExit) as exc:  # the replay must go on
                    rc = f"{type(exc).__name__}: {exc}"
                if rc != 0:
                    self.fail(req, f"--verify-only replay: {rc}")
                else:
                    self.records[req.id]["replayed"] = True


def _check_expected(req, results: dict, rows) -> None:
    """Facts the benchmark knows from the config it generated."""
    exp, want = req.experiment, req.expect

    def need(cond, what):
        if not cond:
            raise ValueError(what)

    if exp == "volume-spectrum":
        spectrum = results["spectrum"]
        need(all(0 < a < b for a, b in zip(spectrum, spectrum[1:])), "spectrum not increasing")
        if "point_count" in want:
            need(results["point_count"] == want["point_count"], "point count")
        if "cap" in want:
            need(not spectrum or spectrum[-1] <= want["cap"], "spectrum exceeds cap")
        if "ap_max" in req.config:
            need(results["ap_certificate"]["ok"], "no AP certificate")
        if rows is not None:
            need([int(r[0]) for r in rows] == spectrum, "CSV differs from the spectrum")
    elif exp == "pattern-search":
        need(results["ok"] and len(results["witnesses"]) == len(req.config["probes"]), "witnesses")
    elif exp == "density":
        need(results["windows"] == req.config["windows"], "density windows")
        need(all(Fraction(int(d["num"]), int(d["den"])) <= 1 for d in results["densities"]), "density > 1")
        if rows is not None:
            need(len(rows) == len(req.config["windows"]), "CSV rows")
    elif exp == "spectral-report" and results["kind"] == "finite":
        mu_b = Fraction(want["B"], want["A"])
        need(len(results["atoms"]) == want["A"], "one atom per character")
        need(cli.parse_fraction(results["mu_b"]) == mu_b, "mu(B)")
        need(results["bochner_checked"] == (2 * req.config["lambda_bound"] + 1) ** 2, "Bochner count")
    elif exp == "spectral-report":
        need(results["atom_count"] == want["atoms"], "(2K+1)^dim atoms")
        need(cli.parse_fraction(results["mu_b"]) == Fraction(want["mu_b"]), "box volume")
        need(len(results["annihilator_masses"]) == len(req.config["annihilator_lambdas"]), "masses")
    elif exp == "expand-scan":
        candidates = (2 * req.config["coord_bound"] + 1) ** 2 - 1
        need(results["candidate_count"] == candidates, "candidate count")
        if rows is not None:
            need(len(rows) == candidates, "one CSV row per candidate")
            if "ergodic_set" not in req.config:
                need(all(r[-1] == "1" for r in rows), "expansion bound fails in the CSV")
    elif exp == "decompose":
        need(len(results["components"]) == want["components"], "component count")
    elif exp == "intersect":
        need(cli.parse_fraction(results["intersection_measure"]) > 0, "intersection measure")
    elif exp == "haystack-verify":
        need(results["ok"] and len(results["vectors"]) == want["count"], "haystack sample")


def _probe() -> float:
    """Time of a fixed pure-Python loop: the quiet-moment gate's probe."""
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i % 7
    return time.perf_counter() - start


def _fname(req, suffix: str) -> str:
    return req.id.replace("/", "-") + "." + suffix


def _write_json(path: Path, data) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# metadata


def metadata(run: Run, requests) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": run.workload,
        "size": run.size,
        "seed": run.seed,
        "seconds": run.seconds,
        "rounds": run.rounds,
        "passes": run.passes,
        "requests": len(requests),
        "input_sizes": _size_summary(run, requests),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _size_summary(run: Run, requests) -> dict:
    """Per input-size field: min, median and max over the run's requests."""
    fields: dict[str, list] = {}
    for req in requests:
        sizes = dict(req.size)
        if "points" in run.records.get(req.id, {}):
            sizes["points"] = run.records[req.id]["points"]
        if req.experiment == "expand-scan":
            sizes["candidates"] = (2 * req.config["coord_bound"] + 1) ** 2 - 1
        for key, value in sizes.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                fields.setdefault(key, []).append(value)
    return {
        key: {"min": min(v), "median": statistics.median(v), "max": max(v), "count": len(v)}
        for key, v in sorted(fields.items())
    }


# ---------------------------------------------------------------------------
# the whole run


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the benchmark and latspec."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]; "
        "import perfbench.harness; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", results_dir: Path = RESULTS) -> dict:
    """Set up, serve, check and summarise one run; writes the results file."""
    run = Run(workload, seed, seconds, trace, size, results_dir)
    try:
        setup_s = run.setup()
        facts = run.serve()
        requests = facts["requests"]
        run.check(requests)
        if trace:
            run.replay(requests)
        failed = len(run.failures)
        result = {
            "correct": failed == 0,
            "attempted": len(requests),
            "failed": failed,
        }
        if trace:
            result["metrics"] = _layer_metrics(run, facts)
            spans_path = run.results_dir / f"trace_{workload}_{size}_seed{seed}.jsonl"
            run.tracer.write_spans(spans_path)
        else:
            latencies = [run.records[r.id]["latency_s"] for r in requests]
            tail, pct, count = tail_latency(latencies)
            # the import is timed in fresh interpreters: this one has imported already
            result["metrics"] = {
                "setup_s": setup_s + statistics.median(run.import_times),
                "wall_s": sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail,
                "peak_rss_mb": facts["peak_rss_mb"],
            }
            result["tail_percentile"] = pct
            result["tail_samples"] = count
            result["fail_ratio"] = failed / len(requests)
            result["passes"] = run.passes
            result["loop_s"] = facts["loop_s"]
        result["quiet_gate"] = run.gate
        report = {
            "metadata": metadata(run, requests),
            **result,
            "units": {k: _unit(k) for k in result["metrics"]},
            "failures": run.failures,
            "requests": [
                {k: v for k, v in run.records[r.id].items() if k != "results"} for r in requests
            ],
        }
        if trace:
            report["lru_caches"] = facts["cache_stats"]
        suffix = "_trace" if trace else ""
        _write_json(run.results_dir / f"BENCH_{workload}{suffix}.json", report)
        return result
    finally:
        run.cleanup()


def _unit(metric: str) -> str:
    return {**END_TO_END, **PER_LAYER}[metric][0]


def _layer_metrics(run: Run, facts: dict) -> dict:
    tracer = run.tracer
    spans = [tuple(s) for s in tracer.spans]
    metrics = tracing.layer_metrics(spans, tracer.counters)
    hits = sum(s["hits"] for s in facts["cache_stats"].values())
    total = hits + sum(s["misses"] for s in facts["cache_stats"].values())
    metrics["spectral.cache_hit_ratio"] = hits / total if total else 0.0
    traced = facts["requests"]
    metrics["cli.requests"] = len(traced)
    metrics["cli.expand_scan_candidates"] = sum(
        (2 * r.config["coord_bound"] + 1) ** 2 - 1 for r in traced if r.experiment == "expand-scan"
    )
    metrics["trace.traced_wall_s"] = facts["traced_wall_s"]
    metrics["trace.untraced_wall_s"] = facts["untraced_wall_s"]
    metrics["trace.overhead_s"] = facts["traced_wall_s"] - facts["untraced_wall_s"]
    return {name: metrics[name] for name in PER_LAYER}
