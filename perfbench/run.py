#!/usr/bin/env python3
"""latspec benchmark: four workloads of exact CLI experiments.

    python3 perfbench/run.py --workload volume --seed 7 --seconds 60 --trace 0

Runs one workload (or ``all``, each in its own process) as a closed loop with
one client, checks every output, prints each metric by name with its unit
and, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` runs traced and untraced rounds in
pairs and gives the per-layer metrics and the tracing overhead.  Results,
with the run's metadata, go to perfbench/results/BENCH_<workload>[_trace].json.
Exits 2 when the latspec sources are not beside the benchmark.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402  (imports nothing from latspec)


def _table(workload: str, result: dict, units: dict) -> None:
    print(f"workload {workload}: {result['attempted']} requests, {result['failed']} failed")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if "fail_ratio" in result:
        print(f"  {'fail_ratio':40s} {result['fail_ratio']:14.6g} ratio")
        print(f"  latency_tail_s is the p{result['tail_percentile']:.4g} of {result['tail_samples']} requests")


def _run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latspec" / "__init__.py").is_file():
        print(f"perfbench: no latspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import harness

    if not Path(harness.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("perfbench: latspec was imported from outside this checkout", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {**harness.END_TO_END, **harness.PER_LAYER}
    _table(args.workload, result, {k: v[0] for k, v in units.items()})
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name][0]} for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
