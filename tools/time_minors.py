"""Time the exact and int64 minor scans, haystack samples and determinant
spectra, and the cold import of the package.

    python3 tools/time_minors.py [--src DIR]

The first table verifies haystack samples: each row is the prefix h_1, ...,
h_count of the rank-r haystack of the first r primes over the standard basis;
rank 3 x 14 is the size of the largest ``haystack-verify`` request of the
``finite-reports`` workload.  The second table takes ``distinct_abs_dets`` of
seeded sets of distinct points in [-2, 2]^r on each backend.  An input is built
once and timed ``REPEAT`` times in this one interpreter; a row gives the
fastest and the median run in milliseconds and the answer: the haystack
verdict, which must read ok, or the spectrum's size and CRC-32, which must
agree across backends and checkouts.  A refused input prints its ``limit:``
line instead.  ``--src`` (default: ``src`` next to this script) is put first
on the import path, so the same script times another checkout of the package.

The third table times imports, each run in a fresh interpreter that reports
the ``perf_counter`` time of one import statement: ``import numpy`` alone,
then ``import latspec.cli`` from a temporary copy of ``--src`` once numpy is
imported, so that the rows add up to the whole import; first with no
bytecode under ``PYTHONDONTWRITEBYTECODE=1``, as a fresh checkout imports
it, then once the copy is compiled.  A row gives the fastest and the median
of ``REPEAT`` runs.
These are ``perf_counter`` timings, not numbers of the benchmark harness.
"""

from __future__ import annotations

import argparse
import compileall
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from math import comb

SIZES = ((2, 300), (3, 14), (3, 60), (4, 25), (7, 9), (10, 11), (13, 15), (14, 16), (16, 18))
SPECTRA = ((2, 25), (3, 60), (4, 40), (5, 20), (6, 14))
REPEAT = 7


def primes(count: int) -> tuple[int, ...]:
    out: list[int] = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return tuple(out)


def timed(run) -> str:
    """The fastest and median of ``REPEAT`` runs, and the answer, as table cells."""
    from latspec.config import LimitError

    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        try:
            answer = run()
        except LimitError as exc:
            return f"limit: {exc} | | |"
        times.append(1e3 * (time.perf_counter() - start))
    return f"{min(times):.2f} | {statistics.median(times):.2f} | {answer} |"


def import_ms(statement: str, path: str, bytecode: bool, before: str = "") -> str:
    """The fastest and median of ``REPEAT`` timings of one import statement,
    each in a fresh interpreter with ``path`` on its import path that runs
    ``before`` untimed, as table cells."""
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    code = f"{before}\nimport time\nstart = time.perf_counter()\n{statement}\nprint(time.perf_counter() - start)"
    times = [
        1e3 * float(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(REPEAT)
    ]
    return f"{min(times):.1f} | {statistics.median(times):.1f} |"


def cold_imports(src: str) -> None:
    print("| import | package bytecode | fastest ms | median ms |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        print("| numpy | — | " + import_ms("import numpy", copy, False))
        print("| latspec.cli after numpy | none | " + import_ms("import latspec.cli", copy, False, "import numpy"))
        compileall.compile_dir(copy, quiet=1)
        print("| latspec.cli after numpy | compiled | " + import_ms("import latspec.cli", copy, True, "import numpy"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from latspec.haystack import make_haystack, verify_haystack_sample
    from latspec.kernels import distinct_abs_dets
    from latspec.prng import SplitMix64

    print(f"package {os.path.abspath(args.src)}; CPython {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cores")
    print("| rank | count | r-subsets | fastest ms | median ms | ok |")
    print("|---|---|---|---|---|---|")
    for r, count in SIZES:
        sample = make_haystack(None, primes(r), count)
        print(f"| {r} | {count} | {comb(count, r)} | " + timed(lambda: verify_haystack_sample(sample, r).ok))
    print()
    print("| rank | points | backend | fastest ms | median ms | values, CRC-32 |")
    print("|---|---|---|---|---|---|")
    for r, count in SPECTRA:
        rng, points = SplitMix64(r), set()
        while len(points) < count:
            points.add(tuple(rng.randint(-2, 2) for _ in range(r)))
        points = sorted(points)
        for backend in ("numpy", "python"):
            os.environ["LATSPEC_KERNELS"] = backend

            def spectrum() -> str:
                values = sorted(distinct_abs_dets(points, r))
                return f"{len(values)}, {zlib.crc32(repr(values).encode()):08x}"

            print(f"| {r} | {count} | {backend} | " + timed(spectrum))
    print()
    cold_imports(os.path.abspath(args.src))


if __name__ == "__main__":
    main()
