"""Time the exact and int64 minor scans: haystack samples and determinant spectra.

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
These are single-process ``perf_counter`` timings, not numbers of the
benchmark harness.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
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


if __name__ == "__main__":
    main()
