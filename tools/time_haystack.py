"""Time ``verify_haystack_sample`` on generated haystack samples.

    python3 tools/time_haystack.py [--src DIR]

Each row is the prefix h_1, ..., h_count of the rank-r haystack of the first
r primes over the standard basis; rank 3 x 14 is the size of the largest
``haystack-verify`` request of the ``finite-reports`` workload.  A sample is
built once and verified ``REPEAT`` times in this one interpreter; the table
gives the fastest and the median verification in milliseconds, and the
verdict, which must read ok.  ``--src`` (default: ``src`` next to this
script) is put first on the import path, so the same script times another
checkout of the package.  These are single-process ``perf_counter`` timings,
not numbers of the benchmark harness.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from math import comb

SIZES = ((2, 300), (3, 14), (3, 60), (4, 25), (7, 9), (10, 11))
REPEAT = 7


def primes(count: int) -> tuple[int, ...]:
    out: list[int] = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return tuple(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from latspec.haystack import make_haystack, verify_haystack_sample

    print(f"package {os.path.abspath(args.src)}; CPython {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cores")
    print("| rank | count | r-subsets | fastest ms | median ms | ok |")
    print("|---|---|---|---|---|---|")
    for r, count in SIZES:
        sample = make_haystack(None, primes(r), count)
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            verdict = verify_haystack_sample(sample, r)
            times.append(1e3 * (time.perf_counter() - start))
        print(f"| {r} | {count} | {comb(count, r)} | {min(times):.2f} | {statistics.median(times):.2f} | {verdict.ok} |")


if __name__ == "__main__":
    main()
