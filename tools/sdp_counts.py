"""SDP solve counts of one benchmark pass, per workload and seed.

Usage: python3 tools/sdp_counts.py CHECKOUT [--seeds S ...]

Imports sosarp from CHECKOUT/src and the workloads from
CHECKOUT/bench/workloads.py, as tools/fingerprint.py does, and runs, per
seed and workload, the untimed warm-up and then one pass, counting every
solve_sdp call the pass makes through sos_certify: the number of SDPs,
their IPM iterations and how many ended with each status.  One line per
workload and seed follows a header, then one line per workload with the
sums over the seeds.  The counts repeat exactly for a checkout and seed, so
two checkouts compare line by line without timing noise.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from fingerprint import load_checkout


class SolveCounter:
    """solve_sdp wrapped to tally its solves: "sdps", "ipm_iters" and one
    count per status value."""

    def __init__(self, solve) -> None:
        self._solve = solve
        self.counts: Counter = Counter()

    def __call__(self, *args, **kwargs):
        solution = self._solve(*args, **kwargs)
        self.counts["sdps"] += 1
        self.counts["ipm_iters"] += solution.iterations
        self.counts[solution.status.value] += 1
        return solution


def count_pass(workloads, name: str, seed: int) -> Counter:
    """The counts of one pass of workload name at seed, after its warm-up."""
    from timing import OpClock  # bench/, on the path after load_checkout
    workload = workloads.WORKLOADS[name](seed)
    workload.warm_up()
    sos_certify = workloads.sos_certify
    counter = SolveCounter(sos_certify.solve_sdp)
    sos_certify.solve_sdp = counter
    try:
        workload.run_pass(OpClock())
    finally:
        sos_certify.solve_sdp = counter._solve
    return counter.counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    workloads = load_checkout(args.checkout.resolve())
    columns = ["sdps", "ipm_iters"] + [s.value for s in workloads.sos_certify.SdpStatus]
    print(f"{'workload':13s} {'seed':>4s} " + " ".join(f"{c:>16s}" for c in columns))
    sums = {name: Counter() for name in workloads.WORKLOADS}
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            counts = count_pass(workloads, name, seed)
            sums[name] += counts
            print(f"{name:13s} {seed:4d} "
                  + " ".join(f"{counts[c]:16d}" for c in columns), flush=True)
    for name, counts in sums.items():
        print(f"{name:13s} {'sum':>4s} " + " ".join(f"{counts[c]:16d}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
