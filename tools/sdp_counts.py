"""SDP solve counts of one benchmark pass, per workload and seed.

Usage: python3 tools/sdp_counts.py CHECKOUT [--seeds S ...] [--p P]

Imports sosarp from CHECKOUT/src and the workloads from
CHECKOUT/bench/workloads.py, as tools/fingerprint.py does, and runs, per
seed and workload, the untimed warm-up and then one pass, counting every
solve_sdp call the pass makes through sos_certify: the number of SDPs,
their IPM iterations and how many ended with each status, one column per
member of the checkout's SdpStatus (Certified counts the solves that ended
on a proven interior certificate, Optimal those that reached the gap
tolerance first, NumericalFailure and MaxIterations those that stalled).
Four more columns say how each certificate was proven (OUTCOMES):
proven_iterate on an iterate, the Certified solves; proven_solve on the
returned iterate after the solve, proven_lift on that iterate lifted along
R, both counted by wrapping sos_certify._proven_after_solve; unproven, the
rest.  A checkout without that post-solve proof counts every solve that
did not end Certified as unproven.  One line per
workload and seed follows a header, then one line per workload with the
sums over the seeds, and then, under a second header, one line per
workload and Gram size (the size of the SDP's first block) with that
size's sums over the seeds and, last, the Schur path its solves took:
rows, the Schur complement B B' over the constraint rows, or samples, the
Hadamard form at sample points (rows+samples if solves of that size took
both; a checkout older than the sampled path takes rows).  The counts
repeat exactly for a checkout and seed, so two checkouts compare line by
line without timing noise, and the path column shows which structures
moved.

A last line before that second header, planted, counts ACCEPTANCE 9's
batch on general data: the PLANTED_PROBLEMS problems that
CHECKOUT/tests/conftest.planted_sdp draws from seed PLANTED_SEED, each
solved by solve_sdp without a hook.  They certify nothing, so its proof
outcome columns read 0, and it has no Gram-size line.

With --p P only bundled_runs' six problems run, each with its ArpConfig at
model order P (their workload is at p = 3), and their lines are labelled
bundled_pP; the seed does not enter bundled_runs, and no planted line
follows.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Set

import numpy as np

from fingerprint import load_checkout


def schur_path(problem) -> str:
    """"samples" if the problem's solves form the Schur complement at
    sample points, else "rows"."""
    return "rows" if getattr(problem, "_samples", None) is None else "samples"


OUTCOMES = ("proven_iterate", "proven_solve", "proven_lift", "unproven")
PLANTED_SEED = 0  # ACCEPTANCE 9's batch (tests/test_acceptance.py)
PLANTED_PROBLEMS = 100


class SolveCounter:
    """solve_sdp wrapped to tally its solves: "sdps", "ipm_iters", one
    count per status value and one per proof outcome (OUTCOMES), over all
    solves in counts and per Gram size, the size of the problem's first
    block, in by_size; paths holds the Schur paths (schur_path) each Gram
    size's solves took.  A solve that does not end Certified counts as
    unproven until prove, which wraps the post-solve proof prove_after,
    proves its certificate."""

    def __init__(self, solve, prove_after=None) -> None:
        self._solve = solve
        self._prove_after = prove_after
        self.counts: Counter = Counter()
        self.by_size: Dict[int, Counter] = {}
        self.paths: Dict[int, Set[str]] = {}

    def _tally(self, size: int, tally: Counter) -> None:
        self.counts.update(tally)
        self.by_size.setdefault(size, Counter()).update(tally)

    def __call__(self, problem, *args, **kwargs):
        solution = self._solve(problem, *args, **kwargs)
        certified = solution.status.value == "Certified"
        size = problem.block_sizes[0]
        self._tally(size, Counter({"sdps": 1, "ipm_iters": solution.iterations,
                                   solution.status.value: 1,
                                   "proven_iterate" if certified else "unproven": 1}))
        self.paths.setdefault(size, set()).add(schur_path(problem))
        return solution

    def prove(self, structure, b, solution, gap):
        proven = self._prove_after(structure, b, solution, gap)
        if proven is not None:
            outcome = "proven_lift" if proven[0] else "proven_solve"
            self._tally(len(solution.X[0]), Counter({outcome: 1, "unproven": -1}))
        return proven


def count_pass(workloads, name: str, seed: int, p=None) -> SolveCounter:
    """The tally of one pass of workload name at seed, after its warm-up;
    with p, bundled_runs' configs run at model order p."""
    from timing import OpClock  # bench/, on the path after load_checkout
    workload = workloads.WORKLOADS[name](seed)
    if p is not None:
        workload.problems = [(label, func, replace(config, p=p))
                             for label, func, config in workload.problems]
    workload.warm_up()
    sos_certify = workloads.sos_certify
    prove_after = getattr(sos_certify, "_proven_after_solve", None)
    counter = SolveCounter(sos_certify.solve_sdp, prove_after)
    sos_certify.solve_sdp = counter
    if prove_after is not None:
        sos_certify._proven_after_solve = counter.prove
    try:
        workload.run_pass(OpClock())
    finally:
        sos_certify.solve_sdp = counter._solve
        if prove_after is not None:
            sos_certify._proven_after_solve = prove_after
    return counter


def count_planted(checkout: Path, solve) -> Counter:
    """SDPs, IPM iterations and statuses of ACCEPTANCE 9's planted batch,
    each problem solved by solve."""
    sys.path.insert(0, str(checkout / "tests"))
    from conftest import planted_sdp
    rng = np.random.default_rng(PLANTED_SEED)
    counts: Counter = Counter()
    for _ in range(PLANTED_PROBLEMS):
        problem, _ = planted_sdp(rng, max_block=20, max_m=100)
        solution = solve(problem)
        counts.update({"sdps": 1, "ipm_iters": solution.iterations,
                       solution.status.value: 1})
    return counts


def count_columns(statuses) -> List[str]:
    """The tally's columns: "sdps", "ipm_iters", one per member of the
    checkout's SdpStatus, so a new status gets its column unasked, and the
    proof outcomes."""
    return ["sdps", "ipm_iters"] + [s.value for s in statuses] + list(OUTCOMES)


def header(label: str, columns: List[str]) -> str:
    return f"{'workload':13s} {label:>4s} " + " ".join(f"{c:>16s}" for c in columns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--p", type=int, help="run only bundled_runs, at this model order")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    workloads = load_checkout(checkout)
    columns = count_columns(workloads.sos_certify.SdpStatus)
    names = {name: name for name in workloads.WORKLOADS}
    if args.p is not None:
        names = {"bundled_runs": f"bundled_p{args.p}"}

    def line(name: str, label, counts: Counter) -> str:
        return f"{name:13s} {label:>4} " + " ".join(f"{counts[c]:16d}" for c in columns)

    print(header("seed", columns))
    sums = {name: Counter() for name in names}
    size_sums: Dict[str, Dict[int, Counter]] = {name: {} for name in names}
    size_paths: Dict[str, Dict[int, Set[str]]] = {name: {} for name in names}
    for seed in args.seeds:
        for name in names:
            counter = count_pass(workloads, name, seed, args.p)
            sums[name].update(counter.counts)
            for size, counts in counter.by_size.items():
                size_sums[name].setdefault(size, Counter()).update(counts)
            for size, paths in counter.paths.items():
                size_paths[name].setdefault(size, set()).update(paths)
            print(line(names[name], seed, counter.counts), flush=True)
    for name, counts in sums.items():
        print(line(names[name], "sum", counts))
    if args.p is None:
        print(line("planted", PLANTED_SEED,
                   count_planted(checkout, workloads.sos_certify.solve_sdp)))
    print(header("gram", columns) + f" {'schur':>12s}")
    for name, by_size in size_sums.items():
        for size in sorted(by_size):
            path = "+".join(sorted(size_paths[name][size]))
            print(line(names[name], size, by_size[size]) + f" {path:>12s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
