"""Alternating benchmark pairs of two sosarp checkouts, summarized as JSON.

Usage: python3 tools/bench_pairs.py PARENT CHANGE --pairs N --output FILE
           [--workload NAME ...] [--seed S]

Each pair runs CHECKOUT/bench/run_bench.py once per workload on both
checkouts, each run in a fresh process with the checkout as its working
directory and at the run length run_bench.py fixes; even pairs run PARENT
first and odd pairs CHANGE first, so a drift in the host's load falls on
both sides alike.  After the pairs, three traced runs per side and
workload, alternating in the same way, record the per-layer metrics; each
is reported as the median of the three, so no timed per-layer figure rests
on one sample.

FILE receives, per workload and end-to-end metric, each side's runs with
their median and quartiles, the number of pairs the change won (ties count
for neither side), the median ratio change/parent, whether the change's
median is worse than the parent's by more than the bound in the CHANGE
checkout's BENCHMARK.json, and whether a gain is claimable: at least nine
tenths of the pairs won and the medians further apart than the parent's
quartiles.  Two more verdicts qualify a comparison: separated, every change
run better than every parent run; and unresolved, the parent's quartiles
further apart, relative to its median, than the bound, so that a change
within the bound cannot be told from none, unless the sides are separated.
It also holds the failed/attempted operation counts, the
traced medians and the machine record (nproc, BLAS build, BLAS thread
setting) that run_bench.py reports, with scipy's BLAS build added: the
solver's direct LAPACK calls run in scipy's BLAS, numpy's in numpy's.
Every run's output is checked by the benchmark itself; a run that fails
or reports wrong output stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import scipy

from fingerprint import blas_build

WORKLOADS = ("bundled_runs", "certify_grid", "scans")
SIDES = ("parent", "change")
TRACED_RUNS = 3  # per side and workload; the per-layer metrics are their medians


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    return args


def bench(checkout: Path, workload: str, seed: int, trace: int):
    """The result line and the machine record of one run_bench.py run."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} reported wrong output")
    prefix = f"workload {workload}, seed {seed}: "
    machine = json.loads(next(line for line in lines if line.startswith(prefix))
                         [len(prefix):])
    return result, machine


def revision(checkout: Path) -> dict:
    """The checkout's commit, marked -dirty if its files differ from it, and
    the git tree hash of the src/ files as they are on disk, which names the
    measured code whatever commit holds it, if any; None where git cannot
    tell.  The tree is written to a scratch object store through a scratch
    index, so the files of an uncommitted change or of a copy without .git
    are hashed as they are, with the checkout's .gitignore applied, and a
    clean checkout gets the tree of HEAD:src."""
    def git(*args, env=None):
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, env=env)
        return done.stdout.strip() if done.returncode == 0 else None
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_DIR": scratch, "GIT_WORK_TREE": str(checkout)}
        git("init", "--quiet", env=env)
        git("add", "--all", "--", "src", env=env)
        src_tree = git("write-tree", "--prefix=src/", env=env)
    return {"commit": git("describe", "--always", "--dirty"), "src_tree": src_tree}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(spec: dict, parent, change) -> dict:
    """Both sides of one metric and the verdicts described in the module docstring."""
    lower = spec["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    sides = {"parent": summary(parent), "change": summary(change)}
    p_med, c_med = sides["parent"]["median"], sides["change"]["median"]
    worse = (c_med - p_med if lower else p_med - c_med) / p_med
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    separated = (max(change) < min(parent) if lower else min(change) > max(parent))
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **sides, "wins": wins, "ratio": c_med / p_med,
            "worse_than_bound": worse > spec["bound"],
            "claimable": (wins >= 0.9 * len(parent)
                          and abs(c_med - p_med) > spread and worse < 0),
            "separated": separated,
            "unresolved": spread / p_med > spec["bound"] and not separated}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or list(WORKLOADS)
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    machine = {}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result, machine[side] = bench(checkouts[side], workload,
                                              args.seed, 0)
                runs[side][workload].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"pair {pair} {workload:12s} {side:6s} wall_s {wall:.3f}",
                      flush=True)
    traced_runs = {side: {w: [] for w in workloads} for side in SIDES}
    for run in range(TRACED_RUNS):
        order = SIDES if run % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result, _ = bench(checkouts[side], workload, args.seed, 1)
                traced_runs[side][workload].append(result["metrics"])
    traced = {side: {w: {name: statistics.median(m[name]["value"] for m in runs)
                         for name in runs[0]}
                     for w, runs in per_workload.items()}
              for side, per_workload in traced_runs.items()}
    for record in machine.values():
        record["scipy_blas"] = blas_build(scipy)

    report = {"revisions": {side: revision(path) for side, path in checkouts.items()},
              "pairs": args.pairs, "seed": args.seed,
              "first": "parent on even pairs, change on odd pairs",
              "machine": machine["change"], "workloads": {},
              "traced_runs": TRACED_RUNS, "traced": traced}
    if machine["parent"] != machine["change"]:
        report["parent_machine"] = machine["parent"]
    for workload in workloads:
        entry = {side: {"failed": sum(r["failed"] for r in runs[side][workload]),
                        "attempted": sum(r["attempted"] for r in runs[side][workload])}
                 for side in SIDES}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side][workload]]
                      for side in SIDES}
            entry[name] = compare(metric, values["parent"], values["change"])
        report["workloads"][workload] = entry
    args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for metric in spec["end_to_end"]:
            row = entry[metric["name"]]
            print(f"{workload:12s} {metric['name']:12s} parent {row['parent']['median']:10.4g}"
                  f" change {row['change']['median']:10.4g} ratio {row['ratio']:.3f}"
                  f" wins {row['wins']}/{args.pairs}"
                  f"{'  CLAIMABLE' if row['claimable'] else ''}"
                  f"{'  SEPARATED' if row['separated'] else ''}"
                  f"{'  UNRESOLVED' if row['unresolved'] else ''}"
                  f"{'  WORSE THAN BOUND' if row['worse_than_bound'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
