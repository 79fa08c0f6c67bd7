"""sosarp benchmark: one workload per invocation, result as the last line.

    python3 bench/run_bench.py --workload bundled_runs --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, wall_s, op_p50_ms, op_p90_ms, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of tracing.LAYER_METRICS, taken
from passes wrapped in spans, and the spans are written as JSON lines.  The
lines above it name each metric with its unit and sample count.  Every run
also writes a record of the machine and its metrics to bench/results/.

End-to-end times are scaled to a reference machine speed by speed probes
taken while they run (see timing.py); the unscaled times are in the record.

The benchmark runs in one thread with BLAS pinned to one thread, because
competing BLAS threads slow the solver's small factorisations by orders of
magnitude.  It imports sosarp from src/ next to this directory and stops
with an error if that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
# the keys of workloads.WORKLOADS, which cannot be imported before set-up starts
WORKLOAD_NAMES = ("bundled_runs", "certify_grid", "scans")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in this process and in this many fresh child processes
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit (internal)")
    return parser.parse_args(argv)


def load_loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return handle.read().strip()


def machine_record(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no mode argument
        blas = {"name": "unknown", "version": "unknown"}
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]: the smallest sample with at
    least q% of the samples at or below it.  Unlike interpolation, it does
    not move with the number of passes when the top decile holds only the
    few slowest operations of each pass."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def child_setup_seconds(args):
    """Unscaled and scaled set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    raw, scaled = done.stdout.split()
    return float(raw), float(scaled)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}",
                  file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    load_start = load_loadavg()

    # set-up: import sosarp, build the inputs, warm up each structure
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import scipy
        import sosarp
        import timing
        import workloads
    except ImportError as err:
        print(f"error: cannot import sosarp from {SRC}: {err}", file=sys.stderr)
        return 2
    if not Path(sosarp.__file__).resolve().is_relative_to(SRC):
        print(f"error: sosarp was imported from {sosarp.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    clock = timing.OpClock()
    with clock.sampling():
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.warm_up()
    setup_end = time.perf_counter()
    setup_s = setup_end - setup_start - clock.probe_s
    setup = (setup_s, setup_s * clock.scale(setup_start, setup_end))
    if args.setup_only:
        print(repr(setup[0]), repr(setup[1]))
        return 0

    setups = [setup]
    if not args.trace:
        setups += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(np, scipy),
              "loadavg_start": load_start}
    if args.trace:
        import tracing
        metrics, units, counts, verdict, extra = traced_run(workload, clock, args,
                                                            tracing)
    else:
        metrics, units, counts, verdict, extra = untraced_run(workload, clock, args,
                                                              setups)
    record["loadavg_end"] = load_loadavg()
    attempted, failed = verdict
    record.update(metrics=metrics, units=units, samples=counts,
                  attempted=attempted, failed=failed, **extra)

    print(f"workload {args.workload}, seed {args.seed}: {json.dumps(record['machine'])}")
    print(f"loadavg {load_start} -> {record['loadavg_end']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} {counts[name]}")
    print(f"  {'fail_frac':36s} {failed / attempted:14.6g} {'1':6s} "
          f"{failed} of {attempted} operations failed")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def timed_pass(workload, clock, tracer=None):
    """Start, end and wall time of one pass, net of speed probes, and its
    failed operations; the checks run after the clock stops and outside the
    tracer."""
    if tracer is not None:
        tracer.install(workload.problem_functions())
    try:
        probe_s = clock.probe_s
        start = time.perf_counter()
        outputs = workload.run_pass(clock)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = end - start - (clock.probe_s - probe_s)
    return (start, end, wall), workload.failures(outputs)


def fits(walls, deadline) -> bool:
    """Whether one more pass of the median length ends before the deadline."""
    return time.perf_counter() + statistics.median(walls) <= deadline


def untraced_run(workload, clock, args, setups):
    passes, failed = [], 0
    deadline = time.perf_counter() + args.seconds
    with clock.sampling():
        while not passes or fits([w for _, _, w in passes], deadline):
            timing, pass_failed = timed_pass(workload, clock)
            passes.append(timing)
            failed += pass_failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # each time is scaled by the probes taken while it ran
    walls = [w * clock.scale(s, e) for s, e, w in passes]
    ms = [1000.0 * lat * clock.scale(s, e) for s, e, lat in clock.ops]
    p90 = percentile(ms, 90.0)
    metrics = {"setup_s": statistics.median(scaled for _, scaled in setups),
               "wall_s": statistics.median(walls),
               "op_p50_ms": statistics.median(ms),
               "op_p90_ms": p90,
               "peak_rss_mb": peak_rss_mb}
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}
    n_ops = len(ms)
    beyond = sum(1 for t in ms if t > p90)
    counts = {"setup_s": f"median of {len(setups)} set-ups",
              "wall_s": f"median of {len(walls)} passes",
              "op_p50_ms": f"{n_ops} operations",
              "op_p90_ms": f"{n_ops} operations, {beyond} beyond",
              "peak_rss_mb": "getrusage"}
    raw_ms = [1000.0 * lat for _, _, lat in clock.ops]
    extra = {"unscaled": {"setup_s": statistics.median(raw for raw, _ in setups),
                          "wall_s": statistics.median([w for _, _, w in passes]),
                          "op_p50_ms": statistics.median(raw_ms),
                          "op_p90_ms": percentile(raw_ms, 90.0)},
             "speed_factor": clock.scale(-math.inf, math.inf),
             "probes": len(clock.probes),
             "pass_walls_s": walls, "setups_s": setups}
    return metrics, units, counts, (n_ops, failed), extra


def traced_run(workload, clock, args, tracing):
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, and every pass's spans are written out.  No speed
    probes run here, so that they do not inflate span times."""
    tracer = tracing.Tracer(clock)
    plain, traced, per_pass, spans = [], [], [], []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while not traced or fits([p + t for p, t in zip(plain, traced)], deadline):
        (_, _, wall), pass_failed = timed_pass(workload, clock)
        plain.append(wall)
        failed += pass_failed
        (_, _, wall), pass_failed = timed_pass(workload, clock, tracer)
        traced.append(wall)
        failed += pass_failed
        pass_spans = tracer.take()
        per_pass.append(tracing.layer_metrics(pass_spans))
        spans.extend(pass_spans)

    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    moves = {name: f"moves {target}" for name, _, _, target in tracing.LAYER_METRICS}
    metrics = {name: metrics[name] for name in units}
    counts = {name: f"median of {len(traced)} traced passes; {moves[name]}"
              for name in units}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(span.to_json(tracer.epoch) + "\n")
    extra = {"plain_walls_s": plain, "traced_walls_s": traced}
    return metrics, units, counts, (clock.count, failed), extra


if __name__ == "__main__":
    sys.exit(main())
