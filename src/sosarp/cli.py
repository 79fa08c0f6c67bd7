"""Command-line front end.

Subcommands:
  minimize     run the adaptive regularization driver on a problem file
  scan-tensor  sigma_bar against tensor magnitude (log-log slope fit)
  scan-delta   sigma_bar against delta (log-log slope fit)
  certify      compute the minimal certified weight for one model, standalone
  convex-rate  iteration counts across an epsilon list on a strongly convex problem
  check-derivs finite-difference audit of a problem's exact derivatives

Exit codes: 0 success/Converged, 1 usage or input-file error, 2 iteration
budget exhausted, 3 algorithm failure (a Stalled or CertificationFailure
run, or a failed standalone certification).  All
flags are validated and input files read before any output file is opened,
so a failing invocation never leaves a partial CSV behind.  The random seed
comes from --seed when given, else the SOSARP_SEED environment variable,
else 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from .arp_driver import ArpConfig, RunStatus, build_model, classify_case, run
from .experiments import ScanConfig, ScanResult, convex_rate, scan_delta, scan_tensor
from .problems_io import (MAX_DERIVATIVE_ORDER, ProblemFormatError, ProblemSpec,
                          build_function, check_derivatives, load_point,
                          load_problem)
from .sos_certify import CertificationError, min_sigma_sos
from .tensor_poly import min_eigenvalue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_ITERATIONS = 2
EXIT_FAILURE = 3

_STATUS_EXIT = {
    RunStatus.CONVERGED: EXIT_OK,
    RunStatus.MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
    RunStatus.STALLED: EXIT_FAILURE,
    RunStatus.CERTIFICATION_FAILURE: EXIT_FAILURE,
}


class UsageError(Exception):
    """Bad flags or unreadable/invalid input files; maps to exit 1."""


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "nan"
    return f"{value:.12g}"


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SOSARP_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"SOSARP_SEED must be an integer, got {env!r}")


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as err:
        raise UsageError(f"{flag}: {err}")
    if not values:
        raise UsageError(f"{flag}: list must be nonempty")
    return values


def _load_problem_or_usage(path: str) -> ProblemSpec:
    try:
        return load_problem(path)
    except ProblemFormatError as err:
        raise UsageError(str(err))


def _load_point_or_usage(path: Optional[str], n: int) -> Optional[np.ndarray]:
    if path is None:
        return None
    try:
        return load_point(path, n)
    except ProblemFormatError as err:
        raise UsageError(str(err))


def _check_order(p: int, least: int) -> None:
    """--p between the least order the command needs and the highest
    derivative order the problem oracles supply."""
    if not least <= p <= MAX_DERIVATIVE_ORDER:
        raise UsageError(f"--p must lie in [{least}, {MAX_DERIVATIVE_ORDER}]")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]],
               footer: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if footer is not None:
            handle.write(footer + "\n")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", required=True, help="problem file (.prob)")
    parser.add_argument("--point", default=None,
                        help="start/evaluation point file (default: origin)")


def _add_driver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, default=3, help="Taylor order (>= 3)")
    parser.add_argument("--eps", type=float, default=1e-5,
                        help="gradient norm target in (0, 1)")
    parser.add_argument("--a", type=float, default=None,
                        help="delta = eps**a with a in [0, 1/2]")
    parser.add_argument("--delta", type=float, default=None,
                        help="fixed convexity margin in (0, 1)")
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--gamma1", type=float, default=2.0)
    parser.add_argument("--gamma2", type=float, default=0.5)
    parser.add_argument("--sigma-min", type=float, default=1e-8)
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--max-iter", type=int, default=1000)


def _driver_config(args: argparse.Namespace,
                   x0: Optional[np.ndarray]) -> ArpConfig:
    _check_order(args.p, 3)
    try:
        return ArpConfig(p=args.p, epsilon=args.eps, a=args.a,
                         delta=args.delta, eta=args.eta, gamma1=args.gamma1,
                         gamma2=args.gamma2, sigma_min=args.sigma_min,
                         theta=args.theta, max_iter=args.max_iter, x0=x0)
    except ValueError as err:
        raise UsageError(str(err))


def cmd_minimize(args: argparse.Namespace) -> int:
    spec = _load_problem_or_usage(args.problem)
    x0 = _load_point_or_usage(args.point, spec.n)
    config = _driver_config(args, x0)
    result = run(spec, config)

    rows = []
    for rec in result.records:
        rows.append([str(rec.k), rec.case_tag.value, _fmt(rec.lambda_min),
                     _fmt(rec.sigma_bar), _fmt(rec.sigma_r), _fmt(rec.sigma),
                     _fmt(rec.step_norm), _fmt(rec.rho), _fmt(rec.f_before),
                     _fmt(rec.grad_norm), "1" if rec.success else "0"])
    if args.output is not None:
        _write_csv(args.output,
                   ["iter", "case", "lambda_min", "sigma_bar", "sigma_r",
                    "sigma", "step_norm", "rho", "f", "grad_norm", "success"],
                   rows)

    final_f = result.records[-1].f_after if result.records else (
        build_function(spec).value(config.x0 if config.x0 is not None
                                   else np.zeros(spec.n)))
    print(f"status={result.status.value} iters={len(result.records)} "
          f"f={_fmt(final_f)} grad_norm={_fmt(result.grad_norm)}")
    if result.message:
        print(f"error: {result.message}", file=sys.stderr)
    return _STATUS_EXIT[result.status]


def _scan_rows(result: ScanResult) -> List[List[str]]:
    rows = []
    for row in result.rows:
        rows.append([row.row, _fmt(row.x),
                     "" if row.seed is None else str(row.seed),
                     "" if row.sigma_bar is None else _fmt(row.sigma_bar),
                     row.status,
                     "" if row.slope is None else _fmt(row.slope)])
    return rows


def _finish_scan(result: ScanResult, output: str) -> int:
    _write_csv(output,
               ["row", "x", "seed", "sigma_bar", "status", "slope"],
               _scan_rows(result),
               footer=f"# failures={result.failure_count}")
    slope_text = "" if result.slope is None else _fmt(result.slope)
    print(f"slope={slope_text} failures={result.failure_count} "
          f"output={output}")
    return EXIT_OK


def _scan_config(args: argparse.Namespace, **lists) -> ScanConfig:
    try:
        return ScanConfig(n=args.n, p=args.p, seeds=args.seeds,
                          seed=_resolve_seed(args.seed), **lists)
    except ValueError as err:
        raise UsageError(str(err))


def cmd_scan_tensor(args: argparse.Namespace) -> int:
    scales = _parse_float_list(args.scales, "--scales")
    config = _scan_config(args, delta=args.delta, scales=tuple(scales))
    return _finish_scan(scan_tensor(config), args.output)


def cmd_scan_delta(args: argparse.Namespace) -> int:
    if args.deltas is not None:
        deltas = _parse_float_list(args.deltas, "--deltas")
    else:
        deltas = list(np.logspace(-3, 0, 7))
    config = _scan_config(args, scale=args.scale, deltas=tuple(deltas))
    return _finish_scan(scan_delta(config), args.output)


def cmd_certify(args: argparse.Namespace) -> int:
    spec = _load_problem_or_usage(args.problem)
    point = _load_point_or_usage(args.point, spec.n)
    if point is None:
        point = np.zeros(spec.n)
    if not 0.0 < args.delta <= 1.0:
        raise UsageError("--delta must lie in (0, 1]")
    _check_order(args.p, 2)

    func = build_function(spec)
    bundle = func.derivatives(point, args.p)
    lam, _ = min_eigenvalue(bundle.hessian())
    case = classify_case(lam, args.delta)
    model = build_model(bundle, case, args.delta, 0.0, lambda_min=lam)
    try:
        sigma_bar, cert = min_sigma_sos(model)
    except CertificationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"case={case.value} lambda_min={_fmt(lam)}")
    print(f"sigma_bar={sigma_bar:.6f}")
    print(f"residual={cert.residual:.6e}")
    return EXIT_OK


def cmd_convex_rate(args: argparse.Namespace) -> int:
    spec = _load_problem_or_usage(args.problem)
    x0 = _load_point_or_usage(args.point, spec.n)
    epsilons = _parse_float_list(args.eps_list, "--eps-list")
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise UsageError(f"--eps-list: epsilon {eps:g} outside (0, 1)")
    _check_order(args.p, 3)
    try:  # the config convex_rate builds per epsilon, checked before any run
        ArpConfig(p=args.p, epsilon=epsilons[0], x0=x0, max_iter=args.max_iter)
    except ValueError as err:
        raise UsageError(str(err))
    func = build_function(spec)
    if not func.strongly_convex:
        raise UsageError(
            f"problem '{func.name}' is not registered as strongly convex; "
            f"the rate experiment requires that flag")

    points = convex_rate(func, epsilons, p=args.p, x0=x0,
                         max_iter=args.max_iter)

    base, ext = os.path.splitext(args.output)
    rows = []
    traj_files = []
    for pt in points:
        traj = f"{base}_traj_{pt.epsilon:g}{ext or '.csv'}"
        traj_files.append((traj, pt.f_gaps))
        rows.append([_fmt(pt.epsilon), str(pt.successful_iterations),
                     str(pt.total_iterations), os.path.basename(traj)])
    _write_csv(args.output,
               ["epsilon", "successful_iterations", "total_iterations",
                "trajectory_file"], rows)
    for traj, gaps in traj_files:
        _write_csv(traj, ["successful_iteration", "f_gap"],
                   [[str(i), _fmt(g)] for i, g in enumerate(gaps)])
    for row in rows:
        print(f"epsilon={row[0]} successful={row[1]} total={row[2]}")
    failed = [pt for pt in points
              if pt.result.status is RunStatus.CERTIFICATION_FAILURE]
    for pt in failed:
        print(f"error: the run at epsilon={pt.epsilon:g} ended "
              f"{pt.result.status.value}: {pt.result.message}", file=sys.stderr)
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_check_derivs(args: argparse.Namespace) -> int:
    spec = _load_problem_or_usage(args.problem)
    point = _load_point_or_usage(args.point, spec.n)
    if point is None:
        rng = np.random.default_rng(_resolve_seed(args.seed))
        point = rng.standard_normal(spec.n) * 0.5
    _check_order(args.p, 1)
    report = check_derivatives(spec, point, args.p)
    for order in report.orders:
        print(f"order={order.order} max_rel_error={order.max_rel_error:.3e} "
              f"threshold={order.threshold:.0e} "
              f"{'ok' if order.ok else 'FAIL'}")
    print(f"derivatives {'ok' if report.ok else 'FAILED'}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosarp",
        description="Adaptive higher-order regularization with certified "
                    "convex Taylor models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minimize", help="run the driver on a problem file")
    _add_problem_flags(p_min)
    _add_driver_flags(p_min)
    p_min.add_argument("--output", default=None,
                       help="per-iteration CSV path (omit to skip)")
    p_min.set_defaults(func=cmd_minimize)

    for name, handler in (("scan-tensor", cmd_scan_tensor),
                          ("scan-delta", cmd_scan_delta)):
        p_scan = sub.add_parser(name, help=f"{name.replace('-', ' ')} experiment")
        p_scan.add_argument("--n", type=int, default=2)
        p_scan.add_argument("--p", type=int, default=3)
        p_scan.add_argument("--seeds", type=int, default=10)
        p_scan.add_argument("--seed", type=int, default=None)
        p_scan.add_argument("--output", required=True, help="CSV path")
        if name == "scan-tensor":
            p_scan.add_argument("--scales", default="1,10,100,1000",
                                help="comma-separated tensor magnitudes")
            p_scan.add_argument("--delta", type=float, default=1.0,
                                help="fixed convexity margin")
        else:
            p_scan.add_argument("--deltas", default=None,
                                help="comma-separated margins "
                                     "(default: 7 log-spaced in [1e-3, 1])")
            p_scan.add_argument("--scale", type=float, default=1.0,
                                help="fixed tensor magnitude")
        p_scan.set_defaults(func=handler)

    p_cert = sub.add_parser("certify",
                            help="minimal certified weight for one model")
    _add_problem_flags(p_cert)
    p_cert.add_argument("--p", type=int, default=3)
    p_cert.add_argument("--delta", type=float, default=0.5)
    p_cert.set_defaults(func=cmd_certify)

    p_rate = sub.add_parser("convex-rate",
                            help="iteration counts across an epsilon list")
    _add_problem_flags(p_rate)
    p_rate.add_argument("--p", type=int, default=3)
    p_rate.add_argument("--eps-list", required=True,
                        help="comma-separated epsilon values")
    p_rate.add_argument("--max-iter", type=int, default=1000)
    p_rate.add_argument("--output", required=True, help="summary CSV path")
    p_rate.set_defaults(func=cmd_convex_rate)

    p_chk = sub.add_parser("check-derivs",
                           help="finite-difference derivative audit")
    _add_problem_flags(p_chk)
    p_chk.add_argument("--p", type=int, default=4,
                       help="highest derivative order to audit")
    p_chk.add_argument("--seed", type=int, default=None,
                       help="seed for the default random evaluation point")
    p_chk.set_defaults(func=cmd_check_derivs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits 2 on usage problems; fold into our usage code
        return EXIT_USAGE if exit_err.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
