"""Spans around the public functions of each sosarp module, kept in memory.

The tracer patches each function in the namespace of the module that calls
it (``sos_certify.solve_sdp``, ``arp_driver.min_sigma_sos`` and so on), and
the ``derivatives``/``value`` methods on the problem instances a workload
passes to ``run``.  ``layer_metrics`` turns one pass's spans into the
per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from sosarp import arp_driver, experiments, sos_certify, tensor_poly
from sosarp.sdp_core import SdpStatus

# (name, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("arp_driver.run.calls", "count", "lower", "wall_s on bundled_runs"),
    ("arp_driver.run.s", "s", "lower", "wall_s on bundled_runs"),
    ("arp_driver.run.self_s", "s", "lower", "wall_s on bundled_runs"),
    ("arp_driver.outer_iters", "count", "lower", "wall_s on bundled_runs"),
    ("arp_driver.certs_per_success", "ratio", "lower", "wall_s on bundled_runs"),
    ("arp_driver.stationary_certs", "count", "lower", "wall_s on bundled_runs"),
    ("sos_certify.min_sigma_sos.calls", "count", "lower",
     "op_p50_ms on certify_grid"),
    ("sos_certify.min_sigma_sos.s", "s", "lower", "op_p50_ms on certify_grid"),
    ("sos_certify.min_sigma_sos.self_s", "s", "lower",
     "op_p50_ms on certify_grid"),
    ("sos_certify.is_sos_convex.calls", "count", "lower", "wall_s on bundled_runs"),
    ("sos_certify.is_sos_convex.s", "s", "lower", "wall_s on bundled_runs"),
    ("sos_certify.path.direct", "count", "higher", "wall_s on bundled_runs"),
    ("sos_certify.path.stalled_gap", "count", "lower", "wall_s on bundled_runs"),
    ("sos_certify.path.bisection", "count", "lower", "wall_s on bundled_runs"),
    ("sos_certify.sdp_per_cert", "ratio", "lower", "wall_s on bundled_runs"),
    ("sdp_core.problem.calls", "count", "lower", "op_p50_ms on certify_grid"),
    ("sdp_core.problem.s", "s", "lower", "op_p50_ms on certify_grid"),
    ("sdp_core.solve.calls", "count", "lower", "wall_s on certify_grid"),
    ("sdp_core.solve.s", "s", "lower", "op_p90_ms and wall_s on certify_grid"),
    ("sdp_core.ipm_iters", "count", "lower", "op_p90_ms and wall_s on certify_grid"),
    ("sdp_core.ms_per_ipm_iter", "ms", "lower", "wall_s on certify_grid, scans"),
    ("sdp_core.status.Optimal", "count", "higher", "wall_s on certify_grid"),
    ("sdp_core.status.NumericalFailure", "count", "lower", "wall_s on certify_grid"),
    ("sdp_core.status.MaxIterations", "count", "lower", "wall_s on certify_grid"),
    ("sdp_core.status.Infeasible", "count", "lower", "wall_s on certify_grid"),
    ("sdp_core.status.DualInfeasible", "count", "lower", "wall_s on certify_grid"),
    ("sdp_core.optimal_frac", "ratio", "higher", "wall_s on certify_grid"),
    ("subproblem.minimize_model.calls", "count", "lower", "wall_s on bundled_runs"),
    ("subproblem.minimize_model.s", "s", "lower", "wall_s on bundled_runs"),
    ("subproblem.newton_iters", "count", "lower", "wall_s on bundled_runs"),
    ("subproblem.failures", "count", "lower", "wall_s on bundled_runs"),
    ("problems_io.derivatives.calls", "count", "lower", "wall_s on bundled_runs"),
    ("problems_io.derivatives.s", "s", "lower", "wall_s on bundled_runs"),
    ("problems_io.value.calls", "count", "lower", "wall_s on bundled_runs"),
    ("problems_io.value.s", "s", "lower", "wall_s on bundled_runs"),
    ("tensor_poly.tensor_apply.calls", "count", "lower", "wall_s on bundled_runs"),
    ("tensor_poly.tensor_apply.s", "s", "lower", "wall_s on bundled_runs"),
    ("tensor_poly.taylor_value.calls", "count", "lower", "wall_s on bundled_runs"),
    ("tensor_poly.taylor_value.s", "s", "lower", "wall_s on bundled_runs"),
    ("tensor_poly.min_eigenvalue.calls", "count", "lower",
     "wall_s on bundled_runs, op_p50_ms on certify_grid"),
    ("tensor_poly.min_eigenvalue.s", "s", "lower",
     "wall_s on bundled_runs, op_p50_ms on certify_grid"),
    ("experiments.scan.calls", "count", "lower", "wall_s on scans"),
    ("experiments.scan.s", "s", "lower", "wall_s on scans"),
    ("experiments.scan.failures", "count", "lower", "wall_s on scans"),
    ("trace.spans", "count", "lower", "none: size of the trace"),
    ("trace.wall_s", "s", "lower", "none: traced pass time"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 op: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, epoch: float) -> str:
        return json.dumps({"id": self.id, "name": self.name,
                           "start": self.start - epoch, "end": self.end - epoch,
                           "parent": self.parent, "op": self.op,
                           "attrs": self.attrs})


def _run_summary(result, func, config) -> dict:
    return {"iterations": len(result.records),
            "successes": result.successful_count,
            "epsilon": config.epsilon, "status": result.status.value}


def _cert_summary(result, model, *_) -> dict:
    return {"grad_norm": float(np.linalg.norm(model.g)), "n": model.n,
            "p": model.p, "sigma_bar": result[0]}


def _sdp_summary(solution, *_, **__) -> dict:
    return {"status": solution.status.value, "iterations": solution.iterations,
            "gap": solution.gap, "primal_residual": solution.primal_residual,
            "dual_residual": solution.dual_residual}


def _subsolve_summary(result, *_, **__) -> dict:
    return {"iterations": result.iterations, "converged": result.converged}


def _scan_summary(result, config) -> dict:
    return {"failures": result.failure_count, "slope": result.slope}


# (module, attribute, span name, summary of the call's result)
PATCHES = [
    (arp_driver, "run", "arp_driver.run", _run_summary),
    (arp_driver, "min_sigma_sos", "sos_certify.min_sigma_sos", _cert_summary),
    (experiments, "min_sigma_sos", "sos_certify.min_sigma_sos", _cert_summary),
    (sos_certify, "min_sigma_sos", "sos_certify.min_sigma_sos", _cert_summary),
    (sos_certify, "is_sos_convex", "sos_certify.is_sos_convex", None),
    (sos_certify, "SdpProblem", "sdp_core.problem", None),
    (sos_certify, "solve_sdp", "sdp_core.solve", _sdp_summary),
    (arp_driver, "minimize_model", "subproblem.minimize_model", _subsolve_summary),
    (arp_driver, "taylor_value", "tensor_poly.taylor_value", None),
    (tensor_poly, "tensor_apply", "tensor_poly.tensor_apply", None),
    (sos_certify, "tensor_apply", "tensor_poly.tensor_apply", None),
    (arp_driver, "min_eigenvalue", "tensor_poly.min_eigenvalue", None),
    (sos_certify, "min_eigenvalue", "tensor_poly.min_eigenvalue", None),
    (experiments, "min_eigenvalue", "tensor_poly.min_eigenvalue", None),
    (experiments, "scan_tensor", "experiments.scan", _scan_summary),
    (experiments, "scan_delta", "experiments.scan", _scan_summary),
]


class Tracer:
    """Records a span for every wrapped call; ``clock.current`` is the
    operation id the spans belong to."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.epoch = time.perf_counter()
        self._ids = itertools.count()
        self._stack: List[Span] = []
        self._restore: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, summary: Optional[Callable] = None):
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(next(self._ids), name, parent, self.clock.current)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if summary is not None:
                span.attrs.update(summary(result, *args, **kwargs))
            return result
        return traced

    def install(self, functions: list) -> None:
        for module, attr, name, summary in PATCHES:
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original, summary))
            self._restore.append(functools.partial(setattr, module, attr, original))
        for func in functions:
            for attr in ("derivatives", "value"):
                setattr(func, attr, self.wrap(f"problems_io.{attr}",
                                              getattr(func, attr)))
                self._restore.append(functools.partial(delattr, func, attr))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def take(self) -> List[Span]:
        """Spans recorded since the last take."""
        spans, self.spans = self.spans, []
        return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and times of one pass: every LAYER_METRICS name but
    trace.wall_s and trace.overhead_s, which compare whole passes."""
    by_id = {span.id: span for span in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def self_time(name: str) -> float:
        return sum(span.duration - sum(c.duration for c in children[span.id])
                   for span in by_name[name])

    def enclosing_run(span: Span) -> Optional[Span]:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "arp_driver.run":
                return span
        return None

    out: Dict[str, float] = {}
    for name in ("arp_driver.run", "sos_certify.min_sigma_sos",
                 "sos_certify.is_sos_convex", "sdp_core.problem", "sdp_core.solve",
                 "subproblem.minimize_model", "problems_io.derivatives",
                 "problems_io.value", "tensor_poly.tensor_apply",
                 "tensor_poly.taylor_value", "tensor_poly.min_eigenvalue",
                 "experiments.scan"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.s"] = total(name)
    out["arp_driver.run.self_s"] = self_time("arp_driver.run")
    out["sos_certify.min_sigma_sos.self_s"] = self_time("sos_certify.min_sigma_sos")

    runs = by_name["arp_driver.run"]
    out["arp_driver.outer_iters"] = sum(s.attrs.get("iterations", 0) for s in runs)
    successes = sum(s.attrs.get("successes", 0) for s in runs)
    driver_certs = stationary = 0
    paths = {"direct": 0, "stalled_gap": 0, "bisection": 0}
    for cert in by_name["sos_certify.min_sigma_sos"]:
        kids = children[cert.id]
        solves = [c for c in kids if c.name == "sdp_core.solve"]
        if any(c.name == "sos_certify.is_sos_convex" for c in kids):
            paths["bisection"] += 1
        elif solves and solves[0].attrs.get("status") != SdpStatus.OPTIMAL.value:
            paths["stalled_gap"] += 1
        else:
            paths["direct"] += 1
        run = enclosing_run(cert)
        if run is not None:
            driver_certs += 1
            # "epsilon" is missing only if the run raised; count nothing then
            if cert.attrs.get("grad_norm", np.inf) <= run.attrs.get("epsilon", -1.0):
                stationary += 1
    out["arp_driver.certs_per_success"] = _ratio(driver_certs, successes)
    out["arp_driver.stationary_certs"] = stationary
    for path, count in paths.items():
        out[f"sos_certify.path.{path}"] = count
    solves = by_name["sdp_core.solve"]
    out["sos_certify.sdp_per_cert"] = _ratio(
        len(solves), len(by_name["sos_certify.min_sigma_sos"]))

    ipm_iters = sum(s.attrs.get("iterations", 0) for s in solves)
    out["sdp_core.ipm_iters"] = ipm_iters
    out["sdp_core.ms_per_ipm_iter"] = _ratio(1000.0 * out["sdp_core.solve.s"],
                                             ipm_iters)
    for status in SdpStatus:
        out[f"sdp_core.status.{status.value}"] = sum(
            1 for s in solves if s.attrs.get("status") == status.value)
    out["sdp_core.optimal_frac"] = _ratio(
        out[f"sdp_core.status.{SdpStatus.OPTIMAL.value}"], len(solves))

    subsolves = by_name["subproblem.minimize_model"]
    out["subproblem.newton_iters"] = sum(s.attrs.get("iterations", 0)
                                         for s in subsolves)
    out["subproblem.failures"] = sum(1 for s in subsolves
                                     if not s.attrs.get("converged", False))
    out["experiments.scan.failures"] = sum(s.attrs.get("failures", 0)
                                           for s in by_name["experiments.scan"])
    out["trace.spans"] = len(spans)
    return out
