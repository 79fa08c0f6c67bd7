"""Adaptive regularization outer loop with certified-convex Taylor models.

Each iteration: test stationarity, classify the local convexity case from
lambda_min of the Hessian against delta, build the case-shifted model,
certify a weight sigma_bar (cached per point — it does not depend on
sigma), set sigma = max(sigma_bar, sigma_r), minimize the model, and accept
or reject the step by the ratio of actual to Taylor-predicted decrease.
Success relaxes sigma_r by gamma2, failure escalates by gamma1.

sigma_bar is the certified weight: a proven upper bound on the minimal SoS
weight, whose relative gap to the certification SDP's dual objective b'y is
at most _WEIGHT_GAP (1e-3).  Any sigma >= sigma_bar is certified, since
feasibility is monotone in sigma, so an over-estimate costs step length,
never soundness.  It is no promise to lie within 1e-3 of the minimum, since
b'y is no rigorous lower bound.  Measured at p = 4 on rosenbrock2 from the
suite start, where sigma_bar reaches about 1.1e12, each weight lay at most
4.5e-4 above a 5e-7-gap certification of the same point.  The records of
the run moved further, by up to 4.7e-2 at iteration 257, because the run's
points moved by about 2e-5 and the minimal weight is that sensitive there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .problems_io import (MAX_DERIVATIVE_ORDER, ProblemFunction, ProblemSpec,
                          build_function)
from .sos_certify import (CertificationError, ConvexityCase, SosModel,
                          min_sigma_sos, regularizer_order)
from .subproblem import SubsolverFailure, minimize_model
from .tensor_poly import min_eigenvalue, taylor_value

_STATIONARY_STEP = 1e-14  # a step this short, relative to 1 + ||x||, is rounding: no progress
_CASE_SLACK = 1e-8  # (a): Taylor decrease may miss its case bound by this, relative to 1 + |bound|
_ETA_SLACK = 1e-14  # (b): accepted decrease may miss eta * predicted by this rounding, relative
_FLOOR_SLACK = 1e-10  # (d): absolute rounding by which a decrease may miss the delta/18 floor
# (sigma - b'y) / sigma at which a certification may stop on a proven
# certificate: three decades below the factors gamma1 = 2 and gamma2 = 0.5
# by which sigma_r moves, and an over-estimate of that size moves bound
# (c)'s log(sigma_max/sigma0)/log(gamma1) term by at most log(1.001)/log 2
_WEIGHT_GAP = 1e-3


class RunStatus(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    STALLED = "Stalled"  # MAX_CONSECUTIVE_FAILURES rejected steps in a row
    CERTIFICATION_FAILURE = "CertificationFailure"  # min_sigma_sos raised


@dataclass(frozen=True)
class ArpConfig:
    """Outer-loop parameters.

    delta is epsilon**a unless an explicit delta overrides it; a and delta
    are mutually exclusive, defaulting to a = 0.5.  sigma0 defaults to
    sigma_min.  x0 defaults to the origin of the problem's dimension.
    """

    p: int = 3
    epsilon: float = 1e-5
    a: Optional[float] = None
    delta: Optional[float] = None
    eta: float = 0.1
    gamma1: float = 2.0
    gamma2: float = 0.5
    sigma_min: float = 1e-8
    sigma0: Optional[float] = None
    theta: float = 0.5
    max_iter: int = 1000
    x0: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError("model order p must be >= 3")
        if self.p > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"model order p must be <= {MAX_DERIVATIVE_ORDER}, "
                             f"the highest derivative order of the problem oracles")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.a is not None and self.delta is not None:
            raise ValueError("a and delta are mutually exclusive")
        if self.a is None and self.delta is None:
            object.__setattr__(self, "a", 0.5)
        if self.a is not None and not 0.0 <= self.a <= 0.5:
            raise ValueError("a must lie in [0, 1/2]")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("explicit delta must lie in (0, 1)")
        if self.eta <= 0.0:
            raise ValueError("eta must be > 0")
        if not self.gamma1 > 1.0:
            raise ValueError("gamma1 must be > 1")
        if not 0.0 < self.gamma2 < 1.0:
            raise ValueError("gamma2 must lie in (0, 1)")
        if self.sigma_min <= 0.0:
            raise ValueError("sigma_min must be > 0")
        if self.sigma0 is None:
            object.__setattr__(self, "sigma0", self.sigma_min)
        if self.sigma0 < self.sigma_min:
            raise ValueError("sigma0 must be >= sigma_min")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def effective_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return self.epsilon ** self.a


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One outer iteration.

    success <=> rho > eta, except iterations flagged StationaryStep or
    NonpositiveDenominator or SubsolverFailure, which are forced
    unsuccessful.  On unsuccessful iterations x does not move, so
    f_after == f_before.  taylor_decrease is f(x_k) - T_p(x_k, s_k).
    sigma_bar is the certified weight at x_before: a proven upper bound on
    the minimal SoS weight within _WEIGHT_GAP (relative) of the
    certification SDP's dual objective, not of the minimum itself (see the
    module docstring).
    """

    k: int
    case_tag: ConvexityCase
    lambda_min: float
    sigma_bar: float
    sigma_r: float
    sigma: float
    step_norm: float
    rho: float
    f_before: float
    f_after: float
    taylor_decrease: float
    grad_norm: float
    success: bool
    flags: Tuple[str, ...] = ()
    x_before: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class RunResult:
    status: RunStatus
    x: np.ndarray
    grad_norm: float
    records: List[IterationRecord]
    successful_count: int
    unsuccessful_count: int
    sigma_max_observed: float
    message: str = ""  # why certification failed; empty for every other status


def classify_case(lambda_min: float, delta: float) -> ConvexityCase:
    """Partition by lambda_min against [0, delta]; both boundaries inclusive
    toward the outer cases (delta -> StronglyConvex, 0 -> Nonconvex)."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if lambda_min >= delta:
        return ConvexityCase.STRONGLY_CONVEX
    if lambda_min <= 0.0:
        return ConvexityCase.NONCONVEX
    return ConvexityCase.NEARLY_STRONGLY_CONVEX


def build_model(bundle, case_tag: ConvexityCase, delta: float,
                sigma: float, lambda_min: Optional[float] = None) -> SosModel:
    """Case-shifted model: H_bar is H, H - lambda_min*I + delta*I, or
    H + delta*I so that lambda_min(H_bar) >= delta in every case.  A caller
    that already holds lambda_min(H) passes it to save the eigensolve; the
    model gets lambda_min(H_bar) from the shift, without one."""
    H = bundle.hessian()
    lam = min_eigenvalue(H)[0] if lambda_min is None else lambda_min
    expected = classify_case(lam, delta)
    if expected is not case_tag:
        raise ValueError(
            f"case {case_tag.value} inconsistent with lambda_min={lam:.6e}, "
            f"delta={delta:.6e} (expected {expected.value})")
    n = bundle.n
    # the shift moves every eigenvalue alike, so lambda_min(H_bar) follows
    if case_tag is ConvexityCase.STRONGLY_CONVEX:
        H_bar, lam_bar = H, lam
    elif case_tag is ConvexityCase.NONCONVEX:
        H_bar, lam_bar = H + (delta - lam) * np.eye(n), delta
    else:
        H_bar, lam_bar = H + delta * np.eye(n), lam + delta
    return SosModel(n=n, p=bundle.p, f0=bundle.value, g=bundle.gradient(),
                    H_bar=H_bar, higher=list(bundle.tensors[2:]), delta=delta,
                    sigma=sigma, case_tag=case_tag, lambda_min=lam_bar)


def ratio_test(f_k: float, f_trial: float, taylor_at_step: float) -> float:
    """rho = actual decrease / Taylor-predicted decrease."""
    return (f_k - f_trial) / (f_k - taylor_at_step)


MAX_CONSECUTIVE_FAILURES = 60


def run(problem: Union[ProblemSpec, ProblemFunction],
        config: ArpConfig) -> RunResult:
    func = build_function(problem) if isinstance(problem, ProblemSpec) else problem
    delta = config.effective_delta
    x = (np.zeros(func.n) if config.x0 is None
         else np.asarray(config.x0, dtype=float))
    if x.shape != (func.n,):
        raise ValueError(f"x0 has shape {x.shape}, problem dimension is {func.n}")

    sigma_r = config.sigma0
    sigma_max = config.sigma0
    records: List[IterationRecord] = []
    consecutive_failures = 0
    status = RunStatus.MAX_ITERATIONS
    message = ""

    # per-point cache: derivatives, classification, and sigma_bar are all
    # independent of sigma, so they survive unsuccessful iterations
    cache = None

    for k in range(config.max_iter):
        if cache is None:
            bundle = func.derivatives(x, config.p)
            grad_norm = float(np.linalg.norm(bundle.gradient()))
            # a stationary point needs no certificate
            if grad_norm <= config.epsilon:
                status = RunStatus.CONVERGED
                break
            lam, _ = min_eigenvalue(bundle.hessian())
            case = classify_case(lam, delta)
            base_model = build_model(bundle, case, delta, sigma=0.0, lambda_min=lam)
            try:
                # gap by position: bench/tracing.py's summary of this
                # call takes extra positional arguments only
                sigma_bar, _ = min_sigma_sos(base_model, _WEIGHT_GAP)
            except CertificationError as err:
                status = RunStatus.CERTIFICATION_FAILURE
                message = str(err)
                break
            cache = (bundle, lam, case, base_model, sigma_bar)
        else:
            bundle, lam, case, base_model, sigma_bar = cache

        sigma_k = max(sigma_bar, sigma_r)
        sigma_max = max(sigma_max, sigma_k)
        f_before = bundle.value
        model = replace(base_model, sigma=sigma_k)

        flags: List[str] = []
        step = None
        try:
            result = minimize_model(model, theta=config.theta)
            if not result.converged:
                flags.append("SubsolverNotConverged")
            step = result.s
        except SubsolverFailure:
            flags.append("SubsolverFailure")

        if step is None:
            step_norm = math.nan
            rho = math.nan
            taylor_decrease = math.nan
            success = False
        else:
            step_norm = float(np.linalg.norm(step))
            taylor_at_step = taylor_value(bundle, step)
            taylor_decrease = f_before - taylor_at_step
            if step_norm <= _STATIONARY_STEP * (1.0 + float(np.linalg.norm(x))):
                flags.append("StationaryStep")
                rho = math.nan
                success = False
            elif taylor_decrease <= 0.0:
                flags.append("NonpositiveDenominator")
                rho = math.nan
                success = False
            else:
                f_trial = func.value(x + step)
                rho = ratio_test(f_before, f_trial, taylor_at_step)
                success = rho > config.eta

        if success:
            f_after = f_trial
            next_sigma_r = max(config.gamma2 * sigma_k, config.sigma_min)
        else:
            f_after = f_before
            next_sigma_r = config.gamma1 * sigma_k

        records.append(IterationRecord(
            k=k, case_tag=case, lambda_min=lam, sigma_bar=sigma_bar,
            sigma_r=sigma_r, sigma=sigma_k, step_norm=step_norm, rho=rho,
            f_before=f_before, f_after=f_after,
            taylor_decrease=taylor_decrease, grad_norm=grad_norm,
            success=success, flags=tuple(flags), x_before=x.copy()))

        sigma_r = next_sigma_r
        if success:
            x = x + step
            cache = None
            consecutive_failures = 0
        else:
            consecutive_failures += 1
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                status = RunStatus.STALLED
                break

    if cache is None and status is RunStatus.MAX_ITERATIONS:
        # the last step moved x; grad_norm belongs to the previous point
        grad_norm = float(np.linalg.norm(func.derivatives(x, 1).gradient()))
        if grad_norm <= config.epsilon:
            status = RunStatus.CONVERGED

    successes = sum(1 for r in records if r.success)
    return RunResult(status=status, x=x, grad_norm=grad_norm, records=records,
                     successful_count=successes,
                     unsuccessful_count=len(records) - successes,
                     sigma_max_observed=sigma_max, message=message)


@dataclass(frozen=True, eq=False)
class AssertionReport:
    checked_records: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def assert_theory(records: Sequence[IterationRecord],
                  config: ArpConfig) -> AssertionReport:
    """Per-iteration and per-run inequality audit of a completed run.

    (a) case-specific model-decrease lower bounds on the Taylor decrease
        (quadratic shifts carry the 1/2 prefactor of the model definition),
        _CASE_SLACK (1e-8) relative slack;
    (b) accepted steps decrease f by at least eta times the Taylor decrease;
    (c) iteration accounting: total <= |S|*(1 + |log g2|/log g1)
        + log(sigma_max/sigma0)/log g1;
    (d) for p = 3, successful StronglyConvex steps decrease f by at least
        eta*(delta/18)*||s||^2 - _FLOOR_SLACK (1e-10);
    (e) f is nonincreasing across successful iterations.
    Every violation is reported with its iteration index.
    """
    failures: List[str] = []
    delta = config.effective_delta
    p_prime = regularizer_order(config.p)

    last_f = None
    for rec in records:
        if not math.isfinite(rec.taylor_decrease):
            continue  # subsolver breakdown rows carry no step to audit
        if "StationaryStep" in rec.flags or "NonpositiveDenominator" in rec.flags:
            continue
        reg = rec.sigma / p_prime * rec.step_norm ** p_prime
        if rec.case_tag is ConvexityCase.STRONGLY_CONVEX:
            bound = reg
        elif rec.case_tag is ConvexityCase.NONCONVEX:
            bound = 0.5 * (-rec.lambda_min + delta) * rec.step_norm ** 2 + reg
        else:
            bound = 0.5 * delta * rec.step_norm ** 2 + reg
        if rec.taylor_decrease < bound - _CASE_SLACK * (1.0 + abs(bound)):
            failures.append(
                f"iteration {rec.k}: Taylor decrease {rec.taylor_decrease:.6e} "
                f"below case bound {bound:.6e}")

        if rec.success:
            actual = rec.f_before - rec.f_after
            needed = config.eta * rec.taylor_decrease
            if actual < needed - _ETA_SLACK * (1.0 + abs(needed)):
                failures.append(
                    f"iteration {rec.k}: accepted decrease {actual:.6e} "
                    f"below eta * predicted {needed:.6e}")
            if config.p == 3 and rec.case_tag is ConvexityCase.STRONGLY_CONVEX:
                floor = config.eta * (delta / 18.0) * rec.step_norm ** 2 - _FLOOR_SLACK
                if actual < floor:
                    failures.append(
                        f"iteration {rec.k}: accepted decrease {actual:.6e} "
                        f"below delta/18 floor {floor:.6e}")
            if last_f is not None and rec.f_after > last_f:
                failures.append(
                    f"iteration {rec.k}: f increased across successes "
                    f"({rec.f_after:.12e} > {last_f:.12e})")
            last_f = rec.f_after

    total = len(records)
    successes = sum(1 for r in records if r.success)
    sigma_max = max((r.sigma for r in records), default=config.sigma0)
    bound_c = (successes * (1.0 + abs(math.log(config.gamma2)) / math.log(config.gamma1))
               + math.log(sigma_max / config.sigma0) / math.log(config.gamma1))
    if total > bound_c:
        failures.append(
            f"run: {total} iterations exceed the accounting bound {bound_c:.6f} "
            f"(|S|={successes}, sigma_max={sigma_max:.3e})")

    return AssertionReport(checked_records=total, failures=failures)
