"""Damped-Newton minimization of certified-convex regularized models.

The certifier guarantees convexity of the model before entry, and sigma > 0
makes it coercive, so any stationary point is a global minimizer; plain
damped Newton from the origin therefore suffices and keeps the origin-descent
property m(s) <= m(0) by construction, up to the rounding of m near its
minimizer, where the line search judges a step by its slope.

Each Newton direction is one factor and solve by the SDP solver's shifted
Cholesky routines, with the subsolver's own shift start and cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sdp_core import _cho_solve, _chol
from .sos_certify import SosModel

_RIDGE_START = 1e-12  # first ridge on a failed factor, relative to max(1, max |H|)
_RIDGE_MAX = 1e-4  # a Hessian that needs a larger relative ridge is a breakdown
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
_VALUE_ROUNDING = 2.0 ** -50  # values within this of |m(s)|, relative, differ by rounding
_MAX_HALVINGS = 60  # step halvings before the line search gives up
_POLISH_STEPS = 4  # Newton steps taken after the termination test first holds
_MAX_ITER = 100  # Newton iterations; the bundled runs average about 5 per solve
_GRAD_FLOOR = 1e-12  # stationarity target, relative to 1 + |f0|, that always ends the solve


class SubsolverFailure(RuntimeError):
    """Line search or factorization broke down before the tolerance was met."""


@dataclass(frozen=True, eq=False)
class SubsolveResult:
    s: np.ndarray
    model_value: float
    grad_norm: float
    iterations: int
    converged: bool


def _newton_direction(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H d = -grad by the solver's shifted Cholesky factor, its shift
    from _RIDGE_START up to _RIDGE_MAX, and its dpotrs solve.  For a
    bit-symmetric H these are the calls scipy.linalg's cho_factor(H,
    lower=True) and cho_solve make, so the bits are theirs.  The finiteness
    check is made here, once."""
    if not (np.isfinite(hessian).all() and np.isfinite(grad).all()):
        raise ValueError("model Hessian and gradient must be finite")
    try:
        factor = _chol(hessian, _RIDGE_START, _RIDGE_MAX)
    except np.linalg.LinAlgError:
        raise SubsolverFailure("model Hessian factorization failed") from None
    return _cho_solve(factor, -grad)


def minimize_model(model: SosModel, theta: float = 0.5) -> SubsolveResult:
    """Minimize the model to ||grad m(s)|| <= max(theta*||s||^(p'-1), floor),
    floor = _GRAD_FLOOR * (1 + |f0|), within _MAX_ITER Newton iterations.

    Armijo backtracking (constant _ARMIJO, halving, at most _MAX_HALVINGS
    halvings) keeps every accepted step a descent step.  Near the minimizer
    the predicted decrease can fall below one ulp of m(s), and the value
    test then decides on rounding noise and lets the gradient crawl; a trial
    whose value lies within _VALUE_ROUNDING |m(s)| of m(s) is therefore also
    accepted when it passes the approximate Wolfe test of Hager & Zhang,
    grad m(trial) . d <= (2 _ARMIJO - 1) grad m(s) . d, so such a step
    descends up to rounding of the value.  Once the
    termination inequality first holds, up to _POLISH_STEPS polishing Newton
    steps sharpen the stationarity residual — near the minimizer they
    contract quadratically — and the last iterate still meeting the
    inequality is returned.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    floor = _GRAD_FLOOR * (1.0 + abs(model.f0))
    if model.sigma <= 0.0:
        raise ValueError("sigma must be positive for a coercive model")

    power = model.p_prime - 1
    s = np.zeros(model.n)
    value = model.value(s)
    grad = model.gradient(s)
    iterations = 0
    polish_remaining = _POLISH_STEPS
    best = None  # last iterate meeting the termination inequality

    while iterations < _MAX_ITER:
        grad_norm = float(np.linalg.norm(grad))
        threshold = max(theta * float(np.linalg.norm(s)) ** power, floor)
        if grad_norm <= threshold:
            best = (s.copy(), value, grad_norm, iterations)
            if polish_remaining == 0 or grad_norm <= floor:
                break
            polish_remaining -= 1
        elif best is not None:
            break

        direction = _newton_direction(model.hessian(s), grad)
        slope = float(grad @ direction)
        if slope >= 0.0:
            # ridge-regularized solve must give descent; treat as breakdown
            if best is not None:
                break
            raise SubsolverFailure("Newton direction is not a descent direction")
        step = 1.0
        halvings = 0
        while True:
            trial = s + step * direction
            trial_value = model.value(trial)
            trial_grad = None
            if trial_value <= value + _ARMIJO * step * slope:
                break
            # approximate Wolfe (Hager & Zhang, SIAM J. Optim. 2005): where
            # the values differ by rounding alone, the slope decides
            if abs(trial_value - value) <= _VALUE_ROUNDING * abs(value):
                trial_grad = model.gradient(trial)
                if float(trial_grad @ direction) <= (2.0 * _ARMIJO - 1.0) * slope:
                    break
            step *= 0.5
            halvings += 1
            if halvings >= _MAX_HALVINGS:
                if best is not None:
                    s_b, v_b, g_b, _ = best
                    return SubsolveResult(s=s_b, model_value=v_b, grad_norm=g_b,
                                          iterations=iterations, converged=True)
                raise SubsolverFailure(
                    f"line search failed after {_MAX_HALVINGS} halvings")
        s = trial
        value = trial_value
        grad = model.gradient(s) if trial_grad is None else trial_grad
        iterations += 1

    if best is None:
        return SubsolveResult(s=s, model_value=value,
                              grad_norm=float(np.linalg.norm(grad)),
                              iterations=iterations, converged=False)
    grad_norm = float(np.linalg.norm(grad))
    threshold = max(theta * float(np.linalg.norm(s)) ** power, floor)
    if grad_norm <= threshold and value <= best[1]:
        return SubsolveResult(s=s.copy(), model_value=value, grad_norm=grad_norm,
                              iterations=iterations, converged=True)
    s_b, v_b, g_b, _ = best
    return SubsolveResult(s=s_b, model_value=v_b, grad_norm=g_b,
                          iterations=iterations, converged=True)
