"""SoS-convexity certification of regularized Taylor models via Gram SDPs.

A polynomial matrix M(s) is an SoS-matrix iff y^T M(s) y is a sum of squares
in the joint variables (s, y).  For the models built here that form, called
h_hat below, is quadratic in y, so its Gram factor only needs the basis
{y_i * s^beta : |beta| <= (p'-2)/2}.  Matching the coefficients of h_hat and
z'Qz depends on the model only through the right-hand side, so the matching
rows are built once per (n, p') and cached: the basis, one pair matrix per
monomial y_i y_i' s^alpha (stacked into one array, the solver's constraint
format), the regularizer's coefficients at sigma = 1 and the t-shift column.
Both the minimal regularization weight (sigma linear in the rows, minimized
directly) and the fixed-sigma membership check (always-feasible phase-I
formulation) solve the same small block-diagonal SDP over that structure,
differing only in the column of the 1x1 block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sdp_core import SdpProblem, SdpSolution, SdpStatus, solve_sdp
from .tensor_poly import (Exponents, SymmetricTensor, min_eigenvalue,
                          monomials_up_to, tensor_apply)

BasisElement = Tuple[int, Exponents]

# Residuals at or below this mark an SDP iterate as feasible.
_CLEAN_RESIDUAL = 1e-8
# Widest stalled-gap bracket, relative to max(1, sigma), still accepted.
_STALLED_WIDTH = 1e-5
# Coefficient match, relative to 1 + max |coefficient| of h_hat.
_COEFF_MATCH = 1e-7


class ConvexityCase(Enum):
    STRONGLY_CONVEX = "StronglyConvex"
    NONCONVEX = "Nonconvex"
    NEARLY_STRONGLY_CONVEX = "NearlyStronglyConvex"


class CertificationError(RuntimeError):
    """No certificate decision could be reached."""


class SosIndeterminate(CertificationError):
    """The certification SDP failed; membership is undecided, not false."""


@dataclass(frozen=True, eq=False)
class SosModel:
    """Case-dependent convexified Taylor model around a fixed point.

    m(s) = f0 + g.s + (1/2) s'H_bar s + sum_{j=3..p} (1/j!) T_j[s]^j
           + (sigma/p') ||s||^p'

    H_bar already contains any case-dependent quadratic shift, so the three
    convexity cases share one evaluation path.  p' is p+1 for odd p and p+2
    for even p, always even.
    """

    n: int
    p: int
    f0: float
    g: np.ndarray
    H_bar: np.ndarray
    higher: List[SymmetricTensor]
    delta: float
    sigma: float
    case_tag: ConvexityCase
    p_prime: int = field(init=False)

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("model order p must be >= 2")
        object.__setattr__(self, "p_prime",
                           self.p + 1 if self.p % 2 == 1 else self.p + 2)
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "H_bar", np.asarray(self.H_bar, dtype=float))
        if self.g.shape != (self.n,):
            raise ValueError("gradient shape does not match dimension")
        if self.H_bar.shape != (self.n, self.n):
            raise ValueError("H_bar shape does not match dimension")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if len(self.higher) != max(0, self.p - 2):
            raise ValueError(f"expected {max(0, self.p - 2)} higher tensors (orders 3..p)")
        for k, tensor in enumerate(self.higher):
            if tensor.order != k + 3:
                raise ValueError(f"higher[{k}] has order {tensor.order}, expected {k + 3}")
            if tensor.dim != self.n:
                raise ValueError("higher tensor dimension mismatch")
        lam, _ = min_eigenvalue(self.H_bar)
        if lam < self.delta - 1e-10:
            raise ValueError(
                f"lambda_min(H_bar) = {lam:.3e} violates the >= delta - 1e-10 contract")

    def value(self, s: Sequence[float]) -> float:
        s = np.asarray(s, dtype=float)
        norm = float(np.linalg.norm(s))
        total = self.f0 + float(self.g @ s) + 0.5 * float(s @ self.H_bar @ s)
        for j, tensor in enumerate(self.higher, start=3):
            total += tensor_apply(tensor, s, 0) / math.factorial(j)
        total += self.sigma / self.p_prime * norm ** self.p_prime
        return total

    def gradient(self, s: Sequence[float]) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        norm = float(np.linalg.norm(s))
        grad = self.g + self.H_bar @ s
        for j, tensor in enumerate(self.higher, start=3):
            grad = grad + tensor_apply(tensor, s, 1) / math.factorial(j - 1)
        grad = grad + self.sigma * norm ** (self.p_prime - 2) * s
        return grad

    def hessian(self, s: Sequence[float]) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        norm = float(np.linalg.norm(s))
        hess = self.H_bar.copy()
        for j, tensor in enumerate(self.higher, start=3):
            hess = hess + tensor_apply(tensor, s, 2) / math.factorial(j - 2)
        eye = np.eye(self.n)
        if self.p_prime == 4:
            hess = hess + self.sigma * (norm ** 2 * eye + 2.0 * np.outer(s, s))
        elif norm > 0.0:
            hess = hess + self.sigma * (norm ** (self.p_prime - 2) * eye
                                        + (self.p_prime - 2) * norm ** (self.p_prime - 4)
                                        * np.outer(s, s))
        return hess


@dataclass(frozen=True, eq=False)
class GramCertificate:
    """PSD Gram matrix reproducing h_hat over the fixed monomial basis."""

    basis: List[BasisElement]
    Q: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class CertificateReport:
    max_coeff_mismatch: float
    gram_min_eigenvalue: float
    hessian_violations: int
    samples: int
    ok: bool


def gram_basis(n: int, p_prime: int) -> List[BasisElement]:
    """Monomials y_i * s^beta with |beta| <= (p'-2)/2, i-major, graded-lex."""
    half = (p_prime - 2) // 2
    return [(i, beta) for i in range(n) for beta in monomials_up_to(n, half)]


def _norm_power_coefficient(alpha: Sequence[int], k: int) -> float:
    """Coefficient of s^alpha in ||s||^(2k) = (sum_j s_j^2)^k."""
    if sum(alpha) != 2 * k or any(e < 0 or e % 2 for e in alpha):
        return 0.0
    return float(math.factorial(k)
                 // math.prod(math.factorial(e // 2) for e in alpha))


@dataclass(frozen=True, eq=False)
class _GramStructure:
    """Coefficient matching of h_hat against z'Qz for one (n, p').

    Row k is the monomial rows[k] = (i, i', alpha), i <= i', standing for
    y_i y_i' s^alpha.  <pair_matrices[k], Q> is its coefficient in z'Qz,
    reg[k] its coefficient in the regularizer's form at sigma = 1 and
    shift[k] its coefficient in the phase-I shift sum_u z_u^2.
    pair_matrices is one (len(rows), size, size) stack, the layout of an
    SdpProblem constraint block.
    """

    basis: Tuple[BasisElement, ...]
    rows: Tuple[Tuple[int, int, Exponents], ...]
    pair_matrices: np.ndarray
    reg: np.ndarray
    shift: np.ndarray


@functools.lru_cache(maxsize=None)
def _gram_structure(n: int, p_prime: int) -> _GramStructure:
    """Shared by every call with this (n, p'), so all of it is read-only."""
    basis = gram_basis(n, p_prime)
    size = len(basis)
    basis_index = {elem: k for k, elem in enumerate(basis)}
    half = (p_prime - 2) // 2
    half_list = monomials_up_to(n, half)
    alphas = monomials_up_to(n, p_prime - 2)

    rows = [(i, ip, alpha) for i in range(n) for ip in range(i, n)
            for alpha in alphas]
    pair_matrices = np.zeros((len(rows), size, size))
    reg: List[float] = []
    shift: List[float] = []
    for k, (i, ip, alpha) in enumerate(rows):
        A = pair_matrices[k]
        for beta in half_list:
            rem = tuple(a - b for a, b in zip(alpha, beta))
            if any(e < 0 for e in rem) or sum(rem) > half:
                continue
            A[basis_index[(i, beta)], basis_index[(ip, rem)]] += 1.0
            if i != ip:
                A[basis_index[(ip, beta)], basis_index[(i, rem)]] += 1.0
        # the regularizer's form at sigma = 1 is
        # ||s||^(p'-2) ||y||^2 + (p'-2) ||s||^(p'-4) (s.y)^2
        rest = list(alpha)
        rest[i] -= 1
        rest[ip] -= 1
        reg.append((p_prime - 2) * (1.0 if i == ip else 2.0)
                   * _norm_power_coefficient(rest, half - 1)
                   + (_norm_power_coefficient(alpha, half) if i == ip
                      else 0.0))
        # z_u^2 contributes only to diagonal rows with even exponents
        shift.append(1.0 if i == ip and all(e % 2 == 0 for e in alpha)
                     else 0.0)
    pair_matrices.setflags(write=False)
    columns = np.array([reg, shift])
    columns.setflags(write=False)
    return _GramStructure(basis=tuple(basis), rows=tuple(rows),
                          pair_matrices=pair_matrices,
                          reg=columns[0], shift=columns[1])


def _coefficients(model: SosModel, structure: _GramStructure,
                  sigma: float) -> np.ndarray:
    """Coefficient of each row's monomial in h_hat at weight sigma.

    From m''(s) = H_bar + sum_j T_j[s]^(j-2)/(j-2)! + sigma * (regularizer),
    row (i, i', alpha) takes H_bar[i, i'] when |alpha| = 0 and otherwise
    T_{|alpha|+2}[i, i', alpha] / prod(alpha!), doubled when i != i'.
    """
    closed = np.zeros(len(structure.rows))
    for k, (i, ip, alpha) in enumerate(structure.rows):
        degree = sum(alpha)
        if degree == 0:
            value = float(model.H_bar[i, ip])
        elif degree + 2 <= model.p:
            key = (i, ip) + tuple(idx for idx, e in enumerate(alpha)
                                  for _ in range(e))
            value = (model.higher[degree - 1].get(key)
                     / math.prod(math.factorial(e) for e in alpha))
        else:
            continue
        closed[k] = value if i == ip else 2.0 * value
    return closed + sigma * structure.reg


def _coefficient_residual(basis: Sequence[BasisElement], Q: np.ndarray,
                          rows: Sequence[Tuple[int, int, Exponents]],
                          target: np.ndarray) -> float:
    """Largest coefficient mismatch of z'Qz against target, row by row.

    z'Qz is re-expanded from the basis pairs, independently of the pair
    matrices the SDP was built from.
    """
    recon: Dict[Tuple[int, int, Exponents], float] = {}
    size = len(basis)
    for u in range(size):
        iu, bu = basis[u]
        for w in range(u, size):
            iw, bw = basis[w]
            key = (min(iu, iw), max(iu, iw),
                   tuple(a + b for a, b in zip(bu, bw)))
            weight = 1.0 if u == w else 2.0
            recon[key] = recon.get(key, 0.0) + weight * float(Q[u, w])
    mismatch = [abs(recon.pop(row, 0.0) - t)
                for row, t in zip(rows, target.tolist())]
    mismatch.extend(abs(c) for c in recon.values())  # monomials outside every row
    return max(mismatch, default=0.0)


def _clean(solution: SdpSolution) -> bool:
    """Both residuals are small, though the gap may have stalled."""
    return (solution.status in (SdpStatus.OPTIMAL, SdpStatus.MAX_ITERATIONS,
                                SdpStatus.NUMERICAL_FAILURE)
            and solution.primal_residual <= _CLEAN_RESIDUAL
            and solution.dual_residual <= _CLEAN_RESIDUAL)


def _usable(solution: SdpSolution) -> bool:
    """Solver output is decision-grade even when the target tol was missed."""
    return (solution.status is SdpStatus.OPTIMAL
            or (_clean(solution) and solution.gap <= _CLEAN_RESIDUAL))


def _solve_gram(structure: _GramStructure, column: np.ndarray, rhs: np.ndarray,
                tol: float) -> SdpSolution:
    """min c s.t. <A_k, Q> - column[k] * c = rhs[k], Q PSD, c >= 0.

    c is the 1x1 second block: sigma for the minimal weight, t for phase I.
    """
    size = len(structure.basis)
    problem = SdpProblem(objective=[np.zeros((size, size)), np.ones((1, 1))],
                         constraints=[structure.pair_matrices,
                                      -column[:, None, None]],
                         b=rhs)
    return solve_sdp(problem, tol=tol)


def min_sigma_sos(model: SosModel, tol: float = 1e-10) -> Tuple[float, GramCertificate]:
    """Minimal sigma >= 0 making the model's Hessian form a sum of squares.

    The model's own sigma field is ignored; sigma is the 1x1 second block of
    the SDP variable and enters each coefficient-matching row linearly.  On
    solver breakdown, falls back to bisection driven by is_sos_convex.
    """
    structure = _gram_structure(model.n, model.p_prime)
    base = _coefficients(model, structure, 0.0)
    # rescale the matching rows to O(1); sigma and Q scale back linearly
    scale = max(1.0, float(np.max(np.abs(base))))
    solution = _solve_gram(structure, structure.reg, base / scale, tol)

    sigma_hat = max(0.0, float(solution.X[1][0, 0]))
    # The complementarity gap can stall on badly conditioned instances while
    # both residuals stay clean; the optimum then lies between the dual and
    # primal objectives.  Taking the primal side over-estimates sigma_bar,
    # which is safe because feasibility is monotone in sigma.
    width = solution.gap * (2.0 + 2.0 * sigma_hat)
    if _usable(solution) or (_clean(solution)
                             and width <= _STALLED_WIDTH * max(1.0, sigma_hat)):
        sigma_bar = sigma_hat * scale
        Q = solution.X[0] * scale
        residual = _coefficient_residual(structure.basis, Q, structure.rows,
                                         base + sigma_bar * structure.reg)
        return sigma_bar, GramCertificate(basis=list(structure.basis), Q=Q,
                                          residual=residual)

    return _bisect_sigma(model)


def _bisect_sigma(model: SosModel) -> Tuple[float, GramCertificate]:
    """Doubling bracket + bisection on sigma, membership via is_sos_convex."""
    feasible, cert = is_sos_convex(replace(model, sigma=0.0))
    if feasible:
        return 0.0, cert
    hi = 1.0
    hi_cert: Optional[GramCertificate] = None
    for _ in range(80):
        feasible, cert = is_sos_convex(replace(model, sigma=hi))
        if feasible:
            hi_cert = cert
            break
        hi *= 2.0
    if hi_cert is None:
        raise CertificationError(
            f"no feasible sigma found up to {hi:.3e}; model delta={model.delta}, "
            f"p={model.p}, n={model.n}")
    lo = 0.0
    while hi - lo > 1e-6 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        feasible, cert = is_sos_convex(replace(model, sigma=mid))
        if feasible:
            hi, hi_cert = mid, cert
        else:
            lo = mid
    return hi, hi_cert


def is_sos_convex(model: SosModel,
                  tol: float = 1e-9) -> Tuple[bool, Optional[GramCertificate]]:
    """Membership check at the model's fixed sigma.

    Solved as the always-feasible phase-I program min t s.t. the Gram matrix
    G matches h_hat after a t-shift of the identity (G PSD, t >= 0); the form
    is a sum of squares iff the optimal t is zero up to tolerance.  Solver
    breakdown raises SosIndeterminate rather than returning false.
    """
    structure = _gram_structure(model.n, model.p_prime)
    target = _coefficients(model, structure, model.sigma)
    target_norm = float(np.max(np.abs(target)))
    scale = max(1.0, target_norm)
    solution = _solve_gram(structure, structure.shift, target / scale, tol)
    usable = _usable(solution)
    if not usable and not _clean(solution):
        raise SosIndeterminate(
            f"phase-I SDP ended with {solution.status.value} "
            f"(gap {solution.gap:.3e})")

    t_hat = max(0.0, float(solution.X[1][0, 0]))
    t_star = t_hat * scale
    threshold = _COEFF_MATCH * (1.0 + target_norm)
    if t_star > threshold:
        if usable:
            return False, None
        # stalled gap: t_star only upper-bounds the optimum; refuse unless
        # the dual side t_star - width also clears the threshold
        width = solution.gap * (2.0 + 2.0 * t_hat) * scale
        if t_star - width > threshold:
            return False, None
        raise SosIndeterminate(
            f"stalled too close to the membership threshold "
            f"(t={t_star:.3e}, width={width:.3e}, threshold={threshold:.3e})")
    Q = solution.X[0] * scale
    residual = _coefficient_residual(structure.basis, Q, structure.rows, target)
    return True, GramCertificate(basis=list(structure.basis), Q=Q,
                                 residual=residual)


def verify_certificate(cert: GramCertificate, model: SosModel,
                       samples: int = 100, seed: int = 0) -> CertificateReport:
    """Independent soundness report for a certificate.

    Reconstructs z'Qz against the model's Hessian form coefficient by
    coefficient, reports lambda_min(Q), and spot-checks positive
    semidefiniteness of the model Hessian at sampled steps.
    """
    structure = _gram_structure(model.n, model.p_prime)
    target = _coefficients(model, structure, model.sigma)
    mismatch = _coefficient_residual(cert.basis, cert.Q, structure.rows, target)
    gram_min = float(np.min(np.linalg.eigvalsh(cert.Q))) if cert.Q.size else 0.0

    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(samples):
        s = rng.standard_normal(model.n) * (10.0 ** rng.uniform(-2, 1))
        hess = model.hessian(s)
        eigenvalues = np.linalg.eigvalsh(hess)
        spectral = float(np.max(np.abs(eigenvalues)))
        if float(eigenvalues[0]) < -1e-8 * (1.0 + spectral):
            violations += 1

    q_scale = float(np.max(np.abs(cert.Q))) if cert.Q.size else 0.0
    ok = (mismatch <= _COEFF_MATCH * (1.0 + float(np.max(np.abs(target))))
          and gram_min >= -1e-9 * (1.0 + q_scale)
          and violations == 0)
    return CertificateReport(max_coeff_mismatch=mismatch,
                             gram_min_eigenvalue=gram_min,
                             hessian_violations=violations,
                             samples=samples, ok=ok)
