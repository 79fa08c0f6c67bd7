"""SoS-convexity certification of regularized Taylor models via one Gram SDP.

A polynomial matrix M(s) is an SoS-matrix iff y^T M(s) y is a sum of squares
in the joint variables (s, y).  For the models built here that form, called
h_hat below, is quadratic in y, so its Gram factor only needs the basis
{y_i * s^beta : |beta| <= (p'-2)/2}.  Matching the coefficients of h_hat and
z'Qz depends on the model only through the right-hand side, so the matching
rows are built once per (n, p') and cached: the basis, the table of the
basis pairs whose product is each row's monomial y_i y_i' s^alpha, one pair
matrix per row filled from it, the regularizer's exact integer Gram matrix
R at sigma = 1 with its row coefficients reg, and the SDP over them, which
keeps only the nonzero entries of the dense pair stack it is given: every
cell of Q belongs to one row, so only the sigma cell is shared between
rows, and its rank check and constraint Gram matrix need no dense rows.
One SDP is solved per model, with sigma linear in the rows, minimized: its
primal iterate, once proven (below), is the certificate at sigma_bar, and
its dual objective bounds the minimal weight from below.
Q_bar + (sigma - sigma_bar) R matches h_hat at any other sigma exactly, so
the same solve answers membership at a fixed sigma.

A certificate is accepted only when it is proven; an over-estimate of
sigma_bar is safe, since feasibility is monotone in sigma.  An iterate's
Gram block Q at weight sigma is projected onto the rows at that sigma in
closed form (Peyrl & Parrilo, Theor. Comput. Sci. 2008): the pair matrices
have disjoint supports, so Q' = Q + sum_k lambda_k A_k with
lambda_k = (b_k + reg_k sigma - <A_k, Q>) / ||A_k||^2.  Q' is the
certificate once a shifted Cholesky factor proves it positive definite
(Rump, BIT 2006, Corollary 2.4; see _proven_positive_definite).  Through
solve_sdp's certify hook the proof is tried on each iterate with sigma > 0,
both residuals at most _CLEAN_RESIDUAL and (sigma - b'y) <= gap sigma, and
the solve ends Certified on the first that proves.  A solve that ends
otherwise with clean residuals has its returned iterate tried once more,
lifted to Q + t sigma R at sigma (1 + t) for t = 0, then (if sigma > 0)
gap/8: R's rows are reg exactly, so the lift costs a factor 1 + gap/8.
Anything else raises SosIndeterminate.  b'y is not a rigorous bound, so
sigma_bar comes only from the certificate.

gap is min_sigma_sos's one tuning argument.  Its default, _CERT_GAP =
5e-7, is half the benchmark's 1e-6 reference gate on sigma_bar, and every
caller but the driver keeps it.  The driver passes 1e-3: it only needs a
proven upper bound on sigma_bar, and the last IPM iterations before 5e-7
buy digits it never uses.  A larger gap moves where the solve stops, never
how its certificate is proven.  It bounds sigma_bar's relative distance
to b'y, not to the minimal weight.

A structure whose row count lies in _SAMPLED_ROWS gives its SDP
constraint samples, so each solve forms its Schur complement at sample
points (sdp_core): a change of dual basis inside the Schur solve only, so
the rows, b, the certificate and its check stay in coefficient form.  The
points are m approximate Fekete points (u_j, y_j), picked once per (n, p')
by one pivoted QR (dgeqp3) of the rows' monomials y_i y_i' u^alpha at 2m
seeded candidates (Sommariva & Vianello, Comput. Math. Appl. 2009; see
_constraint_samples).  The crossover and the spread of the candidates are
measured; the figures stand beside _SAMPLED_ROWS and _SAMPLE_SPREAD.

That SDP is balanced before it is solved: it is posed in u, s = r u, with
r = 2^k chosen from the model so that sigma r^(p'-2) is about max |H_bar|.
Each row, sigma and the Gram matrix scale by a power of r, which is a power
of two and so exact in floating point, and the Gram matrix by a positive
diagonal congruence, which keeps it PSD.  The certificate is mapped back and
checked in the original basis, so r can cost iterations but never soundness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._lapack import dgeqp3, dpotrf
from .sdp_core import (Certify, ConstraintSamples, IterateLog, SdpProblem,
                       SdpSolution, SdpStatus, solve_sdp)
from .tensor_poly import (Exponents, SymmetricTensor, min_eigenvalue,
                          monomials_up_to, tensor_apply)

BasisElement = Tuple[int, Exponents]

_CLEAN_RESIDUAL = 1e-8  # residuals at or below this let an SDP iterate's certificate be tried
_COEFF_MATCH = 1e-7  # coefficient match, relative to 1 + max |coefficient| of h_hat
_MIN_SIGMA_TOL = 1e-10  # SDP tolerance of the minimal-weight solve (sigma_bar)
_CERT_GAP = 5e-7  # (sigma - b'y) / sigma at which an iterate's certificate is tried: half the 1e-6 reference gate
_LIFT = 0.125  # t / gap of the lift Q + t sigma R tried after a solve whose own iterate fails
_MARGIN_SLACK = 1e-10  # rounding by which an SosModel's lambda_min(H_bar) may miss delta
_VERIFY_SAMPLES = 100  # steps at which verify_certificate samples the model Hessian
_VERIFY_SEED = 0  # seed of those steps, so a report is reproducible
_HESSIAN_SLACK = 1e-8  # sampled Hessian eigenvalue >= -this * (1 + spectral radius) passes
_GRAM_SLACK = 1e-9  # lambda_min(Q) >= -this * (1 + max |Q|) passes
# Row counts whose structures take the sampled Schur complement.  Per IPM
# iteration, over the rows against at sample points (tools/schur_crossover.py,
# three seed-0 grid models; two runs of nine passes, medians averaged, five
# passes at (4, 6), three at (5, 6); one BLAS thread, 2-core host): 0.13
# against 0.16 ms at (n, p') = (2, 4), m = 18, the bundled runs' and scans';
# 0.30 against 0.27 at (3, 4), m = 60; 0.27 against 0.25 at (2, 6), m = 45;
# 1.07 against 0.71 at (4, 4), m = 150; 2.7 against 1.24 at (3, 6), m = 210;
# 68 against 20 at (4, 6), m = 700; 1096 against 169 at (5, 6), m = 1890,
# where all three grid models certify on both paths.  Samples read faster
# from m = 45 on, but moving the lower bound below 100 changes the bits of
# the (3, 4) and (2, 6) certificates, and is left to its own change.  The
# range stops at the largest structure checked.
_SAMPLED_ROWS = range(100, 1891)
_SAMPLE_SEED = 0  # seed of the candidate sample points, so every process picks the same
# Standard deviation of the candidate points' u, measured on certify_grid's
# (3, 6) cell, seeds 0-3: with u uniform in [-1, 1]^n (cond(T) = 812) 7 of
# its 48 SDPs ended NumericalFailure or MaxIterations, in 1903 IPM iterations
# against the rows' 1020; at 1.5 (cond(T) about 1e4) every count matched the
# rows' for five candidate seeds, and for seed 0 at grid seeds 4-7 too.
_SAMPLE_SPREAD = 1.5


class ConvexityCase(Enum):
    STRONGLY_CONVEX = "StronglyConvex"
    NONCONVEX = "Nonconvex"
    NEARLY_STRONGLY_CONVEX = "NearlyStronglyConvex"


class CertificationError(RuntimeError):
    """No certificate decision could be reached."""


class SosIndeterminate(CertificationError):
    """The certification SDP ended without a proven certificate, or a fixed
    sigma lies between the dual bound and sigma_bar; membership is
    undecided, not false."""


def regularizer_order(p: int) -> int:
    """p' of an order-p model: p + 1 for odd p and p + 2 for even p, always
    even, so that (sigma/p') ||s||^p' is a polynomial."""
    return p + 1 if p % 2 == 1 else p + 2


@dataclass(frozen=True, eq=False)
class SosModel:
    """Case-dependent convexified Taylor model around a fixed point.

    m(s) = f0 + g.s + (1/2) s'H_bar s + sum_{j=3..p} (1/j!) T_j[s]^j
           + (sigma/p') ||s||^p'

    H_bar already contains any case-dependent quadratic shift, so the three
    convexity cases share one evaluation path; p' is regularizer_order(p).
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
    # lambda_min(H_bar), computed when omitted; dataclasses.replace carries
    # it over, so a replace that changes H_bar must pass it (or None) too
    lambda_min: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("model order p must be >= 2")
        object.__setattr__(self, "p_prime", regularizer_order(self.p))
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
        lam = self.lambda_min
        if lam is None:
            lam, _ = min_eigenvalue(self.H_bar)
        object.__setattr__(self, "lambda_min", lam)
        if lam < self.delta - _MARGIN_SLACK:
            raise ValueError(
                f"lambda_min(H_bar) = {lam:.3e} violates the >= delta - "
                f"{_MARGIN_SLACK:g} contract")

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
        # p' >= 4, so norm ** (p' - 4) is defined at s = 0
        return hess + self.sigma * (norm ** (self.p_prime - 2) * np.eye(self.n)
                                    + (self.p_prime - 2) * norm ** (self.p_prime - 4)
                                    * np.outer(s, s))


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


class _BasisPairs(NamedTuple):
    """z'Qz re-expanded from a basis: the pairs (u[t], w[t]), u <= w, in
    row-major order, each adding weights[t] * Q[u, w] (1 on the diagonal,
    2 off it) to the coefficient of its product monomial, whose index is
    bins[t]: the row of that monomial, or a bin past the rows for a
    monomial outside every row.  size is the number of bins."""

    u: np.ndarray
    w: np.ndarray
    weights: np.ndarray
    bins: np.ndarray
    size: int


def _basis_pairs(basis: Sequence[BasisElement],
                 rows: Sequence[Tuple[int, int, Exponents]]) -> _BasisPairs:
    """The pairs of basis whose products make up z'Qz, read from the basis
    elements themselves.  Over a structure's own basis they are the one
    table of its rows: _gram_structure fills the SDP's pair matrices and
    the regularizer's row coefficients from them."""
    row_index = {row: k for k, row in enumerate(rows)}
    u, w = np.triu_indices(len(basis))
    bins = np.empty(len(u), dtype=np.intp)
    for t, (a, c) in enumerate(zip(u.tolist(), w.tolist())):
        (ia, beta_a), (ic, beta_c) = basis[a], basis[c]
        key = (min(ia, ic), max(ia, ic), tuple(x + y for x, y in zip(beta_a, beta_c)))
        bins[t] = row_index.setdefault(key, len(row_index))
    pairs = _BasisPairs(u, w, np.where(u == w, 1.0, 2.0), bins, len(row_index))
    for array in pairs[:4]:
        array.setflags(write=False)
    return pairs


@dataclass(frozen=True, eq=False)
class _GramStructure:
    """Coefficient matching of h_hat against z'Qz for one (n, p').

    Row k is the monomial rows[k] = (i, i', alpha), i <= i', standing for
    y_i y_i' s^alpha, and <A_k, Q> its coefficient in z'Qz for the pair
    matrix A_k.  R is the regularizer's Gram matrix at sigma = 1, integer and
    PSD, and reg = <A_k, R> its row coefficients; integer sums are exact, so
    z'Rz is the regularizer's form bit for bit.  row_degrees[k] = |alpha|
    and basis_degrees[u] = |beta| of basis[u] = (i, beta) are the powers of
    r by which the substitution s = r u scales a row and a basis element.
    pairs, the table of the basis pairs in each row, gives the pair
    matrices and reg, and re-expands z'Qz for the certificate check.  problem
    is the min-sigma SDP over these rows, min sigma s.t. <A_k, Q> - reg[k]
    sigma = b_k, with b = 0, and with constraint samples
    (_constraint_samples) when its row count lies in _SAMPLED_ROWS; each
    model poses it with problem.with_rhs, so its checks and factorizations
    are made once per (n, p').
    """

    basis: Tuple[BasisElement, ...]
    rows: Tuple[Tuple[int, int, Exponents], ...]
    R: np.ndarray
    reg: np.ndarray
    row_degrees: np.ndarray
    basis_degrees: np.ndarray
    pairs: _BasisPairs
    problem: SdpProblem


def _multinomial(exponents: Exponents) -> int:
    """Coefficient of s^(2 exponents) in ||s||^(2 |exponents|)."""
    return (math.factorial(sum(exponents))
            // math.prod(math.factorial(e) for e in exponents))


def _constraint_samples(n: int, p_prime: int, reg: np.ndarray) -> ConstraintSamples:
    """The m rows of (n, p'), whose row coefficients of the regularizer are
    reg, at m approximate Fekete points (u_j, y_j), picked by one pivoted
    QR from 2m seeded candidates (Sommariva & Vianello, Comput. Math. Appl.
    2009): u normal with standard deviation _SAMPLE_SPREAD, y uniform on
    the unit sphere, and T[j, k] row k's monomial y_i y_i' u^alpha at
    candidate j; the first m pivots of dgeqp3 on T' are the points.  The
    rows run over the pairs (i, i'), then alpha, so T is the row-wise
    Khatri-Rao product of the pair products W and the Vandermonde U of the
    alphas.  z_j is the basis at the point: y_i u^beta, whose u^beta, with
    |beta| <= (p'-2)/2, lead the graded alphas.  The sigma column's sample
    is s = -T reg."""
    m = len(reg)
    alphas = np.array(monomials_up_to(n, p_prime - 2))
    half = len(monomials_up_to(n, (p_prime - 2) // 2))
    pairs = np.triu_indices(n)
    rng = np.random.default_rng(_SAMPLE_SEED)
    u = _SAMPLE_SPREAD * rng.standard_normal((2 * m, n))
    y = rng.standard_normal((2 * m, n))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    U = np.prod(u[:, None, :] ** alphas, axis=2)
    W = y[:, pairs[0]] * y[:, pairs[1]]
    T = (W[:, :, None] * U[:, None, :]).reshape(2 * m, m)
    # a workspace query first: the minimal one runs the unblocked QR
    work = dgeqp3(T.T, lwork=-1)[3]
    _, pivots, _, _, info = dgeqp3(T.T, lwork=int(work[0]))
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal geqp3")
    points = pivots[:m] - 1
    V = (y[points, :, None] * U[points, None, :half]).reshape(m, -1)
    return ConstraintSamples(U[points], W[points], V, -(T[points] @ reg))


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
    # every product of two basis elements lies in a row, so the pairs fill
    # the 0/1 pair matrices, each cell of Q in exactly one of them
    pairs = _basis_pairs(basis, rows)
    pair_matrices = np.zeros((len(rows), size, size))
    pair_matrices[pairs.bins, pairs.u, pairs.w] = \
        pair_matrices[pairs.bins, pairs.w, pairs.u] = 1.0
    # the regularizer's form at sigma = 1,
    # ||s||^(p'-2) ||y||^2 + (p'-2) ||s||^(p'-4) (s.y)^2, as squares over the
    # basis: ||s||^(2h) = sum_{|g| = h} multinom(h; g) s^(2g), h = (p'-2)/2,
    # gives sum_{i, g} multinom(h; g) (y_i s^g)^2, and the second term is
    # (p'-2) sum_{|d| = h-1} multinom(h-1; d) (sum_j y_j s^(d+e_j))^2
    R = np.zeros((size, size))
    for gamma in half_list:
        if sum(gamma) == half:
            for i in range(n):
                R[basis_index[(i, gamma)], basis_index[(i, gamma)]] += \
                    _multinomial(gamma)
        elif sum(gamma) == half - 1:
            v = np.zeros(size)
            for j in range(n):
                beta = tuple(e + (idx == j) for idx, e in enumerate(gamma))
                v[basis_index[(j, beta)]] = 1.0
            R += (p_prime - 2) * _multinomial(gamma) * np.outer(v, v)
    reg = _expand(pairs, R)
    row_degrees = np.array([sum(alpha) for _, _, alpha in rows])
    basis_degrees = np.array([sum(beta) for _, beta in basis])
    for array in (R, reg, row_degrees, basis_degrees):
        array.setflags(write=False)
    samples = (_constraint_samples(n, p_prime, reg)
               if len(rows) in _SAMPLED_ROWS else None)
    problem = SdpProblem(objective=[np.zeros((size, size)), np.ones((1, 1))],
                         constraints=[pair_matrices, -reg[:, None, None]],
                         b=np.zeros(len(rows)), samples=samples)
    return _GramStructure(basis=tuple(basis), rows=tuple(rows), R=R, reg=reg,
                          row_degrees=row_degrees, basis_degrees=basis_degrees,
                          pairs=pairs, problem=problem)


def _coefficients(model: SosModel, structure: _GramStructure,
                  sigma: float) -> np.ndarray:
    """Coefficient of each row's monomial in h_hat at weight sigma.

    From m''(s) = H_bar + sum_j T_j[s]^(j-2)/(j-2)! + sigma * (regularizer),
    row (i, i', alpha) takes H_bar[i, i'] when |alpha| = 0 and otherwise
    T_{|alpha|+2}[i, i', alpha] / prod(alpha!), doubled when i != i'.
    """
    closed = np.zeros(len(structure.rows))
    for k, ((i, ip, alpha), degree) in enumerate(
            zip(structure.rows, structure.row_degrees.tolist())):
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


def _expand(pairs: _BasisPairs, Q: np.ndarray) -> np.ndarray:
    """The coefficient of each bin's monomial in z'Qz, re-expanded from the
    basis pairs; np.bincount adds each coefficient's terms in pair order,
    from 0.0."""
    return np.bincount(pairs.bins, pairs.weights * Q[pairs.u, pairs.w],
                       minlength=pairs.size)


def _coefficient_residual(pairs: _BasisPairs, Q: np.ndarray,
                          target: np.ndarray) -> float:
    """Largest coefficient mismatch of z'Qz against target, row by row, and
    of every monomial outside the rows against 0."""
    recon = _expand(pairs, Q)
    rows = len(target)
    return float(max(np.max(np.abs(recon[:rows] - target), initial=0.0),
                     np.max(np.abs(recon[rows:]), initial=0.0)))


def _balancing_exponent(model: SosModel) -> int:
    """k of the power of two r = 2^k by which min_sigma_sos substitutes s = r u.

    An a-priori AM-GM estimate of sigma_bar: with q = p'-2, each tensor term
    of the Hessian is bounded by a_j ||s||^k, k = j-2, a_j = ||T_j||_F / k!,
    and gets an equal share lambda = lambda_min(H_bar) / (p-2) of the margin;
    lambda - a_j t^k + sigma t^q >= 0 for all t >= 0 first holds at
    sigma_j = (k / (q-k)) lambda t_j^-q, t_j = (q lambda / (a_j (q-k)))^(1/k).
    r then balances the weight's scale, sigma r^q, against max |H_bar|:
    r = 2^round(log2((max |H_bar| / sigma_est)^(1/q))), sigma_est the largest
    sigma_j.  Worked in log2, so no extreme tensor overflows; r = 1 when no
    tensor term needs a weight.
    """
    if not model.higher or not model.lambda_min > 0.0:
        return 0
    q = model.p_prime - 2
    lam = model.lambda_min / (model.p - 2)
    log_sigma = -math.inf  # log2(sigma_est)
    for j, tensor in enumerate(model.higher, start=3):
        k = j - 2
        a = float(np.linalg.norm(tensor.array)) / math.factorial(k)
        if a == 0.0:
            continue
        log_t = math.log2(q * lam / (a * (q - k))) / k
        log_sigma = max(log_sigma, math.log2(k / (q - k) * lam) - q * log_t)
    if log_sigma == -math.inf:
        return 0
    h_max = float(np.max(np.abs(model.H_bar)))
    return round((math.log2(h_max) - log_sigma) / q)


def _scale_rows(structure: _GramStructure, values: np.ndarray,
                k: int) -> np.ndarray:
    """Row coefficients under s = 2^k u: row (i, i', alpha) times 2^(k |alpha|)."""
    return np.ldexp(values, k * structure.row_degrees)


def _scale_gram(structure: _GramStructure, Q: np.ndarray, k: int) -> np.ndarray:
    """D Q D with D = diag(2^(k |beta|)): a Gram matrix over the s basis
    as one over the u basis, s = 2^k u; k < 0 maps back."""
    degrees = k * structure.basis_degrees
    return np.ldexp(Q, degrees[:, None] + degrees[None, :])


def _certificate(structure: _GramStructure, Q: np.ndarray,
                 target: np.ndarray) -> GramCertificate:
    """Q over the s basis, with its residual against target."""
    residual = _coefficient_residual(structure.pairs, Q, target)
    return GramCertificate(basis=list(structure.basis), Q=Q, residual=residual)


def _projected(pairs: _BasisPairs, Q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Q moved onto the rows <A_k, Q> = target_k in closed form (Peyrl &
    Parrilo, Theor. Comput. Sci. 2008), for the pairs of a structure's own
    basis, every product of which lies in a row: the pair matrices have
    disjoint supports, so the projection is Q + sum_k lambda_k A_k with
    lambda_k = (target_k - <A_k, Q>) / ||A_k||^2, and ||A_k||^2 is the sum
    of row k's pair weights.  Built on the upper triangle and mirrored, so
    the result is symmetric to the bit."""
    norms = np.bincount(pairs.bins, pairs.weights, minlength=pairs.size)
    lam = (target - _expand(pairs, Q)) / norms
    projected = np.empty_like(Q)
    projected[pairs.u, pairs.w] = Q[pairs.u, pairs.w] + lam[pairs.bins]
    projected[pairs.w, pairs.u] = projected[pairs.u, pairs.w]
    return projected


def _proven_positive_definite(Q: np.ndarray) -> bool:
    """Whether a floating-point Cholesky factor of Q - c I proves the
    symmetric Q positive definite, after Rump ("Verification of positive
    definiteness", BIT 2006, Corollary 2.4).

    The argument is Rump's.  If dpotrf factors A = fl(Q - c I) into G'G,
    Demmel's backward error bound gives G'G = A + E with
    |E| <= gamma_(n+1) |G'| |G|, gamma_k = k u / (1 - k u), u = 2^-53, for
    any order of the inner products; a column of G has squared norm at most
    a_ii / (1 - gamma_(n+1)), so ||E||_2 <= gamma_(n+1) / (1 - gamma_(n+1))
    tr(A), and A + E = G'G is PSD.  So lambda_min(Q) > 0 whenever c
    exceeds that bound plus the rounding of the shifted diagonal: Rump's
    Corollary 2.4 shift, gamma_(n+1) / (1 - gamma_(n+1)) tr(Q) plus terms
    of order u tr(Q) and of underflow.  The check takes
    c = 2 gamma_(n+1) (tr(Q) + n tiny), tiny = 2^-1022: the factor 2 covers
    those terms, the rounding of c and of the trace, and one more relative
    rounding of each entry of Q (at most u tr(Q) in norm for a PSD Q, the
    map back by the scale of _min_sigma_solve), and n tiny covers
    underflow.  A factor exists only if every q_ii > c >= 0, so tr(Q) is
    positive whenever the check passes.
    """
    n = len(Q)
    gamma = (n + 1) * 2.0 ** -53 / (1.0 - (n + 1) * 2.0 ** -53)
    c = 2.0 * gamma * (float(np.trace(Q)) + n * np.finfo(float).tiny)
    shifted = Q.copy()
    shifted[np.diag_indices(n)] -= c
    # shifted is symmetric, so its transpose is the same matrix in the
    # column order dpotrf takes without a copy
    _, info = dpotrf(shifted.T, lower=1)
    return info == 0


def _proven_gram(structure: _GramStructure, Q: np.ndarray, b: np.ndarray,
                 sigma: float) -> Optional[np.ndarray]:
    """Q projected onto the rows with right-hand side b at weight sigma, if
    Rump's check proves the projection positive definite, else None."""
    projected = _projected(structure.pairs, Q, b + sigma * structure.reg)
    return projected if _proven_positive_definite(projected) else None


def _certifier(structure: _GramStructure, b: np.ndarray,
               gap: float = _CERT_GAP) -> Certify:
    """solve_sdp's certify hook for the min-sigma SDP with right-hand side
    b: an iterate with sigma > 0, (sigma - b'y) <= gap sigma and residuals
    at most _CLEAN_RESIDUAL, its Gram block as _proven_gram proves it."""
    size = len(structure.basis)

    def certify(X: np.ndarray, log: IterateLog) -> Optional[np.ndarray]:
        sigma, bound = log.primal_objective, log.dual_objective
        if not (sigma > 0.0 and sigma - bound <= gap * sigma
                and log.primal_residual <= _CLEAN_RESIDUAL
                and log.dual_residual <= _CLEAN_RESIDUAL):
            return None
        # sigma, the primal objective <C, X>, is the iterate's X[size, size]
        Q = _proven_gram(structure, X[:size, :size], b, sigma)
        if Q is None:
            return None
        certificate = X.copy()
        certificate[:size, :size] = Q
        return certificate

    return certify


def _proven_after_solve(structure: _GramStructure, b: np.ndarray, solution: SdpSolution,
                        gap: float) -> Optional[Tuple[float, np.ndarray]]:
    """(t, Q') for a min-sigma solve that did not end Certified: t the first
    of 0 and (at sigma > 0, where a lift moves Q) _LIFT * gap at which
    _proven_gram proves its Gram block Q lifted to Q + t sigma R at
    sigma (1 + t), and Q' that proof.  None when neither proves, or the solve
    ended Infeasible, DualInfeasible or with a residual above _CLEAN_RESIDUAL."""
    if (solution.status in (SdpStatus.INFEASIBLE, SdpStatus.DUAL_INFEASIBLE)
            or not solution.primal_residual <= _CLEAN_RESIDUAL
            or not solution.dual_residual <= _CLEAN_RESIDUAL):
        return None
    Q, sigma = solution.X[0], max(0.0, float(solution.X[1][0, 0]))
    for t in (0.0, _LIFT * gap) if sigma > 0.0 else (0.0,):
        proven = _proven_gram(structure, Q + t * sigma * structure.R, b, sigma * (1.0 + t))
        if proven is not None:
            return t, proven
    return None


def _min_sigma_solve(model: SosModel, gap: float = _CERT_GAP) -> Tuple[
        _GramStructure, np.ndarray, float, np.ndarray, float]:
    """The model's one certification SDP: min sigma s.t.
    <A_k, Q> - reg[k] * sigma = rows[k], Q PSD, sigma >= 0.

    The certificate is proven on an iterate (Certified, see _certifier) or
    after the solve (_proven_after_solve).  Returns the structure, the rows
    at sigma = 0 (base), sigma_bar, Q_bar over the s basis, matching
    base + sigma_bar * reg, and sigma_lo, the dual objective b'y mapped back
    like sigma_bar.  An unproven solve raises SosIndeterminate naming the
    SDP status, gap and residuals.
    """
    structure = _gram_structure(model.n, model.p_prime)
    base = _coefficients(model, structure, 0.0)
    k = _balancing_exponent(model)
    rows = _scale_rows(structure, base, k)
    # rescale the matching rows to O(1); sigma and Q scale back linearly
    scale = max(1.0, float(np.max(np.abs(rows))))
    problem = structure.problem.with_rhs(rows / scale)
    solution = solve_sdp(problem, tol=_MIN_SIGMA_TOL,
                         certify=_certifier(structure, problem.b, gap))
    proven = ((0.0, solution.X[0]) if solution.status is SdpStatus.CERTIFIED
              else _proven_after_solve(structure, problem.b, solution, gap))
    if proven is None:
        raise SosIndeterminate(
            f"min-sigma SDP ended with {solution.status.value} (gap {solution.gap:.3e}, "
            f"primal residual {solution.primal_residual:.3e}, dual residual "
            f"{solution.dual_residual:.3e})")
    t, Q_u = proven
    q = model.p_prime - 2
    sigma_u = max(0.0, float(solution.X[1][0, 0])) * (1.0 + t) * scale
    sigma_bar = math.ldexp(sigma_u, -k * q)
    sigma_lo = math.ldexp(float(problem.b @ solution.y) * scale, -k * q)
    Q = _scale_gram(structure, Q_u * scale, -k)
    return structure, base, sigma_bar, Q, sigma_lo


def min_sigma_sos(model: SosModel,
                  gap: float = _CERT_GAP) -> Tuple[float, GramCertificate]:
    """Minimal sigma >= 0 making the model's Hessian form a sum of squares.

    The model's own sigma field is ignored; sigma is the 1x1 second block of
    the SDP variable and enters each coefficient-matching row linearly; the
    SDP is solved to _MIN_SIGMA_TOL.

    The SDP is solved in u, s = r u, with r = 2^k from _balancing_exponent:
    row (i, i', alpha) scales by r^|alpha|, sigma by r^(p'-2) (the
    regularizer is homogeneous of that degree in s) and the Gram matrix by
    the congruence Q_u = D Q D, D = diag(r^|beta|).  Unscaled, sigma_bar can
    be ~1e9 while the low-degree entries of Q are O(1), and the interior
    point method stalls; balanced, both are of the size of H_bar.  Scaling
    a float by a power of two only moves its exponent, so the rows, sigma_bar
    and Q = D^-1 Q_u D^-1 carry no rounding of the substitution, and a
    congruence by a positive diagonal keeps Q PSD.  The certificate is then
    built and checked in the original basis against base + sigma_bar * reg,
    so r can cost iterations but never soundness.

    The certificate is proven (see the module docstring): on the first
    iterate within gap of its dual bound, (sigma - b'y) <= gap sigma, or
    after the solve, at most a factor 1 + gap/8 above the solve's own sigma.
    gap must lie in (0, 1); it sets how early the solve may stop, never how
    the certificate is proven.  The default, _CERT_GAP, is half the
    benchmark's 1e-6 reference gate on sigma_bar; the driver, which only
    needs a proven upper bound, passes a larger one.  gap bounds sigma_bar's
    distance to b'y, the balanced SDP's dual objective, not to the minimal
    weight.  An unproven solve raises SosIndeterminate (a
    CertificationError) naming the SDP status, gap and residuals.
    """
    if not 0.0 < gap < 1.0:
        raise ValueError(f"gap must lie in (0, 1), got {gap!r}")
    structure, base, sigma_bar, Q, _ = _min_sigma_solve(model, gap)
    return sigma_bar, _certificate(structure, Q, base + sigma_bar * structure.reg)


def _gram_min(Q: np.ndarray) -> Tuple[float, bool]:
    """lambda_min(Q), and whether it passes -_GRAM_SLACK * (1 + max |Q|)."""
    if not Q.size:
        return 0.0, True
    gram_min = float(np.min(np.linalg.eigvalsh(Q)))
    return gram_min, gram_min >= -_GRAM_SLACK * (1.0 + float(np.max(np.abs(Q))))


def is_sos_convex(model: SosModel) -> Tuple[bool, Optional[GramCertificate]]:
    """Membership check at the model's fixed sigma, from the min-sigma solve.

    Q = Q_bar + (sigma - sigma_bar) R matches h_hat at sigma, since R's rows
    are exactly reg, and is PSD up to rounding for every sigma >= sigma_bar.
    True, with Q as the certificate, when lambda_min(Q) passes the test
    verify_certificate applies; False when sigma lies below the solve's dual
    bound sigma_lo on the minimal weight.  In between, and when the solve
    breaks down, membership is undecided: SosIndeterminate, not false.
    """
    structure, base, sigma_bar, Q_bar, sigma_lo = _min_sigma_solve(model)
    Q = Q_bar + (model.sigma - sigma_bar) * structure.R
    if _gram_min(Q)[1]:
        return True, _certificate(structure, Q, base + model.sigma * structure.reg)
    if model.sigma < sigma_lo:
        return False, None
    raise SosIndeterminate(
        f"sigma={model.sigma:.6e} lies between the dual bound "
        f"sigma_lo={sigma_lo:.6e} and sigma_bar={sigma_bar:.6e}")


def verify_certificate(cert: GramCertificate, model: SosModel) -> CertificateReport:
    """Independent soundness report for a certificate.

    Reconstructs z'Qz against the model's Hessian form coefficient by
    coefficient, reports lambda_min(Q), and spot-checks positive
    semidefiniteness of the model Hessian at _VERIFY_SAMPLES steps drawn
    from a generator seeded with _VERIFY_SEED, so the report is reproducible.
    """
    structure = _gram_structure(model.n, model.p_prime)
    target = _coefficients(model, structure, model.sigma)
    # a certificate over another basis is re-expanded over its own pairs
    pairs = (structure.pairs if tuple(cert.basis) == structure.basis
             else _basis_pairs(cert.basis, structure.rows))
    mismatch = _coefficient_residual(pairs, cert.Q, target)
    gram_min, gram_ok = _gram_min(cert.Q)

    rng = np.random.default_rng(_VERIFY_SEED)
    violations = 0
    for _ in range(_VERIFY_SAMPLES):
        s = rng.standard_normal(model.n) * (10.0 ** rng.uniform(-2, 1))
        hess = model.hessian(s)
        eigenvalues = np.linalg.eigvalsh(hess)
        spectral = float(np.max(np.abs(eigenvalues)))
        if float(eigenvalues[0]) < -_HESSIAN_SLACK * (1.0 + spectral):
            violations += 1

    ok = (mismatch <= _COEFF_MATCH * (1.0 + float(np.max(np.abs(target))))
          and gram_ok and violations == 0)
    return CertificateReport(max_coeff_mismatch=mismatch,
                             gram_min_eigenvalue=gram_min,
                             hessian_violations=violations,
                             samples=_VERIFY_SAMPLES, ok=ok)
