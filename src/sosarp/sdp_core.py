"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Standard primal form: minimize <C, X> subject to <A_k, X> = b_k, X PSD, with
X constrained to a fixed block-diagonal structure.  The solver is a
Mehrotra-style predictor-corrector on the HKM search direction (linearize
dX Z + X dZ = R_c, solve, symmetrize dX), with dense factorizations
throughout.  The predictor steps 0.98 of the way to the cone boundary, and
the corrector 0.9 + 0.09 min(ap_aff, ad_aff) of it, ap_aff and ad_aff the
predictor's step lengths, as SDPT3 does (Toh, Todd & Tutuncu, Optim.
Methods Softw. 1999): as the predictor nears a full step the corrector
steps up to 0.99 of the way, and each IterateLog records the fraction.
The predictor (affine-scaling) direction is never taken: it only sets the
centering and the corrector's second-order term (Mehrotra, SIAM J. Optim.
1992).  Its R_c = -XZ makes T1 = R_c Z^-1 exactly -X, so it is formed in
closed form (_predictor), without XZ or A(T1), with the bare factor solve
of the Schur system and no projection of dX; the corrector, whose step is
taken, gets the refined solve and the projection onto A(dX) = r_p
(_project_primal).
It is sized for small blocks with sparse constraint data, such as the
certification SDP's 0/1 pair matrices (see the scatters below).

At that scale the fixed cost of a call outweighs its arithmetic, so a solve
holds X, Z, R_d and every search direction as one block-diagonal D x D
matrix, D = sum d_j, with the 1x1 blocks (the sigma block of the
certification SDP) like any other, and each step of an iteration is one
call on that matrix: one dpotrf each factors X and Z, one dtrtri inverts
the factor of Z, every product is a plain D x D matmul, <V, W> is one dot
over all D^2 entries, and the symmetrization is (V + V')/2.  Block-
diagonality holds exactly: every entry off the diagonal blocks of a factor,
an inverse, a product or a sum of them is a sum of products with exact
zeros, so it is a zero.  The zeros cost little: at the [6, 1] structure of
the bundled runs a product is 7 x 7 instead of 6 x 6 and 1 x 1, against the
dozens of numpy calls that per-block views cost each iteration.  The
solution's blocks are copies of the diagonal blocks.

The LAPACK routines come from sosarp._lapack, which loads scipy's compiled
wrappers without the scipy.linalg package (about 0.17 s and 23 MB per
process): besides the factors above, dpotrf factors the Schur complement
(M, or H at sample points, below), whose 3 solves an iteration (the
predictor's, and the corrector's with its refinement) are one dpotrs
each over the rows and two dtrtrs each at sample points, the
cheaper call at each path's sizes (_triangular_solves), and each step
length is the smallest eigenvalue, from dsyevd, of L^-1 dS L^-T,
which dsygst forms in one call from the lower triangles of dS and of the
factor L of S, as SDPT3 takes the step length from the Cholesky-reduced
matrix.  Every operand reaches LAPACK in column order, so f2py copies none
to transpose it: the factors come from dpotrf in that order, and a
symmetric matrix held in row order is passed as its transpose, the same
matrix.  An iteration makes 15 calls over the rows, 3 dpotrf, 1 dtrtri,
3 dpotrs, 4 dsygst and 4 dsyevd, whatever the blocks, and 18 at sample
points, the 3 dpotrs replaced by 6 dtrtrs.

An SdpProblem checks its data once, on construction, and keeps what every
solve needs.  The constraints are the rows of the (m, N) row matrix A, row
k the blocks of A_k flattened one after another (N = sum d_j^2), which is
never formed: the nonzero entries, read once from the checked stacks in
order of the row, then of the column, are kept, and they feed the rank
check, the Gram matrix G = A A', the data scale and the scatters below.  A
cell nonzero in one row only is private to it, one nonzero in several rows
shared.  With p_k the private part of row k and S the shared cells, G = S'S
+ diag(||p_k||^2), and the QR of [S; diag(||p_k||)], whose Gram matrix is
G, gives each row's distance from the span of the rows before it,
|R[k, k]|, as a QR over all N columns would: rotating a row's private cells
onto one cell changes no inner product.  The certification SDP's pair matrices
have disjoint supports, so its S is the sigma cell.  The problem keeps the
inverse L^-T L^-1 of G, from dtrtri on its Cholesky factor L, so each solve
with G is one matrix-vector product (cond(G) is at most about 2e3 on the
certification structures); the cell map, which sends column start_j + a d_j
+ b of A, cell (a, b) of block j, to entry (s_j + a) D + s_j + b of a
flattened D x D matrix, s_j = d_0 + ... + d_(j-1); the scatter below;
without constraint samples, the checked stacks in the layout of the Schur
factor below; and C as a D x D matrix.  with_rhs poses the same constraints
with another b and checks only b, so a family of problems that differ in b,
like the certification SDPs of one Gram structure, pays for that once.

The Schur complement M[i, j] = sum_blocks <A_i, X A_j Z^-1> of the HKM
direction (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) is
formed as B B', which numpy computes as one dsyrk, so M is symmetric to the
bit: with X = Lx Lx' and Z = Lz Lz', row k of B holds Lx_j' A_k Lz_j^-T of
every block j, flattened in the column order of A, so B has N columns, not
D^2 (901, not 961, at Gram size 30).  B is built block by block from dense
data: the problem keeps each block's checked stack as one (d, m d) array,
column k d + c holding column c of A_k, so Lx_j' A_k for every k is one
product, and its m (d, d) parts meet Lz_j^-T in one batched product; a 1x1
block is kept as its column of values a, and its column of B is (lx a)
lz^-1.  The stacks hold m N floats, 0.3 MB for dense blocks of 20 with 100
constraints and 20 MB for the certification SDP at (n, p') = (4, 6), which
takes samples and so keeps none.  A(V) and A*(y) are scatters over the cell
map: A(V) adds each A_k[c] V[c] into entry k in order of c, and A*(y) each
y_k A_k[c] into cell c in order of k, so at (3, 6) each reads the 927
nonzero entries of the (210, 901) A instead of all of it.  For the
certification SDP the scatter of A*(y) is exact: the pair matrices'
supports are disjoint, so each cell of their block receives one term, and
the sigma cell receives its terms in order of k, as einsum over the dense
rows adds them.  So it is bit for bit the dense product; for dense data it
agrees up to rounding, as A(V) does with A @ v on all data, since BLAS adds
a row's terms in its own order.  The corrector's Schur solve takes one
round of iterative refinement, whose residual is formed as B (B' dy)
rather than M dy: near the optimum dy is large along M's smallest
eigenvectors, where B' dy stays small, so the factored form rounds far
less.  The predictor's solve takes none: its direction is an estimate.

A problem with blocks [d, 1] may carry constraint samples
(ConstraintSamples): m points j at which sum_k T[j, k] A_k =
diag(z_j z_j', s_j), for an invertible m x m T.  Its solves form the Schur
complement in that dual basis instead (Lofberg & Parrilo, "From
coefficients to samples", CDC 2004; Papp & Yildiz, SIAM J. Optim. 2019):
H = T M T' has the entries (z_i' X z_j)(z_i' Z^-1 z_j) + s_i s_j x / z, x
and z the 1x1 blocks, so with F = V Lx and G = V Lz^-T over the d x d
block, the z_j the rows of V, H = (F F') o (G G') + c c', c = s sqrt(x /
z): two dsyrks of (m, d) arrays and a Hadamard product, O(m^2 d) against
the O(m^2 N) of B B', and symmetric to the bit.  Each Schur system is
solved as dy = T' H^-1 T r, since M^-1 = T' H^-1 T, with the corrector's
round of refinement taking its residual as K (K' v) for the rows K_j =
(vec(F_j G_j'), c_j) of H = K K', K = T B, as B (B' dy) is taken above;
never as H v.  Only the Schur solve changes basis: the rows, b, the residuals,
A(V), A*(y), _project_primal and the start point stay in coefficient
form, so the (X, y, Z) directions are those of the rows in exact
arithmetic.  T is kept as its row-wise Khatri-Rao factors, so T r and
T' v are one matrix product each.
Construction checks the samples: T must be invertible with cond(T) at
most _SAMPLE_COND, and for random symmetric P, z_j' P z_j + s_j p = (T
A(P))_j must hold to rounding.  The sampled form pays off only on large
structures, so sos_certify gives samples to those alone (its
_SAMPLED_ROWS holds the measured crossover).  A problem with samples keeps
no stacks: its solves never form B.

A caller that can prove a certificate from an iterate passes solve_sdp a
certify hook.  It is called once per iteration, before the tol test, with
the D x D primal iterate and the iteration's IterateLog (objectives, gap,
residuals); it returns None to go on, or the D x D matrix that the solve
returns as X with the status CERTIFIED and the iterate's y, Z, gap and
residuals.  The solver knows nothing of what the hook proves: the
certification SDP's hook lives in sos_certify.  A hook that returns None
changes no bit of the solve.

Every iterate is finite: the data is checked on construction, and each new
(X, y, Z) is checked once per iteration.  So the kernels check no input; a
step that overflows or yields NaN ends the solve with NUMERICAL_FAILURE and
the last finite iterate, never with an exception.  The one check inside
a kernel is the step length's: dsygst's L^-1 dS L^-T can overflow on a
finite iterate, and LAPACK's eigenvalues of the result are no bound.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from ._lapack import dpotrf, dpotrs, dsyevd, dsygst, dtrtri, dtrtrs

Blocks = List[np.ndarray]

_SYMMETRY_TOL = 1e-10  # relative asymmetry of an input matrix accepted as rounding
_RANK_TOL = 1e-10  # a row within this of the earlier rows' span, relative, is dependent
_JITTER_START = 1e-14  # first relative Cholesky shift: rounding level, changes nothing else
_JITTER_GROWTH = 100.0  # three tries reach _JITTER_MAX, so a failing factor fails fast
_JITTER_MAX = 1e-10  # a matrix that needs a larger relative shift is not numerically PD
_PREDICTOR_FRACTION = 0.98  # predictor's share of the step to the boundary; 0.99 or 1 stall scans SDPs
_STEP_BASE = 0.9  # the corrector's share is SDPT3's _STEP_BASE + _STEP_GAIN times the
_STEP_GAIN = 0.09  # smaller predictor step: bolder as the predictor nears a full step
_DIVERGENCE = 1e12  # an objective or trace(X) beyond this marks (dual) infeasibility
_MIN_STEP = 1e-10  # both step lengths below this: the iteration cannot progress
_MAX_ITER = 200  # certification SDPs average ~23 iterations; this only caps a stall
_SAMPLE_TOL = 1e-10  # relative mismatch of z_j' P z_j + s_j p against (T A(P))_j accepted as rounding
_SAMPLE_PROBES = 2  # random symmetric P by which construction checks constraint samples
_SAMPLE_COND = 1e6  # cond(T) above this refuses constraint samples; sos_certify's reach about 2e4


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"
    CERTIFIED = "Certified"


class IterateLog(NamedTuple):
    iteration: int
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    mu: float
    alpha_p: float = math.nan
    alpha_d: float = math.nan
    centering: float = math.nan
    step_fraction: float = math.nan


# solve_sdp's hook: from the D x D primal iterate and its log, None or the
# X to end the solve with
Certify = Callable[[np.ndarray, IterateLog], Optional[np.ndarray]]
# a solve of the Schur system, dy = M^-1 rhs (_row_schur, _sample_schur)
Solve = Callable[[np.ndarray], np.ndarray]


def _symmetrized(stack: np.ndarray, what: str) -> np.ndarray:
    """Stack of (S + S')/2; raises ValueError naming what.format(k) if S_k is
    not finite or not symmetric."""
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(what.format(bad[0]) + " is not finite")
    scale = np.max(np.abs(stack), axis=(1, 2), initial=1.0)
    skew = np.max(np.abs(stack - stack.transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(skew > _SYMMETRY_TOL * scale)
    if bad.size:
        raise ValueError(what.format(bad[0]) + " is not symmetric")
    return (stack + stack.transpose(0, 2, 1)) / 2.0


def _rhs_vector(b) -> np.ndarray:
    """b as a float vector; ValueError unless it is a finite vector."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"b has shape {b.shape}, expected a vector")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"entry {bad[0]} of b is not finite")
    return b


def _independent_rows(rows: np.ndarray, columns: np.ndarray, values: np.ndarray,
                      squares: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The mask of the rows of A independent of the rows before them, and
    A A' over those rows, from A's nonzero entries and its rows' squared
    norms, by the split into private and shared cells of the module
    docstring."""
    m = len(squares)
    shared = np.bincount(columns)[columns] > 1
    private = np.bincount(rows[~shared], values[~shared] ** 2, minlength=m)
    cells, place = np.unique(columns[shared], return_inverse=True)
    S = np.zeros((len(cells), m))
    S[place, rows[shared]] = values[shared]
    R = np.linalg.qr(np.vstack([S, np.diag(np.sqrt(private))]), mode="r")
    kept = np.abs(np.diagonal(R)) > _RANK_TOL * np.maximum(1.0, np.sqrt(squares))
    S = S[:, kept]
    return kept, S.T @ S + np.diag(private[kept])


def _cell_map(sizes: List[int]) -> np.ndarray:
    """For each column of the row matrix, cell (a, b) of block j, its entry
    (s_j + a) D + s_j + b of a flattened D x D matrix, D = sum(sizes) and
    s_j the sum of the sizes before block j."""
    D = sum(sizes)
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    return np.concatenate([((s + np.arange(d))[:, None] * D + s + np.arange(d)).ravel()
                           for s, d in zip(offsets, sizes)])


class _Scatter(NamedTuple):
    """The nonzero entries of the (m, N) row matrix, values[e] in row
    rows[e] at entry cells[e] of a flattened D x D matrix, in order of the
    row, then of the column."""

    rows: np.ndarray
    cells: np.ndarray
    values: np.ndarray


def _apply(V: np.ndarray, scatter: _Scatter, m: int) -> np.ndarray:
    """A(V) = A v of length m for the D x D matrix V, each row's terms
    added in order of the cell."""
    return np.bincount(scatter.rows, V.take(scatter.cells) * scatter.values,
                       minlength=m)


def _adjoint(y: np.ndarray, scatter: _Scatter, D: int) -> np.ndarray:
    """sum_k y_k A_k as a D x D matrix, each cell's terms added in order of
    k."""
    return np.bincount(scatter.cells, y[scatter.rows] * scatter.values,
                       minlength=D * D).reshape(D, D)


def _schur_factor(stacks: Blocks, Lx: np.ndarray, Lz_inv: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """out, an (m, N) array, filled with B and returned, where B B' is the
    Schur complement M[i, j] = sum_blocks <A_i, X A_j Z^-1>.

    stacks are the problem's constraint blocks in the layout of
    SdpProblem._stacks, Lx is the lower Cholesky factor of the D x D matrix
    X and Lz_inv the inverse of Z's.  Row k of B holds Lx_j' A_k Lz_j^-T of
    each block j, whose Frobenius products are the terms of M: Lx_j' A_k
    for every k is one product with the (d, m d) block, and each of its m
    (d, d) parts meets Lz_j^-T in one batched product; a 1x1 block is (lx
    a) lz^-1 over its column of values."""
    m = len(out)
    s = start = 0  # the block's place on the diagonal and its first column of B
    for a in stacks:
        if a.ndim == 1:
            np.multiply(Lx[s, s] * a, Lz_inv[s, s], out=out[:, start])
            s, start = s + 1, start + 1
            continue
        d = len(a)
        LxA = Lx[s:s + d, s:s + d].T @ a
        np.matmul(LxA.reshape(d, m, d).transpose(1, 0, 2), Lz_inv[s:s + d, s:s + d].T,
                  out=out[:, start:start + d * d].reshape(m, d, d))
        s, start = s + d, start + d * d
    return out


class ConstraintSamples(NamedTuple):
    """The constraints of a problem with blocks [d, 1] in a sampled dual
    basis: at each of m points j, sum_k T[j, k] A_k = diag(z_j z_j', s_j)
    for an invertible m x m matrix T, so (T A(P))_j = z_j' P z_j + s_j p
    for P with blocks P and p.  T is kept as its row-wise Khatri-Rao
    factors, T[j, a u + c] = W[j, a] U[j, c] for U with u columns, so T r
    and T' v are one matrix product each; V holds the z_j as its rows and
    s the s_j."""

    U: np.ndarray
    W: np.ndarray
    V: np.ndarray
    s: np.ndarray


def _to_samples(samples: ConstraintSamples, r: np.ndarray) -> np.ndarray:
    """T r for a vector r indexed by the constraint rows."""
    U, W = samples.U, samples.W
    return np.sum(W * (U @ r.reshape(W.shape[1], U.shape[1]).T), axis=1)


def _from_samples(samples: ConstraintSamples, v: np.ndarray) -> np.ndarray:
    """T' v for a vector v indexed by the points."""
    return ((samples.W * v[:, None]).T @ samples.U).ravel()


def _checked_samples(samples: ConstraintSamples, scatter: _Scatter, m: int,
                     sizes: List[int]) -> ConstraintSamples:
    """Read-only float copies of samples; ValueError unless they have the
    shapes of a problem with blocks [d, 1] and m rows, are finite, T is
    invertible with cond(T) <= _SAMPLE_COND (a repeated point makes it
    singular, and matches the constraints all the same), and z_j' P z_j +
    s_j p = (T A(P))_j holds to rounding for _SAMPLE_PROBES random
    symmetric P."""
    U, W, V, s = (np.array(a, dtype=float) for a in samples)
    if len(sizes) != 2 or sizes[1] != 1:
        raise ValueError(f"constraint samples need blocks [d, 1], not {sizes}")
    d = sizes[0]
    if (U.ndim != 2 or W.ndim != 2 or len(U) != m or len(W) != m
            or U.shape[1] * W.shape[1] != m or V.shape != (m, d) or s.shape != (m,)):
        raise ValueError(f"constraint samples have shapes {U.shape}, {W.shape}, "
                         f"{V.shape} and {s.shape}, expected {m} points of a "
                         f"({d}, {d}) block")
    if not all(np.isfinite(a).all() for a in (U, W, V, s)):
        raise ValueError("constraint samples are not finite")
    singular = np.linalg.svd((W[:, :, None] * U[:, None, :]).reshape(m, m),
                             compute_uv=False)
    if not singular[-1] * _SAMPLE_COND >= singular[0]:
        raise ValueError(f"constraint samples give cond(T) = "
                         f"{singular[0] / singular[-1]:.3e}, above {_SAMPLE_COND:.0e}")
    samples = ConstraintSamples(U, W, V, s)
    bounds = samples._replace(U=np.abs(U), W=np.abs(W))  # |T| = |W| * |U|
    rng = np.random.default_rng(0)
    for _ in range(_SAMPLE_PROBES):
        G = rng.standard_normal((d + 1, d + 1))
        P = G + G.T
        rows = _apply(P, scatter, m)
        sampled = np.sum((V @ P[:d, :d]) * V, axis=1) + s * P[d, d]
        mismatch = np.abs(sampled - _to_samples(samples, rows))
        bad = np.flatnonzero(mismatch > _SAMPLE_TOL * np.max(
            _to_samples(bounds, np.abs(rows)), initial=1.0))
        if bad.size:
            raise ValueError(f"constraint sample {bad[0]} does not match the "
                             f"constraints")
    for a in samples:
        a.setflags(write=False)
    return samples


def _row_schur(stacks: Blocks, Lx: np.ndarray, Lz_inv: np.ndarray,
               B: np.ndarray) -> Tuple[Solve, Solve]:
    """The factor solve and the refined solve of the Schur system on the
    rows, dy = M^-1 rhs for M = B B' with B filled in place by
    _schur_factor.

    The factor solve is one dpotrs with M's factor; it serves the
    predictor, which is never taken.  The refined solve adds one round of
    iterative refinement against the unjittered M: the Schur complement
    gets very ill-conditioned near the optimum and the raw solve error
    regrows the primal residual of the step taken.  The residual is taken
    as B (B' sol): the rounding of M @ sol grows with |M| |sol|, which is
    large exactly when sol is large along M's small eigenvectors, while B'
    sol stays small there."""
    _schur_factor(stacks, Lx, Lz_inv, B)
    # numpy computes B B' as one dsyrk, so M is symmetric to the bit
    M_chol = _chol(B @ B.T)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return _cho_solve(M_chol, rhs)

    def refined(rhs: np.ndarray) -> np.ndarray:
        sol = _cho_solve(M_chol, rhs)
        return sol + _cho_solve(M_chol, rhs - B @ (B.T @ sol))

    return solve, refined


def _sample_schur(samples: ConstraintSamples, Lx: np.ndarray,
                  Lz_inv: np.ndarray) -> Tuple[Solve, Solve]:
    """The factor solve and the refined solve of the Schur system in the
    sampled dual basis: M^-1 = T' H^-1 T for H = T M T', the Schur
    complement of the sampled constraints diag(z_j z_j', s_j).

    With F = V Lx and G = V Lz^-T over the d x d block, H[i, j] =
    (z_i' X z_j)(z_i' Z^-1 z_j) + c_i c_j, c = s sqrt(x / z) from the 1x1
    block: two dsyrks and a Hadamard product, so H is symmetric to the bit.
    The factor solve is T' H^-1 T rhs with two dtrtrs on H's factor; the
    refined solve adds the one round of refinement, with its residual taken
    as K (K' v) for H = K K', the rows K_j = (vec(F_j G_j'), c_j), as
    _row_schur takes B (B' sol): K' v is F' diag(v) G and c'v, and row j of
    K W is F_j W G_j'."""
    d = samples.V.shape[1]
    F = samples.V @ Lx[:d, :d]
    G = samples.V @ Lz_inv[:d, :d].T
    c = samples.s * (Lx[d, d] * Lz_inv[d, d])
    H = F @ F.T
    H *= G @ G.T
    H += c[:, None] * c
    H_chol = _chol(H)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return _from_samples(samples, _triangular_solves(H_chol, _to_samples(samples, rhs)))

    def refined(rhs: np.ndarray) -> np.ndarray:
        t = _to_samples(samples, rhs)
        v = _triangular_solves(H_chol, t)
        KKv = np.sum((F @ (F.T @ (v[:, None] * G))) * G, axis=1) + c * (c @ v)
        return _from_samples(samples, v + _triangular_solves(H_chol, t - KKv))

    return solve, refined


@dataclass
class SdpProblem:
    """minimize <C, X> s.t. <A_k, X> = b_k, X PSD block-diagonal.

    objective[j] is block j of C, a (d_j, d_j) matrix; constraints[j] is the
    (m, d_j, d_j) stack of block j of A_1..A_m, and b has length m.  Data
    that is not finite or not symmetric raises ValueError, and so does a
    constraint row within the rank tolerance _RANK_TOL of the span of the
    rows before it: dropping it would drop its entry of b unchecked, and
    solve an inconsistent system as if it were consistent.  Construction
    also inverts the constraint Gram matrix through its Cholesky factor,
    which raises LinAlgError if it is not numerically positive definite;
    without constraints the inverse is empty.  The problem holds the
    stacks' nonzero entries, in its scatter, and the checked stacks in the
    layout of _schur_factor, each block's as one (d, m d) array and a 1x1
    block's as its column of values.  samples, for blocks [d, 1] only,
    poses the Schur complement in a sampled dual basis instead
    (ConstraintSamples; see the module docstring), and then no stacks are
    kept; construction checks them against the constraints and raises
    ValueError if they do not match or if their T is singular or
    ill-conditioned.  The stored blocks, the inverse, the cell map, the
    scatter, the stacks and the samples are read-only and shared by
    with_rhs.
    """

    objective: Blocks
    constraints: InitVar[Blocks]
    b: np.ndarray
    samples: InitVar[Optional[ConstraintSamples]] = None
    _gram_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _a_scale: float = field(init=False, repr=False, compare=False)
    _cells: np.ndarray = field(init=False, repr=False, compare=False)
    _scatter: _Scatter = field(init=False, repr=False, compare=False)
    _stacks: Optional[Blocks] = field(init=False, repr=False, compare=False)
    _c: np.ndarray = field(init=False, repr=False, compare=False)
    _samples: Optional[ConstraintSamples] = field(init=False, repr=False,
                                                  compare=False)

    def __post_init__(self, constraints: Blocks,
                      samples: Optional[ConstraintSamples]) -> None:
        if len(self.objective) == 0:
            raise ValueError("objective has no blocks")
        if len(constraints) != len(self.objective):
            raise ValueError(f"constraints have {len(constraints)} blocks, "
                             f"objective has {len(self.objective)}")
        b = _rhs_vector(self.b)
        m = len(b)
        objective: Blocks = []
        entries = []  # (rows, columns of the row matrix, values) of each block
        stacks: Optional[Blocks] = [] if samples is None else None
        start = 0  # the block's first column in the row matrix
        for j, (c, a) in enumerate(zip(self.objective, constraints)):
            c = np.asarray(c, dtype=float)
            a = np.asarray(a, dtype=float)
            if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
                raise ValueError(f"objective block {j} has shape {c.shape}, "
                                 f"expected a nonempty square matrix")
            d = c.shape[0]
            if a.ndim != 3 or a.shape[0] != m:
                raise ValueError(f"constraint block {j} has shape {a.shape}, "
                                 f"expected one matrix per entry of b ({m})")
            if a.shape[1:] != (d, d):
                raise ValueError(f"constraint block {j} holds {a.shape[1:]} "
                                 f"matrices, the objective block is ({d}, {d})")
            objective.append(_symmetrized(c[None], f"objective block {j}")[0])
            a = _symmetrized(a, f"constraint {{}} in block {j}")
            k, r, s = np.nonzero(a)
            entries.append((k, start + r * d + s, a[k, r, s]))
            if stacks is not None:
                stacks.append(a[:, 0, 0] if d == 1
                              else a.transpose(1, 0, 2).reshape(d, m * d))
            start += d * d

        # a stable sort by row keeps each row's entries in order of the column
        order = np.argsort(np.concatenate([e[0] for e in entries]), kind="stable")
        rows, columns, values = (np.concatenate(e)[order] for e in zip(*entries))
        squares = np.bincount(rows, values * values, minlength=m)
        kept, gram = _independent_rows(rows, columns, values, squares)
        if not kept.all():
            raise ValueError(f"constraint row {np.flatnonzero(~kept)[0]} is linearly "
                             f"dependent on the rows before it")

        # what every solve of these constraints shares, read-only
        sizes = [c.shape[0] for c in objective]
        # dtrtri refuses the empty factor of a problem without constraints
        gram_inv = (_inverse(_chol((gram + gram.T) / 2.0))[1] if m
                    else np.zeros((0, 0)))
        cells = _cell_map(sizes)
        D = sum(sizes)
        c = np.zeros(D * D)
        c[cells] = np.concatenate([block.ravel() for block in objective])
        c = c.reshape(D, D)
        self._scatter = _Scatter(rows, cells[columns], values)
        for array in (*objective, gram_inv, cells, c, *self._scatter, *(stacks or ())):
            array.setflags(write=False)
        self._gram_inv, self._cells, self._c = gram_inv, cells, c
        self._a_scale = math.sqrt(float(np.max(squares, initial=0.0)))
        self._stacks = stacks
        self._samples = (None if samples is None
                         else _checked_samples(samples, self._scatter, m, sizes))
        self.objective, self.b = objective, b

    def with_rhs(self, b) -> SdpProblem:
        """This problem with right-hand side b, sharing the checked
        constraints and everything built from them.  Only b is checked:
        ValueError unless it is a finite vector with one entry per
        constraint row."""
        b = _rhs_vector(b)
        if len(b) != len(self.b):
            raise ValueError(f"b has length {len(b)}, expected one entry per "
                             f"constraint row ({len(self.b)})")
        problem = copy.copy(self)
        problem.b = b
        return problem

    @property
    def block_sizes(self) -> List[int]:
        return [c.shape[0] for c in self.objective]

    @property
    def n_total(self) -> int:
        return sum(self.block_sizes)


@dataclass
class SdpSolution:
    X: Blocks
    y: np.ndarray
    Z: Blocks
    status: SdpStatus
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    trace: List[IterateLog] = field(default_factory=list)


def _chol(mat: np.ndarray, start: float = _JITTER_START,
          cap: float = _JITTER_MAX) -> np.ndarray:
    """Lower Cholesky factor of the symmetric mat, from dpotrf: F-ordered,
    with a zero upper triangle, so the other calls take it without a copy.
    A failing factor is retried with a diagonal shift of start, then
    _JITTER_GROWTH times the last, relative to max(1, max |mat|), and
    raises LinAlgError once the shift would pass cap.  For a block-diagonal
    iterate that is the largest entry of any block, and the shift moves
    every block's diagonal."""
    jitter = 0.0
    while True:
        shifted = mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0])
        # mat is symmetric, so its transpose, an F-ordered view, is the
        # same matrix, and f2py makes no transposing copy of it
        L, info = dpotrf(shifted.T, lower=1)
        if info == 0:
            return L
        if jitter == 0.0:
            scale = float(np.max(np.abs(mat), initial=1.0))
            jitter = start * scale
        else:
            jitter *= _JITTER_GROWTH
        # a NaN or infinite scale gives a shift that helps no factor, and
        # NaN compares false with the cap: stop instead of retrying forever
        if not math.isfinite(jitter) or jitter > cap * scale:
            raise np.linalg.LinAlgError("Matrix is not positive definite")


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(L L')^-1 rhs for a factor from _chol: one dpotrs call, which makes
    both triangular solves.  A problem without constraints has an empty
    Schur system, which f2py's shape check refuses: its solution is empty."""
    if rhs.size == 0:
        return np.empty_like(rhs)
    x, info = dpotrs(L, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def _triangular_solves(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(L L')^-1 rhs for a factor from _chol and a nonempty rhs: two dtrtrs
    calls, L w = rhs and then L' x = w.  At m = 210 they take 15.9 us where
    _cho_solve's one dpotrs takes 26.8, but 1.80 against 1.28 us at m = 18
    (one BLAS thread, 2-core Xeon), so the sampled Schur solve, on 100 rows
    or more, takes these and the rest _cho_solve.  _chol's factor has a
    positive diagonal, so dtrtrs finds it nonsingular."""
    w, info = dtrtrs(L, rhs, lower=1)
    if info == 0:
        w, info = dtrtrs(L, w, lower=1, trans=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return w


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric S from its lower triangle, ascending:
    the dsyevd call np.linalg.eigvalsh makes, without numpy's per-call
    wrapper."""
    eigenvalues, _, info = dsyevd(S, compute_v=0, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigenvalues


def _inverse(L: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """L^-1, from dtrtri, and (L L')^-1 = L^-T L^-1 from a factor of _chol;
    L^-1 keeps L's zero upper triangle."""
    L_inv, info = dtrtri(L, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtri")
    return L_inv, L_inv.T @ L_inv


def _max_step(L: np.ndarray, dS: np.ndarray) -> float:
    """Largest alpha with S + alpha*dS still positive definite, for S = L L'
    and dS symmetric.

    alpha is bounded by the smallest eigenvalue of L^-1 dS L^-T, which
    dsygst forms in one call on the lower triangle; for block-diagonal S and
    dS that is the smallest over the blocks.  Raises LinAlgError if that
    matrix is not finite, as when it overflows on a tiny Cholesky diagonal:
    LAPACK returns eigenvalues without error for such a matrix (finite ones
    for diag(1, 1, 1, NaN), NaN ones for an infinite entry), and either
    would make the step length garbage.
    """
    # the transpose of the symmetric dS is an F-ordered view of it
    G, info = dsygst(dS.T, L, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal sygst")
    if not np.isfinite(G).all():
        raise np.linalg.LinAlgError("step-length matrix is not finite")
    lam = float(_eigvalsh(G)[0])
    return -1.0 / lam if lam < 0.0 else math.inf


def _diagonal_blocks(V: np.ndarray, sizes: List[int]) -> Blocks:
    """Copies of the diagonal blocks of V with the given sizes."""
    blocks = []
    s = 0
    for d in sizes:
        blocks.append(V[s:s + d, s:s + d].copy())
        s += d
    return blocks


def _predictor(b: np.ndarray, X: np.ndarray, Z_inv: np.ndarray, R_d: np.ndarray,
               A_XRZ: np.ndarray, solve: Solve,
               scatter: _Scatter) -> Tuple[np.ndarray, np.ndarray]:
    """dX and dZ of the predictor (affine-scaling) direction, the HKM
    direction at R_c = -XZ, in closed form; A_XRZ is A(X R_d Z^-1).

    T1 = R_c Z^-1 is exactly -X, so the Schur right-hand side r_p - A(T1) +
    A(X R_d Z^-1) is b + A(X R_d Z^-1), and dX = sym(T1 - X dZ Z^-1) =
    -X - sym(X dZ Z^-1): neither XZ nor A(T1) is formed.  The direction is
    never taken, it only sets the centering and the corrector's
    second-order term (Mehrotra, SIAM J. Optim. 1992), so solve is the bare
    factor solve and dX is not projected onto A(dX) = r_p, which it meets
    in exact arithmetic."""
    dy = solve(b + A_XRZ)
    dZ = R_d - _adjoint(dy, scatter, len(X))
    W = X @ dZ @ Z_inv
    return -X - (W + W.T) / 2.0, dZ


def _project_primal(dX: np.ndarray, r_p: np.ndarray, gram_inv: np.ndarray,
                    scatter: _Scatter) -> np.ndarray:
    """The symmetric dX moved back onto A(dX) = r_p by two rounds of dX +=
    A*((A A')^-1 defect), or dX itself if they do not shrink the defect.

    The direction inherits the Schur system's ill-conditioning near the
    optimum; re-imposing A(dX) = r_p through the stored inverse of the
    constant, well-conditioned constraint Gram matrix stops the primal
    residual from regrowing late in the run."""
    m, D = len(r_p), len(dX)
    before = r_p - _apply(dX, scatter, m)
    corrected, defect = dX, before
    for _ in range(2):
        corrected = corrected + _adjoint(gram_inv @ defect, scatter, D)
        defect = r_p - _apply(corrected, scatter, m)
    if math.sqrt(defect @ defect) <= math.sqrt(before @ before):
        return corrected
    return dX


# a step that overflows makes numpy warn before the iterate check turns it
# into NUMERICAL_FAILURE; under warnings-as-errors the warning would escape
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_sdp(problem: SdpProblem, tol: float = 1e-8,
              certify: Optional[Certify] = None) -> SdpSolution:
    """Infeasible-start predictor-corrector interior-point solve.

    On OPTIMAL: normalized duality gap and feasibility residuals <= tol,
    reached within _MAX_ITER iterations.
    certify, when given, is called once per iteration before that test,
    with the D x D primal iterate and the iteration's IterateLog; it
    returns None to go on or a D x D matrix to end the solve with status
    CERTIFIED, that matrix as X and the iterate's y, Z, gap and residuals.
    MAX_ITERATIONS and NUMERICAL_FAILURE are reported as statuses, never as
    silent wrong answers; suspected (dual-)infeasibility is flagged when the
    dual (primal) objective diverges beyond 1e12.  Every returned iterate is
    finite: a factorization that fails, or a step that gives a non-finite X,
    y or Z, ends the solve with NUMERICAL_FAILURE and the last iterate in
    its trace, not with an exception.
    """
    D = problem.n_total
    b = problem.b
    m = len(b)
    gram_inv = problem._gram_inv
    scatter = problem._scatter
    a_scale = problem._a_scale
    C = problem._c
    samples = problem._samples
    eye = np.eye(D)
    # M = B B' on the rows, see _schur_factor; the sampled Schur complement
    # needs no B
    B = np.empty((m, len(problem._cells))) if samples is None else None

    b_scale = float(np.max(np.abs(b), initial=1.0))
    b_norm = float(np.linalg.norm(b))
    c_scale = math.sqrt(np.vdot(C, C))
    xi = max(10.0, math.sqrt(D), D * b_scale / max(1.0, a_scale))
    eta = max(10.0, math.sqrt(D), c_scale, a_scale)

    X = xi * eye
    Z = eta * eye
    y = np.zeros(m)

    trace: List[IterateLog] = []
    # every exit of the loop sets status; the last iteration ends it
    for iteration in range(_MAX_ITER + 1):
        r_p = b - _apply(X, scatter, m)
        R_d = C - Z - _adjoint(y, scatter, D)
        xz = float(np.vdot(X, Z))
        mu = xz / D
        obj_p = float(np.vdot(C, X))
        obj_d = float(b @ y)
        gap = xz / (1.0 + abs(obj_p) + abs(obj_d))
        p_res = math.sqrt(r_p @ r_p) / (1.0 + b_norm)
        d_res = math.sqrt(np.vdot(R_d, R_d)) / (1.0 + c_scale)
        trace.append(IterateLog(iteration, obj_p, obj_d, gap, p_res, d_res, mu))

        if certify is not None:
            certificate = certify(X, trace[-1])
            if certificate is not None:
                X = certificate
                status = SdpStatus.CERTIFIED
                break
        if gap <= tol and p_res <= tol and d_res <= tol:
            status = SdpStatus.OPTIMAL
            break
        if abs(obj_d) > _DIVERGENCE:
            status = SdpStatus.INFEASIBLE
            break
        if float(np.trace(X)) > _DIVERGENCE:
            status = SdpStatus.DUAL_INFEASIBLE
            break
        if iteration == _MAX_ITER:
            status = SdpStatus.MAX_ITERATIONS
            break

        try:
            Lx = _chol(X)
            Lz = _chol(Z)
            Lz_inv, Z_inv = _inverse(Lz)
            solve, refined = (_row_schur(problem._stacks, Lx, Lz_inv, B) if samples is None
                              else _sample_schur(samples, Lx, Lz_inv))
            # A(X R_d Z^-1), in both Schur right-hand sides
            A_XRZ = _apply(X @ R_d @ Z_inv, scatter, m)

            dX_aff, dZ_aff = _predictor(b, X, Z_inv, R_d, A_XRZ, solve, scatter)
            ap_aff = min(1.0, _PREDICTOR_FRACTION * _max_step(Lx, dX_aff))
            ad_aff = min(1.0, _PREDICTOR_FRACTION * _max_step(Lz, dZ_aff))
            mu_aff = float(np.vdot(X + ap_aff * dX_aff, Z + ad_aff * dZ_aff)) / D
            center = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # corrector with Mehrotra's second-order term: the HKM direction
            # at R_c = center mu I - XZ - dX_aff dZ_aff, whose T1 = R_c Z^-1
            # is formed without XZ
            T1 = (center * mu) * Z_inv - X - dX_aff @ dZ_aff @ Z_inv
            dy = refined(r_p - _apply(T1, scatter, m) + A_XRZ)
            dZ = R_d - _adjoint(dy, scatter, D)
            dX = T1 - X @ dZ @ Z_inv
            dX = _project_primal((dX + dX.T) / 2.0, r_p, gram_inv, scatter)

            # SDPT3's step to the cone boundary (Toh, Todd & Tutuncu 1999)
            fraction = _STEP_BASE + _STEP_GAIN * min(ap_aff, ad_aff)
            alpha_p = min(1.0, fraction * _max_step(Lx, dX))
            alpha_d = min(1.0, fraction * _max_step(Lz, dZ))
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        # built whole: _replace builds its tuple from an iterator, which
        # leaves an 11-tuple on CPython's tuple free list per call, up to
        # 2000 of them, +0.3 MB peak RSS on the scans
        trace[-1] = IterateLog(iteration, obj_p, obj_d, gap, p_res, d_res, mu,
                               alpha_p, alpha_d, center, fraction)
        if alpha_p < _MIN_STEP and alpha_d < _MIN_STEP:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        X_next = X + alpha_p * dX
        y_next = y + alpha_d * dy
        Z_next = Z + alpha_d * dZ
        # the one finiteness check of the iteration: the kernels trust that
        # the iterate they factor is finite
        if not all(np.isfinite(v).all() for v in (X_next, y_next, Z_next)):
            status = SdpStatus.NUMERICAL_FAILURE
            break
        X, y, Z = X_next, y_next, Z_next

    sizes = problem.block_sizes
    return SdpSolution(X=_diagonal_blocks(X, sizes), y=y, Z=_diagonal_blocks(Z, sizes),
                       status=status, gap=gap, primal_residual=p_res,
                       dual_residual=d_res, iterations=iteration, trace=trace)
