"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Standard primal form: minimize <C, X> subject to <A_k, X> = b_k, X PSD, with
X constrained to a fixed block-diagonal structure.  The solver is a
Mehrotra-style predictor-corrector on the HKM search direction (linearize
dX Z + X dZ = R_c, solve, symmetrize dX), with dense factorizations
throughout.  Desk-scale targets: block sizes <= ~60, <= ~500 constraints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_triangular

Blocks = List[np.ndarray]

_SQRT2 = math.sqrt(2.0)


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


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


def block_zeros(sizes: Sequence[int]) -> Blocks:
    return [np.zeros((d, d)) for d in sizes]


def block_inner(A: Blocks, B: Blocks) -> float:
    return float(sum(np.sum(a * b) for a, b in zip(A, B)))


def block_norm(A: Blocks) -> float:
    return math.sqrt(sum(float(np.sum(a * a)) for a in A))


def _vec(blocks: Blocks) -> np.ndarray:
    return np.concatenate([blk.ravel() for blk in blocks])


def _svec(blocks: Blocks) -> np.ndarray:
    """Upper-triangle vectorization with sqrt(2) off-diagonal scaling."""
    parts = []
    for blk in blocks:
        rows, cols = np.triu_indices(blk.shape[0])
        parts.append(blk[rows, cols] * np.where(rows == cols, 1.0, _SQRT2))
    return np.concatenate(parts)


def _check_block(mat: np.ndarray, size: int, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (size, size):
        raise ValueError(f"{what} block has shape {mat.shape}, expected ({size}, {size})")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    if float(np.max(np.abs(mat - mat.T))) > 1e-10 * scale:
        raise ValueError(f"{what} block is not symmetric")
    return (mat + mat.T) / 2.0


@dataclass
class SdpProblem:
    """minimize <C, X> s.t. <A_k, X> = b_k, X PSD block-diagonal.

    Linearly dependent constraint rows (rank tolerance 1e-10) are dropped
    with a warning during construction.
    """

    block_sizes: List[int]
    objective: Blocks
    constraints: List[Tuple[Blocks, float]]

    def __post_init__(self) -> None:
        if not self.block_sizes or any(d < 1 for d in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if len(self.objective) != len(self.block_sizes):
            raise ValueError("objective does not conform to the block structure")
        self.objective = [_check_block(c, d, "objective")
                          for c, d in zip(self.objective, self.block_sizes)]
        checked: List[Tuple[Blocks, float]] = []
        for k, (blocks, bk) in enumerate(self.constraints):
            if len(blocks) != len(self.block_sizes):
                raise ValueError(f"constraint {k} does not conform to the block structure")
            blocks = [_check_block(a, d, f"constraint {k}")
                      for a, d in zip(blocks, self.block_sizes)]
            checked.append((blocks, float(bk)))

        kept: List[Tuple[Blocks, float]] = []
        basis: List[np.ndarray] = []
        for k, (blocks, bk) in enumerate(checked):
            row = _svec(blocks)
            residual = row.copy()
            for _ in range(2):
                for q in basis:
                    residual -= q * (q @ residual)
            norm = float(np.linalg.norm(residual))
            if norm > 1e-10 * max(1.0, float(np.linalg.norm(row))):
                basis.append(residual / norm)
                kept.append((blocks, bk))
            else:
                warnings.warn(f"dropping linearly dependent SDP constraint row {k}",
                              RuntimeWarning, stacklevel=2)
        self.constraints = kept

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

    @property
    def primal_objective(self) -> float:
        return self.trace[-1].primal_objective if self.trace else math.nan

    @property
    def dual_objective(self) -> float:
        return self.trace[-1].dual_objective if self.trace else math.nan


def _chol(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor with escalating diagonal jitter up to 1e-10 (scaled)."""
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    jitter = 0.0
    while True:
        try:
            shifted = mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0])
            return np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 100.0
            if jitter > 1e-10 * scale:
                raise


def _max_step(S: Blocks, dS: Blocks) -> float:
    """Largest alpha with S + alpha*dS still positive definite (per block)."""
    alpha = np.inf
    for s_blk, d_blk in zip(S, dS):
        L = _chol(s_blk)
        half = solve_triangular(L, d_blk, lower=True)
        G = solve_triangular(L, half.T, lower=True)
        lam = float(np.min(np.linalg.eigvalsh((G + G.T) / 2.0)))
        if lam < 0.0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def solve_sdp(problem: SdpProblem, tol: float = 1e-8, max_iter: int = 200) -> SdpSolution:
    """Infeasible-start predictor-corrector interior-point solve.

    On OPTIMAL: normalized duality gap and feasibility residuals <= tol.
    MAX_ITERATIONS and NUMERICAL_FAILURE are reported as statuses, never as
    silent wrong answers; suspected (dual-)infeasibility is flagged when the
    dual (primal) objective diverges beyond 1e12.
    """
    sizes = problem.block_sizes
    n_tot = problem.n_total
    m = len(problem.constraints)
    C = problem.objective
    A = [blocks for blocks, _ in problem.constraints]
    b = np.array([bk for _, bk in problem.constraints])

    Avec = (np.stack([_vec(blocks) for blocks in A])
            if m else np.zeros((0, sum(d * d for d in sizes))))

    def apply_A(mat: Blocks) -> np.ndarray:
        return Avec @ _vec(mat)

    if m:
        gram = Avec @ Avec.T
        gram_chol = _chol((gram + gram.T) / 2.0)
    else:
        gram_chol = np.zeros((0, 0))

    def apply_At(y: np.ndarray) -> Blocks:
        out = block_zeros(sizes)
        for k in range(m):
            for blk_out, blk_a in zip(out, A[k]):
                blk_out += y[k] * blk_a
        return out

    b_scale = max(1.0, float(np.max(np.abs(b))) if m else 0.0)
    a_scale = max([block_norm(blocks) for blocks in A], default=0.0)
    c_scale = block_norm(C)
    xi = max(10.0, math.sqrt(n_tot), n_tot * b_scale / max(1.0, a_scale))
    eta = max(10.0, math.sqrt(n_tot), c_scale, a_scale)

    X = [xi * np.eye(d) for d in sizes]
    Z = [eta * np.eye(d) for d in sizes]
    y = np.zeros(m)

    trace: List[IterateLog] = []
    status = SdpStatus.MAX_ITERATIONS
    gap = math.inf
    p_res = math.inf
    d_res = math.inf
    iteration = 0
    best = None  # (merit, X, y, Z, gap, p_res, d_res) of the cleanest iterate

    for iteration in range(max_iter + 1):
        r_p = b - apply_A(X)
        Aty = apply_At(y)
        R_d = [c - z - at for c, z, at in zip(C, Z, Aty)]
        xz = block_inner(X, Z)
        mu = xz / n_tot
        obj_p = block_inner(C, X)
        obj_d = float(b @ y)
        gap = xz / (1.0 + abs(obj_p) + abs(obj_d))
        p_res = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(b)))
        d_res = block_norm(R_d) / (1.0 + c_scale)
        trace.append(IterateLog(iteration, obj_p, obj_d, gap, p_res, d_res, mu))
        merit = max(gap, p_res, d_res)
        if best is None or merit < best[0]:
            best = (merit, [x.copy() for x in X], y.copy(),
                    [z.copy() for z in Z], gap, p_res, d_res)

        if gap <= tol and p_res <= tol and d_res <= tol:
            status = SdpStatus.OPTIMAL
            break
        if abs(obj_d) > 1e12:
            status = SdpStatus.INFEASIBLE
            break
        if sum(float(np.trace(x)) for x in X) > 1e12:
            status = SdpStatus.DUAL_INFEASIBLE
            break
        if iteration == max_iter:
            status = SdpStatus.MAX_ITERATIONS
            break

        try:
            Z_chols = [_chol(z) for z in Z]
            Z_inv = []
            for L, d in zip(Z_chols, sizes):
                L_inv = solve_triangular(L, np.eye(d), lower=True)
                Z_inv.append(L_inv.T @ L_inv)

            # Schur complement M[i, j] = sum_blocks <A_i, X A_j Zinv>
            W = []
            for k in range(m):
                W.append([x @ a @ zi for x, a, zi in zip(X, A[k], Z_inv)])
            if m:
                Wvec = np.stack([_vec(wk) for wk in W])
                M = Avec @ Wvec.T
                M = (M + M.T) / 2.0
                M_chol = _chol(M)
            else:
                M = np.zeros((0, 0))
                M_chol = M

            def solve_schur(rhs: np.ndarray) -> np.ndarray:
                if m == 0:
                    return rhs
                def backsolve(v: np.ndarray) -> np.ndarray:
                    half = solve_triangular(M_chol, v, lower=True)
                    return solve_triangular(M_chol.T, half, lower=False)
                sol = backsolve(rhs)
                # two rounds of iterative refinement against the unjittered M;
                # the Schur complement gets very ill-conditioned near the
                # optimum and the raw solve error regrows the primal residual
                for _ in range(2):
                    sol = sol + backsolve(rhs - M @ sol)
                return sol

            def project_primal(dX: Blocks) -> Blocks:
                # The direction inherits the Schur system's ill-conditioning
                # near the optimum; re-imposing A(dX) = r_p through the
                # constant, well-conditioned constraint Gram matrix stops the
                # primal residual from regrowing late in the run.
                if m == 0:
                    return dX
                before = r_p - apply_A(dX)
                corrected = dX
                for _ in range(2):
                    defect = r_p - apply_A(corrected)
                    half = solve_triangular(gram_chol, defect, lower=True)
                    lam = solve_triangular(gram_chol.T, half, lower=False)
                    corr = apply_At(lam)
                    corrected = [dx + c for dx, c in zip(corrected, corr)]
                after = r_p - apply_A(corrected)
                if float(np.linalg.norm(after)) <= float(np.linalg.norm(before)):
                    return corrected
                return dX

            def direction(Rc: Blocks) -> Tuple[Blocks, np.ndarray, Blocks]:
                T1 = [rc @ zi for rc, zi in zip(Rc, Z_inv)]
                T2 = [x @ rd @ zi for x, rd, zi in zip(X, R_d, Z_inv)]
                rhs = r_p - apply_A(T1) + apply_A(T2)
                dy = solve_schur(rhs)
                dAty = apply_At(dy)
                dZ = [rd - da for rd, da in zip(R_d, dAty)]
                dX = [t1 - x @ dz @ zi for t1, x, dz, zi in zip(T1, X, dZ, Z_inv)]
                dX = [(dx + dx.T) / 2.0 for dx in dX]
                return project_primal(dX), dy, dZ

            # predictor (affine scaling): Rc = -XZ
            Rc_aff = [-(x @ z) for x, z in zip(X, Z)]
            dX_aff, dy_aff, dZ_aff = direction(Rc_aff)
            ap_aff = min(1.0, 0.98 * _max_step(X, dX_aff))
            ad_aff = min(1.0, 0.98 * _max_step(Z, dZ_aff))
            X_aff = [x + ap_aff * dx for x, dx in zip(X, dX_aff)]
            Z_aff = [z + ad_aff * dz for z, dz in zip(Z, dZ_aff)]
            mu_aff = block_inner(X_aff, Z_aff) / n_tot
            center = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # corrector with Mehrotra second-order term
            Rc = [center * mu * np.eye(d) - (x @ z) - (dxa @ dza)
                  for d, x, z, dxa, dza in zip(sizes, X, Z, dX_aff, dZ_aff)]
            dX, dy, dZ = direction(Rc)
            alpha_p = min(1.0, 0.98 * _max_step(X, dX))
            alpha_d = min(1.0, 0.98 * _max_step(Z, dZ))
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        trace[-1] = trace[-1]._replace(alpha_p=alpha_p, alpha_d=alpha_d,
                                       centering=center)
        if alpha_p < 1e-10 and alpha_d < 1e-10:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        X = [x + alpha_p * dx for x, dx in zip(X, dX)]
        y = y + alpha_d * dy
        Z = [z + alpha_d * dz for z, dz in zip(Z, dZ)]

    if (status in (SdpStatus.MAX_ITERATIONS, SdpStatus.NUMERICAL_FAILURE)
            and best is not None and best[0] < max(gap, p_res, d_res)):
        # a late bad step can poison the final iterate; report the cleanest one
        _, X, y, Z, gap, p_res, d_res = best
    return SdpSolution(X=X, y=y, Z=Z, status=status, gap=gap,
                       primal_residual=p_res, dual_residual=d_res,
                       iterations=iteration, trace=trace)

