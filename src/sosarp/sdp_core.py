"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Standard primal form: minimize <C, X> subject to <A_k, X> = b_k, X PSD, with
X constrained to a fixed block-diagonal structure.  Each block's constraint
matrices are one stacked (m, d, d) array, so A, its adjoint and the Schur
complement are array products.  The solver is a Mehrotra-style
predictor-corrector on the HKM search direction (linearize dX Z + X dZ = R_c,
solve, symmetrize dX), with dense factorizations throughout.  Desk-scale
targets: block sizes <= ~60, <= ~500 constraints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Tuple

import numpy as np
from scipy.linalg import solve_triangular

Blocks = List[np.ndarray]

_SYMMETRY_TOL = 1e-10  # relative asymmetry of an input matrix accepted as rounding
_RANK_TOL = 1e-10  # a row within this of the earlier rows' span, relative, is dependent
_JITTER_START = 1e-14  # first relative Cholesky shift: rounding level, changes nothing else
_JITTER_GROWTH = 100.0  # three tries reach _JITTER_MAX, so a failing factor fails fast
_JITTER_MAX = 1e-10  # a matrix that needs a larger relative shift is not numerically PD
_STEP_FRACTION = 0.98  # share of the step to the cone boundary: keeps X and Z interior
_DIVERGENCE = 1e12  # an objective or trace(X) beyond this marks (dual) infeasibility
_MIN_STEP = 1e-10  # both step lengths below this: the iteration cannot progress


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


def block_inner(A: Blocks, B: Blocks) -> float:
    return float(sum(np.sum(a * b) for a, b in zip(A, B)))


def block_norm(A: Blocks) -> float:
    return math.sqrt(sum(float(np.sum(a * a)) for a in A))


def _vec(blocks: Blocks) -> np.ndarray:
    return np.concatenate([blk.ravel() for blk in blocks])


def _rows(stacks: Blocks) -> np.ndarray:
    """Row k holds the k-th matrix of every stack, flattened and concatenated."""
    return np.concatenate([s.reshape(s.shape[0], s.shape[1] * s.shape[2])
                           for s in stacks], axis=1)


def _symmetrized(stack: np.ndarray, what: str) -> np.ndarray:
    """Stack of (S + S')/2; raises ValueError naming what.format(k) if S_k is not symmetric."""
    scale = np.max(np.abs(stack), axis=(1, 2), initial=1.0)
    skew = np.max(np.abs(stack - stack.transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(skew > _SYMMETRY_TOL * scale)
    if bad.size:
        raise ValueError(what.format(bad[0]) + " is not symmetric")
    return (stack + stack.transpose(0, 2, 1)) / 2.0


@dataclass
class SdpProblem:
    """minimize <C, X> s.t. <A_k, X> = b_k, X PSD block-diagonal.

    objective[j] is block j of C, a (d_j, d_j) matrix; constraints[j] is the
    (m, d_j, d_j) stack of block j of A_1..A_m, and b has length m.  Linearly
    dependent constraint rows (rank tolerance 1e-10) are dropped with a
    warning during construction.
    """

    objective: Blocks
    constraints: Blocks
    b: np.ndarray

    def __post_init__(self) -> None:
        if len(self.objective) == 0:
            raise ValueError("objective has no blocks")
        if len(self.constraints) != len(self.objective):
            raise ValueError(f"constraints have {len(self.constraints)} blocks, "
                             f"objective has {len(self.objective)}")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError(f"b has shape {b.shape}, expected a vector")
        m = len(b)
        objective: Blocks = []
        constraints: Blocks = []
        for j, (c, a) in enumerate(zip(self.objective, self.constraints)):
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
            constraints.append(_symmetrized(a, f"constraint {{}} in block {j}"))

        # greedy Gram-Schmidt over the rows in order; <vec A, vec B> = <A, B>
        rows = _rows(constraints)
        basis = np.empty_like(rows)
        kept: List[int] = []
        for k, row in enumerate(rows):
            Q = basis[:len(kept)]
            residual = row - Q.T @ (Q @ row)
            residual -= Q.T @ (Q @ residual)
            norm = float(np.linalg.norm(residual))
            if norm > _RANK_TOL * max(1.0, float(np.linalg.norm(row))):
                basis[len(kept)] = residual / norm
                kept.append(k)
            else:
                warnings.warn(f"dropping linearly dependent SDP constraint row {k}",
                              RuntimeWarning, stacklevel=2)
        if len(kept) < m:
            constraints = [a[kept] for a in constraints]
            b = b[kept]
        self.objective, self.constraints, self.b = objective, constraints, b

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

    @property
    def primal_objective(self) -> float:
        return self.trace[-1].primal_objective if self.trace else math.nan

    @property
    def dual_objective(self) -> float:
        return self.trace[-1].dual_objective if self.trace else math.nan


def _chol(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor with escalating diagonal jitter up to _JITTER_MAX (scaled)."""
    scale = float(np.max(np.abs(mat), initial=1.0))
    jitter = 0.0
    while True:
        try:
            shifted = mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0])
            return np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            jitter = _JITTER_START * scale if jitter == 0.0 else jitter * _JITTER_GROWTH
            if jitter > _JITTER_MAX * scale:
                raise


def _max_step(chols: Blocks, dS: Blocks) -> float:
    """Largest alpha with S + alpha*dS still positive definite, S = L L' per block."""
    alpha = np.inf
    for L, d_blk in zip(chols, dS):
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
    C = problem.objective
    A = problem.constraints
    b = problem.b
    Avec = _rows(A)
    offsets = np.cumsum([d * d for d in sizes])[:-1]

    def apply_A(mat: Blocks) -> np.ndarray:
        return Avec @ _vec(mat)

    def apply_At(y: np.ndarray) -> Blocks:
        # einsum adds y_k A_k in order of k; a BLAS product would sum in
        # another order and move every iterate by rounding
        flat = np.einsum("k,kn->n", y, Avec)
        return [part.reshape(d, d) for part, d in zip(np.split(flat, offsets), sizes)]

    gram = Avec @ Avec.T
    gram_chol = _chol((gram + gram.T) / 2.0)

    b_scale = float(np.max(np.abs(b), initial=1.0))
    a_scale = math.sqrt(float(np.max(sum(np.sum(a * a, axis=(1, 2)) for a in A),
                                     initial=0.0)))
    c_scale = block_norm(C)
    xi = max(10.0, math.sqrt(n_tot), n_tot * b_scale / max(1.0, a_scale))
    eta = max(10.0, math.sqrt(n_tot), c_scale, a_scale)

    X = [xi * np.eye(d) for d in sizes]
    Z = [eta * np.eye(d) for d in sizes]
    y = np.zeros(len(b))

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
        if abs(obj_d) > _DIVERGENCE:
            status = SdpStatus.INFEASIBLE
            break
        if sum(float(np.trace(x)) for x in X) > _DIVERGENCE:
            status = SdpStatus.DUAL_INFEASIBLE
            break
        if iteration == max_iter:
            status = SdpStatus.MAX_ITERATIONS
            break

        try:
            X_chols = [_chol(x) for x in X]
            Z_chols = [_chol(z) for z in Z]
            Z_inv = []
            for L, d in zip(Z_chols, sizes):
                L_inv = solve_triangular(L, np.eye(d), lower=True)
                Z_inv.append(L_inv.T @ L_inv)

            # Schur complement M[i, j] = sum_blocks <A_i, X A_j Zinv>
            M = Avec @ _rows([x @ a @ zi for x, a, zi in zip(X, A, Z_inv)]).T
            M = (M + M.T) / 2.0
            M_chol = _chol(M)

            def solve_schur(rhs: np.ndarray) -> np.ndarray:
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
            ap_aff = min(1.0, _STEP_FRACTION * _max_step(X_chols, dX_aff))
            ad_aff = min(1.0, _STEP_FRACTION * _max_step(Z_chols, dZ_aff))
            X_aff = [x + ap_aff * dx for x, dx in zip(X, dX_aff)]
            Z_aff = [z + ad_aff * dz for z, dz in zip(Z, dZ_aff)]
            mu_aff = block_inner(X_aff, Z_aff) / n_tot
            center = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # corrector with Mehrotra second-order term
            Rc = [center * mu * np.eye(d) - (x @ z) - (dxa @ dza)
                  for d, x, z, dxa, dza in zip(sizes, X, Z, dX_aff, dZ_aff)]
            dX, dy, dZ = direction(Rc)
            alpha_p = min(1.0, _STEP_FRACTION * _max_step(X_chols, dX))
            alpha_d = min(1.0, _STEP_FRACTION * _max_step(Z_chols, dZ))
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        trace[-1] = trace[-1]._replace(alpha_p=alpha_p, alpha_d=alpha_d,
                                       centering=center)
        if alpha_p < _MIN_STEP and alpha_d < _MIN_STEP:
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
