"""Interior-point SDP solver: analytic instances, planted optima, statuses."""

import numpy as np
import pytest

from sosarp.sdp_core import SdpProblem, SdpStatus, solve_sdp
from conftest import planted_sdp


def primal_objective(problem: SdpProblem, X) -> float:
    return sum(float(np.sum(c * x)) for c, x in zip(problem.objective, X))


class TestAnalytic:
    def test_rank_one_coupling(self):
        # min X00 + X11 subject to X01 + X10 = 2 over PSD X: the minimum is
        # the all-ones matrix with objective 2
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = SdpProblem(objective=[np.eye(2)], constraints=[A[None]],
                             b=[2.0])
        sol = solve_sdp(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert primal_objective(problem, sol.X) == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(sol.X[0], np.ones((2, 2)), atol=1e-5)

    def test_diagonal_block_is_linear_program(self):
        # min x + 2y subject to x + y = 1 over x, y >= 0 (two 1x1 blocks)
        problem = SdpProblem(
            objective=[np.array([[1.0]]), np.array([[2.0]])],
            constraints=[np.ones((1, 1, 1)), np.ones((1, 1, 1))], b=[1.0])
        sol = solve_sdp(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert primal_objective(problem, sol.X) == pytest.approx(1.0, abs=1e-7)
        assert sol.X[0][0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_duplicate_constraint_row_dropped(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="dependent"):
            problem = SdpProblem(objective=[np.eye(2)],
                                 constraints=[np.stack([A, A.copy()])],
                                 b=[2.0, 2.0])
        assert len(problem.b) == 1
        assert problem.constraints[0].shape == (1, 2, 2)
        sol = solve_sdp(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert primal_objective(problem, sol.X) == pytest.approx(2.0, abs=1e-6)


class TestStatuses:
    def test_primal_infeasible(self):
        # trace(X) = -1 has no PSD solution
        problem = SdpProblem(objective=[np.eye(3)],
                             constraints=[np.eye(3)[None]], b=[-1.0])
        assert solve_sdp(problem).status is SdpStatus.INFEASIBLE

    def test_unbounded_primal_reported_dual_infeasible(self):
        # min <-I, X> with only X00 pinned: X11 free to grow
        E00 = np.zeros((2, 2))
        E00[0, 0] = 1.0
        problem = SdpProblem(objective=[-np.eye(2)], constraints=[E00[None]],
                             b=[1.0])
        assert solve_sdp(problem).status is SdpStatus.DUAL_INFEASIBLE


class TestPlanted:
    def test_planted_batch_recovers_objective(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            problem, obj_star = planted_sdp(rng, max_block=12, max_m=40)
            sol = solve_sdp(problem, tol=1e-9)
            assert sol.status is SdpStatus.OPTIMAL
            assert sol.gap <= 1e-8
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8
            err = abs(primal_objective(problem, sol.X) - obj_star)
            assert err <= 1e-7 * (1.0 + abs(obj_star))

    def test_feasibility_of_returned_iterates(self):
        rng = np.random.default_rng(7)
        problem, _ = planted_sdp(rng, max_block=10, max_m=30)
        sol = solve_sdp(problem)
        # X PSD blockwise and A(X) = b to the reported residual
        for block in sol.X:
            assert np.linalg.eigvalsh(block)[0] >= -1e-9
        for k, target in enumerate(problem.b):
            value = sum(float(np.sum(a[k] * x))
                        for a, x in zip(problem.constraints, sol.X))
            assert value == pytest.approx(
                target, abs=1e-6 * (1.0 + abs(target)))

    def test_multi_block_sizes_respected(self):
        rng = np.random.default_rng(11)
        problem, _ = planted_sdp(rng, max_block=8, max_m=25)
        sol = solve_sdp(problem)
        assert [x.shape[0] for x in sol.X] == list(problem.block_sizes)
        assert [z.shape[0] for z in sol.Z] == list(problem.block_sizes)


def _skewed(mat: np.ndarray) -> np.ndarray:
    mat = mat.copy()
    mat[0, 1] += 1e-3
    return mat


# each case: (objective, constraints, b, message); two blocks of sizes 2 and 1
_A = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 0.0])])
_T = np.ones((3, 1, 1))
_C = [np.eye(2), np.ones((1, 1))]


class TestProblemChecks:
    def test_valid_two_block_problem_is_accepted(self):
        problem = SdpProblem(objective=_C, constraints=[_A, _T], b=[1.0, 0.0, 1.0])
        assert problem.block_sizes == [2, 1]
        assert problem.n_total == 3

    @pytest.mark.parametrize("objective, constraints, b, message", [
        (_C, [np.stack([_A[0], _skewed(_A[1]), _A[2]]), _T], [1.0, 0.0, 1.0],
         "constraint 1 in block 0 is not symmetric"),
        ([_skewed(np.eye(2)), np.ones((1, 1))], [_A, _T], [1.0, 0.0, 1.0],
         "objective block 0 is not symmetric"),
        (_C, [_A, _T], [1.0, 0.0], "one matrix per entry of b"),
        (_C, [_A[:2], _T[:2]], [1.0, 0.0, 1.0], "one matrix per entry of b"),
        ([np.eye(3), np.ones((1, 1))], [_A, _T], [1.0, 0.0, 1.0],
         "the objective block is"),
        ([np.eye(2)], [_A, _T], [1.0, 0.0, 1.0],
         "constraints have 2 blocks, objective has 1"),
        (_C, [_A], [1.0, 0.0, 1.0], "constraints have 1 blocks, objective has 2"),
        ([], [], [], "objective has no blocks"),
    ], ids=["asymmetric-constraint", "asymmetric-objective", "stack-longer-than-b",
            "stack-shorter-than-b", "block-size-mismatch",
            "objective-fewer-blocks", "constraints-fewer-blocks",
            "empty-objective"])
    def test_malformed_input_raises(self, objective, constraints, b, message):
        with pytest.raises(ValueError, match=message):
            SdpProblem(objective=objective, constraints=constraints, b=b)
