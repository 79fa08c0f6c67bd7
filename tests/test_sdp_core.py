"""Interior-point SDP solver: analytic instances, planted optima, statuses."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sosarp import sdp_core, sos_certify
from sosarp._lapack import dpotrf
from sosarp.sdp_core import (_PREDICTOR_FRACTION, _STEP_BASE, _STEP_GAIN, SdpProblem,
                             SdpStatus, solve_sdp)
from sosarp.sos_certify import min_sigma_sos
from conftest import planted_data, planted_sdp, random_certified_model


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

    @pytest.mark.parametrize("first, second, b", [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
         [2.0, 2.0]),
        # X00 = 1 and 2 X00 = 3 have no common solution: with the second
        # row dropped, the solve would end Optimal at X = diag(1, 0), the
        # dropped row violated by 1.0
        (np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), [1.0, 3.0]),
    ], ids=["duplicate", "inconsistent"])
    def test_duplicate_constraint_row_refused(self, first, second, b):
        # a row in the span of the rows before it is refused, not dropped:
        # dropping it would drop its entry of b unchecked
        with pytest.raises(ValueError, match="constraint row 1 is linearly dependent"):
            SdpProblem(objective=[np.eye(2)], constraints=[np.stack([first, second])],
                       b=b)


class TestStatuses:
    def test_primal_infeasible(self):
        # trace(X) = -1 has no PSD solution
        problem = SdpProblem(objective=[np.eye(3)],
                             constraints=[np.eye(3)[None]], b=[-1.0])
        assert solve_sdp(problem).status is SdpStatus.INFEASIBLE

    @pytest.mark.parametrize("sign, status", [(1.0, SdpStatus.OPTIMAL),
                                              (-1.0, SdpStatus.DUAL_INFEASIBLE)],
                             ids=["bounded", "unbounded"])
    def test_unconstrained(self, sign, status):
        # no constraint rows, so an empty constraint Gram matrix with an
        # empty inverse: min <I, X> ends at X = 0, min <-I, X> is unbounded
        problem = SdpProblem(objective=[sign * np.eye(3), np.array([[sign]])],
                             constraints=[np.zeros((0, 3, 3)), np.zeros((0, 1, 1))],
                             b=[])
        assert problem._gram_inv.shape == (0, 0)
        sol = solve_sdp(problem)
        assert sol.status is status
        assert sol.y.shape == (0,)
        if status is SdpStatus.OPTIMAL:
            assert primal_objective(problem, sol.X) == pytest.approx(0.0, abs=1e-6)

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
        data = planted_data(rng, max_block=10, max_m=30)
        problem = SdpProblem(objective=data.objective,
                             constraints=data.constraints, b=data.b)
        sol = solve_sdp(problem)
        # X PSD blockwise and A(X) = b to the reported residual
        for block in sol.X:
            assert np.linalg.eigvalsh(block)[0] >= -1e-9
        for k, target in enumerate(problem.b):
            value = sum(float(np.sum(a[k] * x))
                        for a, x in zip(data.constraints, sol.X))
            assert value == pytest.approx(
                target, abs=1e-6 * (1.0 + abs(target)))

    def test_multi_block_sizes_respected(self):
        rng = np.random.default_rng(11)
        problem, _ = planted_sdp(rng, max_block=8, max_m=25)
        sol = solve_sdp(problem)
        assert [x.shape[0] for x in sol.X] == list(problem.block_sizes)
        assert [z.shape[0] for z in sol.Z] == list(problem.block_sizes)


class TestCertifyHook:
    # sha256 of the X, y and Z blocks of ACCEPTANCE 9's planted batch as
    # solve_sdp computes them without a hook, all 100 ending Optimal in 1347
    # IPM iterations (scipy's bundled OpenBLAS 0.3.30, checked with one BLAS
    # thread and with two)
    BATCH_DIGEST = "539b5ee4e15d2abf0bc04ba8abfb3eb8611e3dbee8376d38fac829b216a315b0"

    @staticmethod
    def batch_digest(**kwargs) -> str:
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for _ in range(100):
            problem, _ = planted_sdp(rng, max_block=20, max_m=100)
            sol = solve_sdp(problem, **kwargs)
            for array in (*sol.X, sol.y, *sol.Z):
                digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def test_without_hook_bits_unchanged(self):
        assert self.batch_digest() == self.BATCH_DIGEST

    def test_declining_hook_changes_no_bit(self):
        calls = []

        def decline(X, log):
            calls.append(log.iteration)
            return None

        assert self.batch_digest(certify=decline) == self.BATCH_DIGEST
        # called once per iteration, the last one included
        assert calls.count(0) == 100

    def test_certificate_ends_the_solve(self):
        rng = np.random.default_rng(3)
        problem, _ = planted_sdp(rng, max_block=6, max_m=10)
        reference = solve_sdp(problem, tol=1e-9)
        seen = []

        def accept_fourth(X, log):
            seen.append(log)
            return 2.0 * X if log.iteration == 4 else None

        sol = solve_sdp(problem, tol=1e-9, certify=accept_fourth)
        assert reference.iterations > 4
        assert sol.status is SdpStatus.CERTIFIED
        assert sol.iterations == 4 and len(sol.trace) == 5
        assert [log.iteration for log in seen] == [0, 1, 2, 3, 4]
        # the returned X is the hook's, the rest the iterate's
        assert sol.trace == reference.trace[:4] + [seen[-1]]
        sizes = problem.block_sizes
        assert [x.shape for x in sol.X] == [(d, d) for d in sizes]
        assert sol.primal_residual == seen[-1].primal_residual
        assert sol.gap == seen[-1].gap


class TestStepRule:
    """The corrector steps SDPT3's fraction 0.9 + 0.09 min(ap_aff, ad_aff)
    of the way to the cone boundary, from the iteration's predictor steps,
    and each IterateLog records it.  The four step bounds of an iteration
    come from _max_step in order: the predictor's on X and Z, then the
    corrector's."""

    @pytest.fixture()
    def spied(self, monkeypatch):
        """The step bounds _max_step returns and the matrices _chol
        factors, in order of the calls."""
        bounds, factored = [], []
        max_step, chol = sdp_core._max_step, sdp_core._chol

        def bounding(L, dS):
            bounds.append(max_step(L, dS))
            return bounds[-1]

        def factoring(mat):
            factored.append(mat.copy())
            return chol(mat)

        monkeypatch.setattr(sdp_core, "_max_step", bounding)
        monkeypatch.setattr(sdp_core, "_chol", factoring)
        return bounds, factored

    @staticmethod
    def _check(sol, bounds, factored):
        stepped = sol.trace[:-1]
        assert len(stepped) == sol.iterations > 5
        assert math.isnan(sol.trace[-1].step_fraction)
        # X, Z and the Schur complement are factored once an iteration
        assert len(bounds) == 4 * len(stepped) and len(factored) == 3 * len(stepped)
        for k, log in enumerate(stepped):
            bx_aff, bz_aff, bx, bz = bounds[4 * k:4 * k + 4]
            ap_aff = min(1.0, _PREDICTOR_FRACTION * bx_aff)
            ad_aff = min(1.0, _PREDICTOR_FRACTION * bz_aff)
            assert 0.9 <= log.step_fraction <= 0.99
            assert log.step_fraction == _STEP_BASE + _STEP_GAIN * min(ap_aff, ad_aff)
            assert log.alpha_p == min(1.0, log.step_fraction * bx)
            assert log.alpha_d == min(1.0, log.step_fraction * bz)
        # every iterate a step reached factors without _chol's shift: the
        # ones stepped from as the solve saw them, the last as returned
        reached = factored[3::3] + factored[4::3] + list(sol.Z)
        if sol.status is not SdpStatus.CERTIFIED:
            reached += list(sol.X)
        for mat in reached:
            assert dpotrf(mat.T, lower=1)[1] == 0

    def test_planted(self, spied):
        problem, _ = planted_sdp(np.random.default_rng(42), max_block=12, max_m=40)
        spied[1].clear()  # the constraint Gram matrix's factor
        sol = solve_sdp(problem, tol=1e-9)
        assert sol.status is SdpStatus.OPTIMAL
        self._check(sol, *spied)

    @pytest.mark.parametrize("n, p", [(2, 3), (3, 4)], ids=["rows", "samples"])
    def test_certification(self, n, p, spied, monkeypatch):
        model = random_certified_model(np.random.default_rng(0), n, p)
        solves = []
        solve = sos_certify.solve_sdp

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(sos_certify, "solve_sdp", recording)
        sos_certify._gram_structure(model.n, model.p_prime)
        spied[1].clear()  # what building the structure factored
        min_sigma_sos(model)
        [sol] = solves
        assert sol.status is SdpStatus.CERTIFIED
        self._check(sol, *spied)


class TestScalarPart:
    """1x1 blocks at any position form the solver's scalar part."""

    @pytest.mark.parametrize("scalars", [(0,), (1,), (2,), (0, 1, 2), (0, 0, 2, 2)],
                             ids=["before", "between", "after", "everywhere",
                                  "pairs-at-ends"])
    def test_planted_scalars_recovered(self, scalars):
        rng = np.random.default_rng(len(scalars) + 10 * scalars[0])
        for _ in range(3):
            problem, obj_star = planted_sdp(rng, max_block=8, max_m=30,
                                            scalars=scalars, nblocks=2)
            sizes = problem.block_sizes
            assert [i for i, d in enumerate(sizes) if d == 1] == [
                position + k for k, position in enumerate(sorted(scalars))]
            sol = solve_sdp(problem, tol=1e-9)
            assert sol.status is SdpStatus.OPTIMAL
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8
            err = abs(primal_objective(problem, sol.X) - obj_star)
            assert err <= 1e-7 * (1.0 + abs(obj_star))
            assert [x.shape for x in sol.X] == [(d, d) for d in sizes]
            assert [z.shape for z in sol.Z] == [(d, d) for d in sizes]

    def test_returned_blocks_share_no_memory(self):
        problem, _ = planted_sdp(np.random.default_rng(9), max_block=6,
                                 max_m=20, scalars=(0, 2), nblocks=2)
        first = solve_sdp(problem)
        kept = [a.copy() for a in (*first.X, first.y, *first.Z)]
        returned = [*first.X, first.y, *first.Z]
        for i, a in enumerate(returned):
            for b in returned[i + 1:]:
                assert not np.shares_memory(a, b)
        # the scalar block that comes first: no later solve sees the write
        assert first.X[0].shape == (1, 1)
        first.X[0][...] = 7.0
        again = solve_sdp(problem)
        for a, b in zip((*again.X, again.y, *again.Z), kept):
            assert np.array_equal(a, b)
        for a, b in zip(returned[1:], kept[1:]):
            assert np.array_equal(a, b)
        for a in (*again.X, again.y, *again.Z):
            assert not any(np.shares_memory(a, b) for b in returned)


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

    @pytest.mark.parametrize("objective, constraints, b, message", [
        (_C, [_A, _T], [1.0, np.nan, 1.0], "entry 1 of b is not finite"),
        ([np.eye(2), np.full((1, 1), np.inf)], [_A, _T], [1.0, 0.0, 1.0],
         "objective block 1 is not finite"),
        (_C, [np.stack([_A[0], _A[1], np.full((2, 2), np.nan)]), _T],
         [1.0, 0.0, 1.0], "constraint 2 in block 0 is not finite"),
    ], ids=["nan-in-b", "inf-in-objective", "nan-in-constraint"])
    def test_non_finite_data_raises(self, objective, constraints, b, message):
        # rejected at construction, before any arithmetic can warn
        with pytest.raises(ValueError, match=message):
            SdpProblem(objective=objective, constraints=constraints, b=b)


class TestConstructionMemory:
    def test_dense_problem_holds_little_more_than_its_data(self):
        # 100 dense (20, 20) constraints are 0.31 MiB of floats; the problem
        # keeps them as its stacks, their nonzero entries with row and cell
        # indices and the (100, 100) inverse Gram matrix, about 1.4 MiB.
        # The inputs are made before tracing starts, so only what
        # construction allocates and keeps is counted
        rng = np.random.default_rng(33)
        raw = rng.standard_normal((100, 20, 20))
        constraints = [raw + raw.transpose(0, 2, 1)]
        objective, b = [np.eye(20)], np.zeros(100)
        tracemalloc.start()
        try:
            problem = SdpProblem(objective=objective, constraints=constraints, b=b)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(problem.b) == 100
        assert held <= 3 * 2 ** 20


class TestWithRhs:
    @pytest.mark.parametrize("b, message", [
        ([1.0, np.inf, 1.0], "entry 1 of b is not finite"),
        ([1.0, 0.0, np.nan], "entry 2 of b is not finite"),
        ([1.0, 0.0], "b has length 2, expected one entry per constraint row"),
        ([1.0, 0.0, 1.0, 2.0], "b has length 4"),
        ([[1.0, 0.0, 1.0]], "expected a vector"),
    ], ids=["inf", "nan", "short", "long", "matrix"])
    def test_bad_rhs_raises(self, b, message):
        problem = SdpProblem(objective=_C, constraints=[_A, _T], b=[1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            problem.with_rhs(b)

    def test_shared_data_is_read_only(self):
        problem, _ = planted_sdp(np.random.default_rng(5), max_block=6, max_m=12)
        other = problem.with_rhs(2.0 * problem.b)
        assert other._gram_inv is problem._gram_inv
        scatter = problem._scatter
        assert other._scatter is scatter
        assert other._cells is problem._cells
        assert other._stacks is problem._stacks
        assert np.array_equal(other.b, 2.0 * problem.b)
        shared = [*problem.objective, problem._gram_inv, problem._cells, problem._c,
                  *scatter, *problem._stacks]
        for array in shared:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0

    def test_solves_share_no_state(self):
        # each solve gets its own work arrays: a solve of a sibling problem
        # in between leaves a repeated solve bit-identical
        problem, _ = planted_sdp(np.random.default_rng(8), max_block=8, max_m=20)
        first = solve_sdp(problem)
        sibling = solve_sdp(problem.with_rhs(1.5 * problem.b))
        again = solve_sdp(problem)
        assert sibling.status is SdpStatus.OPTIMAL
        assert again.iterations == first.iterations
        for a, b in zip((*first.X, first.y, *first.Z), (*again.X, again.y, *again.Z)):
            assert np.array_equal(a, b)


class TestNonFiniteIterate:
    """A step that yields inf or NaN ends the solve with NumericalFailure and
    the last finite iterate, never with an exception or another status."""

    @staticmethod
    def _problem(kind: str) -> SdpProblem:
        if kind == "scalar_blocks":
            # two 1x1 blocks, which go through the general kernels: the step
            # length's finiteness check stops the bad direction
            return SdpProblem(objective=[np.array([[1.0]]), np.array([[2.0]])],
                              constraints=[np.ones((1, 1, 1)), np.ones((1, 1, 1))],
                              b=[1.0])
        problem, _ = planted_sdp(np.random.default_rng(4), max_block=8, max_m=20)
        return problem

    # three solves per iteration: the predictor's factor solve, then the
    # corrector's solve and its refinement; 8 poisons the third iteration's
    # refinement
    @pytest.mark.parametrize("after", [0, 8], ids=["first_step", "later_step"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["scalar_blocks", "planted"])
    def test_non_finite_step_ends_numerical_failure(self, kind, bad, after,
                                                    poisoned_vector_solves):
        problem = self._problem(kind)
        clean = solve_sdp(problem)
        poisoned_vector_solves.update(value=bad, after=after)
        sol = solve_sdp(problem)
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert sol.iterations < clean.iterations
        assert (sol.iterations > 0) == (after > 0)
        assert all(np.isfinite(x).all() for x in (*sol.X, sol.y, *sol.Z))
        # the returned iterate is the last one logged, before the failing
        # step, which the clean solve passed through too
        last = sol.trace[-1]
        assert len(sol.trace) == sol.iterations + 1
        assert (sol.gap, sol.primal_residual, sol.dual_residual) == (
            last.gap, last.primal_residual, last.dual_residual)
        assert [t.gap for t in sol.trace] == [t.gap for t in clean.trace[:len(sol.trace)]]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_iterate_check_stops_an_unbounded_step(self, bad, poisoned_vector_solves,
                                                   monkeypatch):
        # with step lengths that see no bound, the bad direction reaches the
        # iterate, and the once-per-iteration check ends the solve
        problem = self._problem("planted")
        monkeypatch.setattr(sdp_core, "_max_step", lambda L, dS: np.inf)
        poisoned_vector_solves.update(value=bad, after=0)
        sol = solve_sdp(problem)
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert sol.iterations == 0
        assert all(np.isfinite(x).all() for x in (*sol.X, sol.y, *sol.Z))
