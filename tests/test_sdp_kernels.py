"""The solver's small dense kernels against the numpy and scipy calls they
replace, and the scalar part's closed forms against the general path on
1x1 blocks.

The kernels promise the same bits, so every comparison is exact equality.
They check no input for inf or NaN (the solver checks each iterate once),
so the reference is the unchecked general path.  The constraint scatters
promise the dense products' bits only for the certification SDP's 0/1
pair matrices; on dense data they agree up to rounding.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from sosarp.sdp_core import (SdpProblem, _adjoint, _chol, _eigvalsh, _inverse,
                             _max_step, _scalar_chol, _scalar_inverse,
                             _scalar_max_step, _solve_triangular, _times_stacks,
                             _vec)
from sosarp.sos_certify import _gram_structure


def _factor(rng, size: int, lower: bool, order: str) -> np.ndarray:
    """A well-conditioned triangular factor whose other triangle holds junk,
    so that solving from the wrong triangle changes the result."""
    tri = np.tril(rng.normal(size=(size, size)), -1) + np.diag(rng.uniform(1, 3, size))
    junk = np.triu(rng.normal(size=(size, size)), 1)
    L = tri + junk if lower else tri.T + junk.T
    return np.asarray(L, order=order)


def _reference_inverse(L):
    L_inv = solve_triangular(L, np.eye(L.shape[0]), lower=True, check_finite=False)
    return L_inv.T @ L_inv


def _reference_max_step(chols, dS):
    alpha = np.inf
    for L, d_blk in zip(chols, dS):
        half = solve_triangular(L, d_blk, lower=True, check_finite=False)
        G = solve_triangular(L, half.T, lower=True, check_finite=False)
        lam = float(np.min(np.linalg.eigvalsh((G + G.T) / 2.0)))
        if lam < 0.0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


class TestSolveTriangular:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("rhs_shape", [(), (4,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("size", [1, 6, 30])
    def test_equals_scipy(self, order, lower, rhs_shape, size):
        rng = np.random.default_rng(size)
        L = _factor(rng, size, lower, order)
        rhs = rng.normal(size=(size,) + rhs_shape)
        expected = solve_triangular(L, rhs, lower=lower)
        assert np.array_equal(_solve_triangular(L, rhs, lower=lower), expected)

    def test_transposed_view_equals_scipy(self):
        # the back-solve with L' passes a transposed view of a C-ordered factor
        rng = np.random.default_rng(1)
        L = _factor(rng, 8, True, "C")
        rhs = rng.normal(size=8)
        expected = solve_triangular(L.T, rhs, lower=False)
        assert np.array_equal(_solve_triangular(L.T, rhs, lower=False), expected)

    def test_empty_system(self):
        out = _solve_triangular(np.zeros((0, 0)), np.zeros(0), lower=True)
        assert out.shape == (0,)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_diagonal_is_singular(self, order):
        L = np.asarray(np.tril(np.ones((3, 3))), order=order)
        L[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            _solve_triangular(L, np.ones(3), lower=True)


class TestEigvalsh:
    @pytest.mark.parametrize("size", range(2, 31))
    def test_equals_numpy(self, size):
        # symmetric indefinite and positive definite matrices, as the step
        # length sees them
        rng = np.random.default_rng(size)
        for _ in range(20):
            G = rng.normal(size=(size, size))
            for S in ((G + G.T) / 2.0, G @ G.T + 1e-3 * np.eye(size)):
                assert np.array_equal(_eigvalsh(S), np.linalg.eigvalsh(S))


def _reference_chol(mat):
    """_chol's jitter loop around np.linalg.cholesky."""
    scale = float(np.max(np.abs(mat), initial=1.0))
    jitter = 0.0
    while True:
        try:
            shifted = mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0])
            return np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 100.0
            if jitter > 1e-10 * scale:
                raise


class TestScalarCholesky:
    """The scalar part's factor is np.linalg.cholesky's on each 1x1 block;
    _chol's jitter loop now runs numpy's factor on every block it gets."""

    def test_positive_values_equal_numpy(self):
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-300, 300, 2000)
        factors = _scalar_chol(values)
        for v, l in zip(values, factors):
            mat = np.array([[v]])
            assert np.array_equal([[l]], np.linalg.cholesky(mat))
            assert np.array_equal(_chol(mat), np.linalg.cholesky(mat))

    @pytest.mark.parametrize("v", [0.0, -0.0, -1e-20, -1e-15, -5e-13, -5e-11])
    def test_jitter_retry_equals_numpy(self, v):
        # each value fails unshifted and factors after one, two or three shifts
        mat = np.array([[v]])
        assert np.array_equal(_chol(mat), _reference_chol(mat))

    @pytest.mark.parametrize("v", [0.0, -0.0, -1.0, -1e-300])
    def test_not_positive_fails_as_numpy(self, v):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array([[v]]))
        with pytest.raises(np.linalg.LinAlgError):
            _scalar_chol(np.array([2.0, v, 3.0]))

    def test_nan_fails(self):
        # numpy's factor of [[nan]] is [[nan]]; the scalar part fails instead
        with pytest.raises(np.linalg.LinAlgError):
            _scalar_chol(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("v", [-1.0, np.nan])
    def test_jitter_gives_up(self, v):
        # no shift up to the cap makes diag(-1, -1) positive definite, and a
        # NaN entry makes the shift NaN, which helps no factor: both fail
        # instead of retrying forever
        with pytest.raises(np.linalg.LinAlgError):
            _chol(np.array([[-1.0, 0.0], [0.0, v]]))

    def test_non_finite_matrix_stops_jitter(self):
        # an infinite scale makes the first shift infinite: fail at once
        mat = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, np.inf]])
        with pytest.raises(np.linalg.LinAlgError):
            _chol(mat)


def _scalar_reference(l: float, d: float):
    """The general path's step bound and inverse on the 1x1 blocks [[l]], [[d]]."""
    L = np.array([[l]])
    return _reference_max_step([L], [np.array([[d]])]), _reference_inverse(L)[0, 0]


class TestScalarBlocks:
    def test_closed_forms_equal_general_path(self):
        rng = np.random.default_rng(7)
        ls = 10.0 ** rng.uniform(-8, 8, 2000)
        ds = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-8, 8, 2000)
        inverses = _scalar_inverse(ls)
        for l, d, inv in zip(ls, ds, inverses):
            step, expected_inv = _scalar_reference(l, d)
            assert _scalar_max_step(np.array([l]), np.array([d])) == step
            assert np.array_equal(inv, expected_inv)
        # the bound of many scalars at once is the smallest of their bounds
        steps = [_scalar_reference(l, d)[0] for l, d in zip(ls, ds)]
        assert _scalar_max_step(ls, ds) == min(steps)
        assert _scalar_max_step(np.zeros(0), np.zeros(0)) == np.inf

    def test_mixed_blocks_equal_general_path(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(6, 6))
        chols = [np.linalg.cholesky(G @ G.T + np.eye(6)), np.array([[0.7]])]
        dS = [-(G + G.T), np.array([[-2.5]])]
        combined = min(_max_step(chols[:1], dS[:1]),
                       _scalar_max_step(np.array([0.7]), np.array([-2.5])))
        assert combined == _reference_max_step(chols, dS)
        assert np.array_equal(_inverse(chols[0]), _reference_inverse(chols[0]))

    @pytest.mark.parametrize("d, l", [(1e300, 1e-10), (-1e300, 1e-10),
                                      (1e200, 1e-60), (-1e200, 1e-60),
                                      (1.0, 1e-200), (-1e300, 1e-4)])
    def test_overflow_matches_general_path(self, d, l):
        # d / l or d / l / l beyond the float range gives +-inf, as the two
        # unchecked solves do, and +inf (no bound) or -inf (step 0) follows;
        # a finite d / l / l = -1e308 overflows in (G + G')/2 to step 0
        with np.errstate(over="ignore"):  # the scalar part's numpy ops warn
            step, expected_inv = _scalar_reference(l, d)
            assert _scalar_max_step(np.array([l]), np.array([d])) == step
            assert np.array_equal(_scalar_inverse(np.array([l])), [expected_inv])


class TestStepLength:
    def test_overflowing_solve_raises(self):
        # dS = -I and L L' = diag(1, 1, 1, 1e-320): every alpha > 1e-320
        # leaves the cone, but L^-1 dS L^-T holds -inf, LAPACK's eigenvalues
        # of it are NaN and the unguarded path allows the full step
        L = np.diag([1.0, 1.0, 1.0, 1e-160])
        dS = -np.eye(4)
        assert _reference_max_step([L], [dS]) == np.inf
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            _max_step([L], [dS])
        # the same block after a well-behaved one: any non-finite block raises
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            _max_step([np.eye(2), L], [-np.eye(2), dS])


# (n, p') of every certification SDP the benchmark solves
BENCH_STRUCTURES = [(1, 4), (2, 4), (3, 4), (4, 4), (2, 6), (3, 6)]


def _scattered_stacks(problem, X):
    """Each block's (m, d, d) stack X_j A_k, cut from the flat scatter."""
    m, width = problem._avec.shape
    flat = _times_stacks(_vec(X), problem._scatter, m * width)
    stacks, start = [], 0
    for d in problem.block_sizes:
        stacks.append(flat[m * start:m * (start + d * d)].reshape(m, d, d))
        start += d * d
    return stacks


def _wide_range(rng, shape):
    """Finite entries of both signs across ten orders of magnitude."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)


class TestConstraintScatter:
    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_certification_products_equal_dense(self, n, p_prime):
        problem = _gram_structure(n, p_prime).problem
        rng = np.random.default_rng(10 * n + p_prime)
        for _ in range(5):
            X = [_wide_range(rng, (d, d)) for d in problem.block_sizes]
            for got, x, a in zip(_scattered_stacks(problem, X), X,
                                 problem.constraints):
                assert np.array_equal(got, x @ a)
            y = _wide_range(rng, len(problem.b))
            # the sigma column sums one term per row: the order of k matters
            expected = np.einsum("k,kn->n", y, problem._avec)
            assert np.array_equal(_adjoint(y, problem._scatter, len(expected)),
                                  expected)

    def test_dense_products_agree_to_rounding(self):
        rng = np.random.default_rng(2)
        sizes, m = [7, 1, 4], 12
        objective = [np.eye(d) for d in sizes]
        constraints = []
        for d in sizes:
            raw = rng.standard_normal((m, d, d))
            constraints.append(raw + raw.transpose(0, 2, 1))
        problem = SdpProblem(objective=objective, constraints=constraints,
                             b=np.zeros(m))
        X = [rng.standard_normal((d, d)) for d in sizes]
        for got, x, a in zip(_scattered_stacks(problem, X), X, problem.constraints):
            expected = x @ a
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))
        y = rng.standard_normal(m)
        expected = np.einsum("k,kn->n", y, problem._avec)
        np.testing.assert_allclose(_adjoint(y, problem._scatter, len(expected)),
                                   expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))
