"""The solver's small dense kernels against the scipy and numpy calls they
replace, and the scalar part's closed forms against the general path on
1x1 blocks.

The LAPACK kernels compute what scipy.linalg computes by another route, so
they are compared within 1e-12 relative; the eigenvalues and the scalar
part promise the same bits, so those comparisons are exact equality.  The
kernels check no input for inf or NaN (the solver checks each iterate
once).  The constraint scatters promise the dense products' bits only for
the certification SDP's 0/1 pair matrices; on dense data they agree up to
rounding, as does the Schur complement B B' with its dense definition.
A(v) through the scatter agrees with the dense product Avec @ v up to
rounding on all data, since BLAS adds a row's terms in its own order.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from sosarp._lapack import dsygst
from sosarp.sdp_core import (SdpProblem, _adjoint, _apply, _chol, _cho_solve,
                             _eigvalsh, _inverse, _max_step, _scalar_chol,
                             _scalar_inverse, _scalar_max_step, _schur_factor)
from sosarp.sos_certify import _gram_structure
from conftest import planted_sdp

KERNEL_SIZES = [1, 6, 12, 20, 30]


def _spd(rng, size: int) -> np.ndarray:
    """A well-conditioned symmetric positive definite matrix, symmetric to
    the bit as the solver's iterates are."""
    G = rng.normal(size=(size, size))
    S = G @ G.T + size * np.eye(size)
    return (S + S.T) / 2.0


def _reference_max_step(chols, dS):
    """The step bound from two triangular solves and (G + G')/2, with no
    finiteness check."""
    alpha = np.inf
    for L, d_blk in zip(chols, dS):
        half = solve_triangular(L, d_blk, lower=True, check_finite=False)
        G = solve_triangular(L, half.T, lower=True, check_finite=False)
        lam = float(np.min(np.linalg.eigvalsh((G + G.T) / 2.0)))
        if lam < 0.0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def _relative(got, expected) -> float:
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def _factor(rng, size: int, lower: bool, order: str) -> np.ndarray:
    """A well-conditioned triangular factor whose other triangle holds junk,
    so that reading the wrong triangle changes the result."""
    tri = np.tril(rng.normal(size=(size, size)), -1) + np.diag(rng.uniform(1, 3, size))
    junk = np.triu(rng.normal(size=(size, size)), 1)
    L = tri + junk if lower else tri.T + junk.T
    return np.asarray(L, order=order)


class TestSolveTriangular:
    """The solver's triangular solves, each now made inside one LAPACK call:
    the pair of solves with L and L' in _cho_solve (dpotrs), L^-1 in
    _inverse (dtrtri), against scipy's solve_triangular."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("rhs_shape", [(), (4,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("size", [1, 6, 30])
    def test_equals_scipy(self, order, lower, rhs_shape, size):
        # an upper factor U reaches dpotrs as U.T, the lower factor L = U'
        # seen through a transposed view; junk in the other triangle is
        # never read
        rng = np.random.default_rng(size)
        factor = _factor(rng, size, lower, order)
        L = factor if lower else factor.T
        rhs = rng.normal(size=(size,) + rhs_shape)
        half = solve_triangular(L, rhs, lower=True)
        expected = solve_triangular(np.tril(L).T, half, lower=False)
        assert _relative(_cho_solve(L, rhs), expected) <= 1e-12

    def test_transposed_view_equals_scipy(self):
        # _chol hands dpotrf the transposed view of a C-ordered symmetric
        # matrix, which is F-ordered, so f2py needs no transposing copy
        rng = np.random.default_rng(1)
        S = _spd(rng, 8)
        assert S.flags.c_contiguous and S.T.flags.f_contiguous
        assert _relative(_chol(S), cholesky(S, lower=True)) <= 1e-12

    def test_empty_system(self):
        out = _cho_solve(np.zeros((0, 0)), np.zeros(0))
        assert out.shape == (0,)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_diagonal_is_singular(self, order):
        L = np.asarray(np.tril(np.ones((3, 3))), order=order)
        L[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            _inverse(L)


class TestCholeskyKernels:
    """_chol, _cho_solve, _inverse and _max_step against scipy.linalg."""

    @pytest.mark.parametrize("size", KERNEL_SIZES)
    def test_factor_and_solve(self, size):
        rng = np.random.default_rng(size)
        S = _spd(rng, size)
        L = _chol(S)
        # F-ordered with a zero upper triangle, as dtrtri, dpotrs and the
        # Schur gathers read it
        assert L.flags.f_contiguous
        assert not np.triu(L, 1).any()
        assert _relative(L, cholesky(S, lower=True)) <= 1e-12
        rhs = rng.normal(size=size)
        assert _relative(_cho_solve(L, rhs), np.linalg.solve(S, rhs)) <= 1e-12

    @pytest.mark.parametrize("size", KERNEL_SIZES)
    def test_inverse(self, size):
        rng = np.random.default_rng(size + 1)
        L = _chol(_spd(rng, size))
        L_inv, S_inv = _inverse(L)
        expected = solve_triangular(L, np.eye(size), lower=True)
        assert not np.triu(L_inv, 1).any()
        assert _relative(L_inv, expected) <= 1e-12
        assert _relative(S_inv, expected.T @ expected) <= 1e-12

    @pytest.mark.parametrize("size", KERNEL_SIZES)
    def test_max_step(self, size):
        rng = np.random.default_rng(size + 2)
        for _ in range(5):
            L = _chol(_spd(rng, size))
            G = rng.normal(size=(size, size))
            sym = (G + G.T) / 2.0
            # smallest eigenvalue -1 (indefinite from size 2), and negative
            # definite: each sets a finite bound
            for dS in (sym - (np.linalg.eigvalsh(sym)[0] + 1.0) * np.eye(size),
                       -(G @ G.T) - np.eye(size)):
                got = _max_step([L], [dS])
                expected = _reference_max_step([L], [dS])
                assert math.isfinite(expected)
                assert abs(got - expected) <= 1e-12 * expected

    def test_max_step_takes_the_smallest_block_bound(self):
        rng = np.random.default_rng(3)
        chols = [_chol(_spd(rng, d)) for d in (6, 12)]
        dS = [-_spd(rng, 6), -_spd(rng, 12)]
        expected = min(_reference_max_step([L], [d]) for L, d in zip(chols, dS))
        assert abs(_max_step(chols, dS) - expected) <= 1e-12 * expected
        # a positive semidefinite direction sets no bound
        assert _max_step(chols[:1], [_spd(rng, 6)]) == np.inf


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
    """The scalar part's factor is sqrt, which is what dpotrf and
    np.linalg.cholesky compute on each 1x1 block, and _chol's jitter loop
    retries as numpy's factor would."""

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
    """The general path's step bound and inverse on the 1x1 blocks [[l]],
    [[d]]: dsygst and its eigenvalue, without _max_step's finiteness check,
    and _inverse."""
    G, _ = dsygst(np.array([[d]]), np.array([[l]]), lower=1)
    lam = float(_eigvalsh(G)[0])
    step = -1.0 / lam if lam < 0.0 else np.inf
    return step, _inverse(np.array([[l]]))[1][0, 0]


class TestScalarBlocks:
    def test_closed_forms_equal_general_path(self):
        rng = np.random.default_rng(7)
        ls = 10.0 ** rng.uniform(-8, 8, 2000)
        ds = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-8, 8, 2000)
        inverses = _scalar_inverse(ls)
        for l, d, inv in zip(ls, ds, inverses):
            step, expected_inv = _scalar_reference(l, d)
            assert _scalar_max_step(np.array([l]), np.array([d])) == step
            # no overflow in this range, so the checked path agrees too
            assert _max_step([np.array([[l]])], [np.array([[d]])]) == step
            assert np.array_equal(inv, expected_inv)
        # the bound of many scalars at once is the smallest of their bounds
        steps = [_scalar_reference(l, d)[0] for l, d in zip(ls, ds)]
        assert _scalar_max_step(ls, ds) == min(steps)
        assert _scalar_max_step(np.zeros(0), np.zeros(0)) == np.inf

    def test_mixed_blocks_equal_general_path(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(6, 6))
        chols = [_chol(G @ G.T + np.eye(6)), np.array([[0.7]])]
        dS = [-(G + G.T), np.array([[-2.5]])]
        combined = min(_max_step(chols[:1], dS[:1]),
                       _scalar_max_step(np.array([0.7]), np.array([-2.5])))
        assert combined == _max_step(chols, dS)

    @pytest.mark.parametrize("d, l", [(1e300, 1e-10), (-1e300, 1e-10),
                                      (1e200, 1e-60), (-1e200, 1e-60),
                                      (1.0, 1e-200), (-1e300, 1e-4)])
    def test_overflow_matches_general_path(self, d, l):
        # d / l^2 beyond the float range, or l^2 underflowing to 0, gives
        # +-inf in both paths, and +inf (no bound) or -inf (step 0)
        # follows; a finite d / l^2 = -1e308 bounds the step at 1e-308
        with np.errstate(over="ignore", divide="ignore"):  # numpy's ops warn
            step, expected_inv = _scalar_reference(l, d)
            assert _scalar_max_step(np.array([l]), np.array([d])) == step
            assert np.array_equal(_scalar_inverse(np.array([l])), [expected_inv])


class TestStepLength:
    def test_overflowing_solve_raises(self):
        # dS = -I and L L' = diag(1, 1, 1, 1e-320): every alpha > 1e-320
        # leaves the cone, but L^-1 dS L^-T holds -inf, LAPACK's eigenvalues
        # of it are NaN and an unguarded path allows the full step
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


def _scattered_stacks(problem, Lx):
    """Each PSD block's (m, d, w) stack of Lx_j' A_k on the nonzero columns
    of A_k, cut from the flat scatter of the lower triangular Lx."""
    scatter = problem._scatter
    m, width = problem._avec.shape
    flat_lx = np.zeros(width)
    for (start, end, _), L in zip(scatter.psd, Lx):
        flat_lx[start:end] = L.ravel()
    shapes = [(m, d, gather.shape[1]) for (_, _, d), gather in zip(scatter.psd,
                                                                 scatter.gathers)]
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.bincount(scatter.bins, flat_lx[scatter.sources] * scatter.factors,
                       minlength=sum(sizes))
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape)
            for end, size, shape in zip(ends, sizes, shapes)]


def _expected_stacks(problem, Lx):
    """The dense Lx_j' A_k on the same columns, zero where a row's columns
    are padded; and a check that the columns are each A_k's nonzero ones,
    and that the gathers pick their rows of Lz^-T."""
    stacks = []
    for (start, _, d), gather, L, a in zip(problem._scatter.psd,
                                           problem._scatter.gathers, Lx,
                                           [c for c in problem.constraints
                                            if c.shape[1] > 1]):
        cols = gather[:, :, 0] - start
        assert np.array_equal(gather, start + d * np.arange(d) + cols[:, :, None])
        counts = np.count_nonzero(np.any(a != 0.0, axis=1), axis=1)
        assert cols.shape[1] == np.max(counts, initial=0)
        for k, count in enumerate(counts):
            assert np.array_equal(cols[k, :count], np.flatnonzero(np.any(a[k] != 0.0, axis=0)))
        padded = np.arange(cols.shape[1]) >= counts[:, None]
        dense = np.take_along_axis(L.T @ a, cols[:, None, :], axis=2)
        stacks.append(np.where(padded[:, None, :], 0.0, dense))
    return stacks


def _lower(rng, d):
    return np.tril(_wide_range(rng, (d, d)))


def _wide_range(rng, shape):
    """Finite entries of both signs across ten orders of magnitude."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)


class TestConstraintScatter:
    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_certification_products_equal_dense(self, n, p_prime):
        problem = _gram_structure(n, p_prime).problem
        rng = np.random.default_rng(10 * n + p_prime)
        for _ in range(5):
            Lx = [_lower(rng, d) for _, _, d in problem._scatter.psd]
            for got, expected in zip(_scattered_stacks(problem, Lx),
                                     _expected_stacks(problem, Lx)):
                assert np.array_equal(got, expected)
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
        # dense blocks: every row uses every column
        assert [gather.shape for gather in problem._scatter.gathers] == [(m, 7, 7),
                                                                        (m, 4, 4)]
        Lx = [np.tril(rng.standard_normal((d, d))) for d in (7, 4)]
        for got, expected in zip(_scattered_stacks(problem, Lx),
                                 _expected_stacks(problem, Lx)):
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))
        y = rng.standard_normal(m)
        expected = np.einsum("k,kn->n", y, problem._avec)
        np.testing.assert_allclose(_adjoint(y, problem._scatter, len(expected)),
                                   expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))


def _operator_problems():
    """(id, problem) for the constraint operator's tests: the pair matrices
    of every benchmark structure, dense planted data with 1x1 blocks, and
    dense data whose dependent rows 1 and 3 were dropped."""
    problems = [(f"pairs{n}{p_prime}", _gram_structure(n, p_prime).problem)
                for n, p_prime in BENCH_STRUCTURES]
    rng = np.random.default_rng(12)
    for scalars in [(), (0, 2)]:
        planted, _ = planted_sdp(rng, max_block=8, max_m=30, scalars=scalars,
                                 nblocks=2)
        problems.append((f"dense{len(scalars)}", planted))
    m = len(planted.b)
    order = [0, 0, 1, 1] + list(range(2, m))
    with pytest.warns(RuntimeWarning, match="dependent"):
        dropped = SdpProblem(objective=planted.objective,
                             constraints=[a[order] for a in planted.constraints],
                             b=planted.b[order])
    assert len(dropped.b) == m
    problems.append(("dropped", dropped))
    return problems


class TestConstraintOperator:
    """A(v) through the scatter and the stored inverse of the constraint
    Gram matrix, against the dense row matrix Avec."""

    @pytest.fixture(scope="class")
    def problems(self):
        return _operator_problems()

    def test_apply_agrees_with_dense_product(self, problems):
        rng = np.random.default_rng(13)
        for name, problem in problems:
            avec = problem._avec
            for _ in range(5):
                v = _wide_range(rng, avec.shape[1])
                got = _apply(v, problem._scatter, len(problem.b))
                assert got.shape == (len(problem.b),), name
                # rounding of either sum is bounded by its length times
                # eps times the sum of the terms' magnitudes
                bound = avec.shape[1] * 2.3e-16 * (np.abs(avec) @ np.abs(v))
                assert np.all(np.abs(got - avec @ v) <= bound), name

    def test_gram_inverse(self, problems):
        for name, problem in problems:
            avec = problem._avec
            inverse = problem._gram_inv
            assert not inverse.flags.writeable, name
            assert problem.with_rhs(np.zeros(len(problem._kept)))._gram_inv is inverse
            # cond(A A') is at most about 2e3 on these structures
            np.testing.assert_allclose((avec @ avec.T) @ inverse, np.eye(len(problem.b)),
                                       rtol=0.0, atol=1e-12, err_msg=name)


def _schur(problem, X, Z):
    """B B' from _schur_factor at X and Z, given as lists of PD blocks."""
    scatter = problem._scatter
    width = problem._avec.shape[1]
    Lx, Lz_inv = np.zeros(width), np.zeros(width)
    for (start, end, _), x, z in zip(scatter.psd, [x for x in X if len(x) > 1],
                                     [z for z in Z if len(z) > 1]):
        Lx[start:end] = np.linalg.cholesky(x).ravel()
        Lz_inv[start:end] = np.linalg.inv(np.linalg.cholesky(z)).ravel()
    lx = np.sqrt([x[0, 0] for x in X if len(x) == 1])
    lz = np.sqrt([z[0, 0] for z in Z if len(z) == 1])
    B = _schur_factor(scatter, Lx, Lz_inv, lx, lz, np.full_like(problem._avec, np.nan))
    return B @ B.T


def _dense_schur(problem, X, Z):
    """M[i, j] = sum over blocks of <A_i, X A_j Z^-1>, from the definition."""
    return sum(np.einsum("iab,jab->ij", a, x @ a @ np.linalg.inv(z))
               for a, x, z in zip(problem.constraints, X, Z))


def _pd_blocks(rng, sizes):
    blocks = []
    for d in sizes:
        g = rng.standard_normal((d, d))
        blocks.append(g @ g.T + d * np.eye(d))
    return blocks


class TestSchurFactor:
    """M = B B' against its definition, on the certification structures and
    on dense planted problems with 1x1 blocks anywhere."""

    @staticmethod
    def _check(problem, rng):
        sizes = problem.block_sizes
        for _ in range(3):
            X, Z = _pd_blocks(rng, sizes), _pd_blocks(rng, sizes)
            M = _schur(problem, X, Z)
            expected = _dense_schur(problem, X, Z)
            assert np.array_equal(M, M.T)
            np.testing.assert_allclose(M, expected, rtol=1e-12,
                                       atol=1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_certification_structures(self, n, p_prime):
        self._check(_gram_structure(n, p_prime).problem,
                    np.random.default_rng(n + p_prime))

    @pytest.mark.parametrize("scalars", [(0,), (1,), (2,), (0, 1, 2)],
                             ids=["before", "between", "after", "everywhere"])
    def test_planted_dense_problems(self, scalars):
        rng = np.random.default_rng(sum(scalars) + 7)
        for _ in range(3):
            problem, _ = planted_sdp(rng, max_block=8, max_m=30, scalars=scalars,
                                     nblocks=2)
            self._check(problem, rng)

    def test_built_from_kept_rows_and_read_only(self):
        # rows 1 and 3 repeat rows 0 and 2 and are dropped; the rows after
        # them move up, and every new array has one row per kept constraint
        rng = np.random.default_rng(11)
        planted, _ = planted_sdp(rng, max_block=6, max_m=12, scalars=(1,), nblocks=2)
        m = len(planted.b)
        order = [0, 0, 1, 1] + list(range(2, m))
        with pytest.warns(RuntimeWarning, match="dependent"):
            problem = SdpProblem(objective=planted.objective,
                                 constraints=[a[order] for a in planted.constraints],
                                 b=planted.b[order])
        assert len(problem.b) == m
        for got, expected in zip(problem.constraints, planted.constraints):
            assert np.array_equal(got, expected)
        scatter = problem._scatter
        assert [gather.shape[0] for gather in scatter.gathers] == [m, m]
        assert scatter.scalar_columns.shape == (m, 1)
        Lx = [_lower(rng, d) for _, _, d in scatter.psd]
        for got, expected in zip(_scattered_stacks(problem, Lx),
                                 _expected_stacks(problem, Lx)):
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))
        self._check(problem, rng)
        for array in (scatter.scalars, scatter.scalar_columns, scatter.sources,
                      scatter.factors, scatter.bins, *scatter.gathers):
            assert not array.flags.writeable
