"""The solver's small dense kernels against the scipy and numpy calls they
replace, the block-diagonal D x D layout of its iterates, and the LAPACK
calls an iteration makes.

The LAPACK kernels compute what scipy.linalg computes by another route, so
they are compared within 1e-12 relative; the eigenvalues and the 1x1
blocks' closed forms promise the same bits, so those comparisons are exact
equality.  The kernels check no input for inf or NaN (the solver checks each
iterate once).  A*(y) through the scatter promises the dense product's bits
only for the certification SDP's 0/1 pair matrices; on dense data it agrees
up to rounding, as does the Schur complement B B' with its dense
definition.  A(V) through the scatter agrees with the dense product A v
up to rounding on all data, since BLAS adds a row's terms in its own order.
On the structures with constraint samples, the sampled Schur solve agrees
with the solve over the rows up to rounding.
The dense references are built here: the row matrix A of planted data from
its input stacks, and that of the certification SDP from the basis pairs.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import block_diag, cholesky, solve_triangular

from sosarp import sdp_core, sos_certify
from sosarp.sdp_core import (_RANK_TOL, ConstraintSamples, SdpProblem, SdpStatus,
                             _adjoint, _apply, _chol, _cho_solve, _eigvalsh,
                             _from_samples, _independent_rows, _inverse,
                             _max_step, _row_schur, _sample_schur, _schur_factor,
                             _to_samples, solve_sdp)
from sosarp.sos_certify import _SAMPLED_ROWS, _gram_structure, min_sigma_sos
from conftest import planted_data, planted_sdp, random_certified_model

KERNEL_SIZES = [1, 6, 12, 20, 30]


def _spd(rng, size: int) -> np.ndarray:
    """A well-conditioned symmetric positive definite matrix, symmetric to
    the bit as the solver's iterates are."""
    G = rng.normal(size=(size, size))
    S = G @ G.T + size * np.eye(size)
    return (S + S.T) / 2.0


def _reference_max_step(chols, dS):
    """The step bound from two triangular solves and (G + G')/2 on each
    block, with no finiteness check."""
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
                got = _max_step(L, dS)
                expected = _reference_max_step([L], [dS])
                assert math.isfinite(expected)
                assert abs(got - expected) <= 1e-12 * expected

    def test_max_step_takes_the_smallest_block_bound(self):
        # on block-diagonal S and dS the one reduced matrix is block-diagonal
        # too, and its smallest eigenvalue is the smallest block's
        rng = np.random.default_rng(3)
        chols = [_chol(_spd(rng, d)) for d in (6, 12)]
        dS = [-_spd(rng, 6), -_spd(rng, 12)]
        expected = min(_reference_max_step([L], [d]) for L, d in zip(chols, dS))
        got = _max_step(block_diag(*chols), block_diag(*dS))
        assert abs(got - expected) <= 1e-12 * expected
        # a positive semidefinite direction sets no bound
        assert _max_step(chols[0], _spd(rng, 6)) == np.inf


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
    """_chol on 1x1 blocks computes what np.linalg.cholesky computes, and its
    jitter loop retries as numpy's factor would."""

    def test_positive_values_equal_numpy(self):
        rng = np.random.default_rng(5)
        for v in 10.0 ** rng.uniform(-300, 300, 2000):
            mat = np.array([[v]])
            assert np.array_equal(_chol(mat), np.linalg.cholesky(mat))

    @pytest.mark.parametrize("v", [0.0, -0.0, -1e-20, -1e-15, -5e-13, -5e-11])
    def test_jitter_retry_equals_numpy(self, v):
        # each value fails unshifted and factors after one, two or three shifts
        mat = np.array([[v]])
        assert np.array_equal(_chol(mat), _reference_chol(mat))

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


def _closed_forms(l: float, d: float):
    """dsygst's one operation on the 1x1 blocks [[l]], [[d]], d / l^2, and
    the step bound and inverse it gives: no bound for lam >= 0, and
    (1 / l)^2, dtrtri's division squared."""
    l, d = np.float64(l), np.float64(d)
    lam = d / (l * l)
    step = -1.0 / lam if lam < 0.0 else np.inf
    inv = 1.0 / l
    return lam, step, inv * inv


class TestScalarBlocks:
    """1x1 blocks go through the general kernels; on them those compute the
    closed forms bit for bit."""

    def test_closed_forms_equal_general_path(self):
        rng = np.random.default_rng(7)
        ls = 10.0 ** rng.uniform(-8, 8, 2000)
        ds = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-8, 8, 2000)
        steps = []
        for l, d in zip(ls, ds):
            _, step, inv = _closed_forms(l, d)
            steps.append(step)
            # no overflow in this range, so the finiteness check passes
            assert _max_step(np.array([[l]]), np.array([[d]])) == step
            assert _inverse(np.array([[l]]))[1][0, 0] == inv
        # the bound of many 1x1 blocks at once, as one diagonal matrix, is
        # the smallest of their bounds
        assert _max_step(np.diag(ls[:60]), np.diag(ds[:60])) == min(steps[:60])

    def test_mixed_blocks_equal_general_path(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(6, 6))
        L6 = _chol(G @ G.T + np.eye(6))
        dS6 = -(G + G.T)
        combined = min(_max_step(L6, dS6), _closed_forms(0.7, -2.5)[1])
        for chols, dS in (([L6, np.array([[0.7]])], [dS6, np.array([[-2.5]])]),
                          ([np.array([[0.7]]), L6], [np.array([[-2.5]]), dS6])):
            got = _max_step(block_diag(*chols), block_diag(*dS))
            assert abs(got - combined) <= 1e-12 * combined

    @pytest.mark.parametrize("d, l", [(1e300, 1e-10), (-1e300, 1e-10),
                                      (1e200, 1e-60), (-1e200, 1e-60),
                                      (1.0, 1e-200), (-1e300, 1e-4)])
    def test_overflow_matches_general_path(self, d, l):
        # d / l^2 beyond the float range, or l^2 underflowing to 0, is not
        # finite: a 1x1 block raises like any block; a finite
        # d / l^2 = -1e308 bounds the step at 1e-308
        with np.errstate(over="ignore", divide="ignore"):  # the closed forms warn
            lam, step, inv = _closed_forms(l, d)
        if math.isfinite(lam):
            assert _max_step(np.array([[l]]), np.array([[d]])) == step
        else:
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                _max_step(np.array([[l]]), np.array([[d]]))
        with np.errstate(over="ignore"):  # (1 / l)^2 overflows on both sides
            assert _inverse(np.array([[l]]))[1][0, 0] == inv


class TestStepLength:
    def test_overflowing_solve_raises(self):
        # dS = -I and L L' = diag(1, 1, 1, 1e-320): every alpha > 1e-320
        # leaves the cone, but L^-1 dS L^-T holds -inf, LAPACK's eigenvalues
        # of it are NaN and an unguarded path allows the full step
        L = np.diag([1.0, 1.0, 1.0, 1e-160])
        dS = -np.eye(4)
        assert _reference_max_step([L], [dS]) == np.inf
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            _max_step(L, dS)
        # the same block after a well-behaved one: any non-finite block raises
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            _max_step(block_diag(np.eye(2), L), block_diag(-np.eye(2), dS))


# (n, p') of every certification SDP the benchmark solves
BENCH_STRUCTURES = [(1, 4), (2, 4), (3, 4), (4, 4), (2, 6), (3, 6)]
# the structures whose row counts lie in _SAMPLED_ROWS: the two benchmark ones
# above the crossover and (4, 6), the largest that takes samples
SAMPLED_STRUCTURES = [(4, 4), (3, 6), (4, 6)]


def _offsets(sizes):
    """s_j, the place of block j on the diagonal of the D x D matrix."""
    return np.cumsum([0] + list(sizes[:-1])).tolist()


def _rows(stacks):
    """The (m, N) row matrix: row k holds the k-th matrix of every stack,
    flattened and concatenated."""
    return np.concatenate([a.reshape(len(a), -1) for a in stacks], axis=1)


def _stacks(rows, sizes):
    """Each block's (m, d, d) stack of the row matrix."""
    ends = np.cumsum([d * d for d in sizes]).tolist()
    return [rows[:, end - d * d:end].reshape(-1, d, d) for end, d in zip(ends, sizes)]


def _certification_rows(n, p_prime):
    """The row matrix of the certification SDP, from the basis pairs alone:
    row k is 1 on both cells (u, w) and (w, u) of Q whose product is row k's
    monomial, and -reg[k] on the sigma cell."""
    structure = _gram_structure(n, p_prime)
    pairs = structure.pairs
    size, m = len(structure.basis), len(structure.rows)
    A = np.zeros((m, size, size))
    A[pairs.bins, pairs.u, pairs.w] = 1.0
    A[pairs.bins, pairs.w, pairs.u] = 1.0
    return np.concatenate([A.reshape(m, -1), -structure.reg[:, None]], axis=1)


def _rows_problem(n, p_prime):
    """The certification SDP of (n, p') over its rows: the structure's own,
    or, for a structure that takes samples and so keeps no rows-path data,
    the same SDP built without them from the row matrix."""
    problem = _gram_structure(n, p_prime).problem
    if problem._samples is None:
        return problem
    return SdpProblem(problem.objective, _stacks(_certification_rows(n, p_prime),
                                                 problem.block_sizes), problem.b)


def _b_array(problem):
    """An (m, N) array of NaN, for _schur_factor to fill with B."""
    return np.full((len(problem.b), len(problem._cells)), np.nan)


def _embedded(problem, flat):
    """The D x D matrix whose cells hold flat, a vector in the column order
    of the row matrix, and zeros off the diagonal blocks."""
    D = problem.n_total
    out = np.zeros(D * D)
    out[problem._cells] = flat
    return out.reshape(D, D)


def _wide_range(rng, shape):
    """Finite entries of both signs across ten orders of magnitude."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)


class TestConstraintScatter:
    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_certification_products_equal_dense(self, n, p_prime):
        problem = _gram_structure(n, p_prime).problem
        rows = _certification_rows(n, p_prime)
        rng = np.random.default_rng(10 * n + p_prime)
        for _ in range(5):
            y = _wide_range(rng, len(problem.b))
            # the sigma cell sums one term per row: the order of k matters
            expected = _embedded(problem, np.einsum("k,kn->n", y, rows))
            assert np.array_equal(_adjoint(y, problem._scatter, problem.n_total),
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
        rows = _rows(constraints)
        y = rng.standard_normal(m)
        expected = _embedded(problem, np.einsum("k,kn->n", y, rows))
        np.testing.assert_allclose(_adjoint(y, problem._scatter, problem.n_total),
                                   expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))


def _operator_problems():
    """(id, problem, row matrix of its rows) for the constraint operator's
    tests: the pair matrices of every benchmark structure and dense planted
    data with 1x1 blocks."""
    problems = [(f"pairs{n}{p_prime}", _gram_structure(n, p_prime).problem,
                 _certification_rows(n, p_prime))
                for n, p_prime in BENCH_STRUCTURES]
    rng = np.random.default_rng(12)
    for scalars in [(), (0, 2)]:
        planted = planted_data(rng, max_block=8, max_m=30, scalars=scalars,
                               nblocks=2)
        problems.append((f"dense{len(scalars)}",
                         SdpProblem(planted.objective, planted.constraints, planted.b),
                         _rows(planted.constraints)))
    return problems


class TestConstraintOperator:
    """A(V) through the scatter and the stored inverse of the constraint
    Gram matrix, against the dense row matrix."""

    @pytest.fixture(scope="class")
    def problems(self):
        return _operator_problems()

    def test_apply_agrees_with_dense_product(self, problems):
        rng = np.random.default_rng(13)
        for name, problem, avec in problems:
            for _ in range(5):
                v = _wide_range(rng, avec.shape[1])
                got = _apply(_embedded(problem, v), problem._scatter, len(problem.b))
                assert got.shape == (len(problem.b),), name
                # rounding of either sum is bounded by its length times
                # eps times the sum of the terms' magnitudes
                bound = avec.shape[1] * 2.3e-16 * (np.abs(avec) @ np.abs(v))
                assert np.all(np.abs(got - avec @ v) <= bound), name

    def test_gram_inverse(self, problems):
        for name, problem, avec in problems:
            inverse = problem._gram_inv
            assert not inverse.flags.writeable, name
            assert problem.with_rhs(np.zeros(len(problem.b)))._gram_inv is inverse
            # cond(A A') is at most about 2e3 on these structures
            np.testing.assert_allclose((avec @ avec.T) @ inverse, np.eye(len(problem.b)),
                                       rtol=0.0, atol=1e-12, err_msg=name)


def _reference_rank(rows):
    """The kept mask and the Gram matrix of the kept rows from the dense row
    matrix: a QR over all N columns, whose |R[k, k]| is row k's distance
    from the span of the rows before it, and rows @ rows.T."""
    distance = np.zeros(len(rows))
    diag = np.abs(np.diagonal(np.linalg.qr(rows.T, mode="r")))
    distance[:len(diag)] = diag
    kept = distance > _RANK_TOL * np.maximum(1.0, np.linalg.norm(rows, axis=1))
    return kept, rows[kept] @ rows[kept].T


def _symmetric(rng, m, d):
    raw = rng.standard_normal((m, d, d))
    return raw + raw.transpose(0, 2, 1)


def _split_rank(rows):
    """_independent_rows on the nonzero entries of the dense row matrix."""
    k, c = np.nonzero(rows)
    return _independent_rows(k, c, rows[k, c], np.sum(rows * rows, axis=1))


class TestIndependentRows:
    """The rank check and the Gram matrix from the private and shared cells
    against the QR over all N columns and the dense product."""

    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_certification_structures(self, n, p_prime):
        rows = _certification_rows(n, p_prime)
        kept, gram = _split_rank(rows)
        expected_kept, expected_gram = _reference_rank(rows)
        assert kept.all() and np.array_equal(kept, expected_kept)
        # integer entries: both sums are exact, so the same bits, and the
        # stored inverse is the one of the dense Gram matrix
        assert np.array_equal(gram, expected_gram)
        problem = _gram_structure(n, p_prime).problem
        assert len(problem.b) == len(kept)
        assert np.array_equal(problem._gram_inv, _inverse(_chol(expected_gram))[1])

    def test_dense_rows_with_dependent_and_near_dependent_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            data = planted_data(rng, max_block=8, max_m=30, scalars=(1,), nblocks=2)
            rows = _rows(data.constraints)
            # e1 and e2, symmetric, orthonormal and orthogonal to every row,
            # move a combination of rows off their span by 3 and 0.3 times
            # the threshold; appended after the rows in any order with
            # copies of rows 0 and 2, the copies and the nearer combination
            # are dependent, and SdpProblem refuses the first of them
            sizes = [a.shape[1] for a in data.constraints]
            e = _rows([_symmetric(rng, 2, d) for d in sizes]).T
            e -= rows.T @ np.linalg.lstsq(rows.T, e, rcond=None)[0]
            e = np.linalg.qr(e)[0].T
            extra = [rows[0], rows[2]]
            for combination, factor, unit in [(rows[0] + rows[2], 3.0, e[0]),
                                              (rows[1] - rows[3], 0.3, e[1])]:
                threshold = _RANK_TOL * np.linalg.norm(combination)
                extra.append(combination + factor * threshold * unit)
            rows = np.concatenate([rows, np.stack(extra)[rng.permutation(4)]])
            kept, gram = _split_rank(rows)
            expected_kept, expected_gram = _reference_rank(rows)
            assert np.array_equal(kept, expected_kept)
            assert np.count_nonzero(~kept) == 3
            np.testing.assert_allclose(gram, expected_gram, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(expected_gram)))
            first = np.flatnonzero(~expected_kept)[0]
            with pytest.raises(ValueError,
                               match=f"constraint row {first} is linearly dependent"):
                SdpProblem(data.objective, _stacks(rows, sizes), np.zeros(len(rows)))


def _factors(X, Z):
    """The lower Cholesky factor of block_diag(X) and the inverse of
    block_diag(Z)'s, from numpy: C-ordered, unlike the solver's."""
    Lx = np.linalg.cholesky(block_diag(*X))
    Lz_inv = np.linalg.inv(np.linalg.cholesky(block_diag(*Z)))
    return Lx, Lz_inv


def _schur(problem, X, Z):
    """B B' from _schur_factor at X and Z, given as lists of PD blocks."""
    Lx, Lz_inv = _factors(X, Z)
    B = _schur_factor(problem._stacks, Lx, Lz_inv, _b_array(problem))
    return B @ B.T


def _dense_schur(stacks, X, Z):
    """M[i, j] = sum over blocks of <A_i, X A_j Z^-1>, from the definition."""
    return sum(np.einsum("iab,jab->ij", a, x @ a @ np.linalg.inv(z))
               for a, x, z in zip(stacks, X, Z))


def _pd_blocks(rng, sizes):
    blocks = []
    for d in sizes:
        g = rng.standard_normal((d, d))
        blocks.append(g @ g.T + d * np.eye(d))
    return blocks


# 1x1 blocks at every position among two planted PSD blocks
SCALAR_PLANS = {"before": (0,), "between": (1,), "after": (2,), "everywhere": (0, 1, 2)}


class TestSchurFactor:
    """M = B B' against its definition, on the certification structures and
    on dense planted problems with 1x1 blocks anywhere."""

    @staticmethod
    def _check(problem, rows, rng):
        sizes = problem.block_sizes
        for _ in range(3):
            X, Z = _pd_blocks(rng, sizes), _pd_blocks(rng, sizes)
            M = _schur(problem, X, Z)
            expected = _dense_schur(_stacks(rows, sizes), X, Z)
            assert np.array_equal(M, M.T)
            np.testing.assert_allclose(M, expected, rtol=1e-12,
                                       atol=1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_certification_structures(self, n, p_prime):
        self._check(_rows_problem(n, p_prime), _certification_rows(n, p_prime),
                    np.random.default_rng(n + p_prime))

    @pytest.mark.parametrize("scalars", list(SCALAR_PLANS.values()),
                             ids=list(SCALAR_PLANS))
    def test_planted_dense_problems(self, scalars):
        rng = np.random.default_rng(sum(scalars) + 7)
        for _ in range(3):
            data = planted_data(rng, max_block=8, max_m=30, scalars=scalars,
                                nblocks=2)
            self._check(SdpProblem(data.objective, data.constraints, data.b),
                        _rows(data.constraints), rng)

    def test_built_from_kept_rows_and_read_only(self):
        # every new array has one row per constraint
        rng = np.random.default_rng(11)
        planted = planted_data(rng, max_block=6, max_m=12, scalars=(1,), nblocks=2)
        m = len(planted.b)
        problem = SdpProblem(planted.objective, planted.constraints, planted.b)
        # the scatter holds the rows' nonzero entries, in order of the row,
        # then of the cell, and nothing else
        rows = _rows(planted.constraints)
        cells = np.zeros((m, problem.n_total ** 2))
        cells[:, problem._cells] = rows
        nonzero = np.nonzero(cells)
        scatter = problem._scatter
        assert np.array_equal(scatter.rows, nonzero[0])
        assert np.array_equal(scatter.cells, nonzero[1])
        assert np.array_equal(scatter.values, cells[nonzero])
        # each block's stack as (d, m d), column k d + c holding A_k[:, c],
        # and the 1x1 block as its column of values
        for kept, a in zip(problem._stacks, _stacks(rows, problem.block_sizes)):
            d = a.shape[1]
            assert np.array_equal(kept, a[:, 0, 0] if d == 1
                                  else np.concatenate(list(a), axis=1))
        self._check(problem, rows, rng)
        for array in (problem._cells, *scatter, *problem._stacks):
            assert not array.flags.writeable


class TestSampledSchur:
    """The Schur solve at sample points against the one over the rows, and
    the check of the samples on construction."""

    def test_crossover(self):
        # 60 rows at (3, 4) stay on the rows, 150 at (4, 4) take samples; a
        # problem at samples keeps no rows-path data
        sampled = [(n, p_prime) for n, p_prime in BENCH_STRUCTURES
                   if _gram_structure(n, p_prime).problem._samples is not None]
        assert sampled == SAMPLED_STRUCTURES[:2]
        for n, p_prime in BENCH_STRUCTURES:
            problem = _gram_structure(n, p_prime).problem
            assert (problem._stacks is None) == ((n, p_prime) in sampled)
        assert all(len(_gram_structure(*s).rows) in _SAMPLED_ROWS
                   for s in SAMPLED_STRUCTURES)
        # (5, 6), 15 pairs times 126 monomials of degree <= 4 in 5 variables,
        # takes samples too; nothing larger was checked
        assert _SAMPLED_ROWS[-1] == 15 * 126

    # one model at (4, 6), where a solve over the rows takes about 1 s
    @pytest.mark.parametrize("n, p_prime, models", [(4, 4, 3), (3, 6, 3), (4, 6, 1)])
    def test_certifies_what_the_rows_certify(self, monkeypatch, n, p_prime, models):
        # min_sigma_sos of random models at samples and over the rows of the
        # same structure: every certificate the rows prove is proven at the
        # samples too, to a sigma_bar within the benchmark's 1e-6 gate
        structure = _gram_structure(n, p_prime)
        over_rows = dataclasses.replace(structure, problem=_rows_problem(n, p_prime))
        solves = []
        solve = sos_certify.solve_sdp

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(sos_certify, "solve_sdp", recording)
        p = {4: 3, 6: 4}[p_prime]
        for seed in range(models):
            model = random_certified_model(np.random.default_rng(seed), n, p)
            assert model.p_prime == p_prime
            sigma = {}
            for name, used in (("rows", over_rows), ("samples", structure)):
                monkeypatch.setattr(sos_certify, "_gram_structure",
                                    lambda *_, used=used: used)
                sigma[name] = min_sigma_sos(model)[0]
            at_rows, at_samples = solves[-2:]
            assert at_rows.status is SdpStatus.CERTIFIED
            assert at_samples.status is SdpStatus.CERTIFIED
            assert sigma["samples"] == pytest.approx(sigma["rows"], rel=1e-6)

    @pytest.mark.parametrize("n, p_prime", SAMPLED_STRUCTURES)
    def test_khatri_rao_products(self, n, p_prime):
        # T r and T' v against the dense T, W[j, a] U[j, c] at column a u + c
        samples = _gram_structure(n, p_prime).problem._samples
        m = len(samples.s)
        T = (samples.W[:, :, None] * samples.U[:, None, :]).reshape(m, m)
        rng = np.random.default_rng(n + p_prime)
        r, v = rng.standard_normal(m), rng.standard_normal(m)
        # both agree up to the rounding of a sum of m products
        assert np.all(np.abs(_to_samples(samples, r) - T @ r)
                      <= 1e-12 * (np.abs(T) @ np.abs(r)))
        assert np.all(np.abs(_from_samples(samples, v) - T.T @ v)
                      <= 1e-12 * (np.abs(T.T) @ np.abs(v)))
        # approximate Fekete points: T is far from singular
        assert np.linalg.cond(T) < 1e5

    @pytest.mark.parametrize("n, p_prime", SAMPLED_STRUCTURES)
    def test_solve_matches_rows(self, n, p_prime):
        problem = _gram_structure(n, p_prime).problem
        stacks = _rows_problem(n, p_prime)._stacks
        sizes = problem.block_sizes
        rng = np.random.default_rng(3 * n + p_prime)
        for _ in range(3):
            X, Z = _pd_blocks(rng, sizes), _pd_blocks(rng, sizes)
            Lx, Lz_inv = _factors(X, Z)
            rhs = rng.standard_normal(len(problem.b))
            # the refined solves, which the corrector's step takes
            rows = _row_schur(stacks, Lx, Lz_inv, _b_array(problem))[1](rhs)
            sampled = _sample_schur(problem._samples, Lx, Lz_inv)[1](rhs)
            np.testing.assert_allclose(sampled, rows, rtol=1e-9,
                                       atol=1e-12 * np.max(np.abs(rows)))

    @pytest.mark.parametrize("n, p_prime", SAMPLED_STRUCTURES)
    def test_moved_point_is_refused(self, n, p_prime):
        problem = _gram_structure(n, p_prime).problem
        samples = problem._samples
        stacks = _stacks(_certification_rows(n, p_prime), problem.block_sizes)
        b = np.zeros(len(problem.b))
        # the samples as built pass
        SdpProblem(problem.objective, stacks, b, samples=samples)
        rng = np.random.default_rng(n * p_prime)
        j = int(rng.integers(len(b)))
        V = samples.V.copy()
        direction = rng.standard_normal(V.shape[1])
        V[j] += 1e-6 * direction / np.linalg.norm(direction)
        with pytest.raises(ValueError, match=f"constraint sample {j} does not match"):
            SdpProblem(problem.objective, stacks, b, samples=samples._replace(V=V))

    @pytest.mark.parametrize("n, p_prime", SAMPLED_STRUCTURES)
    def test_repeated_point_is_refused(self, n, p_prime):
        # a point taken twice matches the constraints, but T is singular
        problem = _gram_structure(n, p_prime).problem
        samples = problem._samples
        stacks = _stacks(_certification_rows(n, p_prime), problem.block_sizes)
        b = np.zeros(len(problem.b))
        rng = np.random.default_rng(n + 2 * p_prime)
        i, j = rng.choice(len(b), size=2, replace=False)
        repeated = ConstraintSamples(*(a.copy() for a in samples))
        for a in repeated:
            a[j] = a[i]
        with pytest.raises(ValueError, match="cond"):
            SdpProblem(problem.objective, stacks, b, samples=repeated)

    def test_shapes_are_checked(self):
        problem = _gram_structure(4, 4).problem
        samples = problem._samples
        stacks = _stacks(_certification_rows(4, 4), problem.block_sizes)
        b = np.zeros(len(problem.b))
        with pytest.raises(ValueError, match="shapes"):
            SdpProblem(problem.objective, stacks, b,
                       samples=samples._replace(V=samples.V[:, :-1]))
        with pytest.raises(ValueError, match="blocks"):
            SdpProblem(problem.objective[:1], stacks[:1], b, samples=samples)
        bad = samples.s.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            SdpProblem(problem.objective, stacks, b, samples=samples._replace(s=bad))


def _near_optimal(rng, sizes, spread):
    """Block-diagonal X and Z with the eigenvectors of a random basis, X's
    eigenvalues spread over spread orders of magnitude in each block and
    Z's their reciprocals, so X Z = I and M is ill-conditioned as near an
    optimum."""
    X, Z = [], []
    for d in sizes:
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        x = np.logspace(0.0, -spread, d)
        X.append((basis * x) @ basis.T)
        Z.append((basis / x) @ basis.T)
    X, Z = block_diag(*X), block_diag(*Z)
    return (X + X.T) / 2.0, (Z + Z.T) / 2.0


class TestSchurSolves:
    """Each Schur path hands back the factor solve, for the predictor, and
    the refined solve, for the corrector.  On iterates where M is
    ill-conditioned as near an optimum, the refined solves' residual
    against M = B B', formed in extended precision, is no larger than the
    factor solves'.  One solve's residual sits at rounding level, where one
    round of refinement need not lower it (on (2, 4) it did not in about
    one solve in six), so the test compares root sums of squares over
    3 iterates and 16 right-hand sides each."""

    @staticmethod
    def _residual(B, rhs, sol) -> float:
        wide = B.astype(np.longdouble)
        return float(np.linalg.norm(rhs - wide @ (wide.T @ sol.astype(np.longdouble))))

    @pytest.mark.parametrize("n, p_prime", [(2, 4), (3, 4), (4, 4), (3, 6)])
    def test_refined_residual_no_larger(self, n, p_prime):
        problem = _gram_structure(n, p_prime).problem
        rows = _rows_problem(n, p_prime)
        rng = np.random.default_rng(5 * n + p_prime)
        # per path, the squared residuals of the factor and the refined solves
        squares = {}
        for _ in range(3):
            X, Z = _near_optimal(rng, problem.block_sizes, 4.0)
            Lx, Lz_inv = _chol(X), _inverse(_chol(Z))[0]
            B = _schur_factor(rows._stacks, Lx, Lz_inv, _b_array(rows))
            paths = {"rows": _row_schur(rows._stacks, Lx, Lz_inv, _b_array(rows))}
            if problem._samples is not None:
                paths["samples"] = _sample_schur(problem._samples, Lx, Lz_inv)
            for _ in range(16):
                rhs = rng.standard_normal(len(problem.b))
                for path, solves in paths.items():
                    sums = squares.setdefault(path, [0.0, 0.0])
                    for k, solve in enumerate(solves):
                        sums[k] += self._residual(B, rhs, solve(rhs)) ** 2
        assert len(squares) == 1 + (problem._samples is not None)
        for path, (factor, refined) in squares.items():
            assert refined <= factor, path


def _layout_problems():
    """(id, problem, row matrix): the certification structures, and planted
    dense data with 1x1 blocks at every position."""
    problems = [(f"pairs{n}{p_prime}", _rows_problem(n, p_prime),
                 _certification_rows(n, p_prime))
                for n, p_prime in BENCH_STRUCTURES]
    for name, scalars in SCALAR_PLANS.items():
        rng = np.random.default_rng(sum(scalars) + 17)
        data = planted_data(rng, max_block=8, max_m=30, scalars=scalars, nblocks=2)
        problems.append((name, SdpProblem(data.objective, data.constraints, data.b),
                         _rows(data.constraints)))
    return problems


def _off_block(sizes) -> np.ndarray:
    """True off the diagonal blocks of the D x D matrix."""
    return ~block_diag(*[np.ones((d, d), dtype=bool) for d in sizes])


class TestDenseLayout:
    """The solver's iterates are block-diagonal D x D matrices: the cell map
    places each block, the Schur factor and the step length read the
    embedded factors as the blocks' own, and what reaches a factorization
    holds exact zeros off the diagonal blocks."""

    @pytest.fixture(scope="class")
    def problems(self):
        return _layout_problems()

    def test_cell_map(self, problems):
        for name, problem, rows in problems:
            sizes = problem.block_sizes
            D = sum(sizes)
            expected = []
            for s, d in zip(_offsets(sizes), sizes):
                expected += [(s + a) * D + s + b for a in range(d) for b in range(d)]
            assert problem._cells.tolist() == expected, name
            assert len(expected) == rows.shape[1], name
            _, columns = np.nonzero(rows)
            assert np.array_equal(problem._scatter.cells, problem._cells[columns]), name
            assert np.array_equal(problem._c, block_diag(*problem.objective)), name

    def test_schur_rows_equal_each_blocks_product(self, problems):
        rng = np.random.default_rng(21)
        for name, problem, rows in problems:
            sizes = problem.block_sizes
            X, Z = _pd_blocks(rng, sizes), _pd_blocks(rng, sizes)
            Lx, Lz_inv = _factors(X, Z)
            B = _schur_factor(problem._stacks, Lx, Lz_inv, _b_array(problem))
            start = 0
            for s, a in zip(_offsets(sizes), _stacks(rows, sizes)):
                d = a.shape[1]
                block = slice(s, s + d)
                expected = Lx[block, block].T @ a @ Lz_inv[block, block].T
                got = B[:, start:start + d * d].reshape(-1, d, d)
                start += d * d
                assert _relative(got, expected) <= 1e-12, name

    def test_step_length_is_smallest_block_bound(self, problems):
        rng = np.random.default_rng(22)
        for name, problem, _ in problems:
            sizes = problem.block_sizes
            for _ in range(3):
                chols = [_chol(S) for S in _pd_blocks(rng, sizes)]
                dS = []
                for d in sizes:
                    G = rng.standard_normal((d, d))
                    dS.append((G + G.T) / 2.0 - np.eye(d))
                expected = _reference_max_step(chols, dS)
                got = _max_step(block_diag(*chols), block_diag(*dS))
                assert abs(got - expected) <= 1e-12 * expected, name

    def test_factored_iterates_are_block_diagonal(self, monkeypatch):
        # the plans of tests/test_sdp_core.py::TestScalarPart
        plans = [(0,), (1,), (2,), (0, 1, 2), (0, 0, 2, 2)]
        problems = []
        for scalars in plans:
            rng = np.random.default_rng(len(scalars) + 10 * scalars[0])
            problems += [planted_sdp(rng, max_block=8, max_m=30, scalars=scalars,
                                     nblocks=2)[0] for _ in range(3)]
        factored = []
        chol = sdp_core._chol

        def recording(mat):
            factored.append(mat.copy())
            return chol(mat)

        monkeypatch.setattr(sdp_core, "_chol", recording)
        for problem in problems:
            factored.clear()
            sol = solve_sdp(problem, tol=1e-9)
            assert sol.status is SdpStatus.OPTIMAL
            # X, Z and M in each iteration
            assert len(factored) == 3 * sol.iterations
            off = _off_block(problem.block_sizes)
            for mat in factored[0::3] + factored[1::3]:
                assert mat.shape == off.shape
                assert np.all(mat[off] == 0.0)


def _counted(monkeypatch, names):
    """Each of sdp_core's LAPACK routines in names wrapped to count its
    calls in the returned dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        routine = getattr(sdp_core, name)

        def counting(*args, _name=name, _routine=routine, **kwargs):
            counts[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(sdp_core, name, counting)
    return counts


class TestLapackCalls:
    # per iteration: the predictor's factor solve and the corrector's
    # refined solve make 3 Schur solves, one dpotrs each over the rows and
    # two dtrtrs each at sample points
    ROWS = {"dpotrf": 3, "dpotrs": 3, "dtrtri": 1, "dtrtrs": 0, "dsygst": 4,
            "dsyevd": 4}
    SAMPLES = {"dpotrf": 3, "dpotrs": 0, "dtrtri": 1, "dtrtrs": 6, "dsygst": 4,
               "dsyevd": 4}

    def test_fifteen_calls_per_iteration(self, monkeypatch):
        # the certification SDP of the bundled runs, (n, p') = (2, 4), whose
        # blocks are [6, 1], over its rows
        self._check(monkeypatch, 2, 3, p_prime=4, size=6, sampled=False,
                    per_iteration=self.ROWS)

    def test_eighteen_calls_per_iteration_at_samples(self, monkeypatch):
        # the one of certify_grid's Gram-size-30 cell, (3, 6), at sample
        # points, where dpotrf factors H instead of M
        self._check(monkeypatch, 3, 4, p_prime=6, size=30, sampled=True,
                    per_iteration=self.SAMPLES)

    @staticmethod
    def _check(monkeypatch, n, p, p_prime, size, sampled, per_iteration):
        # the structure is built before the count starts
        model = random_certified_model(np.random.default_rng(0), n, p)
        assert model.p_prime == p_prime
        problem = _gram_structure(n, p_prime).problem
        assert problem.block_sizes == [size, 1]
        assert (problem._samples is not None) == sampled
        solves = []
        solve = sos_certify.solve_sdp

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(sos_certify, "solve_sdp", recording)
        counts = _counted(monkeypatch, list(per_iteration))
        # Rump's check of a certificate factors with its own dpotrf
        checks = []
        dpotrf = sos_certify.dpotrf

        def checking(*args, **kwargs):
            checks.append(args[0].shape)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(sos_certify, "dpotrf", checking)
        min_sigma_sos(model)
        assert len(solves) == 1 and solves[0].status is SdpStatus.CERTIFIED
        iterations = solves[0].iterations
        assert iterations > 5
        assert counts == {name: calls * iterations
                          for name, calls in per_iteration.items()}
        # the certified iterate passed the first check it reached, and the
        # pair returned, mapped back to the s basis, the one after it
        assert checks == [(size, size), (size, size)]


def _old_predictor(problem, rows, X, y, Z):
    """dX and dZ of the predictor as the HKM direction at R_c = -XZ, T1 =
    R_c Z^-1, with the Schur system solved densely from M's definition and
    no projection onto A(dX) = r_p, which this dX meets in exact
    arithmetic."""
    sizes = problem.block_sizes

    def apply(V):
        return rows @ V.ravel()[problem._cells]

    def adjoint(v):
        return _embedded(problem, rows.T @ v)

    blocks = [slice(s, s + d) for s, d in zip(_offsets(sizes), sizes)]
    M = _dense_schur(_stacks(rows, sizes), [X[k, k] for k in blocks],
                     [Z[k, k] for k in blocks])
    Z_inv = np.linalg.inv(Z)
    r_p = problem.b - apply(X)
    R_d = problem._c - Z - adjoint(y)
    T1 = -(X @ Z) @ Z_inv
    dy = np.linalg.solve(M, r_p - apply(T1) + apply(X @ R_d @ Z_inv))
    dZ = R_d - adjoint(dy)
    dX = T1 - X @ dZ @ Z_inv
    return (dX + dX.T) / 2.0, dZ


def _predictor_problem(name):
    """The problem named and its row matrix: "planted", with a 1x1 block
    between two dense ones, or "pairsNP", the certification structure (N,
    P), the bundled runs' [6, 1] over its rows and (3, 6) at sample points;
    each with a random right-hand side."""
    rng = np.random.default_rng(29)
    if name == "planted":
        data = planted_data(rng, max_block=8, max_m=30, scalars=(1,), nblocks=2)
        return (SdpProblem(data.objective, data.constraints, data.b),
                _rows(data.constraints))
    n, p_prime = int(name[-2]), int(name[-1])
    problem = _gram_structure(n, p_prime).problem
    return (problem.with_rhs(rng.standard_normal(len(problem.b))),
            _certification_rows(n, p_prime))


class TestPredictor:
    """The closed-form predictor, b + A(X R_d Z^-1) through the factor solve
    and dX = -X - sym(X dZ Z^-1), against the HKM direction at R_c = -XZ
    on random interior iterates."""

    @pytest.mark.parametrize("name", ["planted", "pairs24", "pairs36"])
    def test_matches_the_rc_formula(self, name):
        problem, rows = _predictor_problem(name)
        assert (problem._samples is not None) == (name == "pairs36")
        sizes = problem.block_sizes
        m, D = len(problem.b), problem.n_total
        scatter = problem._scatter
        rng = np.random.default_rng(len(name))
        for _ in range(3):
            X, Z = block_diag(*_pd_blocks(rng, sizes)), block_diag(*_pd_blocks(rng, sizes))
            y = rng.standard_normal(m)
            Lx = _chol(X)
            Lz_inv, Z_inv = _inverse(_chol(Z))
            solve = (_row_schur(problem._stacks, Lx, Lz_inv, _b_array(problem))
                     if problem._samples is None
                     else _sample_schur(problem._samples, Lx, Lz_inv))[0]
            R_d = problem._c - Z - _adjoint(y, scatter, D)
            A_XRZ = _apply(X @ R_d @ Z_inv, scatter, m)
            dX, dZ = sdp_core._predictor(problem.b, X, Z_inv, R_d, A_XRZ, solve, scatter)
            expected_dX, expected_dZ = _old_predictor(problem, rows, X, y, Z)
            assert np.array_equal(dX, dX.T)
            assert _relative(dX, expected_dX) <= 1e-8
            assert _relative(dZ, expected_dZ) <= 1e-8


class TestOperatorCounts:
    """Per IPM iteration A(V) (_apply) runs 6 times: the primal residual,
    A(X R_d Z^-1), the corrector's A(T1) and project_primal's 3; A*(y)
    (_adjoint) 5 times: the dual residual, each direction's dZ and
    project_primal's 2; and project_primal's constraint-Gram product twice,
    for the corrector alone.  The iteration that ends the solve forms its
    two residuals only."""

    @pytest.mark.parametrize("n, p, p_prime, sampled",
                             [(2, 3, 4, False), (3, 4, 6, True)], ids=["rows", "samples"])
    def test_per_iteration(self, monkeypatch, n, p, p_prime, sampled):
        # the structure is built before the count starts
        model = random_certified_model(np.random.default_rng(0), n, p)
        problem = _gram_structure(n, p_prime).problem
        assert (problem._samples is not None) == sampled
        counts = dict.fromkeys(("_apply", "_adjoint", "gram"), 0)
        for name in ("_apply", "_adjoint"):
            operator = getattr(sdp_core, name)

            def counting(*args, _name=name, _operator=operator):
                counts[_name] += 1
                return _operator(*args)

            monkeypatch.setattr(sdp_core, name, counting)

        class CountedProducts(np.ndarray):
            def __matmul__(self, other):
                counts["gram"] += 1
                return np.asarray(self) @ other

        # with_rhs shares the inverse of the constraint Gram matrix
        monkeypatch.setattr(problem, "_gram_inv", problem._gram_inv.view(CountedProducts))
        solves = []
        solve = sos_certify.solve_sdp

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(sos_certify, "solve_sdp", recording)
        min_sigma_sos(model)
        assert len(solves) == 1 and solves[0].status is SdpStatus.CERTIFIED
        iterations = solves[0].iterations
        assert iterations > 5
        assert counts == {"_apply": 6 * iterations + 1, "_adjoint": 5 * iterations + 1,
                          "gram": 2 * iterations}
