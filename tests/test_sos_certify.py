"""Gram-matrix certification of model convexity and the minimal weight."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sosarp import sos_certify
from sosarp.sdp_core import SdpStatus, _apply, solve_sdp
from sosarp.sos_certify import (CertificationError, ConvexityCase,
                                GramCertificate, SosIndeterminate, SosModel,
                                _CERT_GAP, _MIN_SIGMA_TOL, _balancing_exponent,
                                _certifier, _coefficient_residual,
                                _coefficients, _expand, _gram_structure,
                                _proven, _proven_gram, _residual_bounds,
                                _scale_gram,
                                _scale_rows, gram_basis, is_sos_convex,
                                min_sigma_sos, verify_certificate)
from sosarp.tensor_poly import SymmetricTensor
from conftest import random_certified_model, random_tensor


def _matched(structure, Q):
    """<A_k, Q> of every row, from the solver's own constraint data: A(V)
    through its scatter, for V the SDP variable with Q as its Gram block
    and sigma = 0."""
    problem = structure.problem
    V = np.zeros((problem.n_total, problem.n_total))
    V[:-1, :-1] = Q
    return _apply(V, problem._scatter, len(problem.b))


def univariate_model(h: float, t: float, sigma: float = 0.0) -> SosModel:
    return SosModel(n=1, p=3, f0=0.0, g=np.zeros(1),
                    H_bar=np.array([[h]]),
                    higher=[SymmetricTensor(3, 1, {(0, 0, 0): t})],
                    delta=min(1.0, h), sigma=sigma,
                    case_tag=ConvexityCase.STRONGLY_CONVEX)


class TestModelValidation:
    def test_rejects_hessian_below_delta(self):
        with pytest.raises(ValueError):
            SosModel(n=1, p=3, f0=0.0, g=np.zeros(1),
                     H_bar=np.array([[0.1]]), higher=[],
                     delta=0.5, sigma=0.0,
                     case_tag=ConvexityCase.STRONGLY_CONVEX)

    def test_lambda_min_computed_only_when_omitted(self, monkeypatch):
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        fields = dict(n=2, p=3, f0=0.0, g=np.zeros(2), H_bar=H,
                      higher=[SymmetricTensor(3, 2, {})], delta=0.5, sigma=0.0,
                      case_tag=ConvexityCase.STRONGLY_CONVEX)
        model = SosModel(**fields)
        assert model.lambda_min == pytest.approx(1.0, rel=1e-14)
        calls = []
        monkeypatch.setattr(sos_certify, "min_eigenvalue",
                            lambda M: calls.append(M) or (0.0, None))
        # replace carries the value over; a given value is taken as it is
        assert replace(model, sigma=3.0).lambda_min == model.lambda_min
        assert SosModel(**fields, lambda_min=0.75).lambda_min == 0.75
        assert calls == []
        # the contract check stays
        with pytest.raises(ValueError, match="contract"):
            SosModel(**fields, lambda_min=0.25)

    def test_regularization_power_parity(self):
        assert univariate_model(1.0, 1.0).p_prime == 4
        even = SosModel(n=1, p=4, f0=0.0, g=np.zeros(1),
                        H_bar=np.eye(1), higher=[
                            SymmetricTensor(3, 1, {}),
                            SymmetricTensor(4, 1, {})],
                        delta=0.5, sigma=0.0,
                        case_tag=ConvexityCase.STRONGLY_CONVEX)
        assert even.p_prime == 6

    def test_model_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(0)
        model = random_certified_model(rng, 2, 3, sigma=0.7)
        s = rng.standard_normal(2) * 0.5
        h = 1e-6
        grad = model.gradient(s)
        hess = model.hessian(s)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (model.value(s + e) - model.value(s - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)
            fd_row = (model.gradient(s + e) - model.gradient(s - e)) / (2 * h)
            assert np.allclose(hess[i], fd_row, rtol=1e-6, atol=1e-6)


class TestGramBasis:
    def test_univariate_quartic_basis(self):
        # y-major, graded powers of s: y, y*s
        basis = gram_basis(1, 4)
        assert [(i, beta) for i, beta in basis] == [(0, (0,)), (0, (1,))]

    def test_bivariate_quartic_basis_size(self):
        # y_i * s^beta with |beta| <= 1: two y's times three monomials
        assert len(gram_basis(2, 4)) == 6

    def test_degree_six_basis_size(self):
        # |beta| <= 2 in two variables: six monomials per y
        assert len(gram_basis(2, 6)) == 12


class TestUnivariateOracle:
    def test_reference_instance(self):
        sigma_bar, cert = min_sigma_sos(univariate_model(1.0, 6.0))
        assert sigma_bar == pytest.approx(3.0, rel=1e-6)
        assert np.allclose(cert.Q, [[1.0, 3.0], [3.0, 9.0]], atol=1e-5)
        assert cert.residual <= 1e-8

    def test_discriminant_formula_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(-10.0, 10.0))
            sigma_bar, _ = min_sigma_sos(univariate_model(h, t))
            assert sigma_bar == pytest.approx(t * t / (12.0 * h), rel=1e-5,
                                              abs=1e-12)

    def test_convex_quadratic_needs_no_weight(self):
        model = SosModel(n=2, p=3, f0=0.0, g=np.zeros(2), H_bar=2.0 * np.eye(2),
                         higher=[SymmetricTensor(3, 2, {})], delta=1.0,
                         sigma=0.0, case_tag=ConvexityCase.STRONGLY_CONVEX)
        sigma_bar, cert = min_sigma_sos(model)
        assert sigma_bar == pytest.approx(0.0, abs=1e-9)
        assert cert.residual <= 1e-10


class TestOneSolve:
    """min_sigma_sos decides from its one SDP and never asks is_sos_convex."""

    @pytest.fixture()
    def membership_calls(self, monkeypatch):
        calls = []

        def refuse(model):
            calls.append(model)
            raise AssertionError("min_sigma_sos called is_sos_convex")

        monkeypatch.setattr(sos_certify, "is_sos_convex", refuse)
        return calls

    @staticmethod
    def solve_ending(monkeypatch, **fields):
        """Every certification SDP reports its solve with fields replaced."""
        def solve(problem, tol, certify=None):
            return replace(solve_sdp(problem, tol, certify), **fields)

        monkeypatch.setattr(sos_certify, "solve_sdp", solve)

    @pytest.mark.parametrize("model", [
        univariate_model(1.0, 6.0),
        random_certified_model(np.random.default_rng(6), 2, 3),
        random_certified_model(np.random.default_rng(7), 2, 4),
    ], ids=["univariate", "n2-p3", "n2-p4"])
    def test_clean_stalled_solve_is_the_certificate(self, model, monkeypatch,
                                                    membership_calls):
        # a solve reported stalled is proven after the solve, on its own
        # iterate at its own sigma: sigma_bar keeps every bit, and the
        # second projection moves Q by rounding only
        sigma_ref, cert_ref = min_sigma_sos(model)
        self.solve_ending(monkeypatch, status=SdpStatus.NUMERICAL_FAILURE,
                          gap=1e-3)
        sigma_bar, cert = min_sigma_sos(model)
        assert repr(sigma_bar) == repr(sigma_ref)
        assert np.max(np.abs(cert.Q - cert_ref.Q)) <= 1e-14 * np.max(np.abs(cert_ref.Q))
        assert verify_certificate(cert, replace(model, sigma=sigma_bar)).ok
        assert membership_calls == []

    @staticmethod
    def lowered(Q, factor):
        """Q lowered along its lambda_min vector by factor times its largest
        entry."""
        v = np.linalg.eigh(Q)[1][:, 0]
        return Q - factor * float(np.max(np.abs(Q))) * np.outer(v, v)

    @classmethod
    def solve_lowered(cls, monkeypatch, factor):
        """Every certification SDP ends NumericalFailure, its Gram block
        lowered by factor (see lowered)."""
        def solve(problem, tol, certify=None):
            solution = solve_sdp(problem, tol, certify)
            return replace(solution, status=SdpStatus.NUMERICAL_FAILURE,
                           X=[cls.lowered(solution.X[0], factor), solution.X[1]])

        monkeypatch.setattr(sos_certify, "solve_sdp", solve)

    @pytest.mark.parametrize("model", [
        random_certified_model(np.random.default_rng(8), 2, 3),
        random_certified_model(np.random.default_rng(7), 2, 4),
    ], ids=["n2-p3", "n2-p4"])
    def test_unproven_stalled_solve_raises(self, model, monkeypatch,
                                           membership_calls):
        # the rows fix most of the lambda_min direction, so the projection
        # gives back nearly all of a lowering along it: lowered by 10 times
        # its largest entry, the block projects to lambda_min about -3e-8
        # (n2-p3) and -2e-3 (n2-p4), and the lift by gap/8 along R does not
        # prove it.  (A univariate Gram matrix is fixed by its rows, so the
        # projection would undo any lowering.)
        self.solve_lowered(monkeypatch, 10.0)
        with pytest.raises(SosIndeterminate,
                           match="min-sigma SDP ended with NumericalFailure"):
            min_sigma_sos(model)
        assert membership_calls == []

    @staticmethod
    def largest_proven(proves, low, high):
        """The largest factor in [low, high] at which proves holds, by
        bisection, for proves true at low and false at high."""
        assert proves(low) and not proves(high)
        for _ in range(60):
            middle = (low + high) / 2.0
            low, high = (middle, high) if proves(middle) else (low, middle)
        return low

    def test_lift_proves_what_the_projection_does_not(self, monkeypatch,
                                                      membership_calls):
        # the final iterate's block, lowered by a factor times its largest
        # entry: the largest factor that the plain projection proves and the
        # largest that the lift by gap/8 along R proves are read from this
        # solve's own iterate, so the lowering halfway between them, which
        # only the lift proves, follows the IPM trajectory
        model = random_certified_model(np.random.default_rng(8), 2, 3)
        solves = []

        def recording(problem, tol, certify=None):
            solves.append((problem, solve_sdp(problem, tol, certify)))
            return solves[-1][1]

        monkeypatch.setattr(sos_certify, "solve_sdp", recording)
        sigma_ref, _ = min_sigma_sos(model)
        (problem, solution), = solves
        structure = _gram_structure(model.n, model.p_prime)
        Q, sigma = solution.X[0], float(solution.X[1][0, 0])
        t = _CERT_GAP / 8

        def projection_proves(factor):
            return _proven_gram(structure, self.lowered(Q, factor), problem.b,
                                sigma) is not None

        def lift_proves(factor):
            lifted = self.lowered(Q, factor) + t * sigma * structure.R
            return _proven_gram(structure, lifted, problem.b,
                                sigma * (1.0 + t)) is not None

        projected = self.largest_proven(projection_proves, 0.0, 10.0)
        lifted = self.largest_proven(lift_proves, 0.0, 10.0)
        assert projected < lifted
        lifts = []
        after_solve = sos_certify._proven_after_solve

        def proving(*args):
            proven = after_solve(*args)
            lifts.append(proven[0])
            return proven

        monkeypatch.setattr(sos_certify, "_proven_after_solve", proving)
        self.solve_lowered(monkeypatch, (projected + lifted) / 2.0)
        sigma_bar, cert = min_sigma_sos(model)
        assert lifts == [_CERT_GAP / 8]
        assert sigma_bar == pytest.approx(sigma_ref * (1.0 + _CERT_GAP / 8), rel=1e-15)
        assert _exactly_positive_definite(cert.Q)
        assert verify_certificate(cert, replace(model, sigma=sigma_bar)).ok
        assert membership_calls == []

    def test_no_lift_at_sigma_zero(self, monkeypatch):
        # at sigma = 0 a lift along R moves neither Q nor sigma, so an
        # iterate that does not prove is projected once after the solve
        model = random_certified_model(np.random.default_rng(6), 2, 3)
        tried = []
        proven_gram = sos_certify._proven_gram

        def trying(structure, Q, b, sigma):
            tried.append(sigma)
            return proven_gram(structure, Q, b, sigma)

        def solve(problem, tol, certify=None):
            solution = solve_sdp(problem, tol, certify)
            tried.clear()  # the hook's tries during the solve
            return replace(solution, status=SdpStatus.NUMERICAL_FAILURE,
                           X=[-np.eye(len(solution.X[0])), np.zeros((1, 1))])

        monkeypatch.setattr(sos_certify, "_proven_gram", trying)
        monkeypatch.setattr(sos_certify, "solve_sdp", solve)
        with pytest.raises(SosIndeterminate,
                           match="min-sigma SDP ended with NumericalFailure"):
            min_sigma_sos(model)
        assert tried == [0.0]

    def test_structure_checked_once(self, monkeypatch):
        # the rank QR runs when the structure's SDP is built, not per model
        qr_calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            qr_calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        _gram_structure.cache_clear()
        min_sigma_sos(univariate_model(1.0, 6.0))
        min_sigma_sos(univariate_model(2.0, 3.0))
        assert len(qr_calls) == 1

    @pytest.mark.parametrize("fields", [
        dict(status=SdpStatus.NUMERICAL_FAILURE, primal_residual=1e-3),
        dict(status=SdpStatus.MAX_ITERATIONS, dual_residual=1e-3),
        dict(status=SdpStatus.INFEASIBLE),
    ])
    def test_unclean_solve_raises(self, fields, monkeypatch, membership_calls):
        self.solve_ending(monkeypatch, **fields)
        with pytest.raises(SosIndeterminate) as err:
            min_sigma_sos(univariate_model(1.0, 6.0))
        # still a CertificationError, which run and the scans catch
        assert isinstance(err.value, CertificationError)
        message = str(err.value)
        assert f"min-sigma SDP ended with {fields['status'].value}" in message
        for part in ("gap", "primal residual", "dual residual"):
            assert part in message
        assert membership_calls == []


class TestCoefficients:
    @given(n=st.integers(1, 3), p=st.sampled_from([3, 4]),
           sigma=st.floats(0.0, 10.0), seed=st.integers(0, 2 ** 32 - 1),
           s=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           y=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @example(n=2, p=3, sigma=0.0, seed=0, s=[0.0, 3.0, 0.0],
             y=[0.0, 1.3083871701027266e-160, 0.0])
    @settings(max_examples=60, deadline=None)
    def test_rows_reproduce_model_hessian_form(self, n, p, sigma, seed, s, y):
        # the closed-form coefficients and the regularizer column, summed
        # over the rows, must give y' m''(s) y as tensor_apply computes it
        model = random_certified_model(np.random.default_rng(seed), n, p,
                                       sigma=sigma)
        structure = _gram_structure(n, model.p_prime)
        coeff = _coefficients(model, structure, 0.0)
        s, y = np.array(s[:n]), np.array(y[:n])
        # both sides are quadratic in y, so scaling y up by a power of two
        # is exact and keeps y[i] * y[ip] out of the subnormal range, where
        # rounding is absolute and no relative bound can hold
        y = np.ldexp(y, -min(0, int(np.frexp(np.abs(y).max())[1])))
        terms = [(c + sigma * r) * y[i] * y[ip] * math.prod(s ** np.array(alpha))
                 for (i, ip, alpha), c, r in zip(structure.rows, coeff,
                                                 structure.reg)]
        expected = float(y @ model.hessian(s) @ y)
        assert abs(sum(terms) - expected) <= 1e-9 * sum(map(abs, terms))

    @given(n=st.integers(1, 3), p_prime=st.sampled_from([4, 6]),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_pair_matrices_match_basis_expansion(self, n, p_prime, seed, scale):
        # <A_k, Q>, as the solver's scatter holds the pair matrices, must be
        # row k's coefficient in z'Qz multiplied out over (s, y), and z'Qz
        # must have no monomial outside the rows
        structure = _gram_structure(n, p_prime)
        size = len(structure.basis)
        assert structure.problem.block_sizes == [size, 1]
        raw = np.random.default_rng(seed).standard_normal((size, size)) * scale
        Q = (raw + raw.T) / 2.0
        target = _matched(structure, Q)
        assert target.shape == (len(structure.rows),)
        form = _gram_form(n, structure.basis, Q)
        assert set(form) <= {_row_key(n, row) for row in structure.rows}
        expected = np.array([form.get(_row_key(n, row), 0.0) for row in structure.rows])
        assert (np.max(np.abs(target - expected))
                <= 1e-12 * (1.0 + float(np.max(np.abs(Q)))))
        with pytest.raises(ValueError, match="read-only"):
            structure.problem._scatter.values[0] = 1.0


def _poly_mul(a, b):
    """Product of two polynomials held as {exponents: integer coefficient}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _row_key(n, row):
    """The exponents over the variables (s, y) of row (i, i', alpha)'s
    monomial y_i y_i' s^alpha."""
    i, ip, alpha = row
    return tuple(alpha) + tuple(int(j == i) + int(j == ip) for j in range(n))


def _gram_form(n, basis, Q):
    """z'Qz for z the basis monomials y_i s^beta, multiplied out pair by
    pair over the variables (s, y), independently of the pair matrices and
    of the basis pairs."""
    z = [{tuple(beta) + tuple(int(j == i) for j in range(n)): 1} for i, beta in basis]
    form = {}
    for u, w in np.ndindex(Q.shape):
        for key, c in _poly_mul(z[u], z[w]).items():
            form[key] = form.get(key, 0.0) + c * float(Q[u, w])
    return form


def _regularizer_rows(n, p_prime, rows):
    """Row coefficients of ||s||^(p'-2) ||y||^2 + (p'-2) ||s||^(p'-4) (s.y)^2,
    expanded in integers over the variables (s, y), independently of R."""
    def unit(*positions):
        exps = [0] * (2 * n)
        for pos in positions:
            exps[pos] += 1
        return tuple(exps)

    one = {unit(): 1}
    s_sq = {unit(j, j): 1 for j in range(n)}
    y_sq = {unit(n + j, n + j): 1 for j in range(n)}
    s_dot_y = {unit(j, n + j): 1 for j in range(n)}
    power = one
    for _ in range((p_prime - 4) // 2):
        power = _poly_mul(power, s_sq)
    form = _poly_mul(_poly_mul(power, s_sq), y_sq)
    for key, c in _poly_mul(power, _poly_mul(s_dot_y, s_dot_y)).items():
        form[key] = form.get(key, 0) + (p_prime - 2) * c
    return np.array([float(form.get(_row_key(n, row), 0)) for row in rows])


class TestRegularizerGram:
    """R, the regularizer's Gram matrix at sigma = 1, is exact and PSD."""

    # (4, 8) is left out: its pair stack alone is 2100 x 140 x 140 doubles,
    # about 330 MB
    @pytest.mark.parametrize("n, p_prime", [
        (n, p_prime) for n in (1, 2, 3, 4) for p_prime in (4, 6, 8)
        if (n, p_prime) != (4, 8)])
    def test_gram_matrix_reproduces_regularizer(self, n, p_prime):
        structure = _gram_structure(n, p_prime)
        R = structure.R
        # integer sums are exact, so A(R) and the form's own expansion
        # agree bit for bit, and z'Rz re-expanded from the basis matches too
        assert np.array_equal(_matched(structure, R), structure.reg)
        assert np.array_equal(structure.reg,
                              _regularizer_rows(n, p_prime, structure.rows))
        assert _coefficient_residual(structure.pairs, R, structure.reg) == 0.0
        # a sum of PSD integer terms, so its eigenvalues miss 0 only by
        # LAPACK's rounding
        assert np.linalg.eigvalsh(R)[0] >= -1e-13 * float(np.max(R))
        with pytest.raises(ValueError, match="read-only"):
            R[0, 0] = 1.0


class TestStructureMemory:
    def test_built_structure_holds_no_dense_constraints(self):
        # (n, p') = (4, 6): 700 rows over a Gram matrix of size 60, whose
        # dense pair stack alone is 20 MB; it takes samples, so what stays
        # is mostly the inverse constraint Gram matrix (3.7 MiB) and the
        # samples, 5.66 MiB in a fresh process.  Built uncached, so every
        # array it keeps is allocated under tracemalloc
        tracemalloc.start()
        try:
            structure = _gram_structure.__wrapped__(4, 6)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(structure.rows) == 700 and len(structure.basis) == 60
        assert structure.problem._stacks is None
        assert held <= 6.5 * 2 ** 20


class TestBalancing:
    """min_sigma_sos solves in u, s = 2^k u; the substitution is exact."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p_prime", [4, 6])
    def test_substitution_is_exact(self, n, p_prime):
        rng = np.random.default_rng(10 * n + p_prime)
        model = random_certified_model(rng, n, {4: 3, 6: 4}[p_prime])
        structure = _gram_structure(n, p_prime)
        q = p_prime - 2
        sigma = float(rng.uniform(0.1, 10.0))
        base = _coefficients(model, structure, 0.0)
        target = _coefficients(model, structure, sigma)
        size = len(structure.basis)
        raw = rng.standard_normal((size, size))
        Q = (raw + raw.T) / 2.0
        matched = _matched(structure, Q)
        for k in range(-8, 9):
            # the rows and sigma in u, mapped back, give h_hat's rows in s
            sigma_u = math.ldexp(sigma, k * q)
            rows_u = _scale_rows(structure, base, k) + sigma_u * structure.reg
            assert np.array_equal(_scale_rows(structure, rows_u, -k), target)
            assert math.ldexp(sigma_u, -k * q) == sigma
            # D Q D matches row (i, i', alpha) times 2^(k |alpha|), and
            # D^-1 (D Q D) D^-1 is Q again
            Q_u = _scale_gram(structure, Q, k)
            assert np.array_equal(_scale_gram(structure, Q_u, -k), Q)
            matched_u = _matched(structure, Q_u)
            assert np.array_equal(_scale_rows(structure, matched_u, -k), matched)

    def test_no_tensor_weight_means_no_scaling(self):
        quadratic = SosModel(n=2, p=3, f0=0.0, g=np.zeros(2),
                             H_bar=2.0 * np.eye(2),
                             higher=[SymmetricTensor(3, 2, {})], delta=1.0,
                             sigma=0.0, case_tag=ConvexityCase.STRONGLY_CONVEX)
        assert _balancing_exponent(quadratic) == 0

    def test_exponent_balances_weight_against_hessian(self):
        # univariate p = 3: q = p' - 2 = 2, k = 1, lambda = h and a = |t|, so
        # t_1 = 2h / |t| and sigma_est = h t_1^-2 = t^2 / (4h); at h = 1,
        # t = 6 that is 9, and r = 2^round(log2((1 / 9)^(1/2))) = 2^-2
        assert _balancing_exponent(univariate_model(1.0, 6.0)) == -2
        # a 4^2 = 16 times larger weight moves r by 1/4
        assert _balancing_exponent(univariate_model(1.0, 24.0)) == -4

    @given(n=st.integers(1, 3), p=st.sampled_from([3, 4]),
           seed=st.integers(0, 2 ** 32 - 1),
           log_delta=st.floats(-3.0, 0.0),
           log_magnitudes=st.lists(st.floats(-3.0, 3.0), min_size=2,
                                   max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_badly_scaled_models_certify(self, n, p, seed, log_delta,
                                         log_magnitudes):
        # tensor magnitudes 1e-3..1e3 against a margin delta of 1e-3..1:
        # sigma_bar spans many orders of magnitude, and without the
        # balancing about one model in ten ended with unclean residuals
        rng = np.random.default_rng(seed)
        model = random_certified_model(rng, n, p, delta=10.0 ** log_delta)
        model = replace(model, higher=[
            random_tensor(rng, order, n, 10.0 ** log_mag)
            for order, log_mag in zip(range(3, p + 1), log_magnitudes)])
        sigma_bar, cert = min_sigma_sos(model)
        assert verify_certificate(cert, replace(model, sigma=sigma_bar)).ok


class TestMembership:
    def test_bracketing_around_minimal_weight(self):
        self._check_bracketing(p=3)

    def test_bracketing_around_minimal_weight_p4(self):
        # p' = 6: the regularizer's Gram matrix reaches degree-4 monomials in s
        self._check_bracketing(p=4)

    @staticmethod
    def _check_bracketing(p):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model = random_certified_model(rng, 2, p)
            sigma_bar, _ = min_sigma_sos(model)
            if sigma_bar <= 1e-9:
                continue
            from dataclasses import replace
            above = replace(model, sigma=sigma_bar * (1.0 + 1e-6))
            below = replace(model, sigma=sigma_bar * 0.99)
            ok_above, cert = is_sos_convex(above)
            ok_below, _ = is_sos_convex(below)
            assert ok_above is True
            assert cert is not None
            assert ok_below is False

    def test_feasibility_monotone_in_sigma(self):
        rng = np.random.default_rng(3)
        from dataclasses import replace
        model = random_certified_model(rng, 2, 3, magnitude=2.0)
        sigma_bar, _ = min_sigma_sos(model)
        for factor in (2.0, 10.0, 100.0):
            ok, _ = is_sos_convex(
                replace(model, sigma=max(sigma_bar, 1e-8) * factor))
            assert ok is True


    @given(n=st.integers(1, 3), p=st.sampled_from([3, 4]),
           seed=st.integers(0, 2 ** 32 - 1), factor=st.floats(1.0, 10.0))
    @example(n=2, p=3, seed=0, factor=1.0)
    # minimal weight 0, where the solve stops at sigma_bar ~ 1e-9
    @example(n=1, p=4, seed=0, factor=1.0)
    @settings(max_examples=10, deadline=None)
    def test_answers_follow_the_minimal_weight(self, n, p, seed, factor):
        # at or above sigma_bar the answer is True with a certificate that
        # passes the independent check; clearly below, it is False unless
        # the minimal weight is proven to be 0, when nothing lies below it
        model = random_certified_model(np.random.default_rng(seed), n, p)
        sigma_bar, _ = min_sigma_sos(model)
        above = replace(model, sigma=sigma_bar * factor)
        ok, cert = is_sos_convex(above)
        assert ok is True
        assert verify_certificate(cert, above).ok
        # no Gram matrix at sigma = 0 is positive definite (is_sos_convex):
        # where the minimal weight is 0 that query is undecided, elsewhere
        # refuted, and then so is 0.99 sigma_bar
        try:
            at_zero = is_sos_convex(replace(model, sigma=0.0))
        except SosIndeterminate:
            return
        assert at_zero == (False, None)
        assert is_sos_convex(replace(model, sigma=sigma_bar * 0.99)) == (
            False, None)

    @pytest.mark.parametrize("n, p", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
    def test_zero_tensors_are_convex_at_zero_weight(self, n, p):
        # sigma_bar comes back about 1e-10 and its dual objective just
        # below 0.  At sigma = 0 the top-degree rows are 0, so every PSD
        # Gram matrix has a zero top-degree block and none is positive
        # definite: the model is convex, but no proof exists, and the query
        # is undecided.  At sigma_bar the regularizer's block proves it
        model = random_certified_model(np.random.default_rng(n + p), n, p)
        model = replace(model, higher=[SymmetricTensor(order, n, {})
                                       for order in range(3, p + 1)])
        with pytest.raises(SosIndeterminate, match="sigma=0.000000e"):
            is_sos_convex(model)
        sigma_bar, _ = min_sigma_sos(model)
        at_weight = replace(model, sigma=sigma_bar)
        ok, cert = is_sos_convex(at_weight)
        assert ok is True
        assert verify_certificate(cert, at_weight).ok

    def test_just_below_a_large_minimal_weight_is_refuted(self):
        # sigma_bar ~ 310.6 with the dual objective within 6e-9 relative, so
        # 0.999 sigma_bar is certainly too small; a threshold relative to
        # 1 + max |target| is loose at this weight and accepted it
        model = random_certified_model(np.random.default_rng(4), 2, 4,
                                       magnitude=5.0)
        sigma_bar, _ = min_sigma_sos(model)
        assert 300.0 < sigma_bar < 320.0
        assert is_sos_convex(replace(model, sigma=0.999 * sigma_bar)) == (
            False, None)

    @pytest.mark.parametrize("fields", [
        dict(status=SdpStatus.NUMERICAL_FAILURE, primal_residual=1e-3),
        dict(status=SdpStatus.INFEASIBLE),
    ])
    def test_unclean_solve_is_undecided(self, fields, monkeypatch):
        TestOneSolve.solve_ending(monkeypatch, **fields)
        with pytest.raises(SosIndeterminate, match="min-sigma SDP ended with"):
            is_sos_convex(univariate_model(1.0, 6.0, sigma=6.0))

    def test_between_dual_bound_and_minimal_weight_is_undecided(self,
                                                               monkeypatch):
        # halving the dual iterate halves the bound: sigma_lo ~ 1.5 for
        # sigma_bar = 3, so 0.75 sigma_bar is neither certified nor refuted
        def solve(problem, tol, certify=None):
            solution = solve_sdp(problem, tol, certify)
            return replace(solution, y=solution.y / 2.0)

        monkeypatch.setattr(sos_certify, "solve_sdp", solve)
        with pytest.raises(SosIndeterminate) as err:
            is_sos_convex(univariate_model(1.0, 6.0, sigma=0.75 * 3.0))
        for name in ("sigma=", "sigma_lo=", "sigma_bar="):
            assert name in str(err.value)


def _loop_residual(basis, Q, rows, target):
    """The coefficient residual re-expanded pair by pair in a Python loop:
    the reference for the gather in _coefficient_residual."""
    recon = {}
    size = len(basis)
    for u in range(size):
        iu, bu = basis[u]
        for w in range(u, size):
            iw, bw = basis[w]
            key = (min(iu, iw), max(iu, iw), tuple(a + b for a, b in zip(bu, bw)))
            weight = 1.0 if u == w else 2.0
            recon[key] = recon.get(key, 0.0) + weight * float(Q[u, w])
    mismatch = [abs(recon.pop(row, 0.0) - t) for row, t in zip(rows, target.tolist())]
    mismatch.extend(abs(c) for c in recon.values())  # monomials outside every row
    return max(mismatch, default=0.0)


# (n, p') of every certification SDP the benchmark solves
BENCH_STRUCTURES = [(1, 4), (2, 4), (3, 4), (4, 4), (2, 6), (3, 6)]


class TestCoefficientResidual:
    """The gather over the basis pairs against the pair-by-pair loop: the
    same terms added in the same order, so the same bits."""

    @pytest.mark.parametrize("n, p_prime", BENCH_STRUCTURES)
    def test_equals_loop(self, n, p_prime):
        structure = _gram_structure(n, p_prime)
        rng = np.random.default_rng(10 * n + p_prime)
        size, rows = len(structure.basis), len(structure.rows)
        for _ in range(5):
            raw = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-5, 5, (size, size))
            Q = (raw + raw.T) / 2.0
            for target in (rng.standard_normal(rows), _matched(structure, Q)):
                assert (_coefficient_residual(structure.pairs, Q, target)
                        == _loop_residual(structure.basis, Q, structure.rows, target))

    def test_monomials_outside_the_rows_count(self):
        # with the last row left out, its monomial is matched against 0
        structure = _gram_structure(2, 4)
        rows = structure.rows[:-1]
        pairs = sos_certify._basis_pairs(structure.basis, rows)
        assert pairs.size == len(structure.rows)
        Q = np.random.default_rng(1).standard_normal((6, 6))
        Q = Q + Q.T
        target = _matched(structure, Q)[:-1]
        residual = _coefficient_residual(pairs, Q, target)
        assert residual == _loop_residual(structure.basis, Q, rows, target)
        assert residual > 0.0

    def test_certificate_over_a_permuted_basis(self):
        # verify_certificate re-expands a certificate over its own basis
        model = random_certified_model(np.random.default_rng(6), 2, 3)
        sigma_bar, cert = min_sigma_sos(model)
        order = np.random.default_rng(7).permutation(len(cert.basis))
        permuted = GramCertificate(basis=[cert.basis[k] for k in order],
                                   Q=cert.Q[np.ix_(order, order)],
                                   residual=cert.residual)
        at_sigma = replace(model, sigma=sigma_bar)
        report = verify_certificate(cert, at_sigma)
        again = verify_certificate(permuted, at_sigma)
        assert report.ok and again.ok
        assert again.max_coeff_mismatch == pytest.approx(report.max_coeff_mismatch,
                                                         abs=1e-12)


class TestCertificates:
    def test_verify_certificate_round_trip(self):
        rng = np.random.default_rng(4)
        from dataclasses import replace
        for p in (3, 4):
            model = random_certified_model(rng, 2, p)
            sigma_bar, cert = min_sigma_sos(model)
            report = verify_certificate(cert, replace(model, sigma=sigma_bar))
            assert report.ok
            assert report.hessian_violations == 0
            assert report.samples == 100
            assert report.gram_min_eigenvalue >= -1e-9 * (
                1.0 + float(np.linalg.norm(cert.Q, 2)))

    def test_certified_hessians_nonnegative_on_samples(self):
        rng = np.random.default_rng(5)
        from dataclasses import replace
        model = random_certified_model(rng, 3, 3, magnitude=5.0)
        sigma_bar, _ = min_sigma_sos(model)
        certified = replace(model, sigma=sigma_bar)
        for _ in range(50):
            s = rng.standard_normal(3) * 10.0 ** rng.uniform(-2, 1)
            H = certified.hessian(s)
            lam = np.linalg.eigvalsh(H)[0]
            assert lam >= -1e-8 * (1.0 + np.linalg.norm(H, 2))


def _exactly_positive_definite(Q) -> bool:
    """Whether the float matrix Q is symmetric positive definite, decided in
    exact rational arithmetic: every pivot of its symmetric elimination is
    positive."""
    n = len(Q)
    A = [[Fraction(float(v)) for v in row] for row in Q]
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        return False
    for k in range(n):
        pivot = A[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = A[i][k] / pivot
            if factor:
                for j in range(k + 1, n):
                    A[i][j] -= factor * A[k][j]
    return True


# (n, p') of a structure per Gram size, whose pairs re-expand a bare matrix
_STRUCTURE_OF_SIZE = {2: (1, 4), 3: (1, 6), 6: (2, 4), 12: (3, 4)}


def _proves_own_form(Q) -> bool:
    """_proven on Q against its own form z'Qz at sigma = 0, over the basis
    of a structure of its size: Rump's check, with a correction for the
    rounding of the re-expansion only."""
    structure = _gram_structure(*_STRUCTURE_OF_SIZE[len(Q)])
    return _proven(structure.pairs, Q, _expand(structure.pairs, Q), 0.0,
                   structure.reg)


class TestCertifiedStop:
    def test_rump_check_accepts_a_margin(self):
        assert _proves_own_form(np.eye(12))
        assert _proves_own_form(np.diag([1e-10, 1.0, 3.0]))

    def test_rump_check_rejects_the_boundary(self):
        v = np.random.default_rng(0).standard_normal(6)
        assert _exactly_positive_definite(np.eye(6))
        assert not _exactly_positive_definite(np.outer(v, v))
        assert not _proves_own_form(np.outer(v, v))
        assert not _proves_own_form(np.zeros((3, 3)))
        assert not _proves_own_form(-np.eye(3))

    def test_rump_check_rejects_a_lowered_optimal_gram(self):
        # the Gram block of a solve run to the gap, without the hook, sits on
        # the PSD boundary; lowered along its lambda_min direction by 1e-6
        # of its largest entry it is indefinite and must fail
        model = random_certified_model(np.random.default_rng(0), 2, 3)
        structure = _gram_structure(2, model.p_prime)
        rows = _coefficients(model, structure, 0.0)
        problem = structure.problem.with_rhs(rows / max(1.0, np.max(np.abs(rows))))
        solution = solve_sdp(problem, tol=_MIN_SIGMA_TOL)
        assert solution.status is SdpStatus.OPTIMAL
        Q = solution.X[0]
        _, vectors = np.linalg.eigh(Q)
        v = vectors[:, 0]
        lowered = Q - 1e-6 * float(np.max(np.abs(Q))) * np.outer(v, v)
        assert not _proves_own_form(lowered)
        assert not _exactly_positive_definite(lowered)
        # the same solve with the hook ends on a certificate that passes
        certified = solve_sdp(problem, tol=_MIN_SIGMA_TOL,
                              certify=_certifier(structure, problem.b))
        assert certified.status is SdpStatus.CERTIFIED
        assert certified.iterations < solution.iterations
        assert _proven(structure.pairs, certified.X[0], problem.b,
                       float(certified.X[1][0, 0]), structure.reg)
        assert _exactly_positive_definite(certified.X[0])

    def test_certificate_sigma_within_the_gate_of_the_bound(self):
        model = random_certified_model(np.random.default_rng(1), 2, 4)
        _, _, sigma_bar, _, sigma_lo = sos_certify._min_sigma_solve(model)
        assert 0.0 < sigma_lo <= sigma_bar
        assert sigma_bar - sigma_lo <= _CERT_GAP * sigma_bar * (1.0 + 1e-12)

    @given(n=st.integers(1, 3), p=st.sampled_from([3, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, p=3, seed=0)
    @example(n=2, p=4, seed=7)
    @settings(max_examples=30, deadline=None)
    def test_certified_certificates_pass_exact_check(self, n, p, seed):
        model = random_certified_model(np.random.default_rng(seed), n, p)
        assume(len(gram_basis(n, model.p_prime)) <= 12)
        # every certificate is proven, on an iterate or after the solve
        sigma_bar, cert = min_sigma_sos(model)
        assert _exactly_positive_definite(cert.Q)
        assert verify_certificate(cert, replace(model, sigma=sigma_bar)).ok


def _exact_rows(model, structure, sigma):
    """Row coefficients of h_hat at sigma as exact rationals: the closed
    form of _coefficients, from the model's float data, without rounding."""
    rows = []
    for (i, ip, alpha), reg in zip(structure.rows, structure.reg.tolist()):
        degree = sum(alpha)
        if degree == 0:
            value = Fraction(float(model.H_bar[i, ip]))
        elif degree + 2 <= model.p:
            key = (i, ip) + tuple(j for j, e in enumerate(alpha) for _ in range(e))
            value = (Fraction(model.higher[degree - 1].get(key))
                     / math.prod(math.factorial(e) for e in alpha))
        else:
            value = Fraction(0)
        rows.append((value if i == ip else 2 * value) + Fraction(sigma) * Fraction(reg))
    return rows


def _exact_form(pairs, Q):
    """<A_k, Q> of every bin as exact rationals."""
    form = [Fraction(0)] * pairs.size
    for u, w, weight, k in zip(pairs.u.tolist(), pairs.w.tolist(),
                               pairs.weights.tolist(), pairs.bins.tolist()):
        form[k] += Fraction(weight) * Fraction(float(Q[u, w]))
    return form


class TestOneProof:
    """_proven is the one acceptance test of a certificate."""

    @given(n=st.integers(1, 3), p=st.sampled_from([3, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=3, p=4, seed=0)
    @settings(max_examples=20, deadline=None)
    def test_residual_bounds_cover_the_exact_residual(self, n, p, seed):
        # each row's float bound is at least its exact residual against the
        # model's exact coefficients, for a certificate as returned, whose
        # residual is rounding, perturbed, whose residual is not, and for 0,
        # whose residual is the exact target, which base + sigma reg rounds
        rng = np.random.default_rng(seed)
        model = random_certified_model(rng, n, p)
        sigma_bar, cert = min_sigma_sos(model)
        structure = _gram_structure(n, model.p_prime)
        base = _coefficients(model, structure, 0.0)
        exact = _exact_rows(model, structure, sigma_bar)
        raw = rng.standard_normal(cert.Q.shape)
        perturbed = cert.Q + 1e-9 * float(np.max(np.abs(cert.Q))) * (raw + raw.T)
        for Q in (cert.Q, perturbed, np.zeros_like(cert.Q)):
            bounds = _residual_bounds(structure.pairs, Q, base, sigma_bar,
                                      structure.reg)
            form = _exact_form(structure.pairs, Q)
            for bound, target, matched in zip(bounds.tolist(), exact, form):
                assert Fraction(bound) >= abs(target - matched)

    def test_true_answers_come_with_positive_definite_grams(self, monkeypatch):
        # certify_grid's seed-0 models k = 0-3 of every cell, queried just
        # below sigma_bar: an answer True once came with lambda_min(Q) of
        # -8.8e-9; now every True has Q positive definite (47 of the 72
        # queries answer True, 10 False and 15 are undecided)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads
        answers = []
        for n, p in workloads.GRID_CELLS:
            for k in range(4):
                model = workloads.grid_model(0, n, p, k)
                sigma_bar, _ = min_sigma_sos(model)
                for e in (1e-7, 1e-9, 1e-12):
                    query = replace(model, sigma=sigma_bar * (1.0 - e))
                    try:
                        ok, cert = is_sos_convex(query)
                    except SosIndeterminate:
                        answers.append(None)
                        continue
                    answers.append(ok)
                    if ok:
                        assert np.linalg.eigvalsh(cert.Q)[0] > 0.0
                        assert verify_certificate(cert, query).ok
        assert len(answers) == 72 and answers.count(True) > 0

    def test_mismatch_at_a_large_weight_is_refused(self):
        # h = 1, t = 1024: the minimal weight is t^2 / 12 ~ 8.7e4, where
        # [[1, 512], [512, 262144]] matches h_hat exactly and is singular.
        # Q raises its corner by 2^-12, so Q is positive definite with
        # lambda_min ~ 9e-10, and Rump's check alone proves it.  Queried
        # 1e-8 below the minimal weight, where no certificate exists, Q
        # misses the s^2 y^2 row by about 2.9e-3.  Both slack tests used to
        # pass it; that row is one diagonal cell of Q, so the correction
        # moves the cell by the whole mismatch, far past lambda_min(Q)
        model = univariate_model(1.0, 1024.0, sigma=1024.0 ** 2 / 12.0 * (1.0 - 1e-8))
        Q = np.array([[1.0, 512.0], [512.0, 262144.0 + 2.0 ** -12]])
        assert _exactly_positive_definite(Q) and _proves_own_form(Q)
        cert = GramCertificate(basis=gram_basis(1, 4), Q=Q, residual=0.0)
        report = verify_certificate(cert, model)
        target = _coefficients(model, _gram_structure(1, 4), model.sigma)
        assert report.max_coeff_mismatch <= 1e-7 * (1.0 + float(np.max(np.abs(target))))
        assert report.gram_min_eigenvalue >= -1e-9 * (1.0 + float(np.max(np.abs(Q))))
        assert report.max_coeff_mismatch > 1e6 * report.gram_min_eigenvalue > 0.0
        assert report.hessian_violations == 0
        assert not report.ok

    def test_basis_that_leaves_a_row_unreached_proves_nothing(self):
        # over the basis {y} alone, z'Qz has no s y^2 or s^2 y^2 term, so
        # the positive definite Q = [[1]] matches only the first row
        model = univariate_model(1.0, 6.0, sigma=3.0)
        cert = GramCertificate(basis=gram_basis(1, 4)[:1], Q=np.eye(1), residual=0.0)
        report = verify_certificate(cert, model)
        assert report.max_coeff_mismatch == 9.0 and not report.ok

    @pytest.mark.parametrize("malform, message", [
        ("non-finite", "non-finite"), ("short", "shape"),
        ("asymmetric", "not symmetric")])
    def test_malformed_certificate_raises(self, malform, message):
        model = univariate_model(1.0, 6.0)
        sigma_bar, cert = min_sigma_sos(model)
        Q = cert.Q.copy()
        if malform == "non-finite":
            Q[1, 1] = np.inf
        elif malform == "short":
            Q = Q[:-1]
        else:
            Q[0, 1] += 1e-3  # the upper triangle alone moves
        with pytest.raises(ValueError, match=message):
            verify_certificate(replace(cert, Q=Q), replace(model, sigma=sigma_bar))



_BENCH = str(Path(__file__).resolve().parent.parent / "bench")


class TestReturnedPair:
    """min_sigma_sos proves the pair it returns: Q_bar = D^-1 fl(Q_u scale)
    D^-1 at sigma_bar = fl(sigma_u (1 + t) scale) 2^-k(p'-2) rounds twice
    more than the balanced iterate that the hook or the post-solve proof
    proved."""

    @staticmethod
    def returned_proofs(monkeypatch):
        """A list that receives, for each min-sigma solve, the returned Q_bar
        and sigma_bar and the (Q, sigma, verdict) of the last _proven call
        before they are returned."""
        proofs, returned = [], []
        proven, solve = sos_certify._proven, sos_certify._min_sigma_solve

        def spying(pairs, Q, base, sigma, reg):
            proofs.append((Q, sigma, proven(pairs, Q, base, sigma, reg)))
            return proofs[-1][2]

        def recording(model, gap=_CERT_GAP):
            result = solve(model, gap)
            returned.append((result[3], result[2], proofs[-1]))
            return result

        monkeypatch.setattr(sos_certify, "_proven", spying)
        monkeypatch.setattr(sos_certify, "_min_sigma_solve", recording)
        return returned

    @staticmethod
    def assert_proven_as_returned(returned):
        for Q_bar, sigma_bar, (Q, sigma, verdict) in returned:
            assert Q is Q_bar and sigma == sigma_bar and verdict

    def test_every_seed0_grid_certificate(self, monkeypatch):
        monkeypatch.syspath_prepend(_BENCH)
        import workloads
        returned = self.returned_proofs(monkeypatch)
        for n, p in workloads.GRID_CELLS:
            for k in range(workloads.GRID_MODELS_PER_CELL):
                min_sigma_sos(workloads.grid_model(0, n, p, k))
        assert len(returned) == 72
        self.assert_proven_as_returned(returned)

    def test_every_bundled_run_certificate(self, monkeypatch):
        monkeypatch.syspath_prepend(_BENCH)
        import workloads
        from sosarp.arp_driver import run
        returned = self.returned_proofs(monkeypatch)
        for _, func, config in workloads.BundledRuns(0).problems:
            assert run(func, config).status.value == "Converged"
        # the 74 certifications of tools/sdp_counts.py's bundled_runs line
        assert len(returned) == 74
        self.assert_proven_as_returned(returned)

    def test_perturbed_returned_certificate_raises(self, monkeypatch):
        # the univariate Q_bar = [[1, 3], [3, 9]] at sigma_bar = 3 is
        # singular up to the solve's gap; its s^2 y^2 cell lowered by 1e-6
        # relative misses that row by far more than lambda_min(Q_bar), while
        # the balanced iterate before the mapping still proves
        scale_gram = sos_certify._scale_gram

        def lowered(structure, Q, k):
            Q = scale_gram(structure, Q, k)
            Q[-1, -1] *= 1.0 - 1e-6
            return Q

        monkeypatch.setattr(sos_certify, "_scale_gram", lowered)
        with pytest.raises(SosIndeterminate, match="not proven at sigma_bar"):
            min_sigma_sos(univariate_model(1.0, 6.0))

_GAP_MODELS = pytest.mark.parametrize("model", [
    univariate_model(1.0, 6.0),
    random_certified_model(np.random.default_rng(8), 2, 3),
    random_certified_model(np.random.default_rng(7), 2, 4),
], ids=["univariate", "n2-p3", "n2-p4"])


class TestGapArgument:
    """min_sigma_sos's gap sets where its SDP may stop on a proven
    certificate, never how the certificate is proven."""

    @_GAP_MODELS
    def test_default_gap_is_bit_identical(self, model):
        sigma_bar, cert = min_sigma_sos(model)
        sigma_explicit, cert_explicit = min_sigma_sos(model, gap=_CERT_GAP)
        assert repr(sigma_explicit) == repr(sigma_bar)
        assert cert_explicit.Q.tobytes() == cert.Q.tobytes()

    @_GAP_MODELS
    def test_loose_gap_stops_on_a_proven_certificate(self, model, monkeypatch):
        solutions = []
        solve = sos_certify.solve_sdp

        def spy(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(sos_certify, "solve_sdp", spy)
        sigma_bar, cert = min_sigma_sos(model, gap=1e-3)
        [solution] = solutions
        assert solution.status is SdpStatus.CERTIFIED
        # the stopping iterate's own sigma and dual objective b'y
        stop = solution.trace[-1]
        assert stop.primal_objective - stop.dual_objective <= 1e-3 * stop.primal_objective
        # a stop the default gate would not have taken: the gap reached it
        assert stop.primal_objective - stop.dual_objective > _CERT_GAP * stop.primal_objective
        assert verify_certificate(cert, replace(model, sigma=sigma_bar)).ok

    @pytest.mark.parametrize("gap", [0.0, 1.0, -1e-3, math.nan])
    def test_gap_outside_the_open_unit_interval_raises(self, gap):
        with pytest.raises(ValueError, match="gap"):
            min_sigma_sos(univariate_model(1.0, 6.0), gap=gap)
