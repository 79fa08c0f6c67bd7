"""Gram-matrix certification of model convexity and the minimal weight."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosarp.sos_certify import (CertificationError, ConvexityCase, SosModel,
                                _coefficient_residual, _coefficients,
                                _gram_structure, gram_basis,
                                is_sos_convex, min_sigma_sos,
                                verify_certificate)
from sosarp.tensor_poly import SymmetricTensor
from conftest import random_certified_model


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


class TestCoefficients:
    @given(n=st.integers(1, 3), p=st.sampled_from([3, 4]),
           sigma=st.floats(0.0, 10.0), seed=st.integers(0, 2 ** 32 - 1),
           s=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           y=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_rows_reproduce_model_hessian_form(self, n, p, sigma, seed, s, y):
        # the closed-form coefficients and the regularizer column, summed
        # over the rows, must give y' m''(s) y as tensor_apply computes it
        model = random_certified_model(np.random.default_rng(seed), n, p,
                                       sigma=sigma)
        structure = _gram_structure(n, model.p_prime)
        coeff = _coefficients(model, structure, 0.0)
        s, y = np.array(s[:n]), np.array(y[:n])
        terms = [(c + sigma * r) * y[i] * y[ip] * math.prod(s ** np.array(alpha))
                 for (i, ip, alpha), c, r in zip(structure.rows, coeff,
                                                 structure.reg)]
        expected = float(y @ model.hessian(s) @ y)
        assert abs(sum(terms) - expected) <= 1e-9 * sum(map(abs, terms))

    @given(n=st.integers(1, 3), p_prime=st.sampled_from([4, 6]),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_pair_matrices_match_basis_expansion(self, n, p_prime, seed, scale):
        # <pair_matrices[k], Q> must be row k's coefficient in z'Qz as the
        # certificate check re-expands it from the basis pairs
        structure = _gram_structure(n, p_prime)
        size = len(structure.basis)
        assert structure.pair_matrices.shape == (len(structure.rows), size, size)
        raw = np.random.default_rng(seed).standard_normal((size, size)) * scale
        Q = (raw + raw.T) / 2.0
        target = np.einsum("kij,ij->k", structure.pair_matrices, Q)
        residual = _coefficient_residual(structure.basis, Q, structure.rows,
                                         target)
        assert residual <= 1e-12 * (1.0 + float(np.max(np.abs(Q))))
        with pytest.raises(ValueError, match="read-only"):
            structure.pair_matrices[0, 0, 0] = 1.0


class TestMembership:
    def test_bracketing_around_minimal_weight(self):
        self._check_bracketing(p=3)

    def test_bracketing_around_minimal_weight_p4(self):
        # p' = 6: the t-shift column reaches degree-4 monomials in s
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
