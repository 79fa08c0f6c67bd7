"""Damped-Newton minimization of the certified-convex model."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from sosarp.sos_certify import ConvexityCase, SosModel
from sosarp.subproblem import SubsolverFailure, _newton_direction, minimize_model
from sosarp.tensor_poly import SymmetricTensor
from conftest import random_certified_model


def linear_quadratic_model(g, H, sigma=1.0):
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    return SosModel(n=n, p=3, f0=0.0, g=g, H_bar=np.asarray(H, dtype=float),
                    higher=[SymmetricTensor(3, n, {})], delta=0.5, sigma=sigma,
                    case_tag=ConvexityCase.STRONGLY_CONVEX)


class TestClosedFormCases:
    def test_stationary_start_returns_origin(self):
        model = linear_quadratic_model(np.zeros(2), np.eye(2))
        result = minimize_model(model)
        assert result.converged
        assert result.iterations == 0
        assert np.allclose(result.s, 0.0)

    def test_univariate_root(self):
        # m(s) = -s + s^2/2 + s^4/4; m'(s) = -1 + s + s^3 with a unique real
        # root near 0.6823278
        model = linear_quadratic_model([-1.0], [[1.0]], sigma=1.0)
        result = minimize_model(model)
        assert result.converged
        assert result.s[0] == pytest.approx(0.6823278038280193, abs=1e-6)

    def test_eigendirection_balance(self):
        # g aligned with an eigenvector: minimizer solves lam*r + sigma*r^3 = c
        lam, c, sigma = 2.0, 3.0, 4.0
        model = linear_quadratic_model([-c, 0.0], np.diag([lam, 5.0]),
                                       sigma=sigma)
        result = minimize_model(model)
        r = result.s[0]
        assert result.s[1] == pytest.approx(0.0, abs=1e-9)
        assert lam * r + sigma * r ** 3 == pytest.approx(c, abs=1e-7)


class TestNewtonDirection:
    """The direction is cho_factor(H, lower=True) and cho_solve's, bit for
    bit, with their rejection of non-finite input."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_equals_cho_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            root = rng.standard_normal((n, n))
            hessian = root @ root.T + 1e-3 * np.eye(n)
            grad = rng.standard_normal(n)
            expected = cho_solve(cho_factor(hessian, lower=True), -grad)
            assert np.array_equal(_newton_direction(hessian, grad), expected)

    def test_ridge_on_a_singular_hessian(self):
        hessian = np.array([[1.0, 1.0], [1.0, 1.0]])
        grad = np.array([1.0, -1.0])
        shifted = hessian + 1e-12 * np.eye(2)
        expected = cho_solve(cho_factor(shifted, lower=True), -grad)
        assert np.array_equal(_newton_direction(hessian, grad), expected)

    def test_indefinite_hessian_fails(self):
        with pytest.raises(SubsolverFailure):
            _newton_direction(np.diag([1.0, -1.0]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["hessian", "grad"])
    def test_non_finite_input_rejected(self, bad, where):
        hessian = np.eye(2)
        grad = np.ones(2)
        if where == "hessian":
            hessian[0, 0] = bad
        else:
            grad[1] = bad
        with pytest.raises(ValueError):
            _newton_direction(hessian, grad)


class TestContract:
    def test_descent_and_termination_inequality(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            model = random_certified_model(rng, 3, 3, sigma=0.0)
            from sosarp.sos_certify import min_sigma_sos
            sigma_bar, _ = min_sigma_sos(model)
            model = replace(model, sigma=sigma_bar + 0.5)
            result = minimize_model(model, theta=0.5)
            assert result.converged
            assert result.model_value <= model.f0 + 1e-12
            power = model.p_prime - 1
            bound = max(0.5 * float(np.linalg.norm(result.s)) ** power,
                        1e-12 * (1.0 + abs(model.f0)))
            assert result.grad_norm <= bound * (1.0 + 1e-12)

    def test_reaches_global_minimum_of_convex_model(self):
        rng = np.random.default_rng(1)
        model = random_certified_model(rng, 2, 3, sigma=0.0)
        from sosarp.sos_certify import min_sigma_sos
        sigma_bar, _ = min_sigma_sos(model)
        model = replace(model, sigma=sigma_bar + 1.0)
        result = minimize_model(model, theta=0.5)
        # compare against restarts from random offsets: convexity means the
        # reached value cannot be beaten by more than stationarity residue
        best = result.model_value
        for _ in range(10):
            s0 = rng.standard_normal(2)
            trial = _descend_from(model, s0)
            assert best <= trial + 1e-7 * (1.0 + abs(trial))

    def test_quartic_power_for_even_order(self):
        rng = np.random.default_rng(2)
        model = random_certified_model(rng, 2, 4, sigma=0.0)
        from sosarp.sos_certify import min_sigma_sos
        sigma_bar, _ = min_sigma_sos(model)
        model = replace(model, sigma=sigma_bar + 0.5)
        result = minimize_model(model, theta=0.5)
        assert result.converged
        assert model.p_prime == 6
        bound = max(0.5 * float(np.linalg.norm(result.s)) ** 5,
                    1e-12 * (1.0 + abs(model.f0)))
        assert result.grad_norm <= bound * (1.0 + 1e-12)


def _descend_from(model, s0, steps=200):
    s = np.asarray(s0, dtype=float)
    value = model.value(s)
    for _ in range(steps):
        grad = model.gradient(s)
        step = 1.0
        while step > 1e-12:
            trial = s - step * grad
            trial_value = model.value(trial)
            if trial_value < value:
                s, value = trial, trial_value
                break
            step /= 2.0
        else:
            break
    return value


def _rounding_level_model(f0, g):
    """A strongly convex n = 2, p = 3 model whose minimizer lies so near the
    origin that the predicted decrease of a Newton step falls below one ulp
    of f0."""
    T3 = SymmetricTensor(3, 2, {(0, 0, 0): 0.7, (0, 0, 1): -0.4, (0, 1, 1): 0.2,
                                (1, 1, 1): 0.5})
    return SosModel(n=2, p=3, f0=f0, g=np.asarray(g, dtype=float),
                    H_bar=np.array([[2.0, 0.3], [0.3, 1.0]]), higher=[T3],
                    delta=0.5, sigma=0.2, case_tag=ConvexityCase.STRONGLY_CONVEX)


class TestRoundingLevelValues:
    def test_small_gradient_converges(self):
        # the Armijo value test alone accepted and halved steps on rounding
        # noise here and ran all 100 iterations to a gradient of 1.2e-10
        model = _rounding_level_model(
            1.0, [1.583298086143001e-05, -1.2273718296963251e-05])
        result = minimize_model(model)
        assert result.converged
        assert result.iterations <= 20
        assert result.model_value <= model.f0 + 2.0 ** -50 * abs(model.f0)

    def test_random_models_converge(self):
        rng = np.random.default_rng(0)
        for _ in range(80):
            f0 = 10.0 ** rng.uniform(0.0, 6.0)
            direction = rng.standard_normal(2)
            g = 10.0 ** rng.uniform(-6.0, -3.0) * direction / np.linalg.norm(direction)
            result = minimize_model(_rounding_level_model(f0, g))
            assert result.converged, (f0, g.tolist())
            assert result.iterations <= 20
