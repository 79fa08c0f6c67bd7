"""Outer loop: case classification, ratio test, weight updates, theory checks."""

import math
from dataclasses import replace
from typing import List, Tuple

import numpy as np
import pytest

from sosarp import arp_driver, sos_certify
from sosarp.arp_driver import (ArpConfig, ConvexityCase, RunStatus,
                               assert_theory, build_model, classify_case, run)
from sosarp.problems_io import MAX_DERIVATIVE_ORDER, build_function, derivatives
from sosarp.sdp_core import SdpStatus
from sosarp.sos_certify import (_coefficients, _gram_structure, min_sigma_sos,
                                verify_certificate)
from sosarp.subproblem import SubsolveResult
from sosarp.tensor_poly import min_eigenvalue, taylor_value
from conftest import SUITE_SETTINGS

@pytest.fixture()
def proof_outcomes(monkeypatch) -> List[Tuple[str, float]]:
    """How the certificate of every certification SDP solved during the
    test was proven, as (outcome, t): "iterate" for a Certified solve,
    "solve" for a proof after the solve at its own sigma, "lift" for one
    after a lift by t > 0 along R, "unproven" for none; t is 0 but for a
    lift."""
    outcomes: List[Tuple[str, float]] = []
    solve, after_solve = sos_certify.solve_sdp, sos_certify._proven_after_solve

    def solving(*args, **kwargs):
        solution = solve(*args, **kwargs)
        if solution.status is SdpStatus.CERTIFIED:
            outcomes.append(("iterate", 0.0))
        return solution

    def proving(*args, **kwargs):
        proven = after_solve(*args, **kwargs)
        t = 0.0 if proven is None else proven[0]
        outcomes.append(("unproven" if proven is None else "lift" if t else "solve", t))
        return proven

    monkeypatch.setattr(sos_certify, "solve_sdp", solving)
    monkeypatch.setattr(sos_certify, "_proven_after_solve", proving)
    return outcomes


class TestConfig:
    def test_defaults_and_effective_delta(self):
        config = ArpConfig(p=3, epsilon=1e-4)
        assert config.a == 0.5
        assert config.effective_delta == pytest.approx(1e-2)
        fixed = ArpConfig(p=3, epsilon=1e-4, delta=0.3)
        assert fixed.effective_delta == 0.3

    @pytest.mark.parametrize("kwargs", [
        dict(p=2, epsilon=1e-4),
        dict(p=3, epsilon=0.0),
        dict(p=3, epsilon=1.0),
        dict(p=3, epsilon=1e-4, a=0.7),
        dict(p=3, epsilon=1e-4, delta=1.0),
        dict(p=3, epsilon=1e-4, a=0.5, delta=0.3),
        dict(p=3, epsilon=1e-4, eta=0.0),
        dict(p=3, epsilon=1e-4, gamma1=1.0),
        dict(p=3, epsilon=1e-4, gamma2=1.5),
    ])
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArpConfig(**kwargs)

    def test_order_above_the_oracles_rejected(self):
        # the oracles supply derivatives up to MAX_DERIVATIVE_ORDER; a higher
        # p fails on construction, not at the run's first derivative call
        assert ArpConfig(p=MAX_DERIVATIVE_ORDER).p == MAX_DERIVATIVE_ORDER
        with pytest.raises(ValueError, match=f"p must be <= {MAX_DERIVATIVE_ORDER}"):
            ArpConfig(p=MAX_DERIVATIVE_ORDER + 1)


class TestClassification:
    def test_boundaries(self):
        delta = 0.25
        assert classify_case(delta, delta) is ConvexityCase.STRONGLY_CONVEX
        assert classify_case(0.5, delta) is ConvexityCase.STRONGLY_CONVEX
        assert classify_case(0.0, delta) is ConvexityCase.NONCONVEX
        assert classify_case(-1.0, delta) is ConvexityCase.NONCONVEX
        assert classify_case(0.1, delta) is ConvexityCase.NEARLY_STRONGLY_CONVEX
        with pytest.raises(ValueError):
            classify_case(0.0, 0.0)

    def test_shifts_restore_margin(self, bundled):
        spec = bundled["cubic_quartic"]
        delta = 0.5
        # a point where the raw Hessian is indefinite
        bundle = derivatives(spec, [0.05, -0.1], 3)
        lam, _ = min_eigenvalue(bundle.hessian())
        case = classify_case(lam, delta)
        assert case is ConvexityCase.NONCONVEX
        model = build_model(bundle, case, delta, 0.0)
        shifted_lam, _ = min_eigenvalue(model.H_bar)
        assert shifted_lam == pytest.approx(delta, abs=1e-10)

    @pytest.mark.parametrize("x, delta, case", [
        ([0.05, -0.1], 0.5, ConvexityCase.NONCONVEX),
        ([0.5, 0.5], 0.9, ConvexityCase.NEARLY_STRONGLY_CONVEX),
        ([1.0, 1.0], 0.5, ConvexityCase.STRONGLY_CONVEX)])
    def test_model_lambda_min_from_the_shift(self, bundled, x, delta, case):
        bundle = derivatives(bundled["cubic_quartic"], x, 3)
        lam, _ = min_eigenvalue(bundle.hessian())
        assert classify_case(lam, delta) is case
        model = build_model(bundle, case, delta, 0.0)
        assert model.lambda_min == pytest.approx(min_eigenvalue(model.H_bar)[0],
                                                 rel=1e-12, abs=1e-12)

    def test_inconsistent_case_rejected(self, bundled):
        bundle = derivatives(bundled["quad2"], [1.0, 1.0], 3)
        with pytest.raises(ValueError, match="inconsistent"):
            build_model(bundle, ConvexityCase.NONCONVEX, 0.5, 0.0)


class TestRuns:
    def test_pure_quadratic_one_exact_step(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-6, x0=[1.5, -2.0])
        result = run(bundled["quad2"], config)
        assert result.status is RunStatus.CONVERGED
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.success
        assert rec.rho == pytest.approx(1.0, abs=1e-8)
        assert result.grad_norm <= 1e-6

    def test_stationary_start_converges_without_records(self, bundled):
        result = run(bundled["quad2"], ArpConfig(p=3, epsilon=1e-6))
        assert result.status is RunStatus.CONVERGED
        assert result.records == []

    def test_stationary_point_is_not_certified(self, bundled, monkeypatch):
        def refuse(model, *args, **kwargs):
            raise AssertionError("certified a stationary point")

        monkeypatch.setattr(arp_driver, "min_sigma_sos", refuse)
        result = run(bundled["quartic_sc2"],
                     ArpConfig(p=3, epsilon=1e-6, x0=[0.0, 0.0]))
        assert result.status is RunStatus.CONVERGED
        assert result.records == []
        assert result.grad_norm <= 1e-6

    def test_iteration_budget_respected(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-8, x0=[-1.2, 1.0], max_iter=3)
        result = run(bundled["rosenbrock2"], config)
        assert result.status is RunStatus.MAX_ITERATIONS
        assert len(result.records) == 3

    def test_all_three_cases_appear(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-5, delta=0.5, x0=[0.05, -0.1])
        result = run(bundled["cubic_quartic"], config)
        assert result.status is RunStatus.CONVERGED
        observed = {rec.case_tag for rec in result.records}
        assert observed == {ConvexityCase.STRONGLY_CONVEX,
                            ConvexityCase.NONCONVEX,
                            ConvexityCase.NEARLY_STRONGLY_CONVEX}
        report = assert_theory(result.records, config)
        assert report.ok, report.failures

    def test_weight_update_rules_followed(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-5, x0=[-1.2, 1.0], max_iter=200)
        result = run(bundled["rosenbrock2"], config)
        records = result.records
        assert len(records) > 10
        for prev, nxt in zip(records, records[1:]):
            if prev.success:
                expected = max(config.gamma2 * prev.sigma, config.sigma_min)
            else:
                expected = config.gamma1 * prev.sigma
            assert nxt.sigma_r == pytest.approx(expected, rel=1e-14)
            # the applied weight never undercuts either source
            assert nxt.sigma >= nxt.sigma_bar - 1e-15
            assert nxt.sigma >= nxt.sigma_r - 1e-15

    def test_rejected_step_escalates_weight(self):
        # a steep exponential whose order-3 Taylor model badly
        # over-predicts the first decrease, so the strict ratio test fails
        from sosarp.problems_io import ProblemSpec
        spec = ProblemSpec(name="steep", n=1, kind="Builtin", degree=None,
                           terms=None, builtin="sum_exponentials",
                           params={"weights": [1.0], "exponents": [[5.0]],
                                   "offsets": [0.0]})
        config = ArpConfig(p=3, epsilon=1e-2, eta=0.3, x0=[0.0],
                           max_iter=100)
        result = run(spec, config)
        assert result.status is RunStatus.CONVERGED
        assert result.unsuccessful_count >= 1
        first = result.records[0]
        second = result.records[1]
        assert not first.success
        assert first.f_after == first.f_before
        assert second.sigma_r == pytest.approx(config.gamma1 * first.sigma,
                                               rel=1e-14)
        assert np.allclose(second.x_before, first.x_before)

    def test_certification_failure_keeps_records(self, bundled, request):
        config = ArpConfig(p=3, epsilon=1e-5, x0=[-1.2, 1.0])
        reference = run(bundled["rosenbrock2"], config)
        calls = request.getfixturevalue("second_certification_fails")
        result = run(bundled["rosenbrock2"], config)
        assert len(calls) == 2
        assert result.status is RunStatus.CERTIFICATION_FAILURE
        # every record up to the first accepted step, then the failing point
        first_success = next(r.k for r in reference.records if r.success)
        assert len(result.records) == first_success + 1
        for rec, ref in zip(result.records, reference.records):
            assert _fields(rec) == _fields(ref)
        assert np.array_equal(result.x, reference.records[first_success + 1].x_before)
        assert result.message == "forced failure of the second certification"

    def test_non_finite_sdp_ends_run_with_records(self, bundled, monkeypatch,
                                                   poisoned_vector_solves):
        # from the second certification on, every SDP step turns NaN: the
        # min-sigma solve ends NumericalFailure with unclean residuals,
        # min_sigma_sos raises, and the run keeps its records
        config = ArpConfig(p=3, epsilon=1e-5, x0=[-1.2, 1.0])
        reference = run(bundled["rosenbrock2"], config)
        calls = []

        def certify(model, *args, **kwargs):
            calls.append(model)
            if len(calls) == 2:
                poisoned_vector_solves["value"] = np.nan
            return min_sigma_sos(model, *args, **kwargs)

        monkeypatch.setattr(arp_driver, "min_sigma_sos", certify)
        result = run(bundled["rosenbrock2"], config)
        assert len(calls) == 2 and poisoned_vector_solves["calls"] > 0
        assert result.status is RunStatus.CERTIFICATION_FAILURE
        assert "NumericalFailure" in result.message
        first_success = next(r.k for r in reference.records if r.success)
        assert len(result.records) == first_success + 1
        for rec, ref in zip(result.records, reference.records):
            assert _fields(rec) == _fields(ref)

    def test_bundled_certificates_match_to_rounding(self, bundled,
                                                    monkeypatch, proof_outcomes):
        # every certificate the driver gets on the bundled runs reproduces
        # h_hat to rounding, far inside verify_certificate's 1e-7 threshold,
        # and the driver's gap lets every SDP stop on a proven certificate,
        # on an iterate or after the solve
        certified = []

        def certify(model, *args, **kwargs):
            sigma_bar, cert = min_sigma_sos(model, *args, **kwargs)
            certified.append((model, sigma_bar, cert))
            return sigma_bar, cert

        monkeypatch.setattr(arp_driver, "min_sigma_sos", certify)
        for name, overrides in SUITE_SETTINGS.items():
            result = run(bundled[name], ArpConfig(p=3, epsilon=1e-5, **overrides))
            assert result.status is RunStatus.CONVERGED, name
        assert certified and len(proof_outcomes) == len(certified)
        assert ("unproven", 0.0) not in proof_outcomes, proof_outcomes
        for model, sigma_bar, cert in certified:
            report = verify_certificate(cert, replace(model, sigma=sigma_bar))
            assert report.ok
            target = _coefficients(model, _gram_structure(model.n, model.p_prime),
                                   sigma_bar)
            assert report.max_coeff_mismatch <= 1e-9 * (
                1.0 + float(np.max(np.abs(target))))

    def test_bundled_subsolves_converge(self, bundled):
        # sumexp2's last model once met an Armijo test on values at rounding
        # level and ran out of Newton iterations
        for name, overrides in SUITE_SETTINGS.items():
            result = run(bundled[name], ArpConfig(p=3, epsilon=1e-5, **overrides))
            assert result.status is RunStatus.CONVERGED, name
            for record in result.records:
                assert "SubsolverNotConverged" not in record.flags, (name, record.k)

    def test_converged_run_has_no_message(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-5, x0=[1.5, -2.0])
        result = run(bundled["quad2"], config)
        assert result.status is RunStatus.CONVERGED
        assert result.message == ""

    def test_stall_after_consecutive_rejections(self, bundled, monkeypatch):
        def zero_step(model, theta):
            return SubsolveResult(s=np.zeros(model.n), model_value=model.f0,
                                  grad_norm=float(np.linalg.norm(model.g)),
                                  iterations=0, converged=True)

        monkeypatch.setattr(arp_driver, "minimize_model", zero_step)
        result = run(bundled["rosenbrock2"], ArpConfig(p=3, x0=[-1.2, 1.0]))
        assert result.status is RunStatus.STALLED
        assert len(result.records) == arp_driver.MAX_CONSECUTIVE_FAILURES
        assert all(rec.flags == ("StationaryStep",) and not rec.success
                   for rec in result.records)

    def test_one_eigensolve_of_the_hessian_per_point(self, bundled, monkeypatch):
        # lambda_min(H) is computed once per new point and handed to
        # build_model, not computed again there
        calls = []

        def spy(H):
            calls.append(H)
            return min_eigenvalue(H)

        monkeypatch.setattr(arp_driver, "min_eigenvalue", spy)
        config = ArpConfig(p=3, epsilon=1e-5, x0=[-1.2, 1.0])
        result = run(bundled["rosenbrock2"], config)
        assert result.status is RunStatus.CONVERGED
        records = result.records
        new_points = sum(1 for k, rec in enumerate(records)
                         if k == 0 or records[k - 1].success)
        assert len(calls) == new_points

    def test_no_eigensolve_of_the_shifted_hessian(self, bundled, monkeypatch):
        # every model carries lambda_min(H_bar) from build_model's shift,
        # and replace(model, sigma=...) keeps it: SosModel makes no
        # eigensolve, and the records are those of models that make one
        config = ArpConfig(p=3, epsilon=1e-5, x0=[-1.2, 1.0])
        calls = []

        def spy(H):
            calls.append(H)
            return min_eigenvalue(H)

        monkeypatch.setattr(sos_certify, "min_eigenvalue", spy)
        result = run(bundled["rosenbrock2"], config)
        assert result.status is RunStatus.CONVERGED
        assert calls == []
        monkeypatch.setattr(arp_driver, "build_model", lambda *args, **kwargs: replace(
            build_model(*args, **kwargs), lambda_min=None))
        recomputed = run(bundled["rosenbrock2"], config)
        new_points = 1 + sum(rec.success for rec in recomputed.records[:-1])
        assert len(calls) == new_points
        assert len(recomputed.records) == len(result.records)
        for rec, ref in zip(result.records, recomputed.records):
            assert (rec.success, rec.case_tag) == (ref.success, ref.case_tag)
            for name in ("sigma_bar", "sigma", "rho", "step_norm", "f_after"):
                assert getattr(rec, name) == pytest.approx(getattr(ref, name),
                                                           rel=1e-9, abs=1e-300)

    def test_objective_monotone_over_successes(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-5, x0=[-1.2, 1.0])
        result = run(bundled["rosenbrock2"], config)
        assert result.status is RunStatus.CONVERGED
        last = math.inf
        for rec in result.records:
            if rec.success:
                assert rec.f_after <= rec.f_before + 1e-15
                assert rec.f_before <= last + 1e-15
                last = rec.f_after
        report = assert_theory(result.records, config)
        assert report.ok, report.failures


class TestOrderFour:
    """The north star names p in {3, 4}; these gates run the driver at p = 4."""

    @pytest.mark.parametrize("name", SUITE_SETTINGS)
    def test_suite_converges(self, bundled, name, proof_outcomes):
        config = ArpConfig(p=4, epsilon=1e-5, **SUITE_SETTINGS[name])
        result = run(bundled[name], config)
        assert result.status is RunStatus.CONVERGED, result.message
        report = assert_theory(result.records, config)
        assert report.ok, report.failures
        assert proof_outcomes and ("unproven", 0.0) not in proof_outcomes, proof_outcomes

    def test_rosenbrock_second_certification(self, bundled, proof_outcomes):
        # the second point of the p = 4 rosenbrock2 run from the suite start
        # [-1.2, 1.0]: lambda_min(H_bar) = delta ~ 3e-3 against tensors of
        # order 1e2-1e3 needs sigma_bar ~ 5.4e11, and the unbalanced SDP
        # ended NumericalFailure with a 6.6e-7 primal residual there.  The
        # balanced solve reaches the gap tolerance (Optimal) without a
        # proven iterate on the way, and its returned iterate proves at its
        # own sigma, with no lift along R
        config = ArpConfig(p=4, epsilon=1e-5)
        x = np.array([-0.8680024871290185, 0.8074178893043644])
        bundle = derivatives(bundled["rosenbrock2"], x, config.p)
        lam, _ = min_eigenvalue(bundle.hessian())
        case = classify_case(lam, config.effective_delta)
        model = build_model(bundle, case, config.effective_delta, 0.0)
        sigma_bar, cert = min_sigma_sos(model)
        assert sigma_bar == pytest.approx(5.4364e11, rel=1e-4)
        assert proof_outcomes == [("solve", 0.0)]
        report = verify_certificate(cert, replace(model, sigma=sigma_bar))
        assert report.ok
        target = _coefficients(model, _gram_structure(model.n, model.p_prime),
                               sigma_bar)
        assert report.max_coeff_mismatch <= 1e-9 * (
            1.0 + float(np.max(np.abs(target))))


def _fields(rec):
    """A record as comparable values; repr keeps NaN equal to NaN."""
    return (rec.k, rec.case_tag, repr(rec.lambda_min), repr(rec.sigma_bar),
            repr(rec.sigma_r), repr(rec.sigma), repr(rec.step_norm),
            repr(rec.rho), repr(rec.f_before), repr(rec.f_after),
            repr(rec.taylor_decrease), repr(rec.grad_norm), rec.success,
            rec.flags, rec.x_before.tobytes())


class TestOracles:
    def test_ratio_recomputation(self, bundled):
        # recompute rho from scratch at every recorded iterate
        spec = bundled["sumexp2"]
        func = build_function(spec)
        config = ArpConfig(p=3, epsilon=1e-7, x0=[1.0, -0.5])
        result = run(spec, config)
        assert result.status is RunStatus.CONVERGED
        checked = 0
        for rec in result.records:
            if not rec.success or not math.isfinite(rec.rho):
                continue
            bundle = func.derivatives(rec.x_before, config.p)
            # invert the bookkeeping: the step follows from f_after's iterate
            # only for successful records, so replay through taylor_decrease
            predicted = rec.f_before - rec.taylor_decrease
            rho = (rec.f_before - rec.f_after) / (rec.f_before - predicted)
            assert rho == pytest.approx(rec.rho, rel=1e-12, abs=1e-12)
            assert bundle.value == pytest.approx(rec.f_before, rel=1e-13)
            checked += 1
        assert checked >= 2

    def test_cached_weight_matches_fresh_certification(self, bundled):
        config = ArpConfig(p=3, epsilon=1e-5, delta=0.5, x0=[0.05, -0.1])
        result = run(bundled["cubic_quartic"], config)
        sampled = result.records[:10]
        assert sampled
        for rec in sampled:
            bundle = derivatives(bundled["cubic_quartic"], rec.x_before,
                                 config.p)
            model = build_model(bundle, rec.case_tag, config.effective_delta,
                                0.0)
            # like for like: the driver certifies at its own gap
            sigma_bar, _ = min_sigma_sos(model, gap=arp_driver._WEIGHT_GAP)
            assert sigma_bar == pytest.approx(rec.sigma_bar, rel=1e-9,
                                              abs=1e-9)

    def test_taylor_decrease_recorded_faithfully(self, bundled):
        spec = bundled["cubic2"]
        config = ArpConfig(p=3, epsilon=1e-6, x0=[0.3, -0.4])
        result = run(spec, config)
        assert result.status is RunStatus.CONVERGED
        func = build_function(spec)
        # successful steps: x_{k+1} - x_k equals the accepted step, so the
        # Taylor value at the step must reproduce the recorded decrease
        successes = [rec for rec in result.records if rec.success]
        xs = [rec.x_before for rec in successes] + [result.x]
        for rec, x_next in zip(successes, xs[1:]):
            bundle = func.derivatives(rec.x_before, config.p)
            step = x_next - rec.x_before
            predicted = rec.f_before - taylor_value(bundle, step)
            assert predicted == pytest.approx(rec.taylor_decrease, rel=1e-10,
                                              abs=1e-12)
