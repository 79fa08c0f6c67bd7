"""Eleven release gates, each printing one summary line.

Every test emits 'ACCEPTANCE <k> <label>: PASS|FAIL (<detail>)' through
capsys.disabled() so the verdicts land in the terminal log even while pytest
captures output.  Numbered prefixes keep execution in criterion order.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sosarp.arp_driver import (ArpConfig, ConvexityCase, RunStatus,
                               assert_theory, build_model, classify_case, run)
from sosarp.experiments import ScanConfig, convex_rate, scan_delta, scan_tensor
from sosarp.problems_io import derivatives
from sosarp.sdp_core import SdpStatus, solve_sdp
from sosarp.sos_certify import SosModel, is_sos_convex, min_sigma_sos
from sosarp.tensor_poly import SymmetricTensor, min_eigenvalue
from conftest import SUITE_SETTINGS, planted_sdp, random_certified_model

# bundled explicit polynomials whose degree does not exceed the model order,
# so the order-3 Taylor expansion reproduces f exactly
EXACT_TAYLOR_PROBLEMS = ("quad2", "cubic2")


# one driver run per bundled problem, shared by criteria 4-8 and 10
@pytest.fixture(scope="module")
def suite_runs(bundled):
    runs = {}
    for name, overrides in SUITE_SETTINGS.items():
        config = ArpConfig(p=3, epsilon=1e-5, max_iter=1000, **overrides)
        runs[name] = (config, run(bundled[name], config))
    return runs


def report(capsys, number, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {label}: {verdict} ({detail})")
    assert ok, f"ACCEPTANCE {number} {label}: FAIL ({detail})"


def test_01_univariate_weight_oracle(capsys):
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        h = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(-10.0, 10.0))
        model = SosModel(n=1, p=3, f0=0.0, g=np.zeros(1),
                         H_bar=np.array([[h]]),
                         higher=[SymmetricTensor(3, 1, {(0, 0, 0): t})],
                         delta=min(1.0, h), sigma=0.0,
                         case_tag=ConvexityCase.STRONGLY_CONVEX)
        sigma_bar, _ = min_sigma_sos(model)
        oracle = t * t / (12.0 * h)
        worst = max(worst, abs(sigma_bar - oracle) / abs(oracle))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(capsys, 1, "minimal weight vs univariate discriminant", ok,
           f"50 models, worst rel err {worst:.3e} (tol 1e-5), "
           f"{elapsed:.2f} s (budget 10 s)")


def test_02_weight_growth_with_tensor_magnitude(capsys):
    t0 = time.time()
    result = scan_tensor(ScanConfig(n=2, p=3, seeds=10, seed=0, delta=1.0,
                                    scales=(1.0, 10.0, 100.0, 1000.0)))
    elapsed = time.time() - t0
    ok = (result.slope is not None and 1.6 <= result.slope <= 2.4
          and result.failure_count == 0 and elapsed < 120.0)
    report(capsys, 2, "tensor-magnitude scan slope", ok,
           f"slope {result.slope:.3f} (band [1.6, 2.4]), "
           f"{result.failure_count} failed cells, {elapsed:.1f} s "
           f"(budget 120 s)")


def test_03_weight_decay_with_delta(capsys):
    t0 = time.time()
    deltas = tuple(np.logspace(-3.0, 0.0, 7))
    result = scan_delta(ScanConfig(n=2, p=3, seeds=10, seed=0, scale=1.0,
                                   deltas=deltas))
    elapsed = time.time() - t0
    ok = (result.slope is not None and -1.3 <= result.slope <= -0.7
          and result.failure_count == 0 and elapsed < 120.0)
    report(capsys, 3, "margin scan slope", ok,
           f"slope {result.slope:.3f} (band [-1.3, -0.7]), "
           f"{result.failure_count} failed cells, {elapsed:.1f} s "
           f"(budget 120 s)")


def test_04_exact_taylor_ratio(capsys, suite_runs):
    worst = 0.0
    all_success = True
    total = 0
    for name in EXACT_TAYLOR_PROBLEMS:
        _, result = suite_runs[name]
        for rec in result.records:
            total += 1
            all_success &= rec.success
            if math.isfinite(rec.rho):
                worst = max(worst, abs(rec.rho - 1.0))
            else:
                all_success = False
    ok = all_success and worst <= 1e-8 and total > 0
    report(capsys, 4, "degree <= p objectives give ratio 1", ok,
           f"{total} iterations over {', '.join(EXACT_TAYLOR_PROBLEMS)}, "
           f"all successful={all_success}, worst |rho-1| {worst:.3e} "
           f"(tol 1e-8)")


def test_05_model_decrease_case_bounds(capsys, suite_runs):
    violations = []
    checked = 0
    for name, (config, result) in suite_runs.items():
        checked += len(result.records)
        failures = assert_theory(result.records, config).failures
        violations += [f"{name}: {msg}" for msg in failures
                       if "case bound" in msg]
    ok = not violations and checked > 0
    report(capsys, 5, "per-iteration model decrease meets case bound", ok,
           f"{checked} iterations over {len(suite_runs)} runs, "
           f"{len(violations)} violations (rel slack 1e-8)"
           + (f"; first: {violations[0]}" if violations else ""))


def test_06_iteration_accounting_bound(capsys, suite_runs):
    worst_margin = -math.inf
    failing = []
    for name, (config, result) in suite_runs.items():
        total = len(result.records)
        successes = result.successful_count
        sigma_max = max((r.sigma for r in result.records),
                        default=config.sigma0)
        bound = (successes * (1.0 + abs(math.log(config.gamma2))
                              / math.log(config.gamma1))
                 + math.log(sigma_max / config.sigma0)
                 / math.log(config.gamma1))
        worst_margin = max(worst_margin, total - bound)
        if total > bound:
            failing.append(name)
    ok = not failing
    report(capsys, 6, "success/failure accounting bound", ok,
           f"{len(suite_runs)} runs, worst total-minus-bound "
           f"{worst_margin:.2f} (must be <= 0)"
           + (f"; failing: {failing}" if failing else ""))


def test_07_strongly_convex_decrease_floor(capsys, suite_runs):
    checked = 0
    violations = []
    for name, (config, result) in suite_runs.items():
        delta = config.effective_delta
        for rec in result.records:
            if not (rec.success
                    and rec.case_tag is ConvexityCase.STRONGLY_CONVEX):
                continue
            checked += 1
            floor = config.eta * (delta / 18.0) * rec.step_norm ** 2 - 1e-10
            actual = rec.f_before - rec.f_after
            if actual < floor:
                violations.append(f"{name} iteration {rec.k}")
    ok = not violations and checked > 0
    report(capsys, 7, "order-3 strongly convex decrease floor", ok,
           f"{checked} successful strongly convex iterations, "
           f"{len(violations)} below eta*(delta/18)*||s||^2 - 1e-10"
           + (f"; first: {violations[0]}" if violations else ""))


def test_08_certificate_soundness(capsys, suite_runs, bundled):
    rng = np.random.default_rng(8)
    certified = 0
    violations = 0
    models = []
    for name, (config, result) in suite_runs.items():
        delta = config.effective_delta
        for rec in result.records:
            bundle = derivatives(bundled[name], rec.x_before, config.p)
            models.append(build_model(bundle, rec.case_tag, delta, rec.sigma))
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = int(rng.choice([3, 4]))
        model = random_certified_model(rng, n, p,
                                       magnitude=float(rng.uniform(0.5, 5.0)))
        sigma_bar, _ = min_sigma_sos(model)
        models.append(replace(model, sigma=sigma_bar * (1.0 + 1e-6) + 1e-12))
    for model in models:
        verdict, _ = is_sos_convex(model)
        if verdict is not True:
            continue
        certified += 1
        for _ in range(100):
            direction = rng.standard_normal(model.n)
            direction /= np.linalg.norm(direction)
            s = direction * 10.0 ** rng.uniform(-2.0, 1.0)
            H = model.hessian(s)
            lam = np.linalg.eigvalsh(H)[0]
            if lam < -1e-8 * (1.0 + np.linalg.norm(H, 2)):
                violations += 1
    ok = violations == 0 and certified > 0
    report(capsys, 8, "certified models have PSD Hessians", ok,
           f"{certified}/{len(models)} models certified, 100 sample points "
           f"each, {violations} violations of "
           f"lambda_min >= -1e-8*(1+||H||)")


def test_09_planted_semidefinite_batch(capsys):
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst_gap = 0.0
    worst_res = 0.0
    wrong = 0
    for _ in range(100):
        problem, _ = planted_sdp(rng, max_block=20, max_m=100)
        sol = solve_sdp(problem)
        if sol.status is not SdpStatus.OPTIMAL:
            wrong += 1
            continue
        worst_gap = max(worst_gap, sol.gap)
        worst_res = max(worst_res, sol.primal_residual, sol.dual_residual)
    elapsed = time.time() - t0
    ok = (wrong == 0 and worst_gap <= 1e-7 and worst_res <= 1e-7
          and elapsed < 60.0)
    report(capsys, 9, "planted semidefinite batch", ok,
           f"100 problems, {wrong} wrong statuses, worst gap "
           f"{worst_gap:.2e}, worst residual {worst_res:.2e} (tol 1e-7), "
           f"{elapsed:.1f} s (budget 60 s)")


def test_10_convergence_suite(capsys, suite_runs):
    converged = []
    monotone_ok = True
    for name, (config, result) in suite_runs.items():
        if result.status is RunStatus.CONVERGED and result.grad_norm <= 1e-5:
            converged.append(name)
        last = math.inf
        for rec in result.records:
            if rec.success:
                if rec.f_after > min(last, rec.f_before) + 1e-15:
                    monotone_ok = False
                last = rec.f_after
    cq_cases = {rec.case_tag for rec in suite_runs["cubic_quartic"][1].records}
    mixed = (ConvexityCase.NONCONVEX in cq_cases
             and ConvexityCase.NEARLY_STRONGLY_CONVEX in cq_cases)
    ok = len(converged) >= 5 and mixed and monotone_ok
    report(capsys, 10, "bundled problems converge", ok,
           f"{len(converged)}/{len(suite_runs)} converged to 1e-5 within "
           f"1000 iterations, perturbed cases both observed={mixed}, "
           f"f monotone={monotone_ok}")


def test_11_strongly_convex_rate_growth(capsys, bundled):
    t0 = time.time()
    epsilons = [1e-1, 1e-2, 1e-3, 1e-4]
    points = convex_rate(bundled["quartic_sc2"], epsilons, p=3,
                         x0=np.array([1.5, -2.0]))
    elapsed = time.time() - t0
    counts = [pt.successful_iterations for pt in points]
    growth_ok = all(b <= 2 * a + 5 for a, b in zip(counts, counts[1:]))
    all_converged = all(pt.result.status is RunStatus.CONVERGED
                        for pt in points)
    ok = growth_ok and all_converged and elapsed < 120.0
    report(capsys, 11, "strongly convex rate growth", ok,
           f"successful iterations {counts} over eps {epsilons}, "
           f"N(eps/10) <= 2N(eps)+5={growth_ok}, all converged="
           f"{all_converged}, {elapsed:.1f} s (budget 120 s)")
