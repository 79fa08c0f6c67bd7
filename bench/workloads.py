"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks that decide whether each operation's output is correct.

Every workload calls sosarp through module attributes (``arp_driver.run``,
``sos_certify.min_sigma_sos``, ``experiments.scan_tensor``) so that the
traced run can swap in timed wrappers without touching the package.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from sosarp import arp_driver, experiments, sos_certify
from sosarp.arp_driver import ArpConfig, RunStatus, assert_theory
from sosarp.experiments import ScanConfig
from sosarp.problems_io import build_function, bundled_problem_paths, load_problem
from sosarp.sos_certify import ConvexityCase, SosModel, verify_certificate
from sosarp.tensor_poly import SymmetricTensor, min_eigenvalue

from timing import OpClock

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Seed whose outputs are committed in reference.json; see make_reference.py.
DEFAULT_SEED = 0

# Start points of the acceptance suite (tests/test_acceptance.py).
SUITE_SETTINGS = {
    "quad2": dict(x0=[1.5, -2.0]),
    "cubic2": dict(x0=[0.3, -0.4]),
    "quartic_sc2": dict(x0=[1.5, -2.0]),
    "cubic_quartic": dict(delta=0.5, x0=[0.05, -0.1]),
    "rosenbrock2": dict(x0=[-1.2, 1.0]),
    "sumexp2": dict(x0=[1.0, -0.5]),
}

# A converged run's final point must lie this close (relative) to the
# reference minimiser; grad_norm <= 1e-5 keeps honest runs within ~1e-4.
X_TOL = 1e-3

GRID_CELLS = ((1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4))
GRID_MODELS_PER_CELL = 12
# lambda_min(H_bar) = delta puts the optimal Gram matrix on the PSD boundary.
GRID_DELTA = 0.1
SIGMA_RTOL = 1e-6

SCAN_BANDS = {"scan_tensor": (1.6, 2.4), "scan_delta": (-1.3, -0.7)}


def p_prime(p: int) -> int:
    return p + 1 if p % 2 == 1 else p + 2


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def attempt(fn: Callable, *args):
    """Call fn; an exception becomes the operation's (failed) output."""
    try:
        return fn(*args)
    except Exception as err:  # a failing operation is counted, not fatal
        print(f"operation failed: {type(err).__name__}: {err}", file=sys.stderr)
        return err


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._verdicts: Dict[tuple, bool] = {}

    def warm_up(self) -> None:
        """One untimed operation per distinct (n, p') structure."""
        raise NotImplementedError

    def run_pass(self, clock: OpClock) -> list:
        raise NotImplementedError

    def failures(self, outputs: list) -> int:
        """Number of failed operations in one pass's outputs."""
        raise NotImplementedError

    def problem_functions(self) -> list:
        return []

    def _cached(self, key: tuple, check: Callable[[], bool]) -> bool:
        # passes repeat bit for bit, so each distinct output is checked once
        if key not in self._verdicts:
            self._verdicts[key] = check()
        return self._verdicts[key]


class BundledRuns(Workload):
    """run() on the six bundled problems; the seed does not enter."""

    name = "bundled_runs"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        paths = bundled_problem_paths()
        self.problems = [
            (name, build_function(load_problem(paths[name])),
             ArpConfig(p=3, epsilon=1e-5, **overrides))
            for name, overrides in SUITE_SETTINGS.items()]
        self.reference = load_reference()["bundled_runs"]["x"]

    def warm_up(self) -> None:
        seen = set()
        for _, func, config in self.problems:
            key = (func.n, p_prime(config.p))
            if key not in seen:
                seen.add(key)
                arp_driver.run(func, config)

    def run_pass(self, clock: OpClock) -> list:
        outputs = []
        for _, func, config in self.problems:
            with clock.op():
                outputs.append(attempt(arp_driver.run, func, config))
        return outputs

    def failures(self, outputs: list) -> int:
        failed = 0
        for (name, _, config), result in zip(self.problems, outputs):
            if isinstance(result, Exception):
                failed += 1
                continue
            key = (name, result.x.tobytes(), len(result.records))
            failed += not self._cached(
                key, lambda: self._check(name, config, result))
        return failed

    def _check(self, name: str, config: ArpConfig, result) -> bool:
        ref = np.asarray(self.reference[name])
        ok = (result.status is RunStatus.CONVERGED
              and result.grad_norm <= config.epsilon
              and assert_theory(result.records, config).ok
              and np.linalg.norm(result.x - ref)
              <= X_TOL * (1.0 + np.linalg.norm(ref)))
        if not ok:
            print(f"check failed: {name} ended {result.status.value} at "
                  f"x={result.x.tolist()}, grad_norm={result.grad_norm:.3e}",
                  file=sys.stderr)
        return bool(ok)

    def problem_functions(self) -> list:
        return [func for _, func, _ in self.problems]


def random_tensor(rng: np.random.Generator, order: int, n: int) -> SymmetricTensor:
    """Symmetric tensor with standard normal entries, scaled to max |entry| 1."""
    keys = list(itertools.combinations_with_replacement(range(n), order))
    values = rng.standard_normal(len(keys))
    values /= np.max(np.abs(values))
    return SymmetricTensor(order, n, dict(zip(keys, values.tolist())))


def grid_model(seed: int, n: int, p: int, k: int) -> SosModel:
    rng = np.random.default_rng([seed, n, p, k])
    g = rng.standard_normal(n)
    raw = rng.standard_normal((n, n))
    H = (raw + raw.T) / 2.0
    lam, _ = min_eigenvalue(H)
    H = H + (GRID_DELTA - lam) * np.eye(n)
    higher = [random_tensor(rng, order, n) for order in range(3, p + 1)]
    return SosModel(n=n, p=p, f0=0.0, g=g, H_bar=H, higher=higher,
                    delta=GRID_DELTA, sigma=0.0,
                    case_tag=ConvexityCase.STRONGLY_CONVEX)


class CertifyGrid(Workload):
    """One min_sigma_sos call per seeded random model on the (n, p) grid."""

    name = "certify_grid"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.models = [((n, p, k), grid_model(seed, n, p, k))
                       for n, p in GRID_CELLS
                       for k in range(GRID_MODELS_PER_CELL)]
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = load_reference()["certify_grid"]["sigma_bar"]

    def warm_up(self) -> None:
        seen = set()
        for (n, p, _), model in self.models:
            if (n, p_prime(p)) not in seen:
                seen.add((n, p_prime(p)))
                sos_certify.min_sigma_sos(model)

    def run_pass(self, clock: OpClock) -> list:
        outputs = []
        for _, model in self.models:
            with clock.op():
                outputs.append(attempt(sos_certify.min_sigma_sos, model))
        return outputs

    def failures(self, outputs: list) -> int:
        failed = 0
        for index, ((label, model), output) in enumerate(zip(self.models, outputs)):
            if isinstance(output, Exception):
                failed += 1
                continue
            sigma_bar, cert = output
            key = (index, sigma_bar, cert.Q.tobytes())
            failed += not self._cached(
                key, lambda: self._check(index, label, model, sigma_bar, cert))
        return failed

    def _check(self, index: int, label: tuple, model: SosModel,
               sigma_bar: float, cert) -> bool:
        report = verify_certificate(cert, replace(model, sigma=sigma_bar))
        ok = report.ok
        if self.reference is not None:
            ref = self.reference[index]
            # a smaller sigma_bar is fine: its certificate was just verified
            ok = ok and sigma_bar <= ref + SIGMA_RTOL * abs(ref)
        if not ok:
            print(f"check failed: model (n, p, k)={label} sigma_bar="
                  f"{sigma_bar!r}, certificate ok={report.ok}", file=sys.stderr)
        return bool(ok)


class Scans(Workload):
    """Both weight scans with the acceptance-2/3 settings; one operation is
    one scan cell, i.e. one min_sigma_sos call inside the scan."""

    name = "scans"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.configs = {
            "scan_tensor": ScanConfig(n=2, p=3, seeds=10, seed=seed, delta=1.0,
                                      scales=(1.0, 10.0, 100.0, 1000.0)),
            "scan_delta": ScanConfig(n=2, p=3, seeds=10, seed=seed, scale=1.0,
                                     deltas=tuple(np.logspace(-3.0, 0.0, 7))),
        }

    def warm_up(self) -> None:
        # both scans share the single structure (n, p') = (2, 4)
        experiments.scan_tensor(replace(self.configs["scan_tensor"], seeds=1,
                                        scales=(1.0,)))

    def run_pass(self, clock: OpClock) -> list:
        certify = experiments.min_sigma_sos

        def timed(model):
            with clock.op():
                return certify(model)

        experiments.min_sigma_sos = timed
        try:
            return [(label, attempt(getattr(experiments, label), config))
                    for label, config in self.configs.items()]
        finally:
            experiments.min_sigma_sos = certify

    def failures(self, outputs: list) -> int:
        failed = 0
        for label, result in outputs:
            config = self.configs[label]
            cells = config.seeds * len(config.scales or config.deltas)
            if isinstance(result, Exception):
                failed += cells
                continue
            lo, hi = SCAN_BANDS[label]
            in_band = result.slope is not None and lo <= result.slope <= hi
            if not in_band:
                print(f"check failed: {label} slope {result.slope} outside "
                      f"[{lo}, {hi}]", file=sys.stderr)
            failed += result.failure_count if in_band else cells
        return failed


WORKLOADS = {cls.name: cls for cls in (BundledRuns, CertifyGrid, Scans)}
