"""The names bench/tracing.py patches still exist, so a refactor that moves
one fails here rather than in a traced benchmark run; and a traced driver
run still has every certification summarized."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sosarp.arp_driver import RunStatus, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracing import PATCHES, Tracer  # noqa: E402
from workloads import BundledRuns  # noqa: E402


def test_tracer_patches_resolve_and_restore():
    for module, attr, _, _ in PATCHES:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    originals = [getattr(module, attr) for module, attr, _, _ in PATCHES]
    functions = BundledRuns(0).problem_functions()
    tracer = Tracer(SimpleNamespace(current=None))
    tracer.install(functions)
    try:
        for func in functions:
            func.derivatives(np.zeros(func.n), 3)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.take()]
    # derivatives calls value on the instance, so each call makes one of each
    assert names.count("problems_io.derivatives") == len(functions)
    assert names.count("problems_io.value") == len(functions)
    assert [getattr(module, attr) for module, attr, _, _ in PATCHES] == originals
    for func in functions:
        assert not {"derivatives", "value"} & set(vars(func))


def test_traced_run_summarizes_every_certification():
    # run hands min_sigma_sos its weight gap; the tracer's summary of that
    # call must take it, or every traced bundled_runs operation fails
    _, func, config = BundledRuns(0).problems[2]  # quartic_sc2
    tracer = Tracer(SimpleNamespace(current=None))
    tracer.install([func])
    try:
        result = run(func, config)
    finally:
        tracer.uninstall()
    assert result.status is RunStatus.CONVERGED
    certifications = [span.attrs for span in tracer.take()
                      if span.name == "sos_certify.min_sigma_sos"]
    assert certifications
    assert all("error" not in attrs for attrs in certifications)
    assert ({rec.sigma_bar for rec in result.records}
            == {attrs["sigma_bar"] for attrs in certifications})
