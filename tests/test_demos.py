"""Every narrative demo runs to completion against the package in src/."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.lru_cache(maxsize=None)
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr[-2000:]


def test_membership_demo_brackets_the_minimal_weight():
    # is_sos_convex's only user-visible output: refuted below sigma_bar,
    # found above it
    done = run_demo(ROOT / "demos" / "01_taylor_models_and_certificates.py")
    verdicts = re.findall(r"\(([\d.]+) \* sigma_bar\): convex certificate (\w+)",
                          done.stdout)
    assert verdicts == [("0.50", "refuted"), ("0.99", "refuted"),
                        ("1.01", "found"), ("2.00", "found")]
