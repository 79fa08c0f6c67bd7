"""Where sosarp's LAPACK comes from, checked in fresh interpreters.

pytest and the other test modules may import scipy.linalg themselves, so
each check runs in its own process, which imports only what it names.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCIPY_FIRST = """
import scipy.linalg.lapack as lapack
from sosarp import sdp_core, subproblem
"""
SOSARP_FIRST = """
from sosarp import sdp_core, subproblem
import scipy.linalg.lapack as lapack
"""
SAME_OBJECTS = """
used = [(name, getattr(sdp_core, name))
        for name in ("dpotrf", "dpotrs", "dsyevd", "dsygst", "dtrtri", "dtrtrs")]
for name, routine in used:
    assert routine is getattr(lapack, name), name
# the subsolver factors and solves with the solver's own routines
assert subproblem._chol is sdp_core._chol
assert subproblem._cho_solve is sdp_core._cho_solve
"""


def run_python(code: str, *first: Path) -> subprocess.CompletedProcess:
    """Run code with src/ on the path, after the directories in first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in first] + [str(ROOT / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_linalg_unloaded():
    done = run_python("import sys, sosarp\n"
                      "assert 'scipy.linalg' not in sys.modules, 'loaded'")
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("order", [SCIPY_FIRST, SOSARP_FIRST],
                         ids=["scipy_first", "sosarp_first"])
def test_routines_are_scipys_own(order):
    done = run_python(order + SAME_OBJECTS)
    assert done.returncode == 0, done.stderr[-2000:]


def test_missing_scipy_is_named():
    # a None entry in sys.modules makes find_spec report the package absent
    done = run_python("import sys\nsys.modules['scipy'] = None\nimport sosarp")
    assert done.returncode != 0
    assert "ImportError: sosarp needs scipy" in done.stderr


def test_missing_extension_is_named(tmp_path):
    # a scipy package without linalg/ hides the installed one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = run_python("import sosarp", tmp_path)
    assert done.returncode != 0
    assert ("ImportError: scipy is installed without its "
            "scipy.linalg._flapack extension") in done.stderr
