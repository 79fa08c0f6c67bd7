"""The LAPACK routines sosarp calls, from scipy's compiled wrappers alone.

The solver calls LAPACK directly: dpotrf, dpotrs, dtrtri, dsygst and
dsyevd in sdp_core, whose Cholesky factor and solve the subsolver shares,
and dtrtrs, whose two triangular solves replace dpotrs on the Schur
complement at sample points; sos_certify picks those points with dgeqp3's
pivoted QR.  An IPM iteration makes 15 calls over the constraint rows
(3 dpotrf, 1 dtrtri, 3 dpotrs, 4 dsygst, 4 dsyevd) and 18 at sample points
(6 dtrtrs for the 3 dpotrs).
All of them live in one f2py extension, scipy.linalg._flapack, which
scipy.linalg.lapack re-exports.  Importing that through the scipy.linalg
package would run the package's __init__, which pulls in scipy's array-API
layer and with it numpy.f2py, numpy.testing and numpy.ma: about 0.17 s and
23 MB per process, for a handful of routines.  So this module finds scipy's
linalg directory without importing scipy and loads the extension file
itself.

It registers the module in sys.modules under its own name, so a later
`import scipy.linalg` reuses it, and scipy's dpotrf and sosarp's are then
the same object: the same wrapper on the same LAPACK gives the same bits.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

_NAME = "scipy.linalg._flapack"


def _flapack():
    """scipy.linalg._flapack, loaded from its file unless already imported."""
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("sosarp needs scipy, for its compiled LAPACK wrappers")
    linalg = os.path.join(os.path.dirname(scipy.origin), "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_NAME)
    if spec is None:
        raise ImportError(f"scipy is installed without its {_NAME} extension")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_module = _flapack()
dgeqp3 = _module.dgeqp3
dpotrf = _module.dpotrf
dpotrs = _module.dpotrs
dsyevd = _module.dsyevd
dsygst = _module.dsygst
dtrtri = _module.dtrtri
dtrtrs = _module.dtrtrs
