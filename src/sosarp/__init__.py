"""Adaptive p-th order regularization with sum-of-squares-certified models.

The driver minimizes a smooth objective by repeatedly building a local
Taylor model, shifting its quadratic part according to the observed
convexity case, attaching the smallest regularization weight for which a
Gram-matrix certificate proves the model convex, and accepting or rejecting
the resulting step with a ratio test.
"""

from .arp_driver import (ArpConfig, AssertionReport, IterationRecord,
                         RunResult, RunStatus, assert_theory, build_model,
                         classify_case, run)
from .experiments import (RatePoint, ScanConfig, ScanResult, ScanRow,
                          convex_rate, scan_delta, scan_tensor)
from .problems_io import (BUILTIN_REGISTRY, DerivativeCheckReport,
                          ProblemFormatError, ProblemFunction, ProblemSpec,
                          UnknownBuiltinError, build_function,
                          bundled_problem_paths, check_derivatives,
                          derivatives, load_point, load_problem, save_problem)
from .sdp_core import SdpProblem, SdpSolution, SdpStatus, solve_sdp
from .sos_certify import (CertificateReport, CertificationError,
                          ConvexityCase, GramCertificate, SosIndeterminate,
                          SosModel, gram_basis, is_sos_convex, min_sigma_sos,
                          verify_certificate)
from .subproblem import SubsolveResult, SubsolverFailure, minimize_model
from .tensor_poly import (DerivativeBundle, SymmetricTensor, min_eigenvalue,
                          taylor_value, tensor_apply)

__version__ = "0.1.0"

__all__ = [
    "ArpConfig", "AssertionReport", "IterationRecord", "RunResult",
    "RunStatus", "assert_theory", "build_model", "classify_case", "run",
    "RatePoint", "ScanConfig", "ScanResult", "ScanRow", "convex_rate",
    "scan_delta", "scan_tensor",
    "BUILTIN_REGISTRY", "DerivativeCheckReport", "ProblemFormatError",
    "ProblemFunction", "ProblemSpec", "UnknownBuiltinError", "build_function",
    "bundled_problem_paths", "check_derivatives", "derivatives", "load_point",
    "load_problem", "save_problem",
    "SdpProblem", "SdpSolution", "SdpStatus", "solve_sdp",
    "CertificateReport", "CertificationError", "ConvexityCase",
    "GramCertificate", "SosIndeterminate", "SosModel", "gram_basis",
    "is_sos_convex", "min_sigma_sos", "verify_certificate",
    "SubsolveResult", "SubsolverFailure", "minimize_model",
    "DerivativeBundle", "SymmetricTensor", "min_eigenvalue", "taylor_value",
    "tensor_apply",
    "__version__",
]
