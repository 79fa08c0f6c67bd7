"""Taylor models and convexity certificates, end to end on small examples.

A local model of order p is the Taylor expansion through order p plus the
regularizer (sigma/p') * ||s||^p'.  The certifier finds the smallest sigma
for which the model's Hessian form admits a positive semidefinite Gram
matrix, which proves the model convex everywhere.
"""

import numpy as np

from sosarp import (ConvexityCase, SosModel, SymmetricTensor, is_sos_convex,
                    min_sigma_sos, verify_certificate)
from dataclasses import replace

# ---------------------------------------------------------------------------
# 1. A univariate model with a closed-form answer
#
# m(s) = (h/2) s^2 + (t/6) s^3 + (sigma/4) s^4 is convex exactly when
# sigma >= t^2 / (12 h): the discriminant condition for m''(s) >= 0.
# ---------------------------------------------------------------------------
h, t = 1.0, 6.0
model = SosModel(n=1, p=3, f0=0.0, g=np.zeros(1), H_bar=np.array([[h]]),
                 higher=[SymmetricTensor(3, 1, {(0, 0, 0): t})],
                 delta=1.0, sigma=0.0,
                 case_tag=ConvexityCase.STRONGLY_CONVEX)
sigma_bar, cert = min_sigma_sos(model)
print("univariate model: h=%g t=%g" % (h, t))
print("  closed form  t^2/(12h) = %.6f" % (t * t / (12.0 * h)))
print("  certified    sigma_bar = %.6f" % sigma_bar)
print("  Gram matrix over basis %s:" % (cert.basis,))
print(np.array2string(cert.Q, precision=4))
print("  coefficient residual: %.2e" % cert.residual)

# ---------------------------------------------------------------------------
# 2. Membership queries bracket the minimal weight
# ---------------------------------------------------------------------------
for factor in (0.5, 0.99, 1.01, 2.0):
    verdict, _ = is_sos_convex(replace(model, sigma=sigma_bar * factor))
    print("  sigma = %.4f (%.2f * sigma_bar): convex certificate %s"
          % (sigma_bar * factor, factor, "found" if verdict else "refuted"))

# ---------------------------------------------------------------------------
# 3. A bivariate model, verified by sampling its Hessian
#
# verify_certificate re-expands the certificate's quadratic form, bounds its
# mismatch against the model's exact coefficients, and proves that Q plus
# the correction removing that mismatch is positive definite (a shifted
# Cholesky factorization).  It also samples the model Hessian at 100 random
# points spread over three decades of radius.  The mismatch and lambda_min(Q)
# are printed for reference; ok is the proof's verdict and the samples'.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
raw = rng.standard_normal((2, 2))
H = (raw + raw.T) / 2.0
H += (0.5 - np.linalg.eigvalsh(H)[0]) * np.eye(2)  # margin 0.5
cubic = SymmetricTensor(3, 2, {key: float(rng.standard_normal())
                               for key in [(0, 0, 0), (0, 0, 1),
                                           (0, 1, 1), (1, 1, 1)]})
model2 = SosModel(n=2, p=3, f0=0.0, g=rng.standard_normal(2), H_bar=H,
                  higher=[cubic], delta=0.5, sigma=0.0,
                  case_tag=ConvexityCase.STRONGLY_CONVEX)
sigma_bar2, cert2 = min_sigma_sos(model2)
report = verify_certificate(cert2, replace(model2, sigma=sigma_bar2))
print("\nbivariate model: sigma_bar = %.6f" % sigma_bar2)
print("  certificate check: coefficient mismatch %.2e, "
      "Gram min eigenvalue %.2e," % (report.max_coeff_mismatch,
                                     report.gram_min_eigenvalue))
print("  %d/%d sampled Hessians within tolerance -> ok=%s"
      % (report.samples - report.hessian_violations, report.samples,
         report.ok))
