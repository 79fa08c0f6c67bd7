"""The dense interior-point SDP solver behind the certificates.

Small tour: an instance with a hand-checkable answer, a planted-optimum
instance where the true objective is known by construction, and the two
infeasibility statuses.
"""

import numpy as np

from sosarp import SdpProblem, SdpStatus, solve_sdp

# ---------------------------------------------------------------------------
# 1. Hand-checkable: min X00 + X11 with X01 + X10 = 2 over PSD X.
#    PSD forces X00*X11 >= X01^2 = 1, so by AM-GM the trace is minimized
#    at the all-ones matrix with objective 2.
# ---------------------------------------------------------------------------
A = np.array([[0.0, 1.0], [1.0, 0.0]])
problem = SdpProblem(objective=[np.eye(2)], constraints=[A[None]], b=[2.0])
sol = solve_sdp(problem)
obj = float(np.sum(np.eye(2) * sol.X[0]))
print("coupling instance: status=%s objective=%.8f (expected 2)"
      % (sol.status.value, obj))
print("  X =\n%s" % np.array2string(sol.X[0], precision=5))

# ---------------------------------------------------------------------------
# 2. Planted optimum: build X*, Z* on complementary eigenspaces, choose b
#    and C so they are optimal, then check the solver recovers the value.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(3)
d, r, m = 8, 2, 12
basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
eig_x = np.zeros(d)
eig_z = np.zeros(d)
eig_x[:r] = rng.uniform(0.5, 2.0, r)
eig_z[r:] = rng.uniform(0.5, 2.0, d - r)
X_star = basis @ np.diag(eig_x) @ basis.T
Z_star = basis @ np.diag(eig_z) @ basis.T
raw = rng.standard_normal((m, d, d))
A_stack = (raw + raw.transpose(0, 2, 1)) / 2.0   # one (m, d, d) stack per block
b = np.einsum("kij,ij->k", A_stack, X_star)
y_star = rng.standard_normal(m)
C = Z_star + np.tensordot(y_star, A_stack, axes=1)
target = float(np.sum(C * X_star))

planted = SdpProblem(objective=[C], constraints=[A_stack], b=b)
sol = solve_sdp(planted, tol=1e-9)
recovered = float(np.sum(C * sol.X[0]))
print("\nplanted instance (block 8, rank 2, 12 constraints):")
print("  status=%s iterations=%d" % (sol.status.value, sol.iterations))
print("  duality gap %.2e, residuals %.2e / %.2e"
      % (sol.gap, sol.primal_residual, sol.dual_residual))
print("  objective %.10f vs planted %.10f (error %.2e)"
      % (recovered, target, abs(recovered - target)))

# ---------------------------------------------------------------------------
# 3. Status detection
# ---------------------------------------------------------------------------
impossible = SdpProblem(objective=[np.eye(3)], constraints=[np.eye(3)[None]],
                        b=[-1.0])
print("\ntrace(X) = -1 over PSD X: status=%s"
      % solve_sdp(impossible).status.value)

E00 = np.zeros((2, 2))
E00[0, 0] = 1.0
unbounded = SdpProblem(objective=[-np.eye(2)], constraints=[E00[None]], b=[1.0])
print("unbounded objective: status=%s" % solve_sdp(unbounded).status.value)
assert solve_sdp(unbounded).status is SdpStatus.DUAL_INFEASIBLE
