"""Shared fixtures: planted SDP instances and random certified models."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from sosarp.problems_io import bundled_problem_paths, load_problem
from sosarp.sdp_core import SdpProblem
from sosarp.sos_certify import ConvexityCase, SosModel
from sosarp.tensor_poly import SymmetricTensor, min_eigenvalue


def planted_sdp(rng: np.random.Generator, max_block: int = 20,
                max_m: int = 100) -> Tuple[SdpProblem, float]:
    """Planted-optimum SDP with unique primal and dual solutions.

    X* and Z* are built on complementary eigenspaces of a shared random
    basis, so X*Z* = 0 with rank(X*) + rank(Z*) full (strict
    complementarity).  Ranks are kept small enough that
    sum r(r+1)/2 < m (the optimal primal face is a point) and m small
    enough that the dual solution is unique too; both margins are 2.
    """
    nblocks = int(rng.integers(1, 3))
    sizes = [int(rng.integers(3, max_block + 1)) for _ in range(nblocks)]
    ranks = [int(rng.integers(1, min(4, d - 1) + 1)) for d in sizes]
    lo = sum(r * (r + 1) // 2 for r in ranks) + 2
    hi = sum(d * (d + 1) // 2 - (d - r) * (d - r + 1) // 2
             for d, r in zip(sizes, ranks)) - 2
    hi = min(max_m, hi)
    m = int(rng.integers(lo, hi + 1)) if hi > lo else lo

    Xs, Zs = [], []
    for d, r in zip(sizes, ranks):
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        lx = np.zeros(d)
        lz = np.zeros(d)
        lx[:r] = 10 ** rng.uniform(-0.5, 0.5, r)
        lz[r:] = 10 ** rng.uniform(-0.5, 0.5, d - r)
        Xs.append(basis @ np.diag(lx) @ basis.T)
        Zs.append(basis @ np.diag(lz) @ basis.T)

    stacks: List[List[np.ndarray]] = [[] for _ in sizes]
    for _ in range(m):
        for blocks, d in zip(stacks, sizes):
            raw = rng.standard_normal((d, d))
            blocks.append((raw + raw.T) / 2)
    A = [np.array(blocks) for blocks in stacks]
    b = sum(np.einsum("kij,ij->k", a, x) for a, x in zip(A, Xs))
    y_star = rng.standard_normal(m)
    C = [z + np.tensordot(y_star, a, axes=1) for z, a in zip(Zs, A)]
    obj_star = sum(np.sum(c * x) for c, x in zip(C, Xs))
    return SdpProblem(objective=C, constraints=A, b=b), obj_star


def random_tensor(rng: np.random.Generator, order: int, n: int,
                  magnitude: float = 1.0) -> SymmetricTensor:
    entries = {}
    peak = 0.0
    import itertools
    for key in itertools.combinations_with_replacement(range(n), order):
        value = float(rng.standard_normal())
        entries[key] = value
        peak = max(peak, abs(value))
    if peak == 0.0:
        peak = 1.0
    return SymmetricTensor(order, n,
                           {k: v / peak * magnitude for k, v in entries.items()})


def random_certified_model(rng: np.random.Generator, n: int, p: int,
                           delta: float = 0.5, magnitude: float = 1.0,
                           sigma: float = 0.0) -> SosModel:
    """Random model whose shifted Hessian has lambda_min exactly delta."""
    g = rng.standard_normal(n)
    raw = rng.standard_normal((n, n))
    H = (raw + raw.T) / 2.0
    lam, _ = min_eigenvalue(H)
    H = H + (delta - lam) * np.eye(n)
    higher = [random_tensor(rng, order, n, magnitude)
              for order in range(3, p + 1)]
    return SosModel(n=n, p=p, f0=float(rng.standard_normal()), g=g, H_bar=H,
                    higher=higher, delta=delta, sigma=sigma,
                    case_tag=ConvexityCase.STRONGLY_CONVEX)


@pytest.fixture(scope="session")
def bundled() -> dict:
    return {name: load_problem(path)
            for name, path in bundled_problem_paths().items()}
