"""Shared fixtures: planted SDP instances, random certified models, a
driver whose second certification fails and an SDP solve whose steps turn
non-finite."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import pytest

from sosarp import arp_driver, sdp_core
from sosarp.problems_io import bundled_problem_paths, load_problem
from sosarp.sdp_core import SdpProblem
from sosarp.sos_certify import (ConvexityCase, SosIndeterminate, SosModel,
                                min_sigma_sos)
from sosarp.tensor_poly import SymmetricTensor, min_eigenvalue

# start point (and delta where the default does not fit) of one driver run
# per bundled problem, shared by the acceptance gates and the driver tests
SUITE_SETTINGS = {
    "quad2": dict(x0=[1.5, -2.0]),
    "cubic2": dict(x0=[0.3, -0.4]),
    "quartic_sc2": dict(x0=[1.5, -2.0]),
    "cubic_quartic": dict(delta=0.5, x0=[0.05, -0.1]),
    "rosenbrock2": dict(x0=[-1.2, 1.0]),
    "sumexp2": dict(x0=[1.0, -0.5]),
}


class PlantedData(NamedTuple):
    """A planted SDP's input: objective blocks, constraint stacks, b and the
    optimal objective value."""

    objective: List[np.ndarray]
    constraints: List[np.ndarray]
    b: np.ndarray
    obj_star: float


def planted_sdp(rng: np.random.Generator, max_block: int = 20,
                max_m: int = 100, scalars: Sequence[int] = (),
                nblocks: Optional[int] = None) -> Tuple[SdpProblem, float]:
    """The SdpProblem of planted_data and its optimal objective value."""
    data = planted_data(rng, max_block, max_m, scalars, nblocks)
    return (SdpProblem(objective=data.objective, constraints=data.constraints,
                       b=data.b), data.obj_star)


def planted_data(rng: np.random.Generator, max_block: int = 20,
                 max_m: int = 100, scalars: Sequence[int] = (),
                 nblocks: Optional[int] = None) -> PlantedData:
    """Planted-optimum SDP with unique primal and dual solutions.

    X* and Z* are built on complementary eigenspaces of a shared random
    basis, so X*Z* = 0 with rank(X*) + rank(Z*) full (strict
    complementarity).  Ranks are kept small enough that
    sum r(r+1)/2 < m (the optimal primal face is a point) and m small
    enough that the dual solution is unique too; both margins are 2.

    nblocks PSD blocks (one or two at random if None) of size at least 3
    come first; then a 1x1 block is inserted at each entry of scalars, a
    position among the PSD blocks (0 before the first, nblocks after the
    last), planted at random with x* > 0 = z* or z* > 0 = x*.
    """
    nblocks = int(rng.integers(1, 3)) if nblocks is None else nblocks
    sizes = [int(rng.integers(3, max_block + 1)) for _ in range(nblocks)]
    ranks = [int(rng.integers(1, min(4, d - 1) + 1)) for d in sizes]
    for position in sorted(scalars, reverse=True):
        sizes.insert(position, 1)
        ranks.insert(position, int(rng.integers(0, 2)))
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
    return PlantedData(C, A, b, obj_star)


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


@pytest.fixture()
def second_certification_fails(monkeypatch) -> List[SosModel]:
    """The driver's second min_sigma_sos call raises SosIndeterminate; the
    returned list collects every model the driver asked to certify."""
    calls: List[SosModel] = []

    def certify(model, *args, **kwargs):
        calls.append(model)
        if len(calls) == 2:
            raise SosIndeterminate("forced failure of the second certification")
        return min_sigma_sos(model, *args, **kwargs)

    monkeypatch.setattr(arp_driver, "min_sigma_sos", certify)
    return calls


@pytest.fixture()
def poisoned_vector_solves(monkeypatch) -> dict:
    """While the returned dict's "value" is not None, every Schur solve (the
    only systems solved through _cho_solve; the constraint-Gram system is a
    product with its stored inverse) after the first "after" of them returns
    that value in its last entry, so the search direction, and with it the
    next iterate, is not finite.  "calls" counts the solves made while
    "value" is set."""
    poison = {"value": None, "after": 0, "calls": 0}
    solve = sdp_core._cho_solve

    def poisoned(L, rhs):
        x = solve(L, rhs)
        if poison["value"] is not None:
            poison["calls"] += 1
            if poison["calls"] > poison["after"]:
                x[-1] = poison["value"]
        return x

    monkeypatch.setattr(sdp_core, "_cho_solve", poisoned)
    return poison
