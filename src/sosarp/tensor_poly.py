"""Symmetric derivative tensors, Taylor values and monomial enumeration.

An order-j symmetric tensor is one dense read-only ``(n,) * j`` array with
every permutation of each given index filled in at construction, so
symmetry cannot be violated afterwards and contracting with a step s is a
chain of matrix-vector products.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Index = Tuple[int, ...]
Exponents = Tuple[int, ...]

_SYMMETRY_TOL = 1e-12  # asymmetry, relative to max(1, max |H|), that min_eigenvalue accepts


def _counts(key: Sequence[int], dim: int) -> Exponents:
    alpha = [0] * dim
    for i in key:
        alpha[i] += 1
    return tuple(alpha)


@dataclass(frozen=True, eq=False)
class SymmetricTensor:
    """Symmetric order-j tensor over R^n, held as one dense array.

    ``entries`` maps an index tuple to the common value of all its
    permutations; missing keys are zero.  Every permutation is written into
    ``array``, a read-only ``(dim,) * order`` ndarray, at construction.
    """

    order: int
    dim: int
    entries: InitVar[Optional[Mapping[Index, float]]] = None
    array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, entries: Optional[Mapping[Index, float]]) -> None:
        if self.order < 1:
            raise ValueError("tensor order must be >= 1")
        if self.dim < 1:
            raise ValueError("tensor dimension must be >= 1")
        normalized: Dict[Index, float] = {}
        for key, value in (entries or {}).items():
            key = tuple(int(i) for i in key)
            if len(key) != self.order:
                raise ValueError(
                    f"index {key} has length {len(key)}, expected order {self.order}"
                )
            if any(i < 0 or i >= self.dim for i in key):
                raise ValueError(f"index {key} out of range for dimension {self.dim}")
            skey = tuple(sorted(key))
            if skey in normalized and normalized[skey] != float(value):
                raise ValueError(f"conflicting values for symmetric index {skey}")
            normalized[skey] = float(value)
        array = np.zeros((self.dim,) * self.order)
        for key, value in normalized.items():
            for perm in set(permutations(key)):
                array[perm] = value
        array.setflags(write=False)
        object.__setattr__(self, "array", array)

    def get(self, key: Sequence[int]) -> float:
        """Value at an index tuple, in any ordering."""
        return float(self.array[tuple(key)])

    def to_dense(self) -> np.ndarray:
        """Writable copy of the dense array."""
        return self.array.copy()


@dataclass(frozen=True, eq=False)
class DerivativeBundle:
    """Objective value and derivative tensors of orders 1..p at a point."""

    x: np.ndarray
    value: float
    tensors: List[SymmetricTensor]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        n = self.x.shape[0]
        for j, tensor in enumerate(self.tensors, start=1):
            if tensor.order != j:
                raise ValueError(f"tensors[{j - 1}] has order {tensor.order}, expected {j}")
            if tensor.dim != n:
                raise ValueError("all derivative tensors must share the point dimension")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return len(self.tensors)

    def gradient(self) -> np.ndarray:
        return self.tensors[0].to_dense()

    def hessian(self) -> np.ndarray:
        return self.tensors[1].to_dense()


def tensor_apply(tensor: SymmetricTensor, s: Sequence[float], drop: int = 0):
    """Contract all but ``drop`` slots of ``tensor`` with the vector ``s``.

    drop=0 gives the scalar T[s]^j, drop=1 the vector T[s]^(j-1), drop=2 the
    matrix T[s]^(j-2).  Slots are contracted from the last axis inward.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (tensor.dim,):
        raise ValueError(f"vector has shape {s.shape}, tensor dimension is {tensor.dim}")
    if drop not in (0, 1, 2):
        raise ValueError("drop must be 0, 1 or 2")
    if drop > tensor.order:
        raise ValueError("cannot drop more slots than the tensor order")
    if drop == tensor.order:
        return tensor.to_dense()
    out = tensor.array
    for _ in range(tensor.order - drop):
        out = out @ s
    return float(out) if drop == 0 else out


def taylor_value(bundle: DerivativeBundle, s: Sequence[float]) -> float:
    """Taylor polynomial of order p at bundle.x, evaluated on the step s."""
    s = np.asarray(s, dtype=float)
    total = bundle.value
    for j, tensor in enumerate(bundle.tensors, start=1):
        total += tensor_apply(tensor, s, 0) / math.factorial(j)
    return total


def min_eigenvalue(H: np.ndarray) -> Tuple[float, np.ndarray]:
    """Leftmost eigenvalue and a unit eigenvector of a symmetric matrix."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(H))) if H.size else 0.0)
    if float(np.max(np.abs(H - H.T))) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(H)
    return float(eigenvalues[0]), eigenvectors[:, 0].copy()


def monomials_up_to(dim: int, degree: int) -> List[Exponents]:
    """All exponent vectors of total degree <= degree, in graded-lex order."""
    out: List[Exponents] = []
    for d in range(degree + 1):
        block = sorted(_counts(key, dim)
                       for key in combinations_with_replacement(range(dim), d))
        out.extend(block)
    return out
