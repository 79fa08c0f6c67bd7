"""Symmetric derivative tensors and multivariate polynomial algebra.

Order-j symmetric tensors are stored sparsely: one value per sorted index
tuple.  Multinomial multiplicities are applied at contraction time, so
symmetry is structural and cannot be violated by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Dict, List, Sequence, Tuple

import numpy as np

Index = Tuple[int, ...]
Exponents = Tuple[int, ...]


def _orderings(key: Sequence[int]) -> int:
    """Number of distinct orderings of the multiset ``key``."""
    key = tuple(key)
    count = math.factorial(len(key))
    for i in set(key):
        count //= math.factorial(key.count(i))
    return count


def _drop_one(key: Index, value: int) -> Index:
    out = list(key)
    out.remove(value)
    return tuple(out)


def _counts(key: Sequence[int], dim: int) -> Exponents:
    alpha = [0] * dim
    for i in key:
        alpha[i] += 1
    return tuple(alpha)


@dataclass(frozen=True, eq=False)
class SymmetricTensor:
    """Symmetric order-j tensor over R^n, keyed by sorted multi-index.

    ``entries`` maps a sorted tuple (i1 <= ... <= ij) of 0-based indices to
    the common value of all its permutations.  Missing keys are zero.
    """

    order: int
    dim: int
    entries: Dict[Index, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("tensor order must be >= 1")
        if self.dim < 1:
            raise ValueError("tensor dimension must be >= 1")
        normalized: Dict[Index, float] = {}
        for key, value in self.entries.items():
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
        object.__setattr__(self, "entries", normalized)

    def get(self, key: Sequence[int]) -> float:
        """Value at an index tuple; unsorted lookups are sorted first."""
        return self.entries.get(tuple(sorted(key)), 0.0)

    def to_dense(self) -> np.ndarray:
        """Dense ndarray with all symmetric copies filled in (small dims only)."""
        if self.order == 1:
            out = np.zeros(self.dim)
            for key, value in self.entries.items():
                out[key[0]] = value
            return out
        out = np.zeros((self.dim,) * self.order)
        for key, value in self.entries.items():
            for perm in set(permutations(key)):
                out[perm] = value
        return out

    @staticmethod
    def from_dense(arr: np.ndarray) -> "SymmetricTensor":
        arr = np.asarray(arr, dtype=float)
        order = arr.ndim
        dim = arr.shape[0] if order else 0
        if any(s != dim for s in arr.shape):
            raise ValueError("dense tensor must be hypercubic")
        entries: Dict[Index, float] = {}
        for key in combinations_with_replacement(range(dim), order):
            value = arr[key]
            for perm in permutations(key):
                if abs(arr[perm] - value) > 1e-12 * (1.0 + abs(value)):
                    raise ValueError(f"dense tensor is not symmetric at {key}")
            if value != 0.0:
                entries[key] = float(value)
        return SymmetricTensor(order, dim, entries)


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
    matrix T[s]^(j-2).  Multiplicities of the symmetric storage are applied
    exactly (multinomial counts over index orderings).
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (tensor.dim,):
        raise ValueError(f"vector has shape {s.shape}, tensor dimension is {tensor.dim}")
    if drop not in (0, 1, 2):
        raise ValueError("drop must be 0, 1 or 2")
    if drop > tensor.order:
        raise ValueError("cannot drop more slots than the tensor order")

    if drop == 0:
        total = 0.0
        for key, value in tensor.entries.items():
            term = value * _orderings(key)
            for i in key:
                term *= s[i]
            total += term
        return total

    if drop == 1:
        out = np.zeros(tensor.dim)
        for key, value in tensor.entries.items():
            for a in set(key):
                rest = _drop_one(key, a)
                term = value * _orderings(rest)
                for i in rest:
                    term *= s[i]
                out[a] += term
        return out

    out = np.zeros((tensor.dim, tensor.dim))
    for key, value in tensor.entries.items():
        for a in set(key):
            partial = _drop_one(key, a)
            for b in set(partial):
                rest = _drop_one(partial, b)
                term = value * _orderings(rest)
                for i in rest:
                    term *= s[i]
                out[a, b] += term
    return out


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
    if float(np.max(np.abs(H - H.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(H)
    return float(eigenvalues[0]), eigenvectors[:, 0].copy()


@dataclass(eq=True)
class Polynomial:
    """Multivariate polynomial as a map exponent-vector -> coefficient.

    Coefficients with absolute value <= drop_tol are not stored; the default
    of 0 keeps every nonzero coefficient exactly.
    """

    dim: int
    terms: Dict[Exponents, float] = field(default_factory=dict)
    drop_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("polynomial dimension must be >= 0")
        cleaned: Dict[Exponents, float] = {}
        for alpha, coeff in self.terms.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.dim:
                raise ValueError(f"exponent vector {alpha} has wrong length for dim {self.dim}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = cleaned.get(alpha, 0.0) + float(coeff)
            cleaned[alpha] = coeff
        self.terms = {a: c for a, c in cleaned.items() if abs(c) > self.drop_tol}

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(alpha) for alpha in self.terms)

    def __call__(self, point: Sequence[float]) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point has shape {point.shape}, polynomial dim is {self.dim}")
        total = 0.0
        for alpha, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, alpha):
                if e:
                    term *= x ** e
            total += term
        return total

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("polynomial dimensions differ")
        terms = dict(self.terms)
        for alpha, coeff in other.terms.items():
            terms[alpha] = terms.get(alpha, 0.0) + coeff
        return Polynomial(self.dim, terms, self.drop_tol)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other * (-1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.dim,
                              {a: c * float(other) for a, c in self.terms.items()},
                              self.drop_tol)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("polynomial dimensions differ")
        terms: Dict[Exponents, float] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                alpha = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                terms[alpha] = terms.get(alpha, 0.0) + c1 * c2
        return Polynomial(self.dim, terms, self.drop_tol)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial(self.dim, {(0,) * self.dim: 1.0})
        base = self
        for _ in range(exponent):
            result = result * base
        return result


def monomials_up_to(dim: int, degree: int) -> List[Exponents]:
    """All exponent vectors of total degree <= degree, in graded-lex order."""
    out: List[Exponents] = []
    for d in range(degree + 1):
        block = sorted(_counts(key, dim)
                       for key in combinations_with_replacement(range(dim), d))
        out.extend(block)
    return out
