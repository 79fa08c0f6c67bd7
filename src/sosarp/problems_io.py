"""Test problems with exact derivative oracles, file I/O, and an FD checker.

Problems come in two kinds: ExplicitPolynomial (term list, differentiated
symbolically) and Builtin (a registered set: the polynomial builtins expand
to term lists, sum_exponentials has closed-form tensors).  The
``.prob`` file format is JSON with the same field names as ProblemSpec; a
schema ships in docs/problem_format.md.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor_poly import DerivativeBundle, Exponents, Index, SymmetricTensor, _counts

DEGREE_CAP = 8
MAX_DERIVATIVE_ORDER = 8

# check_derivatives' central-difference steps and passing relative errors
_FD_STEP_LOW = 1e-5  # orders <= 2: about eps^(1/3), where truncation and rounding balance
_FD_STEP_HIGH = 1e-4  # orders >= 3: a longer step damps rounding in the differenced tensors
_FD_TOL_LOW = 1e-5  # orders <= 3: well above the O(h^2) truncation of a central difference
_FD_TOL_HIGH = 1e-3  # orders >= 4: their differenced tensors carry more rounding

KIND_POLYNOMIAL = "ExplicitPolynomial"
KIND_BUILTIN = "Builtin"


class ProblemFormatError(ValueError):
    """A problem file or spec is malformed; the message names the context."""


class UnknownBuiltinError(ProblemFormatError):
    """The builtin identifier is not in the registered set."""


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Declarative problem description; build_function turns it into an evaluator."""

    name: str
    n: int
    kind: str
    degree: Optional[int] = None
    terms: Optional[Dict[Exponents, float]] = None
    builtin: Optional[str] = None
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ProblemFormatError(f"problem '{self.name}': dimension must be >= 1")
        if self.kind == KIND_POLYNOMIAL:
            if self.terms is None or self.degree is None:
                raise ProblemFormatError(
                    f"problem '{self.name}': {KIND_POLYNOMIAL} needs degree and terms")
            if not 0 <= self.degree <= DEGREE_CAP:
                raise ProblemFormatError(
                    f"problem '{self.name}': degree {self.degree} exceeds cap {DEGREE_CAP}")
            coerced: Dict[Exponents, float] = {}
            for k, (expo, coeff) in enumerate(self.terms.items()):
                expo = tuple(expo)
                if len(expo) != self.n:
                    raise ProblemFormatError(
                        f"problem '{self.name}': term {k} exponent vector {list(expo)} "
                        f"has length {len(expo)}, expected n={self.n}")
                if any(e < 0 or int(e) != e for e in expo):
                    raise ProblemFormatError(
                        f"problem '{self.name}': term {k} has invalid exponents {list(expo)}")
                if sum(expo) > self.degree:
                    raise ProblemFormatError(
                        f"problem '{self.name}': term {k} degree {sum(expo)} exceeds "
                        f"declared degree {self.degree}")
                coerced[tuple(int(e) for e in expo)] = float(coeff)
            object.__setattr__(self, "terms", coerced)
        elif self.kind == KIND_BUILTIN:
            if not self.builtin:
                raise ProblemFormatError(
                    f"problem '{self.name}': {KIND_BUILTIN} needs a builtin identifier")
            if self.builtin not in BUILTIN_REGISTRY:
                raise UnknownBuiltinError(
                    f"problem '{self.name}': unknown builtin '{self.builtin}' "
                    f"(registered: {', '.join(sorted(BUILTIN_REGISTRY))})")
        else:
            raise ProblemFormatError(
                f"problem '{self.name}': kind must be {KIND_POLYNOMIAL} or {KIND_BUILTIN}")


class ProblemFunction:
    """Evaluator with exact derivatives to MAX_DERIVATIVE_ORDER.

    strongly_convex marks problems safe for the convex-rate experiment;
    f_star records the known optimal value when there is one.
    """

    name: str
    n: int
    strongly_convex: bool = False
    f_star: Optional[float] = None
    max_order: int = MAX_DERIVATIVE_ORDER

    def value(self, x: Sequence[float]) -> float:
        raise NotImplementedError

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        raise NotImplementedError

    def derivatives(self, x: Sequence[float], p: int) -> DerivativeBundle:
        if p < 1:
            raise ValueError("derivative order must be >= 1")
        if p > self.max_order:
            raise ValueError(
                f"problem '{self.name}' supports derivatives up to order "
                f"{self.max_order}, requested {p}")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        tensors = [self._tensor(x, j) for j in range(1, p + 1)]
        return DerivativeBundle(x=x, value=self.value(x), tensors=tensors)


@functools.lru_cache(maxsize=None)
def _order_keys(n: int, order: int) -> Tuple[Tuple[Index, ...], np.ndarray]:
    """The sorted index tuples of an order-j tensor over R^n, in
    combinations_with_replacement order, as tuples and as a (K, j) array."""
    keys = tuple(itertools.combinations_with_replacement(range(n), order))
    index = np.array(keys, dtype=int).reshape(len(keys), order)
    index.setflags(write=False)
    return keys, index


def _symmetric(order: int, n: int, values: np.ndarray) -> SymmetricTensor:
    """The tensor whose entry at the k-th sorted key is values[k]."""
    keys, _ = _order_keys(n, order)
    return SymmetricTensor(order, n, {key: val for key, val in
                                      zip(keys, values.tolist()) if val != 0.0})


class _PolynomialFunction(ProblemFunction):
    """sum_alpha c_alpha x^alpha; exact zero coefficients are dropped.

    Order j's entry at a sorted key holding m_i copies of i is the sum of
    c_alpha prod_i alpha_i!/(alpha_i - m_i)! x^(alpha - m) over alpha >= m.
    Its table, built on first use, holds these factors and shifted powers for
    every key and term; where alpha < m both are 0, so the term adds an exact
    0 even where x^alpha overflows.
    """

    def __init__(self, name: str, n: int, terms: Dict[Exponents, float],
                 strongly_convex: bool = False, f_star: Optional[float] = None):
        self.name = name
        self.n = n
        self.strongly_convex = strongly_convex
        self.f_star = f_star
        kept = {alpha: c for alpha, c in terms.items() if abs(c) > 0.0}
        self._powers = np.array(list(kept), dtype=int).reshape(len(kept), n)
        self._coeffs = np.array(list(kept.values()), dtype=float)
        self._tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def value(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, polynomial dim is {self.n}")
        return float(self._coeffs @ np.prod(x ** self._powers, axis=1))

    def _table(self, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """(K, T, n) shifted powers and (K, T) factors of one order."""
        if order not in self._tables:
            keys, _ = _order_keys(self.n, order)
            counts = [_counts(key, self.n) for key in keys]
            terms = list(zip(self._powers.tolist(), self._coeffs.tolist()))
            factors = np.array([[c * math.prod(map(math.perm, alpha, m))
                                 for alpha, c in terms] for m in counts])
            shifted = self._powers[None, :, :] - np.array(counts)[:, None, :]
            shifted[(shifted < 0).any(axis=2)] = 0
            self._tables[order] = shifted, factors
        return self._tables[order]

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        shifted, factors = self._table(order)
        values = np.sum(factors * np.prod(x ** shifted, axis=2), axis=1)
        return _symmetric(order, self.n, values)


class _SumExponentials(ProblemFunction):
    """f(x) = sum_m w_m exp(a_m . x + c_m); every derivative in closed form."""

    def __init__(self, name: str, n: int, weights: Sequence[float],
                 exponents: Sequence[Sequence[float]], offsets: Sequence[float]):
        self.name = name
        self.n = n
        self.w = np.asarray(weights, dtype=float)
        self.A = np.asarray(exponents, dtype=float)
        self.c = np.asarray(offsets, dtype=float)
        if self.A.ndim != 2 or self.A.shape != (self.w.shape[0], n):
            raise ProblemFormatError(
                f"problem '{name}': exponents must be an (m, n) matrix matching weights")
        if self.c.shape != self.w.shape:
            raise ProblemFormatError(
                f"problem '{name}': offsets must match weights in length")

    def _exps(self, x: np.ndarray) -> np.ndarray:
        return self.w * np.exp(self.A @ x + self.c)

    def value(self, x: Sequence[float]) -> float:
        return float(np.sum(self._exps(np.asarray(x, dtype=float))))

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        _, index = _order_keys(self.n, order)
        return _symmetric(order, self.n,
                          self._exps(x) @ np.prod(self.A[:, index], axis=2))


def _make_quartic_sc(spec: ProblemSpec) -> ProblemFunction:
    """f(x) = sum_i x_i^4 + (mu/2) x_i^2, strongly convex for mu > 0."""
    mu = float(spec.params.get("mu", 1.0))
    if mu <= 0:
        raise ProblemFormatError(f"problem '{spec.name}': quartic_sc needs mu > 0")
    terms = {_counts((i,) * k, spec.n): c for i in range(spec.n)
             for k, c in ((4, 1.0), (2, 0.5 * mu))}
    return _PolynomialFunction(spec.name, spec.n, terms,
                               strongly_convex=True, f_star=0.0)


def _make_cubic_quartic(spec: ProblemSpec) -> ProblemFunction:
    """f(u, v) = u^3 - 3 u v^2 + (u^2 + v^2)^2: a monkey saddle plus a bowl,
    indefinite near the origin, with three minima of value -27/256 at radius 3/4."""
    if spec.n != 2:
        raise ProblemFormatError(f"problem '{spec.name}': cubic_quartic is 2-dimensional")
    terms = {(3, 0): 1.0, (1, 2): -3.0, (4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}
    return _PolynomialFunction(spec.name, 2, terms, f_star=-27.0 / 256.0)


def _make_rosenbrock(spec: ProblemSpec) -> ProblemFunction:
    """f(x) = sum_i b (x_{i+1} - x_i^2)^2 + (1 - x_i)^2, minimum 0 at all-ones."""
    b = float(spec.params.get("b", 10.0))
    if spec.n < 2:
        raise ProblemFormatError(f"problem '{spec.name}': rosenbrock needs n >= 2")
    if b <= 0:
        raise ProblemFormatError(f"problem '{spec.name}': rosenbrock needs b > 0")
    # Each summand expanded, with the constants and the x_i^2 that neighbouring
    # summands share added up.  Near the minimum the value's rounding is then
    # about 1e-15 b absolute, not relative to f as in the factored form.
    terms: Dict[Exponents, float] = {}
    for i in range(spec.n - 1):
        for key, c in (((i,) * 4, b), ((i, i, i + 1), -2.0 * b), ((i + 1, i + 1), b),
                       ((i, i), 1.0), ((i,), -2.0), ((), 1.0)):
            alpha = _counts(key, spec.n)
            terms[alpha] = terms.get(alpha, 0.0) + c
    return _PolynomialFunction(spec.name, spec.n, terms, f_star=0.0)


def _make_sum_exponentials(spec: ProblemSpec) -> ProblemFunction:
    try:
        weights = spec.params["weights"]
        exponents = spec.params["exponents"]
    except KeyError as missing:
        raise ProblemFormatError(
            f"problem '{spec.name}': sum_exponentials needs params "
            f"'weights' and 'exponents'") from missing
    offsets = spec.params.get("offsets", [0.0] * len(weights))
    return _SumExponentials(spec.name, spec.n, weights, exponents, offsets)


BUILTIN_REGISTRY = {
    "quartic_sc": _make_quartic_sc,
    "cubic_quartic": _make_cubic_quartic,
    "rosenbrock": _make_rosenbrock,
    "sum_exponentials": _make_sum_exponentials,
}


def build_function(spec: ProblemSpec) -> ProblemFunction:
    if spec.kind == KIND_POLYNOMIAL:
        return _PolynomialFunction(spec.name, spec.n, spec.terms)
    return BUILTIN_REGISTRY[spec.builtin](spec)


def derivatives(spec: ProblemSpec, x: Sequence[float], p: int) -> DerivativeBundle:
    return build_function(spec).derivatives(x, p)


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ProblemFormatError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ProblemFormatError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")
    try:
        name = str(raw["name"])
        n = int(raw["n"])
        kind = str(raw["kind"])
    except KeyError as missing:
        raise ProblemFormatError(f"{path}: missing required field {missing}") from missing
    if kind == KIND_POLYNOMIAL:
        try:
            degree = int(raw["degree"])
            raw_terms = raw["terms"]
        except KeyError as missing:
            raise ProblemFormatError(
                f"{path}: {KIND_POLYNOMIAL} requires field {missing}") from missing
        terms: Dict[Exponents, float] = {}
        for k, item in enumerate(raw_terms):
            try:
                expo, coeff = item
                expo = tuple(int(e) for e in expo)
                coeff = float(coeff)
            except (TypeError, ValueError) as err:
                raise ProblemFormatError(
                    f"{path}: term {k} must be [[e1,...,en], coefficient]: {err}") from err
            if expo in terms:
                raise ProblemFormatError(f"{path}: term {k} repeats exponents {list(expo)}")
            terms[expo] = coeff
        return ProblemSpec(name=name, n=n, kind=kind, degree=degree, terms=terms)
    if kind == KIND_BUILTIN:
        try:
            builtin = str(raw["builtin"])
        except KeyError as missing:
            raise ProblemFormatError(
                f"{path}: {KIND_BUILTIN} requires field {missing}") from missing
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ProblemFormatError(f"{path}: params must be an object")
        return ProblemSpec(name=name, n=n, kind=kind, builtin=builtin, params=params)
    raise ProblemFormatError(
        f"{path}: kind '{kind}' must be {KIND_POLYNOMIAL} or {KIND_BUILTIN}")


def save_problem(spec: ProblemSpec, path: str) -> None:
    raw: Dict[str, object] = {"name": spec.name, "n": spec.n, "kind": spec.kind}
    if spec.kind == KIND_POLYNOMIAL:
        raw["degree"] = spec.degree
        raw["terms"] = [[list(expo), coeff] for expo, coeff in spec.terms.items()]
    else:
        raw["builtin"] = spec.builtin
        if spec.params:
            raw["params"] = spec.params
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=2)
        handle.write("\n")


def load_point(path: str, n: int) -> np.ndarray:
    """Point file: a flat whitespace- or comma-separated list of n reals."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ProblemFormatError(f"{path}: {err}") from err
    tokens = text.replace(",", " ").split()
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as err:
        raise ProblemFormatError(f"{path}: point file must hold reals: {err}") from err
    if len(values) != n:
        raise ProblemFormatError(
            f"{path}: point file holds {len(values)} values, expected {n}")
    return np.asarray(values)


@dataclass(frozen=True, eq=False)
class OrderCheck:
    order: int
    max_rel_error: float
    threshold: float
    ok: bool


@dataclass(frozen=True, eq=False)
class DerivativeCheckReport:
    orders: List[OrderCheck]
    ok: bool


def check_derivatives(spec: ProblemSpec, x: Sequence[float],
                      p: int) -> DerivativeCheckReport:
    """Each order-j tensor against central differences of the exact order-(j-1).

    Relative errors are scaled by (1 + largest entry of the exact tensor);
    thresholds: _FD_TOL_LOW for orders <= 3, _FD_TOL_HIGH above.
    """
    func = build_function(spec)
    x = np.asarray(x, dtype=float)
    exact = func.derivatives(x, p)
    checks: List[OrderCheck] = []
    for j in range(1, p + 1):
        h = _FD_STEP_LOW if j <= 2 else _FD_STEP_HIGH
        threshold = _FD_TOL_LOW if j <= 3 else _FD_TOL_HIGH
        tensor = exact.tensors[j - 1]
        scale = 1.0 + float(np.max(np.abs(tensor.array)))
        worst = 0.0
        for key in itertools.combinations_with_replacement(range(func.n), j):
            i = key[0]
            rest = key[1:]
            step = np.zeros(func.n)
            step[i] = h
            if j == 1:
                fd = (func.value(x + step) - func.value(x - step)) / (2 * h)
            else:
                upper = func.derivatives(x + step, j - 1).tensors[j - 2]
                lower = func.derivatives(x - step, j - 1).tensors[j - 2]
                fd = (upper.get(rest) - lower.get(rest)) / (2 * h)
            worst = max(worst, abs(fd - tensor.get(key)) / scale)
        checks.append(OrderCheck(order=j, max_rel_error=worst,
                                 threshold=threshold, ok=worst <= threshold))
    return DerivativeCheckReport(orders=checks, ok=all(c.ok for c in checks))


def bundled_problem_paths() -> Dict[str, str]:
    """Name -> path for the .prob files shipped with the package."""
    from importlib.resources import files
    root = files("sosarp") / "bundled"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".prob"):
            out[entry.name[:-5]] = str(entry)
    return out
