"""Test problems with exact derivative oracles, file I/O, and an FD checker.

Problems come in two kinds: ExplicitPolynomial (term list, differentiated
symbolically) and Builtin (a registered set with closed-form tensors).  The
``.prob`` file format is JSON with the same field names as ProblemSpec; a
schema ships in docs/problem_format.md.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor_poly import DerivativeBundle, Exponents, SymmetricTensor

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


class _PolynomialFunction(ProblemFunction):
    """sum_alpha c_alpha x^alpha over a checked ProblemSpec's terms; exact
    zero coefficients are dropped."""

    def __init__(self, name: str, n: int, terms: Dict[Exponents, float]):
        self.name = name
        self.n = n
        self.terms = {a: c for a, c in terms.items() if abs(c) > 0.0}

    def value(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, polynomial dim is {self.n}")
        total = 0.0
        for alpha, coeff in self.terms.items():
            term = coeff
            for xi, e in zip(x, alpha):
                if e:
                    term *= xi ** e
            total += term
        return total

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        entries: Dict[Tuple[int, ...], float] = {}
        for key in itertools.combinations_with_replacement(range(self.n), order):
            m = [0] * self.n
            for idx in key:
                m[idx] += 1
            total = 0.0
            for expo, coeff in self.terms.items():
                if any(e < mi for e, mi in zip(expo, m)):
                    continue
                factor = coeff
                for e, mi in zip(expo, m):
                    factor *= math.factorial(e) / math.factorial(e - mi)
                mono = 1.0
                for xi, e, mi in zip(x, expo, m):
                    if e - mi:
                        mono *= xi ** (e - mi)
                total += factor * mono
            if total != 0.0:
                entries[key] = total
        return SymmetricTensor(order, self.n, entries)


class _QuarticSeparable(ProblemFunction):
    """f(x) = sum_i x_i^4 + (mu/2) x_i^2, strongly convex for mu > 0."""

    strongly_convex = True
    f_star = 0.0

    def __init__(self, name: str, n: int, mu: float):
        if mu <= 0:
            raise ProblemFormatError(f"problem '{name}': quartic_sc needs mu > 0")
        self.name = name
        self.n = n
        self.mu = mu

    def value(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(x ** 4) + 0.5 * self.mu * np.sum(x ** 2))

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        entries: Dict[Tuple[int, ...], float] = {}
        for i in range(self.n):
            key = (i,) * order
            if order == 1:
                val = 4.0 * x[i] ** 3 + self.mu * x[i]
            elif order == 2:
                val = 12.0 * x[i] ** 2 + self.mu
            elif order == 3:
                val = 24.0 * x[i]
            elif order == 4:
                val = 24.0
            else:
                val = 0.0
            if val != 0.0:
                entries[key] = val
        return SymmetricTensor(order, self.n, entries)


class _CubicQuartic(ProblemFunction):
    """f(u, v) = u^3 - 3 u v^2 + (u^2 + v^2)^2.

    Monkey saddle plus a bowl: indefinite Hessian near the origin, three
    symmetric minima at radius 3/4 with value -27/256.
    """

    f_star = -27.0 / 256.0

    def __init__(self, name: str):
        self.name = name
        self.n = 2

    def value(self, x: Sequence[float]) -> float:
        u, v = float(x[0]), float(x[1])
        return u ** 3 - 3.0 * u * v ** 2 + (u * u + v * v) ** 2

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        u, v = float(x[0]), float(x[1])
        r2 = u * u + v * v
        if order == 1:
            entries = {(0,): 3 * u * u - 3 * v * v + 4 * r2 * u,
                       (1,): -6 * u * v + 4 * r2 * v}
        elif order == 2:
            entries = {(0, 0): 6 * u + 4 * r2 + 8 * u * u,
                       (0, 1): -6 * v + 8 * u * v,
                       (1, 1): -6 * u + 4 * r2 + 8 * v * v}
        elif order == 3:
            entries = {(0, 0, 0): 6 + 24 * u,
                       (0, 0, 1): 8 * v,
                       (0, 1, 1): -6 + 8 * u,
                       (1, 1, 1): 24 * v}
        elif order == 4:
            entries = {(0, 0, 0, 0): 24.0, (0, 0, 1, 1): 8.0, (1, 1, 1, 1): 24.0}
        else:
            entries = {}
        return SymmetricTensor(order, 2,
                               {k: float(val) for k, val in entries.items() if val})


class _Rosenbrock(ProblemFunction):
    """f(x) = sum_i b (x_{i+1} - x_i^2)^2 + (1 - x_i)^2, minimum 0 at all-ones."""

    f_star = 0.0

    def __init__(self, name: str, n: int, b: float):
        if n < 2:
            raise ProblemFormatError(f"problem '{name}': rosenbrock needs n >= 2")
        if b <= 0:
            raise ProblemFormatError(f"problem '{name}': rosenbrock needs b > 0")
        self.name = name
        self.n = n
        self.b = b

    def value(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(self.b * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))

    def _tensor(self, x: np.ndarray, order: int) -> SymmetricTensor:
        b = self.b
        entries: Dict[Tuple[int, ...], float] = {}

        def add(key: Tuple[int, ...], val: float) -> None:
            if val != 0.0:
                key = tuple(sorted(key))
                entries[key] = entries.get(key, 0.0) + val

        for i in range(self.n - 1):
            gap = x[i + 1] - x[i] ** 2
            if order == 1:
                add((i,), -4 * b * gap * x[i] - 2 * (1 - x[i]))
                add((i + 1,), 2 * b * gap)
            elif order == 2:
                add((i, i), 12 * b * x[i] ** 2 - 4 * b * x[i + 1] + 2)
                add((i, i + 1), -4 * b * x[i])
                add((i + 1, i + 1), 2 * b)
            elif order == 3:
                add((i, i, i), 24 * b * x[i])
                add((i, i, i + 1), -4 * b)
            elif order == 4:
                add((i, i, i, i), 24 * b)
        return SymmetricTensor(order, self.n, dict(entries))


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
        terms = self._exps(x)
        entries: Dict[Tuple[int, ...], float] = {}
        for key in itertools.combinations_with_replacement(range(self.n), order):
            prod = terms.copy()
            for idx in key:
                prod = prod * self.A[:, idx]
            val = float(np.sum(prod))
            if val != 0.0:
                entries[key] = val
        return SymmetricTensor(order, self.n, entries)


def _make_quartic_sc(spec: ProblemSpec) -> ProblemFunction:
    mu = float(spec.params.get("mu", 1.0))
    return _QuarticSeparable(spec.name, spec.n, mu)


def _make_cubic_quartic(spec: ProblemSpec) -> ProblemFunction:
    if spec.n != 2:
        raise ProblemFormatError(f"problem '{spec.name}': cubic_quartic is 2-dimensional")
    return _CubicQuartic(spec.name)


def _make_rosenbrock(spec: ProblemSpec) -> ProblemFunction:
    b = float(spec.params.get("b", 10.0))
    return _Rosenbrock(spec.name, spec.n, b)


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
