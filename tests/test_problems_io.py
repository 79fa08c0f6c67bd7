"""Problem files, builtin objectives, exact derivatives, point files."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosarp.problems_io import (BUILTIN_REGISTRY, MAX_DERIVATIVE_ORDER,
                                ProblemFormatError, ProblemSpec,
                                UnknownBuiltinError, build_function,
                                bundled_problem_paths, check_derivatives,
                                derivatives, load_point, load_problem,
                                save_problem)
from sosarp.tensor_poly import SymmetricTensor

EXPECTED_BUNDLED = {"quad2", "cubic2", "quartic_sc2", "cubic_quartic",
                    "rosenbrock2", "sumexp2"}


class TestBundledCorpus:
    def test_all_bundled_files_present(self):
        assert set(bundled_problem_paths()) == EXPECTED_BUNDLED

    def test_bundled_files_load(self, bundled):
        for name, spec in bundled.items():
            assert spec.name
            assert spec.n >= 1
            build_function(spec)

    def test_finite_difference_audit_clean(self, bundled):
        rng = np.random.default_rng(0)
        for name, spec in bundled.items():
            x = rng.standard_normal(spec.n) * 0.4
            report = check_derivatives(spec, x, 4)
            assert report.ok, f"{name}: {report.orders}"


class TestBuiltinValues:
    def test_cubic_quartic_critical_value(self, bundled):
        func = build_function(bundled["cubic_quartic"])
        assert func.value([-0.75, 0.0]) == -27.0 / 256.0
        assert func.f_star == -27.0 / 256.0
        assert not func.strongly_convex

    def test_strongly_convex_quartic(self, bundled):
        func = build_function(bundled["quartic_sc2"])
        assert func.strongly_convex
        assert func.f_star == 0.0
        assert func.value([0.0, 0.0]) == 0.0
        assert func.value([1.0, -1.0]) == pytest.approx(3.0)

    def test_banana_valley(self, bundled):
        func = build_function(bundled["rosenbrock2"])
        assert func.f_star == 0.0
        assert not func.strongly_convex
        assert func.value([1.0, 1.0]) == 0.0
        assert func.value([-1.2, 1.0]) == pytest.approx(
            10.0 * (1.0 - 1.44) ** 2 + 2.2 ** 2)

    def test_exponential_sum_minimum(self, bundled):
        func = build_function(bundled["sumexp2"])
        assert func.value([0.0, 0.0]) == pytest.approx(3.0)
        grad = func.derivatives(np.zeros(2), 1).gradient()
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_registry_contents(self):
        assert set(BUILTIN_REGISTRY) == {"quartic_sc", "cubic_quartic",
                                         "rosenbrock", "sum_exponentials"}


def quartic_sc_reference(x, mu):
    """Value and order-1..4 entries of sum_i x_i^4 + (mu/2) x_i^2."""
    value = float(np.sum(x ** 4) + 0.5 * mu * np.sum(x ** 2))
    diagonals = [4 * x ** 3 + mu * x, 12 * x ** 2 + mu, 24 * x,
                 np.full(len(x), 24.0)]
    return value, [{(i,) * j: d[i] for i in range(len(x))}
                   for j, d in enumerate(diagonals, start=1)]


def cubic_quartic_reference(x):
    """Value and order-1..4 entries of u^3 - 3 u v^2 + (u^2 + v^2)^2."""
    u, v = x
    r2 = u * u + v * v
    value = u ** 3 - 3 * u * v ** 2 + r2 ** 2
    return value, [
        {(0,): 3 * u * u - 3 * v * v + 4 * r2 * u, (1,): -6 * u * v + 4 * r2 * v},
        {(0, 0): 6 * u + 4 * r2 + 8 * u * u, (0, 1): -6 * v + 8 * u * v,
         (1, 1): -6 * u + 4 * r2 + 8 * v * v},
        {(0, 0, 0): 6 + 24 * u, (0, 0, 1): 8 * v, (0, 1, 1): -6 + 8 * u,
         (1, 1, 1): 24 * v},
        {(0, 0, 0, 0): 24.0, (0, 0, 1, 1): 8.0, (1, 1, 1, 1): 24.0}]


def rosenbrock_reference(x, b):
    """Value and order-1..4 entries of sum_i b (x_{i+1} - x_i^2)^2 + (1 - x_i)^2,
    in the factored form."""
    value = float(np.sum(b * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    orders = [{} for _ in range(4)]

    def add(key, val):
        orders[len(key) - 1][key] = orders[len(key) - 1].get(key, 0.0) + val

    for i in range(len(x) - 1):
        gap = x[i + 1] - x[i] ** 2
        add((i,), -4 * b * gap * x[i] - 2 * (1 - x[i]))
        add((i + 1,), 2 * b * gap)
        add((i, i), 12 * b * x[i] ** 2 - 4 * b * x[i + 1] + 2)
        add((i, i + 1), -4 * b * x[i])
        add((i + 1, i + 1), 2 * b)
        add((i, i, i), 24 * b * x[i])
        add((i, i, i + 1), -4 * b)
        add((i, i, i, i), 24 * b)
    return value, orders


BUILTIN_REFERENCES = (
    [("quartic_sc", n, {"mu": mu}, lambda x, mu=mu: quartic_sc_reference(x, mu))
     for n in (1, 2, 3, 4) for mu in (0.25, 1.0)]
    + [("cubic_quartic", 2, {}, cubic_quartic_reference)]
    + [("rosenbrock", n, {"b": b}, lambda x, b=b: rosenbrock_reference(x, b))
       for n in (2, 3, 4, 5) for b in (1.0, 10.0, 100.0)])


class TestBuiltinOracles:
    """The polynomial builtins, expanded to term lists, against their
    closed forms at random points."""

    @pytest.mark.parametrize(
        "builtin, n, params, reference", BUILTIN_REFERENCES,
        ids=[f"{b}-n{n}-{'-'.join(f'{v:g}' for v in p.values())}"
             for b, n, p, _ in BUILTIN_REFERENCES])
    def test_value_and_tensors_match_closed_form(self, builtin, n, params,
                                                 reference):
        func = build_function(ProblemSpec(name="t", n=n, kind="Builtin",
                                          builtin=builtin, params=params))
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, n)
            bundle = func.derivatives(x, MAX_DERIVATIVE_ORDER)
            value, orders = reference(x)
            assert abs(bundle.value - value) <= 1e-13 * (1.0 + abs(value))
            for j, tensor in enumerate(bundle.tensors, start=1):
                if j > 4:
                    assert not tensor.array.any()
                    continue
                expected = SymmetricTensor(j, n, orders[j - 1]).array
                scale = 1.0 + np.max(np.abs(expected))
                assert np.max(np.abs(tensor.array - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("builtin, n, params, message", [
        ("quartic_sc", 2, {"mu": 0.0}, "quartic_sc needs mu > 0"),
        ("quartic_sc", 2, {"mu": -1.0}, "quartic_sc needs mu > 0"),
        ("rosenbrock", 2, {"b": 0.0}, "rosenbrock needs b > 0"),
        ("rosenbrock", 1, {}, "rosenbrock needs n >= 2"),
        ("cubic_quartic", 3, {}, "cubic_quartic is 2-dimensional"),
    ])
    def test_parameter_errors(self, builtin, n, params, message):
        spec = ProblemSpec(name="bad", n=n, kind="Builtin", builtin=builtin,
                           params=params)
        with pytest.raises(ProblemFormatError,
                           match=f"^problem 'bad': {message}$"):
            build_function(spec)


def nested_loop_tensor(terms, n, x, order):
    """Order-j entries of sum c_alpha x^alpha, term by term and key by key."""
    entries = {}
    for key in itertools.combinations_with_replacement(range(n), order):
        m = [key.count(i) for i in range(n)]
        total = 0.0
        for expo, coeff in terms.items():
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
    return SymmetricTensor(order, n, entries).array


class TestExplicitPolynomial:
    def test_polynomial_tensors_are_exact(self):
        # f = x^3: the third derivative is the constant 6
        spec = ProblemSpec(name="cube", n=1, kind="ExplicitPolynomial",
                           degree=3, terms={(3,): 1.0})
        bundle = derivatives(spec, [0.7], 3)
        assert bundle.value == pytest.approx(0.343)
        assert bundle.gradient()[0] == pytest.approx(3 * 0.49)
        assert bundle.hessian()[0, 0] == pytest.approx(6 * 0.7)
        assert bundle.tensors[2].get((0, 0, 0)) == pytest.approx(6.0)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_value_is_the_sum_of_terms(self, data):
        # magnitudes are 0 or at least 1e-3, so no product reaches the
        # subnormal range, where reassociating a product alone moves it
        # by more than any relative tolerance
        def magnitude(bound):
            return st.one_of(st.just(0.0), st.floats(-bound, bound).filter(
                lambda v: abs(v) >= 1e-3))

        n = data.draw(st.integers(1, 3))
        exponent = st.tuples(*[st.integers(0, 4)] * n).filter(
            lambda e: sum(e) <= 4)
        terms = data.draw(st.dictionaries(exponent, magnitude(10.0),
                                          max_size=6))
        x = np.array(data.draw(st.lists(magnitude(2.0), min_size=n,
                                        max_size=n)))
        spec = ProblemSpec(name="p", n=n, kind="ExplicitPolynomial",
                           degree=4, terms=terms)
        value = build_function(spec).value(x)
        parts = [c * np.prod(x ** np.array(e)) for e, c in terms.items()]
        assert abs(value - sum(parts)) <= 1e-12 * sum(abs(t) for t in parts)
        assert derivatives(spec, x, 1).value == value

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_tensors_match_the_nested_loop(self, data):
        n = data.draw(st.integers(1, 3))
        exponent = st.tuples(*[st.integers(0, 8)] * n).filter(
            lambda e: sum(e) <= 8)
        coeff = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
        terms = data.draw(st.dictionaries(exponent, coeff, max_size=8))
        x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                        max_size=n)))
        spec = ProblemSpec(name="p", n=n, kind="ExplicitPolynomial",
                           degree=8, terms=terms)
        bundle = derivatives(spec, x, MAX_DERIVATIVE_ORDER)
        for j, tensor in enumerate(bundle.tensors, start=1):
            expected = nested_loop_tensor(spec.terms, n, x, j)
            scale = 1.0 + sum(abs(c) * math.factorial(sum(e)) * 2.0 ** sum(e)
                              for e, c in spec.terms.items())
            assert np.max(np.abs(tensor.array - expected)) <= 1e-13 * scale

    def test_zero_polynomial_has_zero_tensors(self):
        spec = ProblemSpec(name="zero", n=2, kind="ExplicitPolynomial",
                           degree=3, terms={(1, 2): 0.0, (0, 0): 0.0})
        bundle = derivatives(spec, [0.5, -1.5], MAX_DERIVATIVE_ORDER)
        assert bundle.value == 0.0
        assert not any(tensor.array.any() for tensor in bundle.tensors)

    def test_round_trip_preserves_fields(self, tmp_path, bundled):
        import dataclasses
        for name, spec in bundled.items():
            path = tmp_path / f"{name}.prob"
            save_problem(spec, str(path))
            again = load_problem(str(path))
            for field in dataclasses.fields(spec):
                assert getattr(again, field.name) == getattr(spec, field.name)

    def test_degree_cap_enforced(self):
        with pytest.raises(ProblemFormatError, match="degree"):
            ProblemSpec(name="big", n=1, kind="ExplicitPolynomial",
                        degree=9, terms={(9,): 1.0})


class TestErrors:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "bad.prob"
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    def test_json_error_carries_location(self, tmp_path):
        path = self._write(tmp_path, "{broken")
        with pytest.raises(ProblemFormatError, match=r":1:\d+:"):
            load_problem(path)

    def test_missing_field_named(self, tmp_path):
        path = self._write(tmp_path, {"name": "x", "n": 1})
        with pytest.raises(ProblemFormatError, match="kind"):
            load_problem(path)

    def test_bad_term_shape_named(self, tmp_path):
        path = self._write(tmp_path, {
            "name": "x", "n": 2, "kind": "ExplicitPolynomial", "degree": 2,
            "terms": [[[1], 1.0]]})
        with pytest.raises(ProblemFormatError, match="term"):
            load_problem(path)

    def test_duplicate_exponents_rejected(self, tmp_path):
        path = self._write(tmp_path, {
            "name": "x", "n": 1, "kind": "ExplicitPolynomial", "degree": 2,
            "terms": [[[2], 1.0], [[2], 3.0]]})
        with pytest.raises(ProblemFormatError, match="repeats"):
            load_problem(path)

    def test_unknown_builtin_named(self):
        with pytest.raises(UnknownBuiltinError, match="nosuch"):
            build_function(ProblemSpec(name="x", n=2, kind="Builtin",
                                       degree=None, terms=None,
                                       builtin="nosuch", params={}))


class TestPointFiles:
    def test_whitespace_and_commas(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("1.5, -2.0\n0.25\n")
        assert np.allclose(load_point(str(path), 3), [1.5, -2.0, 0.25])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("1 2 3")
        with pytest.raises(ProblemFormatError, match="3"):
            load_point(str(path), 2)
