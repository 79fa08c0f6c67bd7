"""Problem files, builtin objectives, exact derivatives, point files."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosarp.problems_io import (BUILTIN_REGISTRY, ProblemFormatError,
                                ProblemSpec, UnknownBuiltinError,
                                build_function, bundled_problem_paths,
                                check_derivatives, derivatives, load_point,
                                load_problem, save_problem)

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
