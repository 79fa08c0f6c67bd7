"""Symmetric tensors, Taylor values, and polynomial arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosarp.tensor_poly import (DerivativeBundle, Polynomial, SymmetricTensor,
                                min_eigenvalue, monomials_up_to, taylor_value,
                                tensor_apply)
from conftest import random_tensor


class TestSymmetricTensor:
    def test_entry_lookup_is_order_free(self):
        t = SymmetricTensor(3, 2, {(0, 0, 1): 2.0})
        assert t.get((0, 0, 1)) == t.get((1, 0, 0)) == t.get((0, 1, 0)) == 2.0
        assert t.get((1, 1, 1)) == 0.0

    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        t = random_tensor(rng, 3, 3)
        dense = t.to_dense()
        # dense array is symmetric under any index permutation
        assert np.allclose(dense, np.transpose(dense, (1, 0, 2)))
        assert np.allclose(dense, np.transpose(dense, (2, 1, 0)))
        back = SymmetricTensor.from_dense(dense)
        assert back.order == 3 and back.dim == 3
        assert np.allclose(back.to_dense(), dense)

    def test_full_contraction_matches_dense_einsum(self):
        rng = np.random.default_rng(1)
        t = random_tensor(rng, 4, 3)
        s = rng.standard_normal(3)
        expected = np.einsum("ijkl,i,j,k,l->", t.to_dense(), s, s, s, s)
        assert tensor_apply(t, s) == pytest.approx(expected, rel=1e-12)

    def test_partial_contraction_shapes_and_values(self):
        rng = np.random.default_rng(2)
        t = random_tensor(rng, 3, 2)
        s = rng.standard_normal(2)
        dense = t.to_dense()
        vec = tensor_apply(t, s, drop=1)
        mat = tensor_apply(t, s, drop=2)
        assert np.allclose(vec, np.einsum("ijk,j,k->i", dense, s, s))
        assert np.allclose(mat, np.einsum("ijk,k->ij", dense, s))
        assert np.allclose(mat, mat.T)


class TestTaylor:
    def _bundle(self):
        # f(x) = 1 + x0 + x0^2 + x0^2 x1 / ... encoded directly by tensors
        g = SymmetricTensor(1, 2, {(0,): 1.0})
        H = SymmetricTensor(2, 2, {(0, 0): 2.0})
        T3 = SymmetricTensor(3, 2, {(0, 0, 1): 2.0})
        return DerivativeBundle(np.zeros(2), 1.0, [g, H, T3])

    def test_taylor_value_includes_factorials(self):
        s = np.array([2.0, 3.0])
        # 1 + s0 + (1/2)*2*s0^2 + (1/6)*(6 perms... ) -> computed by hand
        expected = 1.0 + 2.0 + 4.0 + (1.0 / 6.0) * 72.0
        assert taylor_value(self._bundle(), s) == pytest.approx(expected)

    def test_bundle_accessors(self):
        bundle = self._bundle()
        assert bundle.n == 2 and bundle.p == 3
        assert np.allclose(bundle.gradient(), [1.0, 0.0])
        assert np.allclose(bundle.hessian(), [[2.0, 0.0], [0.0, 0.0]])


class TestEigen:
    def test_min_eigenvalue_matches_eigvalsh(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            raw = rng.standard_normal((4, 4))
            H = (raw + raw.T) / 2.0
            lam, vec = min_eigenvalue(H)
            assert lam == pytest.approx(np.linalg.eigvalsh(H)[0], rel=1e-12)
            assert np.linalg.norm(H @ vec - lam * vec) < 1e-10
            assert np.linalg.norm(vec) == pytest.approx(1.0)


class TestPolynomial:
    def test_product_and_derivative(self):
        p = Polynomial(1, {(1,): 1.0, (0,): 1.0})
        square = p * p
        assert square.terms == {(2,): 1.0, (1,): 2.0, (0,): 1.0}

    def test_monomial_count(self):
        # binomial(n + d, d) monomials up to degree d
        assert len(monomials_up_to(2, 4)) == math.comb(6, 4)
        assert len(monomials_up_to(3, 3)) == math.comb(6, 3)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_addition_is_pointwise(self, a, b):
        q1 = Polynomial(2, {(1, 0): a[0], (0, 2): a[1]})
        q2 = Polynomial(2, {(1, 0): b[0], (1, 1): b[1]})
        s = np.array([0.7, -1.3])
        assert (q1 + q2)(s) == pytest.approx(q1(s) + q2(s), rel=1e-12,
                                             abs=1e-12)
