"""Symmetric tensors, Taylor values, and monomial enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosarp.tensor_poly import (DerivativeBundle, SymmetricTensor,
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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_fill_is_symmetric_and_euler(self, data):
        order = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        keys = st.lists(st.integers(0, n - 1), min_size=order, max_size=order)
        sparse = data.draw(st.dictionaries(keys.map(lambda k: tuple(sorted(k))),
                                           st.floats(-10, 10), max_size=6))
        # hand each key over in an arbitrary ordering
        given_keys = {key: data.draw(st.permutations(key)) for key in sparse}
        t = SymmetricTensor(order, n, {tuple(given_keys[k]): v
                                       for k, v in sparse.items()})
        dense = t.to_dense()
        for axes in itertools.permutations(range(order)):
            assert np.array_equal(np.transpose(dense, axes), dense)
        for idx in np.ndindex(dense.shape):
            assert dense[idx] == sparse.get(tuple(sorted(idx)), 0.0)
        for key, value in sparse.items():
            for perm in itertools.permutations(key):
                assert t.get(perm) == value
        s = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=n,
                                        max_size=n)))
        scale = 1.0 + float(np.sum(np.abs(dense)))
        scale *= (1.0 + float(np.max(np.abs(s)))) ** order
        assert abs(tensor_apply(t, s, 1) @ s - tensor_apply(t, s, 0)) <= \
            1e-12 * scale
        if order >= 2:
            assert np.allclose(tensor_apply(t, s, 2) @ s, tensor_apply(t, s, 1),
                               rtol=0.0, atol=1e-12 * scale)

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
    def test_monomial_count(self):
        # binomial(n + d, d) monomials up to degree d
        assert len(monomials_up_to(2, 4)) == math.comb(6, 4)
        assert len(monomials_up_to(3, 3)) == math.comb(6, 3)
