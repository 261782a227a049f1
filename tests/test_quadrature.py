import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from dgmg.quadrature import gauss_legendre, modified_newton_cotes
from references import integrate, tensorize


class TestGaussLegendre:
    def test_midpoint_rule_for_k0(self):
        r = gauss_legendre(0)
        assert r.nodes.tolist() == [0.5]
        assert r.weights.tolist() == [1.0]

    def test_k3_nodes_match_eigenvalue_oracle(self):
        r = gauss_legendre(3)
        x, w = npleg.leggauss(4)
        assert np.allclose(r.nodes, 0.5 * (x + 1.0), atol=1e-14)
        assert np.allclose(r.weights, 0.5 * w, atol=1e-14)
        # leftmost node of the degree-4 rule
        assert r.nodes[0] == pytest.approx(0.0694318442029737, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7])
    def test_exactness_through_degree_2k_plus_1(self, k):
        r = gauss_legendre(k)
        for m in range(2 * k + 2):
            exact = 1.0 / (m + 1)
            assert integrate(r, r.nodes**m) == pytest.approx(exact, abs=1e-13)

    def test_x7_integral_with_k3(self):
        r = gauss_legendre(3)
        assert abs(integrate(r, r.nodes**7) - 1.0 / 8.0) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_symmetry_about_midpoint(self, k):
        r = gauss_legendre(k)
        assert np.allclose(r.nodes + r.nodes[::-1], 1.0, atol=1e-14)
        assert np.allclose(r.weights, r.weights[::-1], atol=1e-14)
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(r.nodes > 0.0) and np.all(r.nodes < 1.0)
        assert np.all(np.diff(r.nodes) > 0.0)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            gauss_legendre(-1)


class TestModifiedNewtonCotes:
    def test_k3_nodes_and_weights_exact(self):
        r = modified_newton_cotes(3)
        assert r.nodes.tolist() == [1 / 8, 3 / 8, 5 / 8, 7 / 8]
        assert r.weights.tolist() == [
            1625 / 6000,
            1375 / 6000,
            1375 / 6000,
            1625 / 6000,
        ]

    def test_weights_sum_to_one(self):
        r = modified_newton_cotes(3)
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_cubic_integral_exact_rational(self):
        # sum w_i G_i^3 = 768000/3072000 = 1/4, reproduced in rationals
        from fractions import Fraction

        w = [Fraction(1625, 6000), Fraction(1375, 6000), Fraction(1375, 6000), Fraction(1625, 6000)]
        g = [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]
        total = sum(wi * gi**3 for wi, gi in zip(w, g))
        assert total == Fraction(768000, 3072000) == Fraction(1, 4)
        r = modified_newton_cotes(3)
        assert integrate(r, r.nodes**3) == pytest.approx(0.25, abs=1e-15)

    def test_k3_exact_through_degree_3_not_4(self):
        r = modified_newton_cotes(3)
        for m in range(4):
            assert integrate(r, r.nodes**m) == pytest.approx(1.0 / (m + 1), abs=1e-14)
        assert abs(integrate(r, r.nodes**4) - 0.2) > 1e-4

    @pytest.mark.parametrize("k", [0, 1, 2, 4, 5])
    def test_other_degrees_from_moment_system(self, k):
        r = modified_newton_cotes(k)
        n = k + 1
        assert np.allclose(r.nodes, (2 * np.arange(n) + 1) / (2 * n), atol=1e-15)
        for m in range(k + 1):
            assert integrate(r, r.nodes**m) == pytest.approx(1.0 / (m + 1), abs=1e-12)

    def test_derived_k3_weights_match_tabulated(self):
        # solving the moment system reproduces the tabulated rationals
        nodes = (2 * np.arange(4) + 1) / 8.0
        vander = np.vander(nodes, 4, increasing=True).T
        moments = 1.0 / (np.arange(4) + 1.0)
        w = np.linalg.solve(vander, moments)
        assert np.allclose(w, modified_newton_cotes(3).weights, atol=1e-13)


class TestTensorize:
    def test_midpoint_tensor(self):
        r2 = tensorize(gauss_legendre(0))
        assert r2.points.tolist() == [[0.5, 0.5]]
        assert r2.weights.tolist() == [1.0]

    def test_x3z3_over_unit_square(self):
        r2 = tensorize(modified_newton_cotes(3))
        val = float(np.sum(r2.weights * r2.points[:, 0] ** 3 * r2.points[:, 1] ** 3))
        assert val == pytest.approx(1.0 / 16.0, abs=1e-14)

    def test_weight_sum_and_count(self):
        r2 = tensorize(gauss_legendre(3))
        assert r2.weights.size == 16
        assert r2.weights.sum() == pytest.approx(1.0, abs=1e-13)
