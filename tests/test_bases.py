import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import ALPHA_BETA, de_casteljau, eval_mod_jacobi, eval_shifted_jacobi

from bernjac.bases import (
    BezierCurve,
    ConnectionMatrix,
    ModJacobiCoeffs,
    TransformParams,
    bernstein_gram,
    curve_from_json,
    curve_to_json,
)
from bernjac.jacobi_to_bernstein import c_theorem2

XS = np.linspace(0.0, 1.0, 17)


class TestTransformParams:
    def test_sigma_and_dim(self):
        p = TransformParams(6, 1, 2, 0.5, -0.5)
        assert p.sigma == 1.0
        assert p.dim == 4
        assert list(p.h_indices()) == [1, 2, 3, 4]
        assert list(p.i_indices()) == [3, 4, 5, 6]

    @pytest.mark.parametrize("n,k,l,a,b", [
        (-1, 0, 0, 0.0, 0.0),
        (2, -1, 0, 0.0, 0.0),
        (2, 1, 2, 0.0, 0.0),
        (3, 0, 0, -1.0, 0.0),
        (3, 0, 0, 0.0, -1.5),
        (5, 1, 1, math.nan, 0.0),
        (5, 1, 1, 0.0, math.inf),
        (True, 0, 0, 0.0, 0.0),
        (3, True, 0, 0.0, 0.0),
        (3, 0, 1.0, 0.0, 0.0),
        pytest.param(3, 0, 0, 10**400, 0.0, id="3-0-0-10**400-0.0"),
        pytest.param(3, 0, 0, np.True_, 0.0, id="3-0-0-np.True_-0.0"),
        pytest.param(3, 0, 0, 0.0, np.False_, id="3-0-0-0.0-np.False_"),
        pytest.param(3, 0, 0, "0.5", 0.0, id="3-0-0-str-0.0"),
        pytest.param(3, 0, 0, 0.0, None, id="3-0-0-0.0-None"),
    ])
    def test_invalid(self, n, k, l, a, b):
        with pytest.raises(ValueError):
            TransformParams(n, k, l, a, b)

    @pytest.mark.parametrize("w", [np.float32(0.5), np.float16(0.5), np.float64(0.5), 1, np.int64(1),
                                   Fraction(1, 2)], ids=repr)
    def test_weights_are_kept_as_python_floats(self, w):
        p = TransformParams(16, 1, 1, w, w)
        assert type(p.alpha) is float and type(p.beta) is float and p.alpha == p.beta == float(w)
        # a NumPy float32 weight would otherwise narrow the build to single precision
        q = TransformParams(16, 1, 1, float(w), float(w))
        assert p == q and c_theorem2(p).values.tobytes() == c_theorem2(q).values.tobytes()


class TestEvalBernstein:
    def test_partition_of_unity_pair(self):
        assert de_casteljau([1.0, 1.0], 0.7) == pytest.approx(1.0, abs=1e-15)

    def test_middle_basis_function(self):
        # B_1^2(0.5) = 2 * 0.5 * 0.5
        assert de_casteljau([0.0, 1.0, 0.0], 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_cubic_basis_value(self):
        # B_1^3(1/3) = 3 * (1/3) * (2/3)^2 = 4/9
        assert de_casteljau([0.0, 1.0, 0.0, 0.0], 1.0 / 3.0) == pytest.approx(4.0 / 9.0, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_partition_of_unity(self, n):
        for x in XS:
            assert abs(de_casteljau(np.ones(n + 1), x) - 1.0) <= 1e-14

    def test_vector_coefficients(self):
        np.testing.assert_allclose(de_casteljau([[0.0, 2.0], [1.0, 0.0]], 0.25), [0.25, 1.5], atol=1e-15)


class TestEvalShiftedJacobi:
    def test_degree_zero(self):
        for x in (0.0, 0.3, 1.0):
            assert eval_shifted_jacobi(0, 0.7, -0.2, x) == 1.0

    def test_degree_one_legendre(self):
        # expanding the series: 1 - 2(1-x) = 2x - 1
        for x in XS:
            assert eval_shifted_jacobi(1, 0.0, 0.0, x) == pytest.approx(2.0 * x - 1.0, abs=1e-15)

    def test_degree_one_zero_crossing(self):
        assert eval_shifted_jacobi(1, 0.0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_degree_one_general(self):
        # (alpha+1) - (alpha+beta+2)(1-x)
        for a, b, x in [(0.5, -0.5, 0.2), (3.7, 0.5, 0.9)]:
            expect = (a + 1.0) - (a + b + 2.0) * (1.0 - x)
            assert eval_shifted_jacobi(1, a, b, x) == pytest.approx(expect, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            eval_shifted_jacobi(2, -1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            eval_shifted_jacobi(-1, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("a,b", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0),
                                     pytest.param(10**400, 0.0, id="huge-0.0")])
    def test_non_finite_weights_rejected(self, a, b):
        with pytest.raises(ValueError):
            eval_shifted_jacobi(2, a, b, 0.5)


class TestEvalModJacobi:
    def test_lowest_index_is_weight_factor(self):
        for k, l in [(0, 0), (1, 2), (2, 1)]:
            p = TransformParams(5, k, l, 0.5, 0.5)
            for x in XS:
                expect = (1.0 - x) ** l * x ** k
                assert eval_mod_jacobi(k + l, p, x) == pytest.approx(expect, abs=1e-15)

    def test_midpoint_value(self):
        p = TransformParams(2, 1, 1)
        assert eval_mod_jacobi(2, p, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_frozen_value(self):
        # 0.25 * 0.75 * R_1^(2,2)(0.25), with R_1^(2,2)(0.25) = 3 - 6*0.75 = -1.5
        p = TransformParams(3, 1, 1)
        assert eval_mod_jacobi(3, p, 0.25) == pytest.approx(-0.28125, rel=1e-14)

    def test_out_of_range(self):
        p = TransformParams(3, 1, 1)
        with pytest.raises(ValueError):
            eval_mod_jacobi(1, p, 0.5)
        with pytest.raises(ValueError):
            eval_mod_jacobi(4, p, 0.5)


class TestBernsteinGram:
    def test_linear_case(self):
        G = bernstein_gram(TransformParams(1, 0, 0))
        np.testing.assert_allclose(G, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-14)

    def test_constant_case(self):
        np.testing.assert_allclose(bernstein_gram(TransformParams(0, 0, 0)), [[1.0]], rtol=1e-15)

    def test_constrained_single_entry(self):
        # int (2x(1-x))^2 dx = 4 B(3,3) = 2/15
        G = bernstein_gram(TransformParams(2, 1, 1))
        np.testing.assert_allclose(G, [[2.0 / 15.0]], rtol=1e-14)

    @pytest.mark.parametrize("n,k,l,a,b", [
        (5, 0, 0, 0.0, 0.0), (8, 1, 2, -0.5, 0.5), (20, 2, 2, 3.7, -0.9), (12, 0, 1, -0.9, -0.9),
    ])
    def test_symmetric_positive_definite(self, n, k, l, a, b):
        G = bernstein_gram(TransformParams(n, k, l, a, b))
        assert np.array_equal(G, G.T)
        np.linalg.cholesky(G)  # raises if any pivot fails


class TestEndpointVanishing:
    # Derivatives of orders < k at 0 and < l at 1 vanish identically.  With
    # the pinned step 1e-4, the first-derivative central difference carries
    # truncation h^2 P'''/6, so the order-1 assertion uses the larger of the
    # stated 1e-7 and that measurable truncation budget; order 0 is exact.
    H = 1e-4

    @staticmethod
    def _fd1(f, x, h):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    @staticmethod
    def _fd3(f, x, h=1e-2):
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2.0 * h ** 3)

    def test_derivatives_vanish(self, rng):
        for a in (-0.5, 0.0, 0.5):
            for b in (-0.5, 0.0, 0.5):
                for k in (0, 1, 2):
                    for l in (0, 1, 2):
                        for n in range(max(1, k + l), 11, 3):
                            p = TransformParams(n, k, l, a, b)
                            c = rng.uniform(-1, 1, p.dim)

                            def f(x, p=p, c=c):
                                return sum(ci * eval_mod_jacobi(i, p, x) for ci, i in zip(c, p.i_indices()))

                            for x0, order in ((0.0, k), (1.0, l)):
                                if order >= 1:
                                    assert abs(f(x0)) <= 1e-12
                                if order >= 2:
                                    inner = x0 + 0.05 if x0 == 0.0 else x0 - 0.05
                                    m3 = max(abs(self._fd3(f, x0)), abs(self._fd3(f, inner)))
                                    tol = max(1e-7, self.H ** 2 * m3 / 2.0)
                                    assert abs(self._fd1(f, x0, self.H)) <= tol


@pytest.mark.parametrize("a", (-0.5, 0.0, 0.5))
@pytest.mark.parametrize("b", (-0.5, 0.0, 0.5))
def test_mod_jacobi_orthogonality(a, b):
    # off-diagonal Gram entries of the transformed basis vanish relative to
    # the norms for n <= 9; beyond that the f64 quadratic form's own
    # cancellation noise (eps times the |C| G |C|^T magnitude scale) is the
    # resolution limit, so n <= 12 is asserted against that scale
    for k in (0, 1, 2):
        for l in (0, 1, 2):
            for n in range(max(1, k + l), 13, 2):
                p = TransformParams(n, k, l, a, b)
                C = c_theorem2(p).values
                G = bernstein_gram(p)
                M = C @ G @ C.T
                norms = np.sqrt(np.diag(M))
                tol = 1e-10 * np.outer(norms, norms)
                if n > 9:
                    tol = np.maximum(tol, 1e-10 * (np.abs(C) @ G @ np.abs(C).T))
                off = np.abs(M) - tol
                np.fill_diagonal(off, -np.inf)
                assert np.max(off) <= 0.0


class TestCurveJson:
    def test_round_trip(self):
        c = BezierCurve(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]]))
        c2 = curve_from_json(curve_to_json(c))
        np.testing.assert_array_equal(c.control_points, c2.control_points)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 2, 2)])
    def test_malformed_control_point_array_rejected(self, shape):
        with pytest.raises(ValueError, match="must form an"):
            BezierCurve(np.zeros(shape))

    def test_scalar_curve_coerced(self):
        c = BezierCurve(np.array([0.0, 1.0, 0.0]))
        assert c.dimension == 1
        assert c.degree == 2

    @pytest.mark.parametrize("obj", [
        {},
        {"degree": 1, "dimension": 1},
        {"degree": 2, "dimension": 1, "control_points": [[0.0], [1.0]]},
        {"degree": 1, "dimension": 2, "control_points": [[0.0], [1.0]]},
        {"degree": -1, "dimension": 1, "control_points": []},
        {"degree": 1, "dimension": 1, "control_points": [[0.0], [math.nan]]},
        {"degree": 1, "dimension": 1, "control_points": [[-math.inf], [1.0]]},
        {"degree": True, "dimension": 1, "control_points": [[0.0], [1.0]]},
        {"degree": 1, "dimension": True, "control_points": [[0.0], [1.0]]},
        {"degree": 4, "dimension": 1, "control_points": 5},
        {"degree": 1, "dimension": 1, "control_points": [{}, {}]},
        {"degree": 1, "dimension": 1, "control_points": [[True], [0]]},
        {"degree": 1, "dimension": 1, "control_points": [["1"], [0]]},
        {"degree": 1, "dimension": 1, "control_points": [[10**400], [0]]},
    ])
    def test_invalid_objects(self, obj):
        with pytest.raises(ValueError):
            curve_from_json(obj)


def test_mod_jacobi_coeffs_need_one_row_per_index():
    # the space of TransformParams(5, 1, 1) has indices i = 2..5
    with pytest.raises(ValueError, match="must have 4 rows"):
        ModJacobiCoeffs(TransformParams(5, 1, 1), np.zeros(3))


def test_connection_matrix_rows_name_an_index():
    with pytest.raises(ValueError, match="rows must be 'i' or 'h'"):
        ConnectionMatrix(TransformParams(5, 1, 1), np.zeros((4, 4)), "x")
