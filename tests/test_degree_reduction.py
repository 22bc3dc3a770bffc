import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import EXTREME_WEIGHTS, de_casteljau, end_derivatives

import bernjac.bases as bases
import bernjac.bernstein_to_jacobi as b2j
import bernjac.degree_reduction as dred
import bernjac.jacobi_to_bernstein as j2b
from bernjac.bases import BezierCurve, TransformParams, bernstein_gram
from bernjac.cli import main
from bernjac.degree_reduction import ReductionProblem, elevate, reduce
from bernjac.bernstein_to_jacobi import d_theorem4
from bernjac.jacobi_to_bernstein import c_theorem2


def exact_elevation(m: int, n: int) -> list[list[Fraction]]:
    """Linear map from degree-m control points to degree-n control points,
    entry (j, i) = C(m, i) C(n-m, j-i) / C(n, j), in exact rationals."""
    return [[Fraction(math.comb(m, i) * math.comb(n - m, j - i), math.comb(n, j)) if 0 <= j - i <= n - m
             else Fraction(0) for i in range(m + 1)] for j in range(n + 1)]


def elevation_matrix(m: int, n: int) -> np.ndarray:
    return np.array(exact_elevation(m, n), dtype=float)


def exact_head(pts: np.ndarray, m: int, count: int) -> np.ndarray:
    """First ``count`` control points of a degree-m curve whose elevation
    agrees with ``pts`` there, by exact forward substitution on the lower
    triangular corner of the elevation matrix, rounded once at the end.  The
    last points follow from the reversed curve, since that matrix is
    centrosymmetric."""
    E = exact_elevation(m, pts.shape[0] - 1)
    head = []
    for j in range(count):
        head.append([(Fraction(pts[j, c]) - sum(E[j][i] * head[i][c] for i in range(j))) / E[j][j]
                     for c in range(pts.shape[1])])
    return np.array(head, dtype=float).reshape(count, pts.shape[1])


def constrained_ls_reduce(curve: BezierCurve, m: int, k: int, l: int,
                          alpha: float, beta: float) -> BezierCurve:
    """Independent oracle: dense equality-constrained normal equations.

    Forces the constrained control points exactly, parametrizes the reduced
    curve by its free control points, maps to degree n by explicit
    elevation, and minimizes the weighted L2 distance through the
    Beta-function Gram matrix.  No Jacobi machinery involved.
    """
    n = curve.degree
    G = bernstein_gram(TransformParams(n, 0, 0, alpha, beta))
    stub = np.zeros((m + 1, curve.dimension))
    stub[:k] = exact_head(curve.control_points, m, k)
    stub[m - l + 1:] = exact_head(curve.control_points[::-1], m, l)[::-1]
    E = elevation_matrix(m, n)
    nfree = m - l - (k - 1)
    r = stub.copy()
    if nfree > 0:
        A = E[:, k:m - l + 1]
        resid = curve.control_points - E @ stub
        x = np.linalg.solve(A.T @ G @ A, A.T @ G @ resid)
        r[k:m - l + 1] += x
    return BezierCurve(r)


def gram_norm(diff_pts: np.ndarray, alpha: float, beta: float) -> float:
    """Weighted L2 norm of a curve difference given degree-n control points."""
    n = diff_pts.shape[0] - 1
    G = bernstein_gram(TransformParams(n, 0, 0, alpha, beta))
    return math.sqrt(max(float(np.sum(diff_pts * (G @ diff_pts))), 0.0))


class TestElevate:
    def test_linear_to_quadratic(self):
        out = elevate(BezierCurve(np.array([0.0, 1.0])), 2)
        np.testing.assert_allclose(out.control_points[:, 0], [0.0, 0.5, 1.0], atol=1e-15)

    def test_constant_stays_constant(self):
        out = elevate(BezierCurve(np.array([[3.5]])), 7)
        np.testing.assert_allclose(out.control_points, np.full((8, 1), 3.5), atol=1e-15)

    def test_polynomial_identity(self, rng):
        c = BezierCurve(rng.normal(size=(5, 2)))
        e = elevate(c, 11)
        for x in np.linspace(0.0, 1.0, 20):
            np.testing.assert_allclose(de_casteljau(e.control_points, x), de_casteljau(c.control_points, x),
                                       atol=1e-13)

    def test_lower_degree_rejected(self):
        with pytest.raises(ValueError):
            elevate(BezierCurve(np.zeros((4, 1))), 2)

    @pytest.mark.parametrize("to_degree", [3.0, True, -1])
    def test_non_count_degree_rejected(self, to_degree):
        # the refusals ReductionProblem makes of its target degree
        with pytest.raises(ValueError, match="to_degree"):
            elevate(BezierCurve(np.zeros((1, 1))), to_degree)

    def test_binomial_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            elevate(BezierCurve(np.ones((3, 1))), 1100)

    def test_overflow_boundary(self):
        # C(1020, 510) is a finite double and C(1021, 510) is not
        assert elevate(BezierCurve(np.ones((1, 1))), 1020).degree == 1020
        with pytest.raises(ValueError, match="overflow"):
            elevate(BezierCurve(np.ones((1, 1))), 1021)

    def test_huge_degree_refused_before_building(self, monkeypatch):
        real = dred._float_binomials

        def small_only(n):
            assert n < 10**4, f"built binomial row of degree {n}"
            return real(n)

        monkeypatch.setattr(dred, "_float_binomials", small_only)
        with pytest.raises(ValueError, match="overflow"):
            elevate(BezierCurve(np.zeros((1, 1))), 10**12)

    @pytest.mark.parametrize("m,n", [(0, 7), (3, 3), (4, 11), (8, 20), (3, 40)])
    def test_matches_exact_elevation_matrix(self, rng, m, n):
        pts = rng.normal(size=(m + 1, 2))
        out = elevate(BezierCurve(pts), n).control_points
        ref = [[float(sum(e * Fraction(p[c]) for e, p in zip(row, pts))) for c in range(2)]
               for row in exact_elevation(m, n)]
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-15 * np.max(np.abs(pts)))
        if m == n:
            np.testing.assert_array_equal(out, pts)


class TestReduceProblemValidation:
    def test_target_above_source(self):
        with pytest.raises(ValueError):
            ReductionProblem(BezierCurve(np.zeros((3, 1))), 3, 0, 0)

    def test_infeasible_constraints(self):
        with pytest.raises(ValueError):
            ReductionProblem(BezierCurve(np.zeros((4, 1))), 1, 2, 1)

    def test_source_space_must_exist(self):
        with pytest.raises(ValueError):
            ReductionProblem(BezierCurve(np.zeros((2, 1))), 1, 2, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_source_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ReductionProblem(BezierCurve(np.array([[bad], [0.0], [1.0]])), 1, 0, 0)

    @pytest.mark.parametrize("source", [np.zeros((5, 2)), [[0.0, 0.0]] * 5, None])
    def test_source_must_be_a_curve(self, source):
        name = type(source).__name__
        with pytest.raises(TypeError, match=f"BezierCurve, got {name}"):
            ReductionProblem(source, 1, 0, 0)
        with pytest.raises(TypeError, match=f"BezierCurve, got {name}"):
            elevate(source, 6)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            ReductionProblem(BezierCurve(np.zeros((3, 1))), 1, 0, 0, alpha=-1.0)

    @pytest.mark.parametrize("m,k,l,alpha,beta", [
        (True, 0, 0, 0.0, 0.0),
        (1.0, 0, 0, 0.0, 0.0),
        (2, True, 0, 0.0, 0.0),
        (2, 0, 1.0, 0.0, 0.0),
        (2, 1, 1, math.nan, 0.0),
        (2, 1, 1, 0.0, math.inf),
        (-1, 0, 0, 0.0, 0.0),
    ])
    def test_non_integer_orders_and_non_finite_weights(self, m, k, l, alpha, beta):
        with pytest.raises(ValueError):
            ReductionProblem(BezierCurve(np.zeros((5, 1))), m, k, l, alpha, beta)


class TestReduceKnownCases:
    def test_zero_dimensional_free_space(self):
        # the constraints fully determine the line; the error is the norm of
        # B_1^2, i.e. sqrt(4 B(3,3)) = sqrt(2/15)
        res = reduce(ReductionProblem(BezierCurve(np.array([0.0, 1.0, 0.0])), 1, 1, 1))
        np.testing.assert_allclose(res.reduced.control_points, [[0.0], [0.0]], atol=1e-15)
        assert res.l2_error == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-12)
        np.testing.assert_allclose(res.discarded.coeffs[:, 0], [2.0], rtol=1e-13)

    def test_same_degree_is_identity(self, rng):
        # (12, 12, 0) forces every control point: k + l = n
        for n, k, l in [(4, 1, 1), (12, 12, 0)]:
            pts = rng.normal(size=(n + 1, 3))
            res = reduce(ReductionProblem(BezierCurve(pts), n, k, l, 0.5, -0.5))
            assert res.l2_error == 0.0
            assert np.array_equal(res.reduced.control_points, pts)
            assert np.array_equal(res.discarded.coeffs, np.zeros((n - k - l + 1, 3)))

    @pytest.mark.parametrize("pts,m,k,l,forced", [
        ([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [4.0, 4.0]], 2, 1, 1, {0: [0.0, 0.0], 2: [4.0, 4.0]}),
        # matching the first derivative forces r_1 = p_0 + (n/m)(p_1 - p_0)
        ([[0.0], [1.0], [3.0], [4.0], [2.0]], 3, 2, 0, {0: [0.0], 1: [4.0 / 3.0]}),
    ], ids=["position", "tangent"])
    def test_forced_points(self, pts, m, k, l, forced):
        r = reduce(ReductionProblem(BezierCurve(np.array(pts)), m, k, l)).reduced.control_points
        for i, point in forced.items():
            np.testing.assert_allclose(r[i], point, rtol=1e-14, atol=1e-15)

    def test_many_forced_points_match_exact_solve(self, rng):
        # a 15 x 15 corner of the elevation matrix fixes the head
        for _ in range(5):
            pts = rng.normal(size=(21, 2))
            head = reduce(ReductionProblem(BezierCurve(pts), 19, 15, 0)).reduced.control_points[:15]
            exact = exact_head(pts, 19, 15)
            assert np.all(np.abs(head - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact)))

    def test_cubic_example_matches_ls_oracle(self):
        c = BezierCurve(np.array([0.0, 1.0, -1.0, 0.0]))
        res = reduce(ReductionProblem(c, 2, 1, 1))
        ref = constrained_ls_reduce(c, 2, 1, 1, 0.0, 0.0)
        np.testing.assert_allclose(res.reduced.control_points, ref.control_points, atol=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, 0.5), (1.5, 0.0)])
    def test_random_cases_match_ls_oracle(self, rng, alpha, beta):
        for _ in range(8):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(0, 3))
            l = int(rng.integers(0, 3))
            if k + l > n - 1:
                continue
            m = int(rng.integers(max(k + l, 1), n))
            d = int(rng.integers(1, 4))
            curve = BezierCurve(rng.normal(size=(n + 1, d)))
            res = reduce(ReductionProblem(curve, m, k, l, alpha, beta))
            ref = constrained_ls_reduce(curve, m, k, l, alpha, beta)
            np.testing.assert_allclose(res.reduced.control_points, ref.control_points,
                                       atol=1e-9, rtol=1e-9)


class TestOneSidedMinimalTarget:
    """m = k + l - 1 with k = 0 or l = 0: the constraints fix every control
    point of the reduced curve, all on one side."""

    @pytest.mark.parametrize("k,l", [(0, 2), (2, 0)])
    def test_constraints_and_error(self, rng, k, l):
        curve = BezierCurve(rng.normal(size=(6, 2)))
        res = reduce(ReductionProblem(curve, 1, k, l, 0.5, -0.5))
        r = res.reduced
        x0 = 0.0 if k else 1.0
        for dr, dp in zip(end_derivatives(r.control_points, k or l, x0),
                          end_derivatives(curve.control_points, k or l, x0)):
            np.testing.assert_allclose(dr, dp, atol=1e-12)
        diff = curve.control_points - elevate(r, 5).control_points
        assert res.l2_error == pytest.approx(gram_norm(diff, 0.5, -0.5), rel=1e-12)

    def test_cli_exits_0(self, tmp_path):
        src, out = tmp_path / "c.json", tmp_path / "r.json"
        src.write_text(json.dumps({"degree": 5, "dimension": 1,
                                   "control_points": [[0.0], [1.0], [-1.0], [2.0], [0.5], [1.0]]}))
        assert main(["reduce", "--in", str(src), "-m", "1", "-k", "0", "-l", "2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["reduced"]["degree"] == 1


class TestReduceProperties:
    def _cases(self, rng, count):
        made = 0
        while made < count:
            n = int(rng.integers(2, 13))
            k = int(rng.integers(0, 3))
            l = int(rng.integers(0, 3))
            if k + l > n - 1:
                continue
            m = int(rng.integers(max(k + l, 1), n))
            d = int(rng.integers(1, 4))
            alpha, beta = rng.uniform(-0.9, 1.0, size=2)
            made += 1
            yield BezierCurve(rng.normal(size=(n + 1, d))), m, k, l, float(alpha), float(beta)

    def test_residual_orthogonal_to_kept_basis(self, rng):
        for curve, m, k, l, alpha, beta in self._cases(rng, 25):
            n = curve.degree
            pn = TransformParams(n, k, l, alpha, beta)
            res = reduce(ReductionProblem(curve, m, k, l, alpha, beta))
            diff = curve.control_points - elevate(res.reduced, n).control_points
            G = bernstein_gram(TransformParams(n, 0, 0, alpha, beta))
            C = c_theorem2(pn).values
            dnorm = gram_norm(diff, alpha, beta)
            for i in range(k + l, m + 1):
                jrow = np.zeros(n + 1)
                jrow[k:n - l + 1] = C[i - k - l]
                jnorm = math.sqrt(float(jrow @ G @ jrow))
                inner = float(np.max(np.abs(jrow @ G @ diff)))
                assert inner <= 1e-8 * dnorm * jnorm + 1e-13

    def test_perturbation_optimality(self, rng):
        for curve, m, k, l, alpha, beta in self._cases(rng, 15):
            n = curve.degree
            res = reduce(ReductionProblem(curve, m, k, l, alpha, beta))
            base = curve.control_points - elevate(res.reduced, n).control_points
            err = gram_norm(base, alpha, beta)
            nfree = m - l - k + 1
            if nfree <= 0:
                continue
            for _ in range(20):
                delta = np.zeros((m + 1, curve.dimension))
                delta[k:m - l + 1] = rng.normal(size=(nfree, curve.dimension))
                perturbed = base - elevate(BezierCurve(delta), n).control_points
                assert gram_norm(perturbed, alpha, beta) >= err - 1e-10

    def test_endpoint_constraints_hold(self, rng):
        for curve, m, k, l, alpha, beta in self._cases(rng, 25):
            res = reduce(ReductionProblem(curve, m, k, l, alpha, beta))
            r = res.reduced
            for x0, order in ((0.0, k), (1.0, l)):
                for dp, dr in zip(end_derivatives(curve.control_points, order, x0),
                                  end_derivatives(r.control_points, order, x0)):
                    dev = float(np.max(np.abs(dp - dr)))
                    assert dev <= 1e-6 * (1.0 + float(np.max(np.abs(dp))))

    def test_parseval_error_agreement(self, rng):
        for curve, m, k, l, alpha, beta in self._cases(rng, 25):
            n = curve.degree
            res = reduce(ReductionProblem(curve, m, k, l, alpha, beta))
            diff = curve.control_points - elevate(res.reduced, n).control_points
            direct = gram_norm(diff, alpha, beta)
            assert res.l2_error == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_discarded_components_zero_up_to_target(self, rng):
        for curve, m, k, l, alpha, beta in self._cases(rng, 10):
            res = reduce(ReductionProblem(curve, m, k, l, alpha, beta))
            kept = m - k - l + 1
            if kept > 0:
                assert np.all(res.discarded.coeffs[:kept] == 0.0)


def result_bytes(res):
    return (res.reduced.control_points.tobytes(), np.float64(res.l2_error).tobytes(),
            res.discarded.coeffs.tobytes())


class TestReduceScaling:
    @pytest.mark.parametrize("s", [-1000, -600, -7, 7, 600, 1000])
    def test_power_of_two_equivariant(self, rng, s):
        # the squares of the discarded components over- or underflow unless
        # they are scaled first; every other step scales exactly.  An odd s
        # catches a square root taken of the scale
        pts = rng.normal(size=(8, 2))
        base = reduce(ReductionProblem(BezierCurve(pts), 3, 1, 1, 0.5, -0.5))
        res = reduce(ReductionProblem(BezierCurve(np.ldexp(pts, s)), 3, 1, 1, 0.5, -0.5))
        assert np.array_equal(res.reduced.control_points, np.ldexp(base.reduced.control_points, s))
        assert res.l2_error == math.ldexp(base.l2_error, s)
        assert np.array_equal(res.discarded.coeffs, np.ldexp(base.discarded.coeffs, s))


def stepwise_reduce(prob: ReductionProblem) -> tuple:
    """The reduction pipeline step by step, every matrix built on the call,
    as ``reduce`` computed it before it was composed into cached linear
    maps; returns the reduced control points, the error and the discarded
    components."""
    P, n, m, k, l = prob.source.control_points, prob.source.degree, prob.target_degree, prob.k, prob.l
    pn = TransformParams(n, k, l, prob.alpha, prob.beta)
    if m == n:
        res = reduce(prob)
        return res.reduced.control_points, res.l2_error, res.discarded.coeffs
    E = dred._elevation(m, n)
    stub = np.zeros((m + 1, P.shape[1]))
    if k:
        stub[:k] = np.linalg.solve(E[:k, :k], P[:k])
    if l:
        stub[m - l + 1:] = np.linalg.solve(E[n - l + 1:, m - l + 1:], P[n - l + 1:])
    jac = d_theorem4(pn).values.T @ (P[k:n - l + 1] - E[k:n - l + 1] @ stub)
    kept = m - k - l + 1
    reduced = stub.copy()
    if kept > 0:
        reduced[k:m - l + 1] += c_theorem2(TransformParams(m, k, l, prob.alpha, prob.beta)).values.T @ jac[:kept]
    discarded = np.zeros_like(jac)
    discarded[kept:] = jac[kept:]
    C = c_theorem2(pn).values
    w = np.einsum("ij,jk,ik->i", C, bernstein_gram(pn), C)
    s = math.frexp(float(np.abs(jac[kept:]).max()))[1]
    tail = np.ldexp(jac[kept:], -s)
    err = math.ldexp(math.sqrt(max(float(w[kept:] @ (tail * tail).sum(axis=1)), 0.0)), s)
    return reduced, err, discarded


def clear_memos():
    """Empty both of ``reduce``'s memos, per shape and per weights, so that
    the next call is cold."""
    dred._reduction_matrices.cache_clear()
    dred._stub_map.cache_clear()


class TestReductionMatrixMemo:
    def test_spline_segments_build_each_matrix_once(self, rng, monkeypatch):
        calls = {"d_theorem4": [], "c_theorem2": [], "bernstein_gram": []}

        def counting(name):
            real = getattr(dred, name)

            def build(p):
                calls[name].append(p.n)
                return real(p)
            return build

        for name in calls:
            monkeypatch.setattr(dred, name, counting(name))
        for _ in range(16):
            reduce(ReductionProblem(BezierCurve(rng.normal(size=(17, 2))), 9, 1, 1, 0.5, -0.5))
        assert calls == {"d_theorem4": [16], "c_theorem2": [9, 16], "bernstein_gram": [16]}

    def test_cold_equals_warm(self, rng):
        prob = ReductionProblem(BezierCurve(rng.normal(size=(15, 3))), 6, 2, 1, -0.9, 3.7)
        clear_memos()
        cold = result_bytes(reduce(prob))
        assert result_bytes(reduce(prob)) == cold

    def test_signed_zero_and_int_weights_agree(self, rng):
        # 0, 0.0 and -0.0 are one key: each must build what the others would
        pts = rng.normal(size=(10, 2))
        outs = set()
        for clear in (True, False):
            for alpha in (0, 0.0, -0.0):
                if clear:
                    clear_memos()
                outs.add(result_bytes(reduce(ReductionProblem(BezierCurve(pts), 4, 1, 2, alpha, 0.5))))
        assert len(outs) == 1

    @pytest.mark.parametrize("order", [(np.float32(0.5), 0.5), (0.5, np.float32(0.5))], ids=["f32-first", "f64-first"])
    def test_float32_weight_gives_the_double_result(self, rng, order):
        # np.float32(0.5) == 0.5 and the two hash alike, so they share one memo entry
        pts = rng.normal(size=(17, 2))
        clear_memos()
        ref = result_bytes(reduce(ReductionProblem(BezierCurve(pts), 9, 1, 1, 0.5, -0.5)))
        clear_memos()
        for alpha in order + order:  # the first call is cold, the others warm
            assert result_bytes(reduce(ReductionProblem(BezierCurve(pts), 9, 1, 1, alpha, -0.5))) == ref

    @pytest.mark.parametrize("m", [1, 3])
    def test_cached_arrays_are_read_only(self, m):
        M, npos = dred._reduction_matrices(TransformParams(6, 1, 1), m, dred.d_theorem4, dred.c_theorem2,
                                           dred.bernstein_gram)
        # M = [R; T; W]: R takes the control points to the reduced ones, T to
        # the discarded indices m+1..n, W is T's rows weighted; all weights are
        # positive at n = 6
        assert (M.shape, npos) == ((m + 1 + 2 * (6 - m), 7), 6 - m)
        with pytest.raises(ValueError):
            M[0, 0] = 1.0

    def test_negative_parseval_weights_keep_their_sign(self):
        # the Gram-form weights go negative from n ~ 25: at n = 31, m = 26 two
        # of the five discarded indices carry one, and they lower the error
        # by about 4%
        prob = ReductionProblem(BezierCurve(np.random.default_rng(0).normal(size=(32, 2))), 26, 0, 0)
        clear_memos()
        _, npos = dred._reduction_matrices(prob._space, 26, dred.d_theorem4, dred.c_theorem2,
                                           dred.bernstein_gram)
        assert npos < 31 - 26
        err = stepwise_reduce(prob)[1]
        clear_memos()
        for _ in ("cold", "warm"):
            assert reduce(prob).l2_error == pytest.approx(err, rel=1e-13, abs=0)

    def test_warm_call_builds_and_solves_nothing(self, rng, monkeypatch):
        prob = ReductionProblem(BezierCurve(rng.normal(size=(15, 2))), 7, 2, 1, 0.5, -0.5)
        clear_memos()
        cold = result_bytes(reduce(prob))

        def refuse(*args, **kwargs):
            raise AssertionError("a warm call must not build or solve")
        # D and C are returned as ConnectionMatrix, the Gram entries come from beta_fn
        monkeypatch.setattr(dred, "_elevation", refuse)
        monkeypatch.setattr(b2j, "ConnectionMatrix", refuse)
        monkeypatch.setattr(j2b, "ConnectionMatrix", refuse)
        monkeypatch.setattr(bases, "beta_fn", refuse)
        # the problem validated its space when it was built
        monkeypatch.setattr(dred, "TransformParams", refuse)
        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refuse)
        misses = dred._reduction_matrices.cache_info().misses
        assert result_bytes(reduce(prob)) == cold
        assert dred._reduction_matrices.cache_info().misses == misses

    def test_replaced_problem_gets_its_own_space(self, rng):
        prob = ReductionProblem(BezierCurve(rng.normal(size=(15, 2))), 7, 2, 1, 0.5, -0.5)
        reduce(prob)
        with pytest.raises(ValueError):
            dataclasses.replace(prob, k=14)
        moved = dataclasses.replace(prob, alpha=-0.9)
        res = reduce(moved)
        assert res.discarded.params == TransformParams(14, 2, 1, -0.9, -0.5)
        fresh = ReductionProblem(prob.source, 7, 2, 1, -0.9, -0.5)
        assert result_bytes(res) == result_bytes(reduce(fresh))
        # the kept space is no field: equality, hash and repr see the six fields alone
        assert moved == fresh
        assert hash(prob) == hash((prob.source, 7, 2, 1, 0.5, -0.5))
        assert [f.name for f in dataclasses.fields(prob)] == ["source", "target_degree", "k", "l",
                                                              "alpha", "beta"]
        assert repr(prob) == (f"ReductionProblem(source={prob.source!r}, target_degree=7, k=2, l=1, "
                              "alpha=0.5, beta=-0.5)")

    def test_new_weights_on_a_known_shape_reuse_its_stub(self, rng, monkeypatch):
        pts = rng.normal(size=(15, 2))
        reduce(ReductionProblem(BezierCurve(pts), 7, 2, 1, 0.5, -0.5))
        prob = ReductionProblem(BezierCurve(pts), 7, 2, 1, -0.9, 3.7)
        clear_memos()
        cold = result_bytes(reduce(prob))
        reduce(ReductionProblem(BezierCurve(pts), 7, 2, 1, 0.5, -0.5))
        dred._reduction_matrices.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("a known shape must not rebuild its stub")
        monkeypatch.setattr(dred, "_elevation", refuse)
        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refuse)
        calls = []
        for name in ("d_theorem4", "c_theorem2", "bernstein_gram"):
            monkeypatch.setattr(dred, name, lambda p, real=getattr(dred, name), name=name:
                                calls.append((name, p.n)) or real(p))
        assert result_bytes(reduce(prob)) == cold
        assert sorted(calls) == [("bernstein_gram", 14), ("c_theorem2", 7), ("c_theorem2", 14),
                                 ("d_theorem4", 14)]

    def test_stub_arrays_are_read_only(self):
        S, ES = dred._stub_map(9, 5, 2, 1)
        # S on the k+l forced points; ES on the residual rows h = k..n-l
        assert (S.shape, ES.shape) == ((3, 3), (7, 3))
        for a in (S, ES):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_shapes_get_distinct_stub_entries(self):
        clear_memos()
        for shape in [(9, 5, 1, 2), (9, 5, 2, 1), (9, 6, 1, 2), (9, 6, 2, 1)]:
            dred._stub_map(*shape)
        assert dred._stub_map.cache_info().currsize == 4

    def test_stub_memo_skips_shapes_above_its_entry_bound(self, rng):
        # an entry holds (k+l)(n+1) doubles: 26 * 39 = 1014 is kept, 26 * 41 = 1066 is not
        assert dred._STUB_MEMO_DOUBLES == 1024
        clear_memos()
        for n in (38, 40):
            prob = ReductionProblem(BezierCurve(rng.normal(size=(n + 1, 2))), 30, 13, 13, 0.5, -0.5)
            cold = result_bytes(reduce(prob))
            dred._reduction_matrices.cache_clear()
            assert result_bytes(reduce(prob)) == cold
        info = dred._stub_map.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    def test_writing_into_result_leaves_next_call_unchanged(self, rng):
        # m = k+l-1 (no index kept), a middle m and m = n (nothing built)
        source = BezierCurve(rng.normal(size=(12, 2)))
        for m in (1, 5, 11):
            prob = ReductionProblem(source, m, 1, 1, 0.5, -0.5)
            res = reduce(prob)
            first = result_bytes(res)
            arrays = [source.control_points]
            if m < 11:
                arrays += dred._reduction_matrices(TransformParams(11, 1, 1, 0.5, -0.5), m, dred.d_theorem4,
                                                   dred.c_theorem2, dred.bernstein_gram)
            owned = (res.reduced.control_points, res.discarded.coeffs)
            assert not np.shares_memory(*owned), m
            assert not any(np.shares_memory(a, b) for a in owned for b in arrays if b is not None), m
            res.reduced.control_points[:] = 7.0
            res.discarded.coeffs[:] = 7.0
            assert result_bytes(reduce(prob)) == first, m

    @pytest.mark.parametrize("n, alpha, beta", [
        (1, 0.5, -0.5), (2, 0.0, 0.0), (3, -0.9, 3.7), (5, 0.5, -0.5), (9, 0.0, 0.0),
        (14, -0.9, 3.7), (20, 0.5, -0.5), (31, 0.0, 0.0), (45, -0.9, 3.7), (60, 0.5, -0.5)])
    def test_matches_stepwise_pipeline(self, n, alpha, beta):
        # every m, k, l <= 2, cold (memo cleared) and then warm.  Composing
        # the pipeline into R and T changes the rounding only; past n = 20 the
        # stepwise pipeline itself is off the optimum by far more than 1e-9
        pts = np.random.default_rng(1500 + n).normal(size=(n + 1, 2))
        atol = 1e-13 * max(1.0, np.abs(pts).max()) if n <= 20 else 1e-9
        for k in range(min(n, 2) + 1):
            for l in range(min(n - k, 2) + 1):
                for m in range(max(k + l - 1, 0), n + 1):
                    prob = ReductionProblem(BezierCurve(pts), m, k, l, alpha, beta)
                    reduced, err, discarded = stepwise_reduce(prob)
                    clear_memos()
                    res = reduce(prob)
                    assert result_bytes(reduce(prob)) == result_bytes(res), (m, k, l)
                    np.testing.assert_allclose(res.reduced.control_points, reduced, rtol=0, atol=atol,
                                               err_msg=str((m, k, l)))
                    assert res.l2_error == pytest.approx(err, rel=1e-13, abs=0), (m, k, l)
                    np.testing.assert_allclose(res.discarded.coeffs, discarded, rtol=0,
                                               atol=1e-13 * np.abs(discarded).max(), err_msg=str((m, k, l)))


# weights past the tested envelope: EXTREME_WEIGHTS and four more
FAR_WEIGHTS = EXTREME_WEIGHTS + ((1e300, 1e300), (0.0, 1e300), (1e150, 0.0), (1e20, 1e20))


@pytest.mark.parametrize("alpha, beta", FAR_WEIGHTS)
@pytest.mark.parametrize("n, m, k, l", [(2, 1, 0, 0), (6, 3, 1, 1), (12, 6, 1, 1), (20, 9, 2, 1)])
def test_far_weights_give_a_finite_result_or_value_error(n, m, k, l, alpha, beta):
    # no warning escapes (the suite turns warnings into errors); a refused map
    # is not memoized, so a repeated call refuses again and never hits.  The
    # first four EXTREME_WEIGHTS, and (1e20, 1e20) below n = 20, give finite maps
    prob = ReductionProblem(BezierCurve(np.random.default_rng(n).standard_normal((n + 1, 2))), m, k, l, alpha, beta)
    if (alpha, beta) in EXTREME_WEIGHTS[:4] or ((alpha, beta) == (1e20, 1e20) and n < 20):
        res = reduce(prob)
        assert all(np.isfinite(a).all() for a in (res.reduced.control_points, res.l2_error, res.discarded.coeffs))
        return
    hits = dred._reduction_matrices.cache_info().hits
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"non-finite entries at alpha={alpha!r}, beta={beta!r}")):
            reduce(prob)
    assert dred._reduction_matrices.cache_info().hits == hits


def test_containers_holding_arrays_compare_and_hash_by_identity():
    # comparing them by value would ask numpy for the truth value of an array
    curve, twin = BezierCurve(np.arange(8.0)), BezierCurve(np.arange(8.0))
    prob, twin_prob = ReductionProblem(curve, 5, 1, 1), ReductionProblem(twin, 5, 1, 1)
    res, twin_res = reduce(prob), reduce(twin_prob)
    p = TransformParams(4, 1, 1)
    for a, b in ((curve, twin), (c_theorem2(p), c_theorem2(p)), (res.discarded, twin_res.discarded),
                 (prob, twin_prob), (res, twin_res)):
        assert a == a and a != b
        assert len({a, b, a}) == 2
