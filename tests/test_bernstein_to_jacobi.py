import math

import numpy as np
import pytest
from conftest import ALPHA_BETA, assert_mixed_close

from bernjac.bases import TransformParams, bernstein_gram, eval_mod_jacobi
from bernjac.bernstein_to_jacobi import _z_outer, d_direct, d_oracle, d_theorem3, d_theorem4, u_factors
from bernjac.jacobi_to_bernstein import c_direct, c_theorem2
from bernjac.specialfn import HahnParams, _float_binomials, _poch_ratio, hahn_eval

# weights that put entries past double range, with the acceptance sample's corners
EXTREME_WEIGHTS = ((0.0, 0.0), (0.5, -0.5), (-0.9, 3.7), (1e10, 0.5), (0.5, 1e200), (1e200, 0.0))

ALL_ROUTES = (d_direct, d_theorem3, d_theorem4, d_oracle)

# collocation-solve reference at 40-digit precision for
# (n=4, k=1, l=1, alpha=0.5, beta=-0.5); rows h=1..3, columns i=2..4
FROZEN_D_411 = np.array([
    [1.5, -0.75, 1.0 / 7.0],
    [1.25, 0.125, -1.5 / 7.0],
    [5.0 / 6.0, 7.0 / 12.0, 1.0 / 7.0],
])


def small_grid():
    # strict mixed tolerance is attainable in f64 up to n = 7; the
    # acceptance suite covers n <= 20 with a measured conditioning envelope
    for n in (1, 2, 3, 5, 7):
        for k in (0, 1, 2):
            for l in (0, 1, 2):
                if k + l <= n:
                    yield n, k, l


@pytest.mark.parametrize("route", ALL_ROUTES)
class TestKnownValues:
    def test_one_dimensional_space(self, route):
        # B_1^2 = 2x(1-x) = 2 J_2
        m = route(TransformParams(2, 1, 1))
        assert m.values.shape == (1, 1)
        assert m.at(1, 2) == pytest.approx(2.0, rel=1e-14)

    def test_linear_legendre_row(self, route):
        # 1-x = (R_0 - R_1)/2
        m = route(TransformParams(1, 0, 0))
        np.testing.assert_allclose(m.values[0], [0.5, -0.5], rtol=1e-14)

    def test_frozen_matrix(self, route):
        # gamma-based oracle entries carry ~1e-14 relative rounding
        m = route(TransformParams(4, 1, 1, 0.5, -0.5))
        np.testing.assert_allclose(m.values, FROZEN_D_411, rtol=1e-12, atol=1e-15)


def test_matrix_inverse_oracle():
    # D must invert C (the spec's stated reference for the full example):
    # sum_i d[h][i] c[i][h'] = delta, so D equals inv(C) in this layout
    p = TransformParams(4, 1, 1, 0.5, -0.5)
    D_ref = np.linalg.inv(c_direct(p).values)
    np.testing.assert_allclose(d_direct(p).values, D_ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("a", ALPHA_BETA)
@pytest.mark.parametrize("b", ALPHA_BETA)
def test_four_route_agreement(a, b):
    for n, k, l in small_grid():
        p = TransformParams(n, k, l, a, b)
        ref = d_direct(p).values
        for route in (d_theorem3, d_theorem4, d_oracle):
            assert_mixed_close(route(p).values, ref, label=f"{route.__name__} vs direct {p}")


@pytest.mark.parametrize("a", (-0.9, 0.0, 3.7))
@pytest.mark.parametrize("b", (-0.5, 0.5))
def test_round_trip_identity(a, b):
    for n, k, l in small_grid():
        p = TransformParams(n, k, l, a, b)
        C = c_theorem2(p).values
        D = d_theorem4(p).values
        eye = np.eye(p.dim)
        assert np.max(np.abs(D @ C - eye)) <= 1e-8
        assert np.max(np.abs(C @ D - eye)) <= 1e-8


class TestUFactors:
    def test_single_entry(self):
        u = u_factors(TransformParams(2, 1, 1))
        assert u.at(2, 1) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("a", ALPHA_BETA)
    @pytest.mark.parametrize("b", ALPHA_BETA)
    def test_routes_agree_and_bridge_holds(self, a, b):
        for n, k, l in small_grid():
            p = TransformParams(n, k, l, a, b)
            uh = u_factors(p).values
            C = c_theorem2(p).values
            D = d_theorem4(p).values
            assert_mixed_close(C, uh * D.T, label=f"bridge {p}")


def _z_entry(p: TransformParams, h: int, i: int) -> float:
    """Product-formula value of the z factor for one (h, i) pair; the
    scalar reference of ``d_direct``'s z.

    The (2i+sigma) numerator cancels the leading denominator pochhammer
    factor exactly at i = k+l, which keeps the expression finite when
    sigma = 0 (possible only for k = l = 0).
    """
    n, k, l = p.n, p.k, p.l
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    ratio0 = 1.0 if i == k + l else (2.0 * i + sig) / (i + k + l + sig)
    body = _poch_ratio(
        [(k + l - n, i - k - l), (a + 2.0 * l + 1.0, n - l - h), (b + 2.0 * k + 1.0, h - k)],
        [(a + 2.0 * l + 1.0, i - k - l), (i + k + l + sig + 1.0, m)],
    )
    return float(math.comb(n, h)) * ratio0 * body


def scalar_u_factors(p):
    """u column by column, one scalar product per entry."""
    n, k, l, a, b, sig = p.n, p.k, p.l, p.alpha, p.beta, p.sigma
    m = n - k - l
    binom_n, binom_m = _float_binomials(n), _float_binomials(m)
    vals = np.empty((m + 1, m + 1))
    for s in range(m + 1):
        h = k + s
        u = binom_m[s] / binom_n[h] ** 2 * _poch_ratio(
            [(2.0 * k + 2.0 * l + sig + 1.0, m)],
            [(a + 2.0 * l + 1.0, n - l - h), (b + 2.0 * k + 1.0, s)],
        )
        vals[0, s] = u
        for r, i in enumerate(range(k + l + 1, n + 1), start=1):
            if i == k + l + 1:
                u *= -(i + l + a - k) * (n + i + sig) * (i + k + b - l) / (
                    (2.0 * i + sig) * (i - k - l) * (i - n - 1.0))
            else:
                u *= -(i + l + a - k) * (2.0 * i + a + b - 1.0) * (n + i + sig) * (i + k + b - l) / (
                    (2.0 * i + sig) * (i - k - l) * (i - n - 1.0) * (i + k + l + a + b))
            vals[r, s] = u
    return vals


@pytest.mark.parametrize("n", (0, 1, 9, 20))
def test_whole_matrix_routes_match_scalar_formulas_bitwise(n):
    # d_direct and u_factors against the per-entry scalar kernel they vectorize
    for k, l in ((0, 0), (1, 1), (0, 2), (2, 0)):
        if k + l > n:
            continue
        for a, b in EXTREME_WEIGHTS:
            p = TransformParams(n, k, l, a, b)
            hp = HahnParams(b + 2.0 * k, a + 2.0 * l, n - k - l)
            ref = np.array([[_z_entry(p, h, i) * hahn_eval(i - k - l, h - k, hp) for i in p.i_indices()]
                            for h in p.h_indices()])
            for got, want in ((d_direct(p).values, ref), (u_factors(p).values, scalar_u_factors(p))):
                assert got.flags["C_CONTIGUOUS"]
                assert np.array_equal(got, want, equal_nan=True), p


@pytest.mark.parametrize("a", ALPHA_BETA)
@pytest.mark.parametrize("b", ALPHA_BETA)
def test_z_outer_matches_scalar_z_entry(a, b):
    # the grid holds m = 0 and m = 1, and (-0.5, -0.5) at k = l = 0, where the
    # i-ratio's cancelled bracket at i = 1 would be 0/0
    for n in (1, 2, 5, 12, 20):
        for k in (0, 1, 2):
            for l in (0, 1, 2):
                if k + l > n:
                    continue
                p = TransformParams(n, k, l, a, b)
                ref = [[_z_entry(p, h, i) for i in p.i_indices()] for h in p.h_indices()]
                np.testing.assert_allclose(_z_outer(p), ref, rtol=1e-13, atol=0.0, err_msg=str(p))


def test_rows_reproduce_bernstein_values():
    import math
    xs = np.linspace(0.0, 1.0, 40)
    for n, k, l in list(small_grid()) + [(10, 1, 1), (12, 0, 0), (12, 2, 2)]:
        for a, b in [(0.0, 0.0), (-0.5, 0.5)]:
            p = TransformParams(n, k, l, a, b)
            m = d_theorem4(p)
            for h in p.h_indices():
                row = m.values[h - k]
                bound = 1e-9 * (1.0 + math.comb(n, h))
                for x in xs:
                    bern = math.comb(n, h) * x ** h * (1.0 - x) ** (n - h)
                    synth = sum(row[i - k - l] * eval_mod_jacobi(i, p, x) for i in p.i_indices())
                    assert abs(bern - synth) <= bound


def test_expansion_coefficients_are_least_squares():
    # d[h][i] <J_i, J_i> = <B_h, J_i> under the Beta-function Gram oracle
    for n, k, l in [(5, 0, 0), (6, 1, 1), (7, 2, 1)]:
        for a, b in [(0.0, 0.0), (0.5, -0.5)]:
            p = TransformParams(n, k, l, a, b)
            G = bernstein_gram(p)
            C = c_theorem2(p).values  # row i-k-l holds J_i in the Bernstein basis
            D = d_theorem4(p).values
            for hi, h in enumerate(p.h_indices()):
                for ii, i in enumerate(p.i_indices()):
                    lhs = D[hi, ii] * float(C[ii] @ G @ C[ii])
                    rhs = float(G[hi] @ C[ii])
                    assert abs(lhs - rhs) <= 1e-12 + 1e-9 * max(abs(lhs), abs(rhs))


def test_recurrence_step_counts():
    p = TransformParams(60, 1, 1)
    assert d_theorem3(p).recurrence_steps > 0
    assert d_theorem4(p).recurrence_steps > 0
    s40 = d_theorem4(TransformParams(40, 1, 1)).recurrence_steps
    s80 = d_theorem4(TransformParams(80, 1, 1)).recurrence_steps
    assert 3.2 <= s80 / s40 <= 4.8
    # (m + 1) lanes of m - 1 three-term steps each, past the two seeds
    for m in (0, 1, 2, 9):
        p = TransformParams(m + 2, 1, 1)
        for route in (d_theorem3, d_theorem4):
            assert route(p).recurrence_steps == (m + 1) * max(0, m - 1), (route.__name__, m)


def test_index_bounds():
    m = d_theorem4(TransformParams(5, 1, 1))
    with pytest.raises(IndexError):
        m.at(0, 2)
    with pytest.raises(IndexError):
        m.at(1, 6)
    assert m.at(1, 2) == m.values[0, 0]
