import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import ALPHA_BETA, _hahn_rec_coeffs, gen_binomial, hahn_recurrence_step, hahn_series_scale, pochhammer

from bernjac.specialfn import (
    HahnParams,
    _binomial_row,
    _hahn_table,
    _poch_ratio,
    beta_fn,
    dual_hahn_eval,
    hahn_eval,
)

# frozen 40-digit references (mpmath, dps=40)
GEN_BINOMIAL_2P5_1P25 = 2.588892485704220912
BETA_1P5_2P5 = 0.1963495408493620774


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(2.5, 0) == 1.0

    def test_integer_product(self):
        assert pochhammer(3.0, 3) == 60.0  # 3*4*5

    def test_zero_factor(self):
        assert pochhammer(-2.0, 4) == 0.0  # factor (h+2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    @pytest.mark.parametrize("h", [-3.5, -1.0, 0.25, 1.0, 2.7, 10.0])
    def test_one_step_extension_is_exact(self, h):
        # left-to-right evaluation makes this an identity in floating point
        for i in range(0, 12):
            assert pochhammer(h, i + 1) == pochhammer(h, i) * (h + i)


class TestGenBinomial:
    def test_integer_case(self):
        assert math.isclose(gen_binomial(5, 2), 10.0, rel_tol=1e-12)

    def test_choose_zero(self):
        assert math.isclose(gen_binomial(7, 0), 1.0, rel_tol=1e-14)

    def test_real_arguments(self):
        assert math.isclose(gen_binomial(2.5, 1.25), GEN_BINOMIAL_2P5_1P25, rel_tol=1e-12)

    def test_matches_integer_binomial(self):
        for n in range(0, 40, 3):
            for t in range(0, n + 1, 2):
                assert math.isclose(gen_binomial(n, t), math.comb(n, t), rel_tol=1e-12)

    @pytest.mark.parametrize("y,t", [(-2.5, 1.0), (3.0, -1.5), (2.0, 5.0)])
    def test_domain(self, y, t):
        with pytest.raises(ValueError):
            gen_binomial(y, t)


def lgamma_table(ts):
    return [math.lgamma(t + 1.0) for t in ts]


class TestBinomialRow:
    @pytest.mark.parametrize("y", [0.0, 2.5, 7, 19.3, -0.9, 1e10, 1e200, 400.5])
    def test_matches_per_entry_reference_bitwise(self, y):
        # integer and real lower arguments, one table longer than the row, and
        # values past double range, which saturate to inf in both forms
        for ts in (range(1), range(6), [0.5, 1.25, 3.0], [y - 0.5, y, y + 0.5]):
            ts = [t for t in ts if y - t + 1.0 > 0.0 and t > -1.0]
            if ts:
                got = _binomial_row(y, ts, lgamma_table(ts) + [math.nan])
                assert got == [gen_binomial(y, t) for t in ts], (y, ts)

    @pytest.mark.parametrize("y,t", [(-2.5, 1.0), (3.0, -1.5), (2.0, 5.0)])
    def test_domain(self, y, t):
        with pytest.raises(ValueError):
            _binomial_row(y, [t], lgamma_table([t]))

    def test_domain_is_decided_at_the_ends(self):
        # y - t + 1 reaches 0 at the last t only; t > -1 fails at the first only
        assert _binomial_row(2.0, range(3), lgamma_table(range(3))) == pytest.approx([1.0, 2.0, 1.0], rel=1e-14)
        with pytest.raises(ValueError, match="out of domain"):
            _binomial_row(2.0, range(4), lgamma_table(range(4)))
        with pytest.raises(ValueError, match="out of domain"):
            _binomial_row(2.0, [-1.0, 0.0], [math.inf, 0.0])


class TestBetaFn:
    def test_ones(self):
        assert math.isclose(beta_fn(1.0, 1.0), 1.0, rel_tol=1e-14)

    def test_one_three(self):
        assert math.isclose(beta_fn(1.0, 3.0), 1.0 / 3.0, rel_tol=1e-13)

    def test_real_arguments(self):
        assert math.isclose(beta_fn(1.5, 2.5), BETA_1P5_2P5, rel_tol=1e-13)

    def test_symmetry(self):
        assert math.isclose(beta_fn(2.25, 6.5), beta_fn(6.5, 2.25), rel_tol=1e-14)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -2.0)])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            beta_fn(a, b)


class TestHahnParams:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            HahnParams(-1.0, 0.0, 3)
        with pytest.raises(ValueError):
            HahnParams(0.0, -1.5, 3)

    def test_rejects_negative_N(self):
        with pytest.raises(ValueError):
            HahnParams(0.0, 0.0, -1)


NAN, INF = math.nan, math.inf
HUGE = 10**400  # an int beyond double range
REJECTED = [
    (HahnParams, (NAN, 0.0, 3)),
    (HahnParams, (0.0, INF, 3)),
    (HahnParams, (0.0, 0.0, True)),
    (gen_binomial, (NAN, 1.0)),
    (gen_binomial, (INF, 1.0)),
    (gen_binomial, (2.0, NAN)),
    (_binomial_row, (NAN, [1.0], [0.0])),
    (_binomial_row, (INF, [1.0], [0.0])),
    (_binomial_row, (2.0, [NAN], [NAN])),
    (_binomial_row, (2.0, [0.0, INF], [0.0, INF])),
    (beta_fn, (INF, 1.0)),
    (beta_fn, (1.0, NAN)),
    (pochhammer, (1.0, True)),
    (pochhammer, (NAN, 2)),
    (pochhammer, (HUGE, 2)),
    (gen_binomial, (HUGE, 1.0)),
    (_binomial_row, (HUGE, [1.0], [0.0])),
    (beta_fn, (HUGE, 1.0)),
    (HahnParams, (HUGE, 0.0, 3)),
    (HahnParams, (True, 0.0, 3)),
    (HahnParams, (0.0, "0.5", 3)),
    (beta_fn, (1.0, True)),
    (beta_fn, (None, 1.0)),
]


@pytest.mark.parametrize("fn,args", REJECTED, ids=[f"{fn.__name__}-huge" if args[0] is HUGE else f"{fn.__name__}{args}"
                                                   for fn, args in REJECTED])
def test_non_finite_and_bool_inputs_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("w", [np.float32(0.1), np.float16(0.1), 1, np.int64(3), Fraction(1, 3)], ids=repr)
def test_non_float_arguments_give_the_double_result(w):
    # taken as the double float(w), so the Hahn series runs in double, with no
    # warning (the suite makes warnings errors)
    d = float(w)
    p = HahnParams(w, w, 12)
    assert type(p.alpha) is float and type(p.beta) is float and p == HahnParams(d, d, 12)
    assert hahn_eval(7, 5.0, p).hex() == hahn_eval(7, 5.0, HahnParams(d, d, 12)).hex()
    assert beta_fn(w, 2.5).hex() == beta_fn(d, 2.5).hex()
    assert beta_fn(2.5, w).hex() == beta_fn(2.5, d).hex()


class TestPochRatio:
    def test_known_value(self):
        # (1)_5 / (2)_5 = 5! / (6!/1!) = 1/6
        assert _poch_ratio([(1.0, 5)], [(2.0, 5)]) == pytest.approx(1.0 / 6.0, rel=1e-15)

    @pytest.mark.parametrize("num,den", [([(1.0, 3)], [(2.0, 2)]), ([(1.0, 2)], [(2.0, 1), (5.0, 2)])])
    def test_unequal_factor_counts_rejected(self, num, den):
        with pytest.raises(ValueError):
            _poch_ratio(num, den)


class TestHahnEval:
    def test_degree_zero(self):
        p = HahnParams(0.3, -0.2, 5)
        for x in (0.0, 1.0, 3.5):
            assert hahn_eval(0, x, p) == 1.0

    def test_value_at_zero(self):
        # the (-x)_j factor kills every j >= 1 term
        for n in range(0, 6):
            assert hahn_eval(n, 0.0, HahnParams(0.5, 1.5, 6)) == 1.0

    def test_degree_one_closed_form(self):
        # Q_1(x) = 1 - (alpha+beta+2) x / ((alpha+1) N)
        assert hahn_eval(1, 1.0, HahnParams(0.0, 0.0, 2)) == pytest.approx(0.0, abs=1e-15)
        for a, b, N, x in [(0.5, -0.5, 4, 2.0), (3.7, 0.0, 7, 5.0)]:
            expect = 1.0 - (a + b + 2.0) * x / ((a + 1.0) * N)
            assert hahn_eval(1, x, HahnParams(a, b, N)) == pytest.approx(expect, rel=1e-14)

    def test_degree_beyond_N_rejected(self):
        with pytest.raises(ValueError):
            hahn_eval(3, 1.0, HahnParams(0.0, 0.0, 2))


@pytest.mark.parametrize("a", ALPHA_BETA + (1e10,))
def test_hahn_table_matches_hahn_eval_bitwise(a):
    for b in ALPHA_BETA:
        for N in range(21):
            p = HahnParams(a, b, N)
            ref = np.array([[hahn_eval(r, float(x), p) for x in range(N + 1)] for r in range(N + 1)])
            assert np.array_equal(_hahn_table(p), ref, equal_nan=True), (a, b, N)


class TestHahnRecurrenceStep:
    def test_at_x_zero(self):
        # Q_n(0) = 1 for every n
        p = HahnParams(0.7, 0.1, 4)
        assert hahn_recurrence_step(0, 0.0, p, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_reproduces_degree_one(self):
        p = HahnParams(0.0, 0.0, 2)
        q1 = hahn_recurrence_step(0, 1.0, p, 1.0, 0.0)
        assert q1 == pytest.approx(hahn_eval(1, 1.0, p), abs=1e-15)

    def test_reproduces_degree_two(self):
        # Q_2(1; 0,0,2) = -2 by the direct series
        p = HahnParams(0.0, 0.0, 2)
        q2 = hahn_recurrence_step(1, 1.0, p, 0.0, 1.0)
        assert q2 == pytest.approx(-2.0, rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hahn_recurrence_step(2, 0.0, HahnParams(0.0, 0.0, 2), 1.0, 1.0)

    @pytest.mark.parametrize("a", ALPHA_BETA)
    @pytest.mark.parametrize("b", ALPHA_BETA)
    def test_iteration_matches_series(self, a, b):
        # iterated agreement is value-relative only while the series stays
        # well conditioned; beyond N=9 amplification makes it meaningless
        for N in range(1, 10):
            p = HahnParams(a, b, N)
            for x in range(0, N + 1):
                q_prev, q = 0.0, 1.0
                for n in range(0, N):
                    q_prev, q = q, hahn_recurrence_step(n, float(x), p, q, q_prev)
                    direct = hahn_eval(n + 1, float(x), p)
                    assert abs(q - direct) <= 1e-9 * max(1.0, abs(direct))

    @pytest.mark.parametrize("a", ALPHA_BETA)
    @pytest.mark.parametrize("b", ALPHA_BETA)
    def test_single_step_residual_full_range(self, a, b):
        # each step, fed series values, reproduces the next series value to
        # 1e-9 of the conditioning scale of its inputs and output, N <= 20
        for N in (10, 14, 17, 20):
            p = HahnParams(a, b, N)
            for x in range(N + 1):
                for n in range(N):
                    qn = hahn_eval(n, float(x), p)
                    qp = hahn_eval(n - 1, float(x), p) if n else 0.0
                    nxt = hahn_eval(n + 1, float(x), p)
                    got = hahn_recurrence_step(n, float(x), p, qn, qp)
                    A, C = _hahn_rec_coeffs(n, a, b, N)
                    S = max(1.0, hahn_series_scale(n + 1, x, a, b, N),
                            (abs(A + C - x) * hahn_series_scale(n, x, a, b, N)
                             + abs(C) * hahn_series_scale(n - 1, x, a, b, N)) / abs(A))
                    assert abs(got - nxt) <= 1e-9 * S


class TestDualHahn:
    def test_degree_zero(self):
        assert dual_hahn_eval(0, 3, HahnParams(0.2, 0.4, 5)) == 1.0

    def test_node_zero(self):
        for n in range(0, 5):
            assert dual_hahn_eval(n, 0, HahnParams(1.5, -0.5, 5)) == 1.0

    def test_duality_example(self):
        # R_2(lambda(1); 0,0,3) = Q_1(2; 0,0,3)
        p = HahnParams(0.0, 0.0, 3)
        assert dual_hahn_eval(2, 1, p) == pytest.approx(hahn_eval(1, 2.0, p), rel=1e-12)

    def test_out_of_range(self):
        p = HahnParams(0.0, 0.0, 3)
        with pytest.raises(ValueError):
            dual_hahn_eval(4, 1, p)
        with pytest.raises(ValueError):
            dual_hahn_eval(1, 4, p)

    @pytest.mark.parametrize("a", ALPHA_BETA)
    @pytest.mark.parametrize("b", ALPHA_BETA)
    def test_duality_grid(self, a, b):
        for N in (0, 1, 4, 7):
            p = HahnParams(a, b, N)
            for n in range(N + 1):
                for x in range(N + 1):
                    lhs = dual_hahn_eval(n, x, p)
                    rhs = hahn_eval(x, float(n), p)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("a", ALPHA_BETA)
@pytest.mark.parametrize("b", ALPHA_BETA)
def test_hahn_symmetry(a, b):
    # Q_n(x; a, b, N) = (-1)^n (b+1)_n / (a+1)_n Q_n(N-x; b, a, N);
    # value-relative where the series is well conditioned, scale-relative on
    # the full range (see the acceptance suite for the measured landscape)
    for N in (1, 3, 7, 14, 20):
        p = HahnParams(a, b, N)
        q = HahnParams(b, a, N)
        for n in range(N + 1):
            factor = (-1.0) ** n * pochhammer(b + 1.0, n) / pochhammer(a + 1.0, n)
            for x in range(N + 1):
                lhs = hahn_eval(n, float(x), p)
                rhs = factor * hahn_eval(n, float(N - x), q)
                if N <= 7:
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
                scale = max(1.0, hahn_series_scale(n, x, a, b, N),
                            abs(factor) * hahn_series_scale(n, N - x, b, a, N))
                assert abs(lhs - rhs) <= 1e-10 * scale
