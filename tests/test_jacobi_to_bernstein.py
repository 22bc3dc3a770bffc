import numpy as np
import pytest
from conftest import ALPHA_BETA, EXTREME_WEIGHTS, assert_mixed_close, de_casteljau, entry, eval_mod_jacobi, gen_binomial

from bernjac.bases import TransformParams
from bernjac.jacobi_to_bernstein import c_direct, c_oracle, c_theorem1, c_theorem2
from bernjac.specialfn import HahnParams, _float_binomials, hahn_eval

ALL_ROUTES = (c_direct, c_theorem1, c_theorem2, c_oracle)

# collocation-solve reference at 40-digit precision for
# (n=4, k=1, l=1, alpha=0.5, beta=-0.5); rows i=2..4, columns h=1..3
FROZEN_C_411 = np.array([
    [0.25, 1.0 / 3.0, 0.25],
    [-0.625, 1.0 / 6.0, 0.875],
    [1.09375, -2.625, 1.96875],
])


def small_grid():
    # strict mixed tolerance is attainable in f64 up to n = 7 on the full
    # weight-exponent sample; the acceptance suite covers n <= 20 with a
    # measured conditioning envelope
    for n in (1, 2, 3, 5, 7):
        for k in (0, 1, 2):
            for l in (0, 1, 2):
                if k + l <= n:
                    yield n, k, l


@pytest.mark.parametrize("route", ALL_ROUTES)
class TestKnownValues:
    def test_one_dimensional_space(self, route):
        # x(1-x) = (1/2) B_1^2
        m = route(TransformParams(2, 1, 1, 0.3, 1.2))
        assert m.values.shape == (1, 1)
        assert entry(m, 2, 1) == pytest.approx(0.5, rel=1e-14)

    def test_legendre_row_one(self, route):
        # R_1 = 2x-1 = -B_0^2 + 0*B_1^2 + B_2^2
        m = route(TransformParams(2, 0, 0))
        np.testing.assert_allclose(m.values[1], [-1.0, 0.0, 1.0], atol=1e-14)

    def test_legendre_row_two(self, route):
        # R_2 = 1 - 6(1-x) + 6(1-x)^2, hand-converted to (1, -2, 1)
        m = route(TransformParams(2, 0, 0))
        np.testing.assert_allclose(m.values[2], [1.0, -2.0, 1.0], rtol=1e-13, atol=1e-14)

    def test_frozen_matrix(self, route):
        m = route(TransformParams(4, 1, 1, 0.5, -0.5))
        np.testing.assert_allclose(m.values, FROZEN_C_411, rtol=1e-13, atol=1e-15)


def test_theorem1_seed_value():
    # c[2][3] at n=4, k=l=1: empty pochhammer over empty factorial / C(4,1)
    m = c_theorem1(TransformParams(4, 1, 1))
    assert entry(m, 2, 3) == pytest.approx(0.25, rel=1e-15)


def test_theorem2_seed_value():
    # c[2][1] at n=3, k=l=1: C(3,1)^{-1} C(1,0)
    m = c_theorem2(TransformParams(3, 1, 1, 0.7, -0.2))
    assert entry(m, 2, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_first_row_positive():
    for n, k, l in small_grid():
        for a, b in [(-0.9, 3.7), (0.0, 0.0), (0.5, -0.5)]:
            m = c_theorem2(TransformParams(n, k, l, a, b))
            assert np.all(m.values[0] > 0.0)


def test_unconstrained_row_one_is_linear_ramp():
    # with k=l=0 and alpha=beta=0, row i=1 represents 2x-1, whose degree-n
    # Bernstein coefficients are the nodal samples 2h/n - 1
    for n in (2, 5, 9):
        m = c_theorem2(TransformParams(n, 0, 0))
        expect = [2.0 * h / n - 1.0 for h in range(n + 1)]
        np.testing.assert_allclose(m.values[1], expect, atol=1e-14)


@pytest.mark.parametrize("a", ALPHA_BETA)
@pytest.mark.parametrize("b", ALPHA_BETA)
def test_four_route_agreement(a, b):
    for n, k, l in small_grid():
        p = TransformParams(n, k, l, a, b)
        ref = c_direct(p).values
        for route in (c_theorem1, c_theorem2, c_oracle):
            assert_mixed_close(route(p).values, ref, label=f"{route.__name__} vs direct {p}")


@pytest.mark.parametrize("a", (-0.9, 0.0, 3.7))
def test_route_agreement_high_degree_envelope(a):
    # beyond n = 7 small entries in large-magnitude rows only agree up to
    # the conditioning envelope (row scale times 2^(n-10) ulp growth)
    for n in (12, 16):
        p = TransformParams(n, 1, 1, a, 0.5)
        ref = c_direct(p).values
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        tol = 1e-12 * np.maximum(scale, 1.0) + 1e-9 * 2.0 ** (n - 10) * scale
        for route in (c_theorem1, c_theorem2, c_oracle):
            assert np.max(np.abs(route(p).values - ref) - tol) <= 0.0


def test_rows_reproduce_mod_jacobi_values():
    xs = np.linspace(0.0, 1.0, 50)
    for n, k, l in list(small_grid()) + [(10, 1, 1), (12, 0, 0), (12, 2, 2)]:
        for a, b in [(0.0, 0.0), (-0.5, 0.5), (3.7, -0.9)]:
            p = TransformParams(n, k, l, a, b)
            m = c_theorem2(p)
            for i in p.i_indices():
                row = m.values[i - k - l]
                full = np.zeros(n + 1)
                full[k:n - l + 1] = row
                direct = np.array([eval_mod_jacobi(i, p, x) for x in xs])
                synth = np.array([de_casteljau(full, x) for x in xs])
                # the coefficient magnitude joins the scale: row entries can
                # dwarf the polynomial values, and both evaluation and
                # coefficient rounding are relative to them
                bound = 1e-9 * (1.0 + np.max(np.abs(direct)) + np.max(np.abs(row)))
                assert np.max(np.abs(direct - synth)) <= bound


def test_recurrence_step_count_scales_quadratically():
    counts = {}
    for n in (40, 80, 160):
        counts[n] = c_theorem2(TransformParams(n, 1, 1)).recurrence_steps
        assert counts[n] > 0
    assert 3.2 <= counts[80] / counts[40] <= 4.8
    assert 3.2 <= counts[160] / counts[80] <= 4.8
    t1 = {n: c_theorem1(TransformParams(n, 1, 1)).recurrence_steps for n in (40, 80)}
    assert 3.2 <= t1[80] / t1[40] <= 4.8


def test_recurrence_step_counts():
    # (m + 1) lanes of m - 1 three-term steps each, past the two seeds
    for m in (0, 1, 2, 9):
        p = TransformParams(m + 2, 1, 1)
        for route in (c_theorem1, c_theorem2):
            assert route(p).recurrence_steps == (m + 1) * max(0, m - 1), (route.__name__, m)


@pytest.mark.parametrize("n", (0, 1, 9, 20))
def test_direct_matches_scalar_series_bitwise(n):
    # the per-entry Hahn-series formula c_direct evaluates for the whole matrix
    for k, l in ((0, 0), (1, 1), (0, 2), (2, 0)):
        if k + l > n:
            continue
        for a, b in EXTREME_WEIGHTS:
            p = TransformParams(n, k, l, a, b)
            m = n - k - l
            hp = HahnParams(a + 2.0 * l, b + 2.0 * k, m)
            binom_n, binom_m = _float_binomials(n), _float_binomials(m)
            scale = [binom_m[s] / binom_n[k + s] for s in range(m + 1)]
            ref = np.empty((m + 1, m + 1))
            pre = 1.0
            for r in range(m + 1):
                if r:
                    pre *= (a + 2.0 * l + r) / r
                for s in range(m + 1):
                    ref[r, s] = pre * scale[s] * hahn_eval(r, m - s, hp)
            values = c_direct(p).values
            assert values.flags["C_CONTIGUOUS"]
            assert np.array_equal(values, ref, equal_nan=True), p


def scalar_c_oracle(p):
    """The closed form of c_oracle with one ``gen_binomial`` call per binomial."""
    n, k, l, a, b = p.n, p.k, p.l, p.alpha, p.beta
    m = n - k - l
    binom_n = _float_binomials(n)
    vals = np.empty((m + 1, m + 1))
    for i in range(k + l, n + 1):
        mi = i - l - k
        t = _float_binomials(n - i)
        for s in range(m + 1):
            h = k + s
            r_lo = max(0, h + i - n - k)
            sign = -1.0 if (mi - r_lo) & 1 else 1.0
            acc = 0.0
            for r in range(r_lo, min(h - k, mi) + 1):
                acc += sign * gen_binomial(i + a + l - k, r) * gen_binomial(i + b - l + k, mi - r) * t[s - r]
                sign = -sign
            vals[mi, s] = 1.0 / binom_n[h] * acc
    return vals


@pytest.mark.parametrize("n", (0, 1, 9, 20))
def test_oracle_matches_per_entry_binomials_bitwise(n):
    # c_oracle takes its binomials from lgamma tables; each entry keeps the
    # per-entry formula's arithmetic
    for k, l in ((0, 0), (1, 1), (0, 2), (2, 0)):
        if k + l > n:
            continue
        for a, b in EXTREME_WEIGHTS:
            p = TransformParams(n, k, l, a, b)
            assert np.array_equal(c_oracle(p).values, scalar_c_oracle(p), equal_nan=True), p


def test_oracle_refusal_names_route_and_weights():
    # alpha = -1 + 2^-52: 3 + alpha rounds to 2.0, where C(2, 3) is undefined
    with pytest.raises(ValueError, match=r"^c_oracle: closed form undefined at alpha=-0\.9999999999999998, beta=0\.0$"):
        c_oracle(TransformParams(4, 0, 0, -1.0 + 2.0 ** -52, 0.0))


def test_direct_and_oracle_report_no_steps():
    p = TransformParams(5, 1, 0)
    assert c_direct(p).recurrence_steps is None
    assert c_oracle(p).recurrence_steps is None
