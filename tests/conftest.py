import math
import sys

import numpy as np
import pytest

from bernjac.bases import TransformParams
from bernjac.specialfn import HahnParams

# mixed-tolerance policy used by every cross-route comparison
ATOL = 1e-12
RTOL = 1e-9

# weight-exponent sample used throughout the suite
ALPHA_BETA = (-0.9, -0.5, 0.0, 0.5, 3.7)

# weights that put entries past double range, with the acceptance sample's corners
EXTREME_WEIGHTS = ((0.0, 0.0), (0.5, -0.5), (-0.9, 3.7), (1e10, 0.5), (0.5, 1e200), (1e200, 0.0))

# weights of the byte-identity grids: the extreme ones, the Chebyshev pair,
# -1 + 2^-52 on either side, where alpha + n absorbs the 2^-52, and a pair
# whose sums with small integers round, so that a regrouped sum shows
NEAR_MINUS_ONE = -1.0 + 2.0 ** -52
IDENTITY_WEIGHTS = EXTREME_WEIGHTS + (
    (-0.5, -0.5), (NEAR_MINUS_ONE, 0.0), (0.0, NEAR_MINUS_ONE), (1.0 / 3.0, 3.7e-5), (3.7e-5, 1.0 / 3.0))
IDENTITY_DEGREES = (0, 1, 2, 3, 5, 9, 14, 20, 33, 71)

# exact range bound: an int beyond double range fails it instead of overflowing
_MAX = sys.float_info.max


def identity_spaces(n):
    """Every space of degree n with k, l <= 2 and weights from IDENTITY_WEIGHTS."""
    for k in range(3):
        for l in range(3):
            if k + l <= n:
                for a, b in IDENTITY_WEIGHTS:
                    yield TransformParams(n, k, l, a, b)


def _outcome(f, p):
    try:
        v = np.asarray(f(p))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return v.shape, v.tobytes()


def assert_same_bytes(got, want, p):
    """``got(p)`` and ``want(p)`` return arrays of one shape and equal bytes,
    or raise the same exception type."""
    assert _outcome(got, p) == _outcome(want, p), p


def mixed_excess(a, b, atol=ATOL, rtol=RTOL):
    """Largest violation of |a-b| <= atol + rtol*max(|a|,|b|); <= 0 passes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) - (atol + rtol * np.maximum(np.abs(a), np.abs(b)))))


def assert_mixed_close(a, b, atol=ATOL, rtol=RTOL, label=""):
    excess = mixed_excess(a, b, atol, rtol)
    assert excess <= 0.0, f"{label} mixed-tolerance violation by {excess:.3e}"


def hahn_series_scale(n: int, x: float, alpha: float, beta: float, N: int) -> float:
    """Sum of absolute terms of the Hahn series: its cancellation scale.

    The direct terminating sum is ill-conditioned for large n and x
    simultaneously (terms reach ~1e12 at N=20 while values are O(1)), so
    value-relative identity checks are only meaningful against this scale
    outside the small-N range.
    """
    if n < 0:
        return 0.0
    total = term = 1.0
    for j in range(n):
        term *= abs((j - n) * (n + alpha + beta + 1.0 + j) * (j - x)) / abs(
            (j + 1.0) * (alpha + 1.0 + j) * (j - N))
        total += term
    return total


def _hahn_rec_coeffs(n: int, a: float, b: float, N: int) -> tuple[float, float]:
    # A_0 carries a removable (a+b+1) factor shared with its denominator;
    # the cancelled form stays finite when a+b+1 == 0.
    if n == 0:
        return (a + 1.0) * N / (a + b + 2.0), 0.0
    A = (n + a + b + 1.0) * (n + a + 1.0) * (N - n) / ((2.0 * n + a + b + 1.0) * (2.0 * n + a + b + 2.0))
    C = n * (n + a + b + N + 1.0) * (n + b) / ((2.0 * n + a + b) * (2.0 * n + a + b + 1.0))
    return A, C


def hahn_recurrence_step(n: int, x: float, p: HahnParams, q_n: float, q_prev: float) -> float:
    """Advance the Hahn three-term recurrence one degree.

    Given Q_n(x) and Q_{n-1}(x), returns Q_{n+1}(x); q_prev is ignored for
    n = 0.
    """
    if not 0 <= n < p.N:
        raise ValueError(f"recurrence step requires 0 <= n < N, got n={n}, N={p.N}")
    A, C = _hahn_rec_coeffs(n, p.alpha, p.beta, p.N)
    assert A != 0.0, "Hahn recurrence coefficient A_n vanished inside its valid domain"
    if n == 0:
        return (A + C - x) * q_n / A
    return ((A + C - x) * q_n - C * q_prev) / A


def gen_binomial(y: float, t: float) -> float:
    """Binomial coefficient generalized to real arguments via the gamma function,
    one entry at a time: the per-entry reference for ``specialfn._binomial_row``.

    Requires finite y > -1, t > -1 and y-t+1 > 0.  Results beyond double
    range saturate to inf instead of raising.
    """
    if not (-1.0 < y <= _MAX and -1.0 < t <= _MAX and y - t + 1.0 > 0.0):
        raise ValueError(f"gen_binomial arguments out of domain: y={y}, t={t}")
    v = math.lgamma(y + 1.0) - math.lgamma(t + 1.0) - math.lgamma(y - t + 1.0)
    return math.exp(v) if v < 709.0 else math.inf


def pochhammer(h: float, i: int) -> float:
    """Rising factorial (h)_i = h(h+1)...(h+i-1), as a direct product.

    The empty product (i = 0) is 1.  Left-to-right evaluation keeps each
    partial result exact up to one rounding per factor and never round-trips
    through the gamma function.
    """
    if not -_MAX <= h <= _MAX:
        raise ValueError(f"pochhammer base must be finite, got {h}")
    if type(i) is not int or i < 0:
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {i!r}")
    out = 1.0
    for j in range(i):
        out *= h + j
    return out


def eval_shifted_jacobi(i: int, alpha: float, beta: float, x: float) -> float:
    """Shifted Jacobi polynomial on [0,1], weight (1-x)^alpha x^beta.

    Evaluated by its terminating series in powers of (1-x); adequate for the
    moderate degrees this library targets.
    """
    if not (-1.0 < alpha <= sys.float_info.max and -1.0 < beta <= sys.float_info.max):
        raise ValueError("shifted Jacobi parameters must be finite with alpha > -1 and beta > -1")
    if i < 0:
        raise ValueError("shifted Jacobi degree must be nonnegative")
    pre = 1.0
    for j in range(i):
        pre *= (alpha + 1.0 + j) / (j + 1.0)
    u = 1.0 - x
    total = 0.0
    term = 1.0
    for j in range(i):
        total += term
        term *= (j - i) * (i + alpha + beta + 1.0 + j) * u / ((j + 1.0) * (alpha + 1.0 + j))
    return pre * (total + term)


def eval_mod_jacobi(i: int, p: TransformParams, x: float) -> float:
    """Modified Jacobi basis polynomial: (1-x)^l x^k times a shifted Jacobi
    polynomial of degree i-k-l with lifted parameters."""
    if not p.k + p.l <= i <= p.n:
        raise ValueError(f"index i must lie in [{p.k + p.l}, {p.n}], got {i}")
    return (1.0 - x) ** p.l * x ** p.k * eval_shifted_jacobi(
        i - p.k - p.l, p.alpha + 2.0 * p.l, p.beta + 2.0 * p.k, x)


def de_casteljau(coeffs, x: float):
    """Evaluate a polynomial from its full Bernstein coefficient vector.

    Repeated convex combinations; backward stable on [0, 1].
    """
    b = np.array(coeffs, dtype=float)
    n = b.shape[0] - 1
    for r in range(n):
        b = (1.0 - x) * b[:n - r] + x * b[1:n - r + 1]
    return b[0]


def end_derivatives(pts, order: int, x0: float) -> list:
    """Derivatives of orders j < ``order`` at the end t = x0 (0 or 1) of the
    Bezier curve with control points ``pts``, exactly: n!/(n-j)! times the
    j-th forward difference of the points at that end."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0] - 1
    return [math.perm(n, j) * np.diff(pts, j, axis=0)[-1 if x0 else 0] for j in range(order)]


def entry(m, r: int, c: int) -> float:
    """Entry of a ConnectionMatrix at row index r and column index c, both
    by their mathematical values (i = k+l..n, h = k..n-l)."""
    return m.values[r - m.indices(m.rows).start, c - m.indices(m.cols).start]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
