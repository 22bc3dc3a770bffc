import numpy as np
import pytest

from bernjac.specialfn import HahnParams

# mixed-tolerance policy used by every cross-route comparison
ATOL = 1e-12
RTOL = 1e-9

# weight-exponent sample used throughout the suite
ALPHA_BETA = (-0.9, -0.5, 0.0, 0.5, 3.7)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
