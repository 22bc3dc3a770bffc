"""Scalar special-function kernel.

Generalized binomial coefficients by rows, the Beta function, ratios of
rising factorials, and Hahn / dual Hahn polynomial evaluation by their
terminating series, plus a whole-table form of the Hahn series for the
cubic-cost reference routes.  The three-term recurrences live in the matrix
builders of the transform modules, which never touch the gamma function;
everything gamma-flavoured here exists for the cubic-cost reference
formulas and the exact Gram-matrix oracle.

The reference routes hoist what a whole matrix shares out of their inner
loops without changing a bit of the result: ``_binomial_row`` takes the
``lgamma(t + 1)`` of its lower arguments from a table the caller builds
once per matrix, and ``_hahn_table`` builds the j-dependent factors of
every series term as two tables before it sums.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from math import exp, lgamma

import numpy as np

# exact range bound: an int beyond double range fails it instead of overflowing
_MAX = sys.float_info.max


def _real(v):
    """``v`` as a Python float, so a NumPy float32 argument narrows no
    arithmetic; an int or fraction beyond double range stays exact, so the
    caller's range check refuses it.  bool and non-reals raise ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"expected a real number (not bool), got {v!r}")
    return v if isinstance(v, numbers.Rational) and abs(v) > _MAX else float(v)


def _binomial_row(y: float, ts, lts) -> list[float]:
    """Generalized binomials C(y, t) = Gamma(y+1) / (Gamma(t+1) Gamma(y-t+1))
    for every t of the ascending sequence ``ts``, given
    ``lts[j] = lgamma(ts[j] + 1.0)``; a longer ``lts`` is read only as far
    as ``ts`` goes, so one table serves every row of a matrix.

    Requires finite y > -1, t > -1 and y-t+1 > 0, which is the domain the
    closed-form connection-coefficient formulas actually exercise; y - t + 1
    falls with t, so the ends of ``ts`` decide it.  Results beyond double
    range saturate to inf instead of raising.
    """
    if not (-1.0 < y <= _MAX and -1.0 < ts[0] and ts[-1] <= _MAX and y - ts[-1] + 1.0 > 0.0):
        raise ValueError(f"binomial arguments out of domain: y={y}, t from {ts[0]} to {ts[-1]}")
    lgamma, exp, inf = math.lgamma, math.exp, math.inf
    ly = lgamma(y + 1.0)
    return [exp(v) if (v := ly - lt - lgamma(y - t + 1.0)) < 709.0 else inf for t, lt in zip(ts, lts)]


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), for finite a, b > 0."""
    if type(a) is not float or type(b) is not float:
        a, b = _real(a), _real(b)
    if not (0.0 < a <= _MAX and 0.0 < b <= _MAX):
        raise ValueError(f"beta_fn requires finite positive arguments, got ({a}, {b})")
    return exp(lgamma(a) + lgamma(b) - lgamma(a + b))


@dataclass(frozen=True)
class HahnParams:
    """Parameter triple (alpha, beta, N) of a Hahn / dual Hahn family."""

    alpha: float
    beta: float
    N: int

    def __post_init__(self):
        a, b = _real(self.alpha), _real(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not (-1.0 < a <= _MAX and -1.0 < b <= _MAX):
            raise ValueError("Hahn parameters require finite alpha > -1 and beta > -1")
        if type(self.N) is not int or self.N < 0:
            raise ValueError("Hahn parameter N must be a nonnegative integer")


def hahn_eval(n: int, x: float, p: HahnParams) -> float:
    """Hahn polynomial Q_n(x; alpha, beta, N) by its terminating series.

    The series has n+1 terms; successive terms are generated by a running
    ratio so each costs O(1).
    """
    if not 0 <= n <= p.N:
        raise ValueError(f"Hahn degree must satisfy 0 <= n <= N, got n={n}, N={p.N}")
    return _hahn_series(n, n, x, p)


def _hahn_series(n: int, s, x, p: HahnParams) -> float:
    """The terminating series sum_j (-n)_j (s+alpha+beta+1)_j (-x)_j /
    (j! (alpha+1)_j (-N)_j), term by term through the running ratio: s = n
    gives the Hahn polynomial, s = x the dual Hahn one."""
    a, b, N = p.alpha, p.beta, p.N
    total = 0.0
    term = 1.0
    for j in range(n):
        total += term
        term *= (j - n) * (s + a + b + 1.0 + j) * (j - x) / ((j + 1.0) * (a + 1.0 + j) * (j - N))
    return total + term


def _hahn_table(p: HahnParams) -> np.ndarray:
    """Q_r(x; alpha, beta, N) for all r, x = 0..N as ``table[r, x]``.

    One vector step per series term j; only the rows r > j still take
    terms, so rows r <= j are left as they are.  The factors of term j
    that depend on r or on x alone are built for every j at once, before
    the sum.  Every entry repeats ``hahn_eval``'s arithmetic in the same
    order and equals it bit for bit.
    """
    a, b, N = p.alpha, p.beta, p.N
    js = np.arange(N)[:, None]
    r = np.arange(N + 1)
    total = np.zeros((N + 1, N + 1))
    term = np.ones((N + 1, N + 1))
    with np.errstate(all="ignore"):  # the scalar series overflows to inf and nan silently too
        rfac = (js - r) * (r + a + b + 1.0 + js)  # [j, r]
        xfac = js - np.arange(N + 1.0)  # [j, x]
        for j in range(N):
            step = np.multiply.outer(rfac[j, j + 1:], xfac[j])
            step /= (j + 1.0) * (a + 1.0 + j) * (j - N)
            total[j + 1:] += term[j + 1:]
            term[j + 1:] *= step
        return total + term


def dual_hahn_eval(n: int, x: int, p: HahnParams) -> float:
    """Dual Hahn polynomial R_n(lambda(x); alpha, beta, N), lambda(x) = x(x+alpha+beta+1)."""
    if not 0 <= n <= p.N:
        raise ValueError(f"dual Hahn degree must satisfy 0 <= n <= N, got n={n}, N={p.N}")
    if not 0 <= x <= p.N:
        raise ValueError(f"dual Hahn node must satisfy 0 <= x <= N, got x={x}, N={p.N}")
    return _hahn_series(n, x, x, p)


def _float_binomials(n: int) -> list[float]:
    """C(n, 0..n) as floats, built by the adjacent-ratio product."""
    out = [1.0] * (n + 1)
    for h in range(n):
        out[h + 1] = out[h] * (n - h) / (h + 1.0)
    return out


def _poch_ratio(num: list[tuple[float, int]], den: list[tuple[float, int]]) -> float:
    """Ratio of two products of rising factorials with equal factor counts.

    Factors from the two sides are consumed alternately so intermediate
    values stay scaled even when the individual pochhammers would overflow.
    """
    nf = [s + j for s, c in num for j in range(c)]
    df = [s + j for s, c in den for j in range(c)]
    out = 1.0
    for x, y in zip(nf, df, strict=True):
        out = out * x / y
    return out
