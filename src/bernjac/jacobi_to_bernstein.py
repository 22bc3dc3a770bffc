"""Connection coefficients c[i][h] expressing each modified Jacobi polynomial
in the constrained Bernstein basis.

Four independent construction routes with one output contract:

* ``c_direct``   -- Hahn-series evaluation, the whole matrix at once, O(n^3),
  mid-trust.
* ``c_theorem1`` -- row recurrence (fixed i, descending h), O(n^2).
* ``c_theorem2`` -- column recurrence (fixed h, ascending i), O(n^2); the
  production route, fastest in practice.
* ``c_oracle``   -- the corrected closed-form literature formula with
  gamma-based generalized binomials, O(n^3), highest-trust reference.
"""

from __future__ import annotations

import math

import numpy as np

from .bases import ConnectionMatrix, TransformParams
from .specialfn import HahnParams, _binomial_row, _float_binomials, _hahn_table


def c_direct(p: TransformParams) -> ConnectionMatrix:
    """Hahn-series construction (cubic-cost reference).

    The series is summed for the whole matrix at once, each entry with
    ``hahn_eval``'s arithmetic, so the cost stays O(n^3).
    """
    n, k, l, a, b = p.n, p.k, p.l, p.alpha, p.beta
    m = n - k - l
    hp = HahnParams(a + 2.0 * l, b + 2.0 * k, m)
    binom_n = _float_binomials(n)
    binom_m = _float_binomials(m)
    scale = [binom_m[s] / binom_n[k + s] for s in range(m + 1)]
    pre = [1.0] * (m + 1)
    for r in range(1, m + 1):
        pre[r] = pre[r - 1] * ((a + 2.0 * l + r) / r)
    with np.errstate(all="ignore"):
        values = np.outer(pre, scale)
        values *= _hahn_table(hp)[:, ::-1]  # column s holds Q_r(m - s)
    return ConnectionMatrix(p, values, "i")


def c_theorem1(p: TransformParams) -> ConnectionMatrix:
    """Row recurrence: two seeds at h = n-l, n-l-1, then the three-term
    relation down to h = k, independently for every i."""
    n, k, l, a, b = p.n, p.k, p.l, p.alpha, p.beta
    m = n - k - l
    sig = p.sigma
    # h-dependent pieces shared across rows; index s = h - k for h <= n-l-2
    ratio = [0.0] * max(0, m - 1)
    hcoef = [0.0] * max(0, m - 1)
    gcoef = [0.0] * max(0, m - 1)
    invden = [0.0] * max(0, m - 1)
    for s in range(m - 1):
        h = k + s
        den = (n + l + a - h) * (k - h - 1.0)
        hval = (n - l - h - 1.0) * (h + k + b + 2.0) / den
        hcoef[s] = hval
        invden[s] = 1.0 / den
        ratio[s] = (n - h) * (h + 1.0 - k) / ((n - l - h) * (h + 1.0))
        gcoef[s] = (n - h - 1.0) * (n - h) * (h + 1.0 - k) * (h + 2.0 - k) / (
            (n - l - h - 1.0) * (n - l - h) * (h + 1.0) * (h + 2.0)) * hval
    inv_binom_nl = 1.0 / float(math.comb(n, l))
    second = m * (l + 1.0) / (n - l) if m >= 1 else 0.0
    rows = []
    pre = 1.0
    for r in range(m + 1):
        if r:
            pre *= (a + 2.0 * l + r) / r
        i = k + l + r
        wfac = (k + l - i) * (i + k + l + sig)
        row = [0.0] * (m + 1)
        row[m] = pre * inv_binom_nl
        if m >= 1:
            row[m - 1] = row[m] * second * (1.0 - wfac / ((k + l - n) * (a + 2.0 * l + 1.0)))
        for s in range(m - 2, -1, -1):
            f = ratio[s] * (1.0 - hcoef[s] - wfac * invden[s])
            row[s] = f * row[s + 1] + gcoef[s] * row[s + 2]
        rows.append(row)
    return ConnectionMatrix(p, np.array(rows), "i", recurrence_steps=(m + 1) * max(0, m - 1))


def c_theorem2(p: TransformParams) -> ConnectionMatrix:
    """Column recurrence: seeds at i = k+l, k+l+1, then the three-term
    relation up to i = n, independently for every h.  Production route."""
    n, k, l, a, b = p.n, p.k, p.l, p.alpha, p.beta
    m = n - k - l
    sig = p.sigma
    # seed row i = k+l: C(m, h-k)/C(n, h), advanced by the adjacent-h ratio
    row0 = [0.0] * (m + 1)
    row0[0] = 1.0 / float(math.comb(n, k))
    for s in range(m):
        h = k + s
        row0[s + 1] = row0[s] * (h + 1.0) * (n - l - h) / ((n - h) * (h + 1.0 - k))
    values = np.empty((m + 1, m + 1))
    values[0] = prev1 = row0
    if m >= 1:
        cfac = (sig + 2.0 * k + 2.0 * l + 1.0) / (k + l - n)
        prev2, prev1 = prev1, [row0[s] * (a + 2.0 * l + 1.0 - cfac * (l + k + s - n)) for s in range(m + 1)]
        values[1] = prev1
    for r, i in enumerate(range(k + l + 2, n + 1), start=2):
        M = (i - k - l - 1.0) * (n + i + a + b) * (i + k + b - l - 1.0) * (2.0 * i + a + b) / (
            (2.0 * i + a + b - 2.0) * (i + k + l + a + b) * (i + l + a - k) * (i - n - 1.0))
        L = (a + l + i - k - 1.0) * (a + l + i - k) / ((i - k - l - 1.0) * (i - k - l)) * M
        kbase = (a + l + i - k) * (1.0 - M) / (i - k - l)
        kslope = (2.0 * i + a + b - 1.0) * (2.0 * i + a + b) / (
            (i - k - l) * (i + k + l + a + b) * (i - n - 1.0))
        prev2, prev1 = prev1, [(kbase - (s - m) * kslope) * prev1[s] + L * prev2[s] for s in range(m + 1)]
        values[r] = prev1
    return ConnectionMatrix(p, values, "i", recurrence_steps=(m + 1) * max(0, m - 1))


def c_oracle(p: TransformParams) -> ConnectionMatrix:
    """Corrected closed-form evaluation with gamma-based binomials (cubic cost).

    A gamma domain violation, impossible inside the valid parameter region
    but reached once a weight rounds onto -1, raises ValueError naming the
    route and the weights.
    """
    n, k, l, a, b = p.n, p.k, p.l, p.alpha, p.beta
    m = n - k - l
    binom_n = _float_binomials(n)
    inv_binom = [1.0 / binom_n[k + s] for s in range(m + 1)]
    lt = [math.lgamma(r + 1.0) for r in range(m + 1)]  # lgamma(t + 1) of the lower arguments t = r
    rows = []
    for i in range(k + l, n + 1):
        mi = i - l - k
        try:
            b1 = _binomial_row(i + a + l - k, range(mi + 1), lt)
            b2 = _binomial_row(i + b - l + k, range(mi + 1), lt)[::-1]  # b2[r] takes t = mi - r
        except ValueError:
            raise ValueError(f"c_oracle: closed form undefined at alpha={a!r}, beta={b!r}") from None
        t = _float_binomials(n - i)
        row = [0.0] * (m + 1)
        for s in range(m + 1):
            h = k + s
            r_lo = max(0, h + i - n - k)
            r_hi = min(h - k, mi)
            sign = -1.0 if (mi - r_lo) & 1 else 1.0
            acc = 0.0
            for r in range(r_lo, r_hi + 1):
                acc += sign * b1[r] * b2[r] * t[s - r]
                sign = -sign
            row[s] = inv_binom[s] * acc
        rows.append(row)
    return ConnectionMatrix(p, np.array(rows), "i")
