"""Connection coefficients d[h][i] expressing each constrained Bernstein
polynomial in the modified Jacobi basis.

Every entry factors as d = z * w, where z is a pure product of parameter
ratios and w a Hahn polynomial value.  The step of z over i does not depend
on h, so z is rank one, zh[h] * zi[i]; the recurrence routes build it once as
that outer product and advance only w, by a three-term relation, keeping all
of w in an (m+1) x (m+1) table beside the output (m = n-k-l):

* ``d_direct``   -- z by its product formula, w by the Hahn series, the whole
  matrix at once; O(n^3).
* ``d_theorem3`` -- w in lanes of fixed h, advancing over i; O(n^2).
* ``d_theorem4`` -- w in lanes of fixed i, advancing over h; O(n^2); the
  production route, fastest in practice.
* ``d_oracle``   -- closed-form literature formula, gamma-based; O(n^3),
  highest-trust reference.

``u_factors`` builds the elementwise bridge u with c[i][h] = u[i][h]*d[h][i].
"""

from __future__ import annotations

import math

import numpy as np

from .bases import ConnectionMatrix, TransformParams
from .specialfn import HahnParams, _binomial_row, _float_binomials, _hahn_table, _poch_ratio


def _z_outer(p: TransformParams) -> np.ndarray:
    """The z factor of every entry, z[h][i] = zh[h] * zi[i]: zh advances by
    its h-ratio from 1, zi by its i-ratio from z[k][k+l]."""
    n, k, l = p.n, p.k, p.l
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    zh = [1.0] * (m + 1)
    for s in range(1, m + 1):
        h = k + s
        zh[s] = zh[s - 1] * (n + 1.0 - h) * (b + k + h) / (h * (a + l + n + 1.0 - h))
    z = float(math.comb(n, k)) * _poch_ratio(
        [(a + 2.0 * l + 1.0, n - l - k)],
        [(2.0 * k + 2.0 * l + sig + 1.0, m)],
    )
    zi = [z]
    for i in range(k + l + 1, n + 1):
        # At i = k+l+1 the bracketed factors (i+k+l+alpha+beta) and
        # (2i+alpha+beta-1) coincide and are cancelled symbolically; they
        # are 0/0 at k = l = 0, alpha + beta = -1.
        if i == k + l + 1:
            z *= (2.0 * i + sig) * (i - n - 1.0) / ((a + l + i - k) * (i + n + sig))
        else:
            z *= (2.0 * i + sig) * (i + k + l + a + b) * (i - n - 1.0) / (
                (a + l + i - k) * (i + n + sig) * (2.0 * i + a + b - 1.0))
        zi.append(z)
    return np.outer(zh, zi)


def d_direct(p: TransformParams) -> ConnectionMatrix:
    """z-product times Hahn-series w (cubic-cost reference).

    Both factors are evaluated for the whole matrix at once, each entry
    with the arithmetic of the scalar z product formula and ``hahn_eval``
    in the same order (``tests/test_bernstein_to_jacobi.py`` keeps that
    scalar form as the bitwise reference), so the cost stays O(n^3).  Of the factor pairs of z[h][i],
    the first i-k-l depend on i alone and form a running prefix; each of
    the remaining m takes its numerator from h and its denominator from i,
    so one vector step per pair position advances every entry.
    """
    n, k, l = p.n, p.k, p.l
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    a1 = a + 2.0 * l + 1.0
    b1 = b + 2.0 * k + 1.0
    prefix = [1.0] * (m + 1)
    for c in range(m):
        prefix[c + 1] = prefix[c] * (k + l - n + c) / (a1 + c)
    s = np.arange(m + 1)[:, None]
    t = np.arange(m)
    num = np.where(t < m - s, a1 + t, b1 + (t - (m - s)))  # [h - k, pair]
    den = (np.arange(k + l, n + 1)[:, None] + k + l + sig + 1.0) + t  # [i - k - l, pair]
    ratio0 = [1.0 if i == k + l else (2.0 * i + sig) / (i + k + l + sig) for i in range(k + l, n + 1)]
    binom = [float(math.comb(n, h)) for h in range(k, n - l + 1)]
    hp = HahnParams(b + 2.0 * k, a + 2.0 * l, m)
    with np.errstate(all="ignore"):
        body = np.tile(prefix, (m + 1, 1))
        for q in range(m):
            body *= num[:, q, None]
            body /= den[:, q]
        values = np.outer(binom, ratio0)
        values *= body
        values *= _hahn_table(hp).T  # entry (h, i) takes Q_{i-k-l}(h - k)
    return ConnectionMatrix(p, values, "h")


def d_theorem3(p: TransformParams) -> ConnectionMatrix:
    """Fixed-h lanes of w advanced over i by the three-term relation seeded
    at i = k+l, k+l+1."""
    n, k, l = p.n, p.k, p.l
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    cols = [[1.0] * (m + 1)]
    if m >= 1:
        cw = (2.0 * k + 2.0 * l + sig + 1.0) / ((k + l - n) * (b + 2.0 * k + 1.0))
        cols.append([1.0 + s * cw for s in range(m + 1)])
    for i in range(k + l + 2, n + 1):
        S = (i - k - l - 1.0) * (i + b + a + n) * (i + l + a - k - 1.0) * (2.0 * i + b + a) / (
            (2.0 * i + b + a - 2.0) * (i + k + l + b + a) * (i + k + b - l) * (i - n - 1.0))
        pslope = (2.0 * i + a + b - 1.0) * (2.0 * i + a + b) / (
            (i + k + l + a + b) * (i + k + b - l) * (i - n - 1.0))
        c0 = 1.0 - S
        cols.append([(c0 + s * pslope) * w1 + S * w2 for s, w1, w2 in zip(range(m + 1), cols[-1], cols[-2])])
    with np.errstate(all="ignore"):
        values = _z_outer(p)
        values *= np.array(cols).T
    return ConnectionMatrix(p, values, "h", recurrence_steps=(m + 1) * max(0, m - 1))


def d_theorem4(p: TransformParams) -> ConnectionMatrix:
    """Fixed-i lanes of w advanced over h: the production route."""
    n, k, l = p.n, p.k, p.l
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    # h-dependent coefficients shared across lanes, for h = k+2 .. n-l
    vcoef, invden = [], []
    for h in range(k + 2, n - l + 1):
        den = (h + k + b) * (h + l - n - 1.0)
        vcoef.append((h - k - 1.0) * (l + n + a + 2.0 - h) / den)
        invden.append(1.0 / den)
    lanes = np.empty((m + 1, m + 1))  # row j holds the w lane of i = k+l+j
    for j, i in enumerate(range(k + l, n + 1)):
        wfac = (i - k - l) * (i + k + l + sig)
        w2 = 1.0
        col = [w2]
        if m >= 1:
            w1 = 1.0 + wfac / ((b + 2.0 * k + 1.0) * (k + l - n))
            col.append(w1)
            for v, inv in zip(vcoef, invden):
                w0 = (1.0 - v + wfac * inv) * w1 + v * w2
                col.append(w0)
                w2, w1 = w1, w0
        lanes[j] = col
    with np.errstate(all="ignore"):
        values = _z_outer(p)
        values *= lanes.T
    return ConnectionMatrix(p, values, "h", recurrence_steps=(m + 1) * max(0, m - 1))


def d_oracle(p: TransformParams) -> ConnectionMatrix:
    """Closed-form literature evaluation with gamma-based binomials (cubic cost).

    A gamma domain violation, reached only once a weight rounds onto -1,
    raises ValueError naming the route and the weights.
    """
    n, k, l = p.n, p.k, p.l
    if n == 0:
        # the space of constants, where B_0^0 = J_0 = 1; the general formula
        # takes log(alpha + beta + 1) there, undefined for alpha + beta <= -1
        return ConnectionMatrix(p, np.ones((1, 1)), "h")
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    binom_n = _float_binomials(n)
    # lower arguments and their lgamma(t + 1): t = r of b1 and b2, t = u + b + k of inv
    lt_r = [math.lgamma(r + 1.0) for r in range(m + 1)]
    t_u = [u + b + k for u in range(k, n - l + m + 1)]
    lt_u = [math.lgamma(t + 1.0) for t in t_u]
    cols = []
    for i in range(k + l, n + 1):
        mi = i - l - k
        # (2i+alpha+beta+1) * Gamma(i+k+l+alpha+beta+1) == Gamma(i+k+l+sigma+1)
        # at i = k+l; elsewhere both factors are safely positive
        if i == k + l:
            core = math.lgamma(i + k + l + sig + 1.0)
        else:
            core = math.log(2.0 * i + a + b + 1.0) + math.lgamma(i + k + l + sig)
        log_g0 = (math.lgamma(mi + 1.0) + core - math.log(n + i + a + b + 1.0)
                  - math.lgamma(i + l - k + a + 1.0) - math.lgamma(i - l + k + b + 1.0))
        g0 = math.exp(log_g0) if log_g0 < 709.0 else math.inf
        try:
            b1 = _binomial_row(i + a + l - k, range(mi + 1), lt_r)
            b2 = _binomial_row(i + b - l + k, range(mi + 1), lt_r)[::-1]  # b2[r] takes t = mi - r
            inv = [1.0 / v for v in _binomial_row(n + i + a + b, t_u[:m + mi + 1], lt_u)]
        except ValueError:
            raise ValueError(f"d_oracle: closed form undefined at alpha={a!r}, beta={b!r}") from None
        sign0 = -1.0 if mi & 1 else 1.0
        col = [0.0] * (m + 1)
        for s in range(m + 1):
            acc = 0.0
            sign = sign0
            for r in range(mi + 1):
                acc += sign * b1[r] * b2[r] * inv[s + r]
                sign = -sign
            col[s] = binom_n[k + s] * g0 * acc
        cols.append(col)
    return ConnectionMatrix(p, np.array(cols).T, "h")


def u_factors(p: TransformParams) -> ConnectionMatrix:
    """Bridge factors u with c[i][h] = u[i][h] * d[h][i].

    Seeds the first row (i = k+l) and advances over i one row at a time:
    the step factor does not depend on h.
    """
    n, k, l = p.n, p.k, p.l
    a, b, sig = p.alpha, p.beta, p.sigma
    m = n - k - l
    vals = np.empty((m + 1, m + 1))
    binom_n = _float_binomials(n)
    binom_m = _float_binomials(m)
    for s in range(m + 1):
        h = k + s
        vals[0, s] = binom_m[s] / binom_n[h] ** 2 * _poch_ratio(
            [(2.0 * k + 2.0 * l + sig + 1.0, m)],
            [(a + 2.0 * l + 1.0, n - l - h), (b + 2.0 * k + 1.0, s)],
        )
    with np.errstate(all="ignore"):
        for r, i in enumerate(range(k + l + 1, n + 1), start=1):
            if i == k + l + 1:
                f = -(i + l + a - k) * (n + i + sig) * (i + k + b - l) / (
                    (2.0 * i + sig) * (i - k - l) * (i - n - 1.0))
            else:
                f = -(i + l + a - k) * (2.0 * i + a + b - 1.0) * (n + i + sig) * (i + k + b - l) / (
                    (2.0 * i + sig) * (i - k - l) * (i - n - 1.0) * (i + k + l + a + b))
            vals[r] = vals[r - 1] * f
    return ConnectionMatrix(p, vals, "i")
