"""Output checkers, independent of the library's own matrices.

* ``reduce``: weighted integrals on Gauss-Jacobi nodes (``scipy.special``),
  with a reference optimum projected onto an orthonormalised modified-Jacobi
  basis built from ``scipy.special.eval_jacobi``.
* ``matrix``: sampled entries against the closed forms evaluated in mpmath
  at a precision raised until the alternating sum keeps 30 spare digits,
  relative to the largest entry of their row.
* ``check``: exit code and completeness of the JSON report.

Every checker returns ``Verdict(ok, digits, note)``; ``digits`` is the number
of correct significant digits against the reference, clipped to [0, 16], or
None where no numeric reference applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import eval_jacobi, gammaln, roots_jacobi

REDUCE_RTOL = 1e-6     # orthogonality and l2_error, relative to the residual
REDUCE_FLOOR = 1e-12   # rounding floor, relative to the source curve
ENDPOINT_RTOL = 1e-9   # endpoint derivatives, relative to their a-priori scale
MATRIX_RTOL = 1e-8     # sampled matrix entries, relative to their row's largest reference entry
SPARE_DIGITS = 30      # mpmath digits kept beyond those the sum cancels
MAX_DPS = 2000         # a sum still exactly zero at this precision is taken as zero
CHECK_NAMES = ("cross_c", "cross_d", "round_trip", "proposition_bridge", "orthogonality")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float | None
    note: str = ""


def digits_of(rel_err: float) -> float:
    """Correct significant digits for a relative error, clipped to [0, 16]."""
    if not math.isfinite(rel_err):
        return 0.0
    return min(16.0, max(0.0, -math.log10(max(rel_err, 1e-16))))


# ---------------------------------------------------------------------------
# reduce


def gauss_jacobi(count: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for the weight (1-x)^alpha x^beta; exact
    for polynomials of degree <= 2*count - 1."""
    y, w = roots_jacobi(count, alpha, beta)
    return (1.0 + y) / 2.0, w * 2.0 ** (-(alpha + beta + 1.0))


def bernstein_at(n: int, x: np.ndarray) -> np.ndarray:
    """(len(x), n+1) matrix of B_h^n(x), built in logs so no term overflows."""
    h = np.arange(n + 1)
    logc = gammaln(n + 1.0) - gammaln(h + 1.0) - gammaln(n - h + 1.0)
    return np.exp(logc + np.outer(np.log(x), h) + np.outer(np.log1p(-x), n - h))


def _delta(points: np.ndarray, r: int) -> np.ndarray:
    """r-th forward difference of the first control points."""
    return sum((-1) ** (r - t) * math.comb(r, t) * points[t] for t in range(r + 1))


def endpoint_derivatives(points: np.ndarray, count: int) -> list[np.ndarray]:
    """Derivatives of orders < count at t = 0 of the Bezier curve."""
    n = points.shape[0] - 1
    return [math.perm(n, r) * _delta(points, r) for r in range(count)]


def boundary_points(points: np.ndarray, m: int, count: int) -> np.ndarray:
    """First ``count`` control points of a degree-m curve whose derivatives of
    orders < count at t = 0 equal those of ``points``."""
    n = points.shape[0] - 1
    diffs = [math.perm(n, r) / math.perm(m, r) * _delta(points, r) for r in range(count)]
    out = np.zeros((count, points.shape[1]))
    for j in range(count):
        out[j] = sum(math.comb(j, r) * diffs[r] for r in range(j + 1))
    return out


class _ReduceFrame:
    """Quadrature, basis values and the projector for one parameter set;
    the segments of a spline share it."""

    def __init__(self, n, m, k, l, alpha, beta):
        self.x, self.w = gauss_jacobi(n + 1, alpha, beta)
        self.bn = bernstein_at(n, self.x)
        self.bm = bernstein_at(m, self.x)
        sw = np.sqrt(self.w)
        y = 2.0 * self.x - 1.0
        cols = [eval_jacobi(j, alpha + 2 * l, beta + 2 * k, y) for j in range(m - k - l + 1)]
        phi = (self.x ** k * (1.0 - self.x) ** l)[:, None] * np.array(cols).T
        q, r = np.linalg.qr(sw[:, None] * phi)
        self.sw, self.q, self.r, self.phi = sw, q, r, phi
        self.bm_norm = np.sqrt(self.w @ self.bm ** 2)

    def norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.w[:, None] * values ** 2)))

    def project(self, values: np.ndarray) -> np.ndarray:
        """Weighted-L2 projection of node values onto x^k (1-x)^l P_{m-k-l}."""
        coef = self.q.T @ (self.sw[:, None] * values)
        return self.phi @ solve_triangular(self.r, coef)


class ReduceChecker:
    """Checks ``bernjac.reduce`` results; caches one frame, which is what a
    spline's consecutive segments need."""

    def __init__(self):
        self._key = None
        self._frame = None

    def frame(self, inp) -> _ReduceFrame:
        n = inp.control_points.shape[0] - 1
        key = (n, inp.m, inp.k, inp.l, inp.alpha, inp.beta)
        if key != self._key:
            self._key, self._frame = key, _ReduceFrame(*key)
        return self._frame

    def __call__(self, inp, output) -> Verdict:
        """``output`` is (reduced control points, reported l2_error)."""
        p = np.asarray(inp.control_points, dtype=float)
        n, dim = p.shape[0] - 1, p.shape[1]
        m, k, l = inp.m, inp.k, inp.l
        q = np.asarray(output[0], dtype=float)
        reported = float(output[1])
        if q.shape != (m + 1, dim):
            return Verdict(False, 0.0, f"reduced curve has shape {q.shape}, expected {(m + 1, dim)}")
        if not (np.all(np.isfinite(q)) and math.isfinite(reported)):
            return Verdict(False, 0.0, "non-finite output")
        f = self.frame(inp)

        # reference optimum: forced boundary plus the projection of the rest
        stub = np.zeros((m + 1, dim))
        if k:
            stub[:k] = boundary_points(p, m, k)
        if l:
            stub[m - l + 1:] = boundary_points(p[::-1], m, l)[::-1]
        p_at = f.bn @ p
        s_at = f.bm @ stub
        best = s_at + f.project(p_at - s_at)
        q_at = f.bm @ q
        p_norm = f.norm(p_at)
        dist = f.norm(p_at - q_at)
        digits = digits_of(f.norm(q_at - best) / max(f.norm(best), 1e-300))

        slack = REDUCE_FLOOR * p_norm
        for end, (src, red, count) in enumerate(((p, q, k), (p[::-1], q[::-1], l))):
            scale = max(1.0, float(np.max(np.abs(src))))
            for r, (dp, dq) in enumerate(zip(endpoint_derivatives(src, count),
                                             endpoint_derivatives(red, count))):
                tol = ENDPOINT_RTOL * math.perm(n, r) * 2.0 ** r * scale
                if not np.max(np.abs(dp - dq)) <= tol:
                    return Verdict(False, digits, f"derivative {r} at t={end} differs")
        free = slice(k, m - l + 1)
        inner = (f.w * (p_at - q_at).T) @ f.bm[:, free]  # (dim, free) weighted integrals
        inner_norm = np.sqrt(np.sum(inner ** 2, axis=0))
        tol = (REDUCE_RTOL * dist + slack) * f.bm_norm[free]
        if not np.all(inner_norm <= tol):
            worst = float(np.max(inner_norm / tol))
            return Verdict(False, digits, f"residual not orthogonal to free B_h^m ({worst:.2g}x tolerance)")
        if not abs(reported - dist) <= REDUCE_RTOL * dist + slack:
            return Verdict(False, digits, f"l2_error differs from the integrated distance ({reported:.9g} vs {dist:.9g})")
        return Verdict(True, digits)


# ---------------------------------------------------------------------------
# matrix


def _binomials(y, count: int) -> list:
    """C(y, 0..count-1) for real y by the adjacent-term ratio."""
    out = [mpmath.mpf(1)]
    for r in range(count - 1):
        out.append(out[-1] * (y - r) / (r + 1))
    return out


def _c_sum(n, k, l, a, b, i, h):
    mi, s = i - k - l, h - k
    b1, b2 = _binomials(i + a + l - k, mi + 1), _binomials(i + b - l + k, mi + 1)
    terms = [(-1) ** (mi - r) * b1[r] * b2[mi - r] * math.comb(n - i, s - r)
             for r in range(max(0, s - (n - i)), min(s, mi) + 1)]
    return mpmath.fsum(terms), terms, mpmath.mpf(1) / math.comb(n, h)


def _d_sum(n, k, l, a, b, h, i):
    mi = i - k - l
    b1, b2 = _binomials(i + a + l - k, mi + 1), _binomials(i + b - l + k, mi + 1)
    if i == k + l:  # (2i+a+b+1) Gamma(i+k+l+a+b+1) merged, finite when a+b+1 -> 0
        core = mpmath.gamma(i + k + l + a + b + 2)
    else:
        core = (2 * i + a + b + 1) * mpmath.gamma(i + k + l + a + b + 1)
    g0 = mpmath.factorial(mi) * core / (
        (n + i + a + b + 1) * mpmath.gamma(i + l - k + a + 1) * mpmath.gamma(i - l + k + b + 1))
    top, x0 = n + i + a + b, h + b + k
    inv = mpmath.gamma(x0 + 1) * mpmath.gamma(top - x0 + 1) / mpmath.gamma(top + 1)
    terms = []
    for r in range(mi + 1):
        if r:
            inv = inv * (x0 + r) / (top - x0 - r + 1)
        terms.append((-1) ** (mi - r) * b1[r] * b2[mi - r] * inv)
    return mpmath.fsum(terms), terms, math.comb(n, h) * g0


def matrix_reference(direction: str, n: int, k: int, l: int, alpha: float, beta: float,
                     row: int, col: int, dps: int = 50) -> tuple[float, int]:
    """Closed-form entry (c[i][h] for direction c, d[h][i] for d) and the
    mpmath precision used.

    The closed forms are alternating sums; the precision is raised until the
    digits the sum cancels, log10(sum |t| / |sum t|), leave SPARE_DIGITS.
    """
    total_fn = _c_sum if direction == "c" else _d_sum
    while True:
        with mpmath.workdps(dps):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            total, terms, scale = total_fn(n, k, l, a, b, row, col)
            spread = mpmath.fsum(abs(t) for t in terms)
            lost = float(mpmath.log10(spread / abs(total))) if total else math.inf
            if dps >= lost + SPARE_DIGITS:
                return float(total * scale), dps
        if not math.isfinite(lost):  # every digit cancelled
            if dps >= MAX_DPS:
                return 0.0, dps
            lost = 2 * dps
        dps = max(2 * dps, int(lost) + SPARE_DIGITS + 10)


def check_matrix(inp, output) -> Verdict:
    """Exit 0, a complete finite CSV, and sampled entries within MATRIX_RTOL
    of the closed forms, relative to the largest entry of their row.

    The error is measured against the row's scale, not the entry's own: an
    entry the closed form sums to nearly zero carries an absolute error of
    the row's rounding, which is no loss of accuracy.  The row's largest
    entry in the output fixes the scale and is itself checked, so a row
    blown up by garbage cannot widen its own tolerance.
    """
    code, csv = output
    if code != 0:
        return Verdict(False, 0.0, f"exit {code}")
    if csv is None:
        return Verdict(False, 0.0, "no output file")
    dim = inp.n - inp.k - inp.l + 1
    corner = "i\\h" if inp.direction == "c" else "h\\i"
    if csv["corner"] != corner or tuple(csv["shape"]) != (dim, dim) or csv["ragged"]:
        return Verdict(False, 0.0, f"header {csv['corner']!r} shape {csv['shape']}")
    if not csv["finite"]:
        return Verdict(False, 0.0, "non-finite entries")
    refs = {}

    def ref(r, c):
        if (r, c) not in refs:
            refs[r, c] = matrix_reference(inp.direction, inp.n, inp.k, inp.l, inp.alpha, inp.beta, r, c)[0]
        return refs[r, c]

    worst = 0.0
    for (r, c), got, peak in zip(inp.samples, csv["entries"], csv["peaks"]):
        if got is None or peak is None:
            return Verdict(False, 0.0, f"entry ({r}, {c}) missing")
        peak_col, peak_got = peak
        scale = abs(ref(r, peak_col))
        err = max(abs(got - ref(r, c)), abs(peak_got - ref(r, peak_col)))
        worst = max(worst, err / scale if scale else math.inf)
    ok = worst <= MATRIX_RTOL
    return Verdict(ok, digits_of(worst), "" if ok else f"sampled entry off (row-relative error {worst:.3g})")


# ---------------------------------------------------------------------------
# check


def check_report(inp, output) -> Verdict:
    """Exit 0 or 1 with a complete report agreeing with the exit code.  A
    verdict of 1 is a finding of ``bernjac check``, not a failure."""
    code, text = output
    if code not in (0, 1):
        return Verdict(False, None, f"exit {code}")
    try:
        report = json.loads(text)
        p = report["params"]
        params = (p["n"], p["k"], p["l"], p["alpha"], p["beta"])
        checks = report["checks"]
        names = tuple(ch["name"] for ch in checks)
        complete = all(isinstance(ch["passed"], bool) and isinstance(ch["worst"], dict)
                       and isinstance(ch["max_deviation"], float) and isinstance(ch["tolerance"], float)
                       for ch in checks)
        overall = report["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, None, f"incomplete report: {exc!r}")
    if params != (inp.n, inp.k, inp.l, inp.alpha, inp.beta):
        return Verdict(False, None, f"report is for {params}")
    if names != CHECK_NAMES or not complete:
        return Verdict(False, None, f"report lists {names}")
    if overall != all(ch["passed"] for ch in checks) or (code == 0) != overall:
        return Verdict(False, None, "verdict disagrees with the checks or the exit code")
    return Verdict(True, None)


# workload name -> factory of its checker
CHECKERS = {
    "reduce_spline": ReduceChecker,
    "reduce_distinct": ReduceChecker,
    "matrix_export": lambda: check_matrix,
    "check_sweep": lambda: check_report,
}
