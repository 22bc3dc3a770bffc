"""Weighted-L2 optimal degree reduction of Bezier curves with endpoint
derivative constraints.

The reduced curve matches the source's derivatives of orders < k at t=0 and
< l at t=1, and minimizes the (1-x)^alpha x^beta weighted L2 distance among
all degree-m curves doing so.  The minimizer is obtained by expanding the
residual in the orthogonal modified Jacobi basis of the constrained space
and truncating; the two connection-coefficient matrices do all the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import BezierCurve, ModJacobiCoeffs, TransformParams, _is_count, bernstein_gram
from .bernstein_to_jacobi import d_theorem4
from .jacobi_to_bernstein import c_theorem2
from .specialfn import _float_binomials


@dataclass(frozen=True)
class ReductionProblem:
    """Source curve, target degree m, constraint orders and weight exponents.

    Feasibility requires k + l - 1 <= m <= n (the case m = k+l-1 leaves no
    free control points: the output is fully determined by the constraints)
    and k + l <= n so the constrained space of the source degree exists.
    """

    source: BezierCurve
    target_degree: int
    k: int
    l: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        n, m = self.source.degree, self.target_degree
        if not _is_count(m) or m < 0:
            raise ValueError(f"target degree must be a nonnegative integer, got {m!r}")
        # validates k, l, alpha, beta and k + l <= n
        TransformParams(n, self.k, self.l, self.alpha, self.beta)
        if m < self.k + self.l - 1:
            raise ValueError(
                f"target degree {m} cannot satisfy {self.k}+{self.l} endpoint constraints")
        if m > n:
            raise ValueError(f"target degree {m} exceeds source degree {n}")


@dataclass(frozen=True)
class ReductionResult:
    """Reduced curve, its exact weighted-L2 error, and the discarded
    orthogonal components (zero for indices <= target degree)."""

    reduced: BezierCurve
    l2_error: float
    discarded: ModJacobiCoeffs


def elevate(curve: BezierCurve, to_degree: int) -> BezierCurve:
    """Degree-elevate a curve: identical polynomial, more control points.

    One (n+1) x (m+1) product; entry (j, i) is C(m,i) C(n-m,j-i) / C(n,j)."""
    m, n = curve.degree, to_degree
    if n < m:
        raise ValueError(f"cannot elevate degree {m} curve to lower degree {n}")
    bm, bd, bn = (np.array(_float_binomials(d)) for d in (m, n - m, n))
    if not np.all(np.isfinite(bn)):
        raise ValueError(f"cannot elevate to degree {n}: its binomial coefficients overflow a double")
    d = np.arange(n + 1)[:, None] - np.arange(m + 1)
    E = np.where((d >= 0) & (d <= n - m), bm * bd[np.clip(d, 0, n - m)] / bn[:, None], 0.0)
    return BezierCurve(E @ curve.control_points)


def forced_boundary(curve: BezierCurve, m: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Control points of a degree-m curve forced by endpoint derivative matching.

    Returns the unique first k and last l control points of any degree-m
    curve whose derivatives of orders < k at t=0 and < l at t=1 equal the
    source's.  Derivatives of a Bezier curve are scaled iterated differences
    of its control points, so the solve is triangular and exact.
    """
    n = curve.degree
    if k + l > m + 1:
        raise ValueError(f"cannot force {k}+{l} control points of a degree-{m} curve")

    def head_points(pts: np.ndarray, count: int) -> np.ndarray:
        # iterated forward differences at the left end, rescaled from
        # degree n to degree m, then re-accumulated into control points
        diffs = []
        work = pts[:count].copy()
        scale = 1.0
        for r in range(count):
            if r:
                scale *= (n - r + 1) / (m - r + 1)
            diffs.append(work[0] * scale)
            work = work[1:] - work[:-1]
        out = np.zeros((count, pts.shape[1]))
        for j in range(count):
            acc = np.zeros(pts.shape[1])
            cjs = 1.0
            for s in range(j + 1):
                acc += cjs * diffs[s]
                cjs *= (j - s) / (s + 1.0)
            out[j] = acc
        return out

    return head_points(curve.control_points, k), head_points(curve.control_points[::-1], l)[::-1]


def reduce(prob: ReductionProblem) -> ReductionResult:
    """L2-optimal constrained degree reduction.

    Pipeline: build a feasible degree-m stub from the forced boundary points,
    elevate it to degree n, expand the residual in the orthogonal modified
    Jacobi basis, truncate to indices <= m, map the kept part back to the
    degree-m Bernstein basis, and add it into the stub's free slots.  The
    discarded components give the error exactly (Parseval).  At m = n the
    source is returned unchanged with error 0 and nothing is built.
    """
    p = prob.source
    n, m, k, l = p.degree, prob.target_degree, prob.k, prob.l
    pn = TransformParams(n, k, l, prob.alpha, prob.beta)
    if m == n:
        return ReductionResult(BezierCurve(p.control_points.copy()), 0.0,
                               ModJacobiCoeffs(pn, np.zeros((pn.dim, p.dimension))))

    head, tail = forced_boundary(p, m, k, l)
    stub = np.zeros((m + 1, p.dimension))
    stub[:k] = head
    stub[m - l + 1:] = tail

    residual = p.control_points - elevate(BezierCurve(stub), n).control_points
    # the residual satisfies the constraints, so its Bernstein coefficients
    # outside h = k..n-l vanish up to rounding
    e = residual[k:n - l + 1]
    jac = d_theorem4(pn).values.T @ e

    kept = m - k - l + 1  # number of indices i = k+l..m
    reduced_pts = stub.copy()
    if kept > 0:
        pm = TransformParams(m, k, l, prob.alpha, prob.beta)
        reduced_pts[k:m - l + 1] += c_theorem2(pm).values.T @ jac[:kept]

    discarded = np.zeros_like(jac)
    discarded[kept:] = jac[kept:]
    err_sq = 0.0
    if kept < jac.shape[0]:
        crows = c_theorem2(pn).values[kept:]
        norms_sq = np.einsum("ij,jk,ik->i", crows, bernstein_gram(pn), crows)
        err_sq = float(norms_sq @ np.sum(jac[kept:] ** 2, axis=1))
    return ReductionResult(
        reduced=BezierCurve(reduced_pts),
        l2_error=math.sqrt(max(err_sq, 0.0)),
        discarded=ModJacobiCoeffs(pn, discarded),
    )
