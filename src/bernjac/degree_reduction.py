"""Weighted-L2 optimal degree reduction of Bezier curves with endpoint
derivative constraints.

The reduced curve matches the source's derivatives of orders < k at t=0 and
< l at t=1, and minimizes the (1-x)^alpha x^beta weighted L2 distance among
all degree-m curves doing so.  The minimizer is obtained by expanding the
residual in the orthogonal modified Jacobi basis of the constrained space
and truncating; the two connection-coefficient matrices do all the work.
"""

from __future__ import annotations

import functools
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
        if not isinstance(self.source, BezierCurve):
            raise TypeError(f"source must be a BezierCurve, got {type(self.source).__name__}")
        n, m = self.source.degree, self.target_degree
        if not _is_count(m) or m < 0:
            raise ValueError(f"target degree must be a nonnegative integer, got {m!r}")
        # validates k, l, alpha, beta and k + l <= n; reduce reads the space kept
        # here, which is no field, so equality, hash and repr do not see it
        object.__setattr__(self, "_space", TransformParams(n, self.k, self.l, self.alpha, self.beta))
        if m < self.k + self.l - 1:
            raise ValueError(
                f"target degree {m} cannot satisfy {self.k}+{self.l} endpoint constraints")
        if m > n:
            raise ValueError(f"target degree {m} exceeds source degree {n}")
        if not np.isfinite(self.source.control_points).all():
            raise ValueError("source control points must be finite numbers")


@dataclass(frozen=True)
class ReductionResult:
    """Reduced curve, its weighted-L2 error, and the discarded orthogonal
    components (zero for indices <= target degree).  The error is their
    Parseval sum against Gram-form basis norms: accurate inside the tested
    envelope, wrong from n ~ 60.  Those norms go negative from n ~ 25; the
    sum keeps their signs, and a negative sum reads as error 0.  Its arrays
    belong to the caller: none is shared with ``reduce``'s memo or with
    another result."""

    reduced: BezierCurve
    l2_error: float
    discarded: ModJacobiCoeffs


def _elevation(m: int, n: int) -> np.ndarray:
    """(n+1) x (m+1) matrix taking degree-m control points to degree n;
    entry (j, i) is C(m,i) C(n-m,j-i) / C(n,j)."""
    if n > 1020:  # _float_binomials(n) overflows from n = 1021 on
        raise ValueError(f"cannot elevate to degree {n}: its binomial coefficients overflow a double")
    bm, bd, bn = (np.array(_float_binomials(d)) for d in (m, n - m, n))
    d = np.arange(n + 1)[:, None] - np.arange(m + 1)
    return np.where((d >= 0) & (d <= n - m), bm * np.take(bd, d, mode="clip") / bn[:, None], 0.0)


def elevate(curve: BezierCurve, to_degree: int) -> BezierCurve:
    """Degree-elevate a curve: identical polynomial, more control points."""
    if not isinstance(curve, BezierCurve):
        raise TypeError(f"curve must be a BezierCurve, got {type(curve).__name__}")
    m, n = curve.degree, to_degree
    if not _is_count(n) or n < 0:
        raise ValueError(f"to_degree must be a nonnegative integer, got {n!r}")
    if n < m:
        raise ValueError(f"cannot elevate degree {m} curve to lower degree {n}")
    return BezierCurve(_elevation(m, n) @ curve.control_points)


# An entry of _stub_map holds (k+l)(n+1) doubles.  Shapes above this many
# are rebuilt on every miss instead, so the memo's arrays stay under 8 MiB.
_STUB_MEMO_DOUBLES = 1024


@functools.lru_cache(maxsize=1024)
def _stub_map(n: int, m: int, k: int, l: int):
    """The part of ``reduce``'s maps that depends on (n, m, k, l) alone, not
    on the weights.  S inverts the two corners of the elevation matrix E, so
    that E S P shares the derivatives of P of orders < k at t=0 and < l at
    t=1.  ES is the rows h = k..n-l of E's first k and last l columns times
    S.  Both are shared, so read-only."""
    E = _elevation(m, n)
    # one solve on both corners of E
    S = np.zeros((k + l, k + l))
    S[:k, :k], S[k:, k:] = E[:k, :k], E[n - l + 1:, m - l + 1:]
    S = np.linalg.solve(S, np.eye(k + l))
    ES = np.hstack((E[k:n - l + 1, :k], E[k:n - l + 1, m - l + 1:])) @ S
    for a in (S, ES):
        a.flags.writeable = False
    return S, ES


@functools.lru_cache(maxsize=8)
def _reduction_matrices(pn: TransformParams, m: int, d_build, c_build, gram):
    """The linear map ``reduce`` applies for the source space ``pn`` and a
    target degree m < n, stacked into one (2n-m+1) x (n+1) matrix
    M = [R; T; W], and the count npos of non-negative Parseval weights.
    R takes the source control points to the reduced ones, T takes them to
    the discarded orthogonal components (indices m+1..n), and W is T with
    row j scaled by sqrt|w_j|, where w = diag(C G C^T), C = c_build(pn) and
    G = gram(pn) are those components' Parseval weights; W's rows of
    non-negative weight come first, npos of them, each part in index order.
    The Parseval sum is the squared norm of the first npos rows of W @ P
    minus that of the others.  Nothing here depends on the curve.  The
    builders are part of the key, so a substituted one is never served
    another's map; M is shared by every caller, so it is read-only.

    R and T are built by pushing the identity through the pipeline, with
    the stub map S and the product ES from ``_stub_map``.
    Q = D(n)^T (I - E S), restricted to rows h = k..n-l, expands the
    residual in the orthogonal basis; R is S plus C(m)^T Q[:kept] in the
    free rows, T = Q[kept:]."""
    n, k, l = pn.n, pn.k, pn.l
    kept = m - k - l + 1  # indices i = k+l..m; as m < n, one index at least is discarded
    stub = _stub_map if (k + l) * (n + 1) <= _STUB_MEMO_DOUBLES else _stub_map.__wrapped__
    S, ES = stub(n, m, k, l)
    DT = d_build(pn).values.T
    # I - E S is the identity on the middle columns h = k..n-l, where S is zero
    Q = np.empty((n - k - l + 1, n + 1))
    Q[:, k:n - l + 1] = DT
    outer = -(DT @ ES)
    Q[:, :k], Q[:, n - l + 1:] = outer[:, :k], outer[:, k:]
    M = np.zeros((2 * n - m + 1, n + 1))
    R, T = M[:m + 1], M[m + 1:n + 1]
    R[:k, :k], R[m - l + 1:, n - l + 1:] = S[:k, :k], S[k:, k:]
    if kept > 0:
        R[k:m - l + 1] += c_build(TransformParams(m, k, l, pn.alpha, pn.beta)).values.T @ Q[:kept]
    T[:] = Q[kept:]
    C = c_build(pn).values[kept:]
    w = np.einsum("ij,jk,ik->i", C, gram(pn), C)
    # a NaN weight counts as non-negative, so that it reaches the error
    neg = w < 0
    order = np.argsort(neg, kind="stable")
    np.multiply(np.sqrt(np.abs(w[order]))[:, None], T[order], out=M[n + 1:])
    M.flags.writeable = False
    return M, int(np.count_nonzero(~neg))


def reduce(prob: ReductionProblem) -> ReductionResult:
    """L2-optimal constrained degree reduction.

    Pipeline: force the stub's first k and last l control points by one
    solve on both corners of the elevation matrix E, so that E @ stub
    shares the source's derivatives of orders < k at t=0 and < l at t=1;
    expand the residual in the orthogonal modified Jacobi basis, truncate to
    indices <= m, map the kept part back to the degree-m Bernstein basis,
    and add it into the stub's free slots.  The discarded components give
    the error by Parseval.  At m = n the source is returned unchanged
    with error 0 and nothing is built.

    For fixed (n, m, k, l, alpha, beta) that pipeline is a linear map of the
    control points P.  It is composed once into R (P to the reduced control
    points), T (P to the discarded components) and W (T's rows scaled by
    the square roots of the Parseval weights' magnitudes, sorted by sign),
    stacked into one matrix M and memoized on those values and the builders
    in use.  A warm call is one lookup, one product M @ P and two
    ``math.hypot`` over the weighted rows, which scale internally, so
    control points near either end of the double range give a finite,
    correctly scaled error; the segments of a spline build D(n), C(m), C(n)
    and the Gram matrix once.  The stub map, which does not depend on the
    weights, is memoized apart per (n, m, k, l), so a miss on new weights
    for a known shape builds only D, C and the Gram matrix.  The composed
    map rounds differently from the step-by-step pipeline: the reduced
    control points agree with it to 1e-13 of max(1, |P|) at n <= 20, the
    error and the discarded components to 1e-13 relative.  A warm call
    returns the same bytes as a cold one.
    """
    p = prob.source
    n, m, k, l = p.degree, prob.target_degree, prob.k, prob.l
    pn = prob._space
    if m == n:
        return ReductionResult(BezierCurve(p.control_points.copy()), 0.0,
                               ModJacobiCoeffs(pn, np.zeros((pn.dim, p.dimension))))

    M, npos = _reduction_matrices(pn, m, d_theorem4, c_theorem2, bernstein_gram)
    Y = M @ p.control_points
    jac = np.zeros((pn.dim, p.dimension))
    jac[m - k - l + 1:] = Y[m + 1:n + 1]
    # hypot scales internally, so the error neither overflows nor underflows;
    # hp^2 - hn^2 is the signed Parseval sum
    hp = math.hypot(*Y[n + 1:n + 1 + npos].ravel().tolist())
    hn = math.hypot(*Y[n + 1 + npos:].ravel().tolist())
    r = hn / hp if hp else 0.0
    return ReductionResult(
        reduced=BezierCurve(Y[:m + 1]),
        l2_error=hp * math.sqrt(max((1.0 - r) * (1.0 + r), 0.0)),
        discarded=ModJacobiCoeffs(pn, jac),
    )
