"""Containers of the endpoint-constrained space (its parameters, connection
matrices, modified Jacobi coefficients and Bezier curves), plus the exact
Beta-function Gram matrix that serves as the independent oracle for all
orthogonality and least-squares claims.

The constrained space of degree <= n holds polynomials whose derivatives of
order < k vanish at 0 and of order < l vanish at 1; its dimension is
n-k-l+1.  Its Bernstein indices are h = k..n-l and its modified Jacobi
indices i = k+l..n.  Containers holding arrays compare and hash by identity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .specialfn import _MAX, beta_fn


def _is_count(v) -> bool:
    """True for a plain int; bool, although an int subclass, is refused."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class TransformParams:
    """Parameter bundle (n, k, l, alpha, beta) for one constrained space."""

    n: int
    k: int
    l: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not _is_count(self.n) or self.n < 0:
            raise ValueError(f"degree n must be a nonnegative integer, got {self.n!r}")
        if not _is_count(self.k) or self.k < 0 or not _is_count(self.l) or self.l < 0:
            raise ValueError(f"constraint orders must be nonnegative integers, got k={self.k!r}, l={self.l!r}")
        if self.k + self.l > self.n:
            raise ValueError(f"constraint orders must satisfy k + l <= n, got k={self.k}, l={self.l}, n={self.n}")
        a, b = self.alpha, self.beta
        if type(a) is not float or type(b) is not float:
            # kept as doubles, so a NumPy float32 weight narrows no build
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (a, b)):
                raise ValueError(f"weight exponents must be real numbers, not bool, got alpha={a!r}, beta={b!r}")
            # an int or fraction beyond double range stays exact and fails the range check
            a, b = (v if isinstance(v, numbers.Rational) and abs(v) > _MAX else float(v) for v in (a, b))
            object.__setattr__(self, "alpha", a)
            object.__setattr__(self, "beta", b)
        if not (-1.0 < a <= _MAX and -1.0 < b <= _MAX):
            raise ValueError(f"weight exponents must be finite with alpha > -1 and beta > -1, got alpha={a}, beta={b}")

    @property
    def sigma(self) -> float:
        return self.alpha + self.beta + 1.0

    @property
    def dim(self) -> int:
        return self.n - self.k - self.l + 1

    def h_indices(self) -> range:
        """Bernstein indices h = k..n-l of the constrained basis."""
        return range(self.k, self.n - self.l + 1)

    def i_indices(self) -> range:
        """Modified Jacobi indices i = k+l..n of the constrained basis."""
        return range(self.k + self.l, self.n + 1)


@dataclass(frozen=True, eq=False)
class ConnectionMatrix:
    """Dense connection-coefficient matrix between the two constrained bases.

    ``rows`` names the row index: ``"i"`` (modified Jacobi, i = k+l..n) for
    the Jacobi-to-Bernstein matrix c and the bridge factors u, ``"h"``
    (Bernstein, h = k..n-l) for the Bernstein-to-Jacobi matrix d; columns
    take the other index.  ``recurrence_steps`` counts executed three-term
    steps (recurrence routes only).
    """

    params: TransformParams
    values: np.ndarray
    rows: str
    recurrence_steps: int | None = None

    def __post_init__(self):
        if self.rows not in ("i", "h"):
            raise ValueError(f"rows must be 'i' or 'h', got {self.rows!r}")

    @property
    def cols(self) -> str:
        return "h" if self.rows == "i" else "i"

    def indices(self, name: str) -> range:
        """Range of the index called ``name`` ("i" or "h")."""
        return self.params.i_indices() if name == "i" else self.params.h_indices()


@dataclass(frozen=True, eq=False)
class ModJacobiCoeffs:
    """Coefficients relative to the modified Jacobi basis J_{k+l}, ..., J_n."""

    params: TransformParams
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[0] != self.params.dim:
            raise ValueError(f"coefficient array must have {self.params.dim} rows, got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class BezierCurve:
    """Degree-n Bezier curve with control points stored as an (n+1, d) array.

    One-dimensional input is accepted and treated as a scalar-valued curve.
    """

    control_points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"control points must form an (n+1, d) array, got shape {pts.shape}")
        object.__setattr__(self, "control_points", pts)

    @property
    def degree(self) -> int:
        return self.control_points.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.control_points.shape[1]


def bernstein_gram(p: TransformParams) -> np.ndarray:
    """Gram matrix of the constrained Bernstein basis under (1-x)^alpha x^beta.

    Entries are exact up to rounding:
        <B_h, B_h'> = C(n,h) C(n,h') B(beta+h+h'+1, 2n-h-h'+alpha+1).
    Symmetric positive definite; this is the verification oracle for every
    orthogonality and least-squares statement in the package.
    """
    hs = list(p.h_indices())
    binom = [float(math.comb(p.n, h)) for h in hs]
    G = np.empty((p.dim, p.dim))
    for r, h in enumerate(hs):
        for s in range(r, p.dim):
            h2 = hs[s]
            v = binom[r] * binom[s] * beta_fn(p.beta + h + h2 + 1.0, 2.0 * p.n - h - h2 + p.alpha + 1.0)
            G[r, s] = v
            G[s, r] = v
    return G


def curve_to_json(curve: BezierCurve) -> dict:
    """Plain-dict form of a curve: degree, dimension, control_points."""
    return {
        "degree": curve.degree,
        "dimension": curve.dimension,
        "control_points": curve.control_points.tolist(),
    }


def curve_from_json(obj: dict) -> BezierCurve:
    """Parse and validate the curve interchange format."""
    try:
        degree = obj["degree"]
        dimension = obj["dimension"]
        pts = obj["control_points"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"curve object is missing field {exc}") from exc
    if not _is_count(degree) or degree < 0:
        raise ValueError(f"curve degree must be a nonnegative integer, got {degree!r}")
    if not _is_count(dimension) or dimension < 1:
        raise ValueError(f"curve dimension must be a positive integer, got {dimension!r}")
    try:
        if len(pts) != degree + 1:
            raise ValueError(f"expected {degree + 1} control points, got {len(pts)}")
        arr = np.asarray(pts, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"control points must be a list of rows of numbers ({exc})") from exc
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise ValueError("control points must be rows of 'dimension' numbers each")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for row in pts for v in row):
        raise ValueError("control points must be numbers, not booleans or strings")
    if not np.all(np.isfinite(arr)):
        raise ValueError("control points must be finite numbers")
    return BezierCurve(arr)
