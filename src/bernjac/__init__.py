"""bernjac: transformations between the Bernstein and modified Jacobi bases
of endpoint-constrained polynomial spaces, in O(n^2) via Hahn-polynomial
recurrences, with cubic-cost closed-form references and an application to
constrained L2-optimal degree reduction of Bezier curves.

This namespace is the public contract; helpers are imported from their
modules, e.g. ``bernjac.bases.bernstein_gram``.
"""

from .bases import BezierCurve, ConnectionMatrix, ModJacobiCoeffs, TransformParams
from .bernstein_to_jacobi import d_direct, d_oracle, d_theorem3, d_theorem4, u_factors
from .degree_reduction import ReductionProblem, ReductionResult, reduce
from .jacobi_to_bernstein import c_direct, c_oracle, c_theorem1, c_theorem2

# production transform routes
jacobi_to_bernstein_matrix = c_theorem2
bernstein_to_jacobi_matrix = d_theorem4

__version__ = "0.1.0"

__all__ = [
    "BezierCurve",
    "ConnectionMatrix",
    "ModJacobiCoeffs",
    "ReductionProblem",
    "ReductionResult",
    "TransformParams",
    "bernstein_to_jacobi_matrix",
    "c_direct",
    "c_oracle",
    "c_theorem1",
    "c_theorem2",
    "d_direct",
    "d_oracle",
    "d_theorem3",
    "d_theorem4",
    "jacobi_to_bernstein_matrix",
    "reduce",
    "u_factors",
]
