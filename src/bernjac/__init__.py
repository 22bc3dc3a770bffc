"""bernjac: transformations between the Bernstein and modified Jacobi bases
of endpoint-constrained polynomial spaces, in O(n^2) via Hahn-polynomial
recurrences, with cubic-cost closed-form references and an application to
constrained L2-optimal degree reduction of Bezier curves.
"""

from .bases import (
    BernsteinPoly,
    BezierCurve,
    ConnectionMatrix,
    ModJacobiCoeffs,
    TransformParams,
    bernstein_gram,
    curve_from_json,
    curve_to_json,
    eval_bernstein,
    eval_mod_jacobi,
    eval_shifted_jacobi,
    inner_product,
)
from .bernstein_to_jacobi import d_direct, d_oracle, d_theorem3, d_theorem4, u_factors
from .degree_reduction import ReductionProblem, ReductionResult, elevate, forced_boundary, reduce
from .jacobi_to_bernstein import c_direct, c_oracle, c_theorem1, c_theorem2
from .specialfn import (
    HahnParams,
    beta_fn,
    dual_hahn_eval,
    gen_binomial,
    hahn_eval,
    hahn_recurrence_step,
    log_gamma,
    pochhammer,
)

# production transform routes
jacobi_to_bernstein_matrix = c_theorem2
bernstein_to_jacobi_matrix = d_theorem4

__version__ = "0.1.0"

__all__ = [
    "BernsteinPoly",
    "BezierCurve",
    "ConnectionMatrix",
    "HahnParams",
    "ModJacobiCoeffs",
    "ReductionProblem",
    "ReductionResult",
    "TransformParams",
    "bernstein_gram",
    "bernstein_to_jacobi_matrix",
    "beta_fn",
    "c_direct",
    "c_oracle",
    "c_theorem1",
    "c_theorem2",
    "curve_from_json",
    "curve_to_json",
    "d_direct",
    "d_oracle",
    "d_theorem3",
    "d_theorem4",
    "dual_hahn_eval",
    "elevate",
    "eval_bernstein",
    "eval_mod_jacobi",
    "eval_shifted_jacobi",
    "forced_boundary",
    "gen_binomial",
    "hahn_eval",
    "hahn_recurrence_step",
    "inner_product",
    "jacobi_to_bernstein_matrix",
    "log_gamma",
    "pochhammer",
    "reduce",
    "u_factors",
]
