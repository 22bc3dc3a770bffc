"""Property tests over the validated domain, drawn by Hypothesis.

Valid parameters are drawn from n <= 12, any k + l <= n and weight
exponents in [-0.9, 3.7], the range the acceptance grid samples; the
tolerances are those of criteria 2, 3 and 7.  Each property runs at most
50 derandomized examples, so the suite stays reproducible.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_acceptance import STRICT_N, envelope_excess, strict_excess

from bernjac.bases import BezierCurve, TransformParams, bernstein_gram
from bernjac.bernstein_to_jacobi import d_theorem4, u_factors
from bernjac.degree_reduction import ReductionProblem, elevate, reduce
from bernjac.jacobi_to_bernstein import c_theorem2

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)

weights = st.floats(-0.9, 3.7)
bad_weights = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(max_value=-1.0),
                        st.booleans())
non_int_counts = st.one_of(st.booleans(), st.floats(0.0, 12.0))


@st.composite
def params(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, n))
    l = draw(st.integers(0, n - k))
    return TransformParams(n, k, l, draw(weights), draw(weights))


@st.composite
def problems(draw):
    """A reduction problem, m <= n, with every feasible k, l and m."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    l = draw(st.integers(0, n - k))
    m = draw(st.integers(max(k + l - 1, 0), n))
    d = draw(st.integers(1, 3))
    points = draw(arrays(np.float64, (n + 1, d), elements=st.floats(-1.0, 1.0)))
    return ReductionProblem(BezierCurve(points), m, k, l, draw(weights), draw(weights))


@PROPERTY
@given(params())
def test_round_trip_is_identity(p):
    C, D = c_theorem2(p).values, d_theorem4(p).values
    eye = np.eye(p.dim)
    assert np.max(np.abs(D @ C - eye)) <= 1e-8
    assert np.max(np.abs(C @ D - eye)) <= 1e-8


@PROPERTY
@given(params())
def test_bridge_holds(p):
    C = c_theorem2(p).values
    UD = u_factors(p).values * d_theorem4(p).values.T
    if p.n <= STRICT_N:
        assert strict_excess(C, UD) <= 0.0
    assert envelope_excess(C, UD, p.n) <= 0.0


@PROPERTY
@given(params(), st.sampled_from(["alpha", "beta"]), bad_weights)
def test_bad_weight_rejected(p, name, value):
    with pytest.raises(ValueError):
        dataclasses.replace(p, **{name: value})


@PROPERTY
@given(params(), st.sampled_from(["n", "k", "l"]), non_int_counts)
def test_non_int_count_rejected(p, name, value):
    with pytest.raises(ValueError):
        dataclasses.replace(p, **{name: value})


@PROPERTY
@given(st.integers(0, 12), st.integers(0, 14), st.integers(1, 5), weights, weights)
def test_excess_constraints_rejected(n, k, extra, a, b):
    l = max(n - k, 0) + extra  # k + l > n
    with pytest.raises(ValueError):
        TransformParams(n, k, l, a, b)


@PROPERTY
@given(problems())
def test_l2_error_is_the_integrated_distance(prob):
    n = prob.source.degree
    res = reduce(prob)
    G = bernstein_gram(TransformParams(n, 0, 0, prob.alpha, prob.beta))
    diff = prob.source.control_points - elevate(res.reduced, n).control_points
    dnorm = math.sqrt(max(float(np.sum(diff * (G @ diff))), 0.0))
    assert abs(res.l2_error - dnorm) <= 1e-8 * dnorm + 1e-12
