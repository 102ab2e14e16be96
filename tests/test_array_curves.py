"""Array evaluation equals scalar evaluation, bit for bit.

Every function the curve commands evaluate on a whole grid is called once
with an array and once per element with a float; the results must agree
in every bit (compared as uint64, so -0.0 and 0.0 differ).
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitgumbel import (
    exponential_tail_model,
    gaussian_cdf,
    gaussian_log_tail,
    gaussian_pdf,
    gaussian_tail,
    gaussian_tail_model,
    gnedenko_lhs,
    gumbel_cdf,
    gumbel_density,
    limit_law_cdf,
    log_residual_cdf,
    log_residual_density,
    max_cdf,
    scaled_residual,
    shifted_log_residual_cdf,
    shifted_log_residual_density,
    solve_normalizers,
)
from exitgumbel.evt import max_cdf_of_tail

GAUSS = gaussian_tail_model()
EXP = exponential_tail_model()
SWITCH = [8.0, float(np.nextafter(8.0, -np.inf)), float(np.nextafter(8.0, np.inf))]
# The cut-offs of the masked branches, the Gumbel underflow at -700 and the
# log-residual cut at -354, plus -745 (where exp underflows) and -350, each
# with both sides.
CUTOFFS = [
    c
    for x in (-745.0, -700.0, -354.0, -350.0)
    for c in (x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf)))
]

radii = st.lists(
    st.one_of(st.floats(-40.0, 1e4), st.floats(-40.0, 40.0), st.sampled_from(SWITCH)), min_size=1, max_size=40
)
# Left of -760 the Gumbel limits themselves overflow; -4..-3 is where the
# density's exponent crosses -745.
points = st.lists(
    st.one_of(st.floats(-760.0, 60.0), st.floats(-4.0, -3.0), st.floats(-5.0, 10.0), st.sampled_from(CUTOFFS)),
    min_size=1,
    max_size=60,
)
# up to 1e300, far past r*r overflowing at ~1.34e154
positive_r = st.one_of(st.floats(0.05, 1e4), st.floats(0.05, 40.0), st.floats(0.05, 1e300), st.sampled_from(SWITCH))


def assert_bitwise(fn, xs):
    """fn(array) against fn(float) at each element, bit for bit. The array
    runs under the curve commands' floating-point policy: invalid and
    divide-by-zero raise, an overflow to inf (-r*r/2 of a far log tail)
    is the correctly rounded value."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(invalid="raise", divide="raise", over="ignore"):
        got = fn(xs)
    want = np.array([fn(float(x)) for x in xs], dtype=float)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(rs=radii)
@example(rs=SWITCH)
def test_gaussian_tail_functions(rs):
    for fn in (gaussian_tail, gaussian_log_tail, gaussian_pdf, gaussian_cdf, GAUSS.tail, GAUSS.log_tail):
        assert_bitwise(fn, rs)


@settings(max_examples=200, deadline=None)
@given(xs=points)
@example(xs=[-0.0, 0.0, 5e-324, -5e-324])
def test_exponential_model(xs):
    for fn in (EXP.tail, EXP.log_tail):
        assert_bitwise(fn, xs)


@settings(max_examples=200, deadline=None)
@given(xs=points)
@example(xs=CUTOFFS)
def test_gumbel_functions(xs):
    assert_bitwise(gumbel_cdf, xs)
    assert_bitwise(gumbel_density, xs)


@settings(max_examples=150, deadline=None)
@given(r=positive_r, xs=points)
@example(r=8.0, xs=CUTOFFS)
@example(r=1e300, xs=CUTOFFS)
def test_density_curves(r, xs):
    assert_bitwise(lambda x: log_residual_density(r, x), xs)
    assert_bitwise(lambda x: shifted_log_residual_density(r, x), xs)


@settings(max_examples=150, deadline=None)
@given(r=positive_r, xs=points)
@example(r=float(np.nextafter(8.0, np.inf)), xs=CUTOFFS)
@example(r=1e300, xs=CUTOFFS)
def test_residual_curves(r, xs):
    pos = [abs(x) for x in xs]
    for model in (GAUSS, EXP):
        assert_bitwise(lambda x: scaled_residual(model, r, x), pos)
        assert_bitwise(lambda x: log_residual_cdf(model, r, x), xs)
        assert_bitwise(lambda x: shifted_log_residual_cdf(model, r, x), xs)


@settings(max_examples=150, deadline=None)
@given(
    beta=st.floats(0.05, 20.0),
    a=st.one_of(st.floats(0.05, 300.0), st.floats(0.05, 1e150)),
    ys=st.lists(st.one_of(st.floats(-380.0, -330.0), st.floats(-10.0, 30.0), st.sampled_from(CUTOFFS)), min_size=1, max_size=60),
)
@example(beta=1.0, a=250.0, ys=CUTOFFS)
@example(beta=20.0, a=1e150, ys=CUTOFFS)
def test_limit_law_cdf(beta, a, ys):
    # x on both sides of beta*x - ln(2 beta)/2 = -354, the log-residual
    # CDF's cut-off; no errstate here, so an overflow warning fails the test
    c = 0.5 * math.log(2.0 * beta)
    xs = np.array([(y + c) / beta for y in ys])
    got = limit_law_cdf(beta, a, xs)
    want = np.array([limit_law_cdf(beta, a, float(x)) for x in xs])
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [3, 1000, 10**9])
@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=60))
def test_evt_curves(n, xs):
    seq = solve_normalizers(GAUSS, n)
    assert_bitwise(lambda x: gnedenko_lhs(GAUSS, seq, x), xs)
    assert_bitwise(lambda x: max_cdf(GAUSS, seq, x), xs)


@pytest.mark.parametrize("n", [3, 1000, 10**9])
def test_max_cdf_of_tail(n):
    assert_bitwise(lambda t: max_cdf_of_tail(n, t), [1.0, 0.5, 1e-300, 0.0, -0.0, *np.linspace(0.0, 1.0, 11)])


def test_scalar_in_float_out():
    # a float argument keeps the float path and returns a float
    assert type(gumbel_cdf(0.5)) is float
    assert type(gaussian_tail(9.0)) is float
    assert type(scaled_residual(GAUSS, 10.0, 1.0)) is float
    assert gumbel_cdf(-800.0) == 0.0 and log_residual_cdf(GAUSS, 5.0, -701.0) == 0.0
    assert math.isfinite(shifted_log_residual_density(5.0, 0.0))
