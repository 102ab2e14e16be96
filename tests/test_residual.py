"""Residual life tails, their scaling limit, and the log transform."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitgumbel import (
    EmpiricalSample,
    NonFiniteResult,
    RngStream,
    exponential_tail_model,
    gaussian_tail_model,
    gumbel_cdf,
    ks_one_sample,
    log_residual_cdf,
    log_residual_density,
    scaled_residual,
    shifted_log_residual_cdf,
    shifted_log_residual_density,
    truncated_gaussian,
)

GAUSS = gaussian_tail_model()
EXP = exponential_tail_model()


class TestResidualTail:
    def test_one_at_zero(self):
        for model in (GAUSS, EXP):
            for r in (0.0, 1.0, 10.0):
                assert math.exp(model.log_tail_ratio(r, 0.0)) == 1.0

    def test_memoryless_exponential(self):
        for r in (0.0, 1.0, 25.0):
            for x in (0.1, 1.0, 4.0):
                assert math.exp(EXP.log_tail_ratio(r, x)) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_gaussian_frozen_value(self):
        # mpmath: tail(3.5)/tail(3)
        assert math.exp(GAUSS.log_tail_ratio(3.0, 0.5)) == pytest.approx(0.17233085283827657439, rel=1e-12)

    def test_valid_tail_function(self):
        xs = np.linspace(0.0, 10.0, 101)
        vals = [math.exp(GAUSS.log_tail_ratio(2.0, float(x))) for x in xs]
        assert vals[0] == 1.0
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_increment_below_minus_r(self):
        # r + d < 0: the Gaussian takes the difference of the log tails there
        # (M(r + d) grows like exp((r + d)^2/2)); the exponential tail is 1
        with mp.workdps(40):
            for r, d in ((1.0, -5.0), (3.0, -3.5), (0.5, -1e200)):
                exact = mp.erfc(mp.mpf(r + d) / mp.sqrt(2)) / mp.erfc(mp.mpf(r) / mp.sqrt(2))
                assert math.exp(GAUSS.log_tail_ratio(r, d)) == pytest.approx(float(exact), rel=1e-14)
        assert math.exp(EXP.log_tail_ratio(1.0, -5.0)) == math.exp(1.0)
        assert np.array_equal(EXP.log_tail_ratio(2.0, np.array([-5.0, -2.0, 1.0])), [2.0, 2.0, -1.0])

    def test_deep_threshold_works_in_log_space(self):
        # linear-space tails underflow past ~37.6; log-tail route must not
        v = math.exp(GAUSS.log_tail_ratio(40.0, 0.1))
        assert v == pytest.approx(math.exp(-40.0 * 0.1 - 0.005) / (1.0 + 0.1 / 40.0), rel=1e-2)


class TestScaledResidual:
    def test_one_at_zero(self):
        for r in (5.0, 10.0, 30.0):
            assert scaled_residual(GAUSS, r, 0.0) == 1.0

    def test_converges_to_exponential(self):
        # frozen mpmath sups: 0.0057133 at r=10, 0.00065013 at r=30
        xs = np.linspace(0.0, 3.0, 301)
        sup10 = max(abs(scaled_residual(GAUSS, 10.0, float(x)) - math.exp(-x)) for x in xs)
        sup30 = max(abs(scaled_residual(GAUSS, 30.0, float(x)) - math.exp(-x)) for x in xs)
        assert sup10 == pytest.approx(0.0057133272, abs=1e-7)
        assert sup10 <= 0.01
        assert sup30 <= 0.002

    def test_exponential_is_fixed_point(self):
        for r in (1.0, 12.0):
            for x in np.linspace(0.0, 5.0, 26):
                assert scaled_residual(EXP, r, float(x)) == pytest.approx(
                    math.exp(-x), rel=1e-13
                )

    def test_relative_precision_at_large_thresholds(self):
        # 60-digit tail(r + x/r)/tail(r). A ratio of tails at the rounded
        # r + x/r has relative errors at x = 1 and 4: 1.5e-10 and 1.2e-9 at
        # r = 1e5, 7.8e-3 at 1e7, 1.7 and 53.6 at 1e9, where r + x/r rounds to r
        with mp.workdps(60):
            for r in (1e5, 1e7, 1e9):
                for x in (1.0, 4.0):
                    R = mp.mpf(r)
                    exact = mp.erfc((R + mp.mpf(x) / R) / mp.sqrt(2)) / mp.erfc(R / mp.sqrt(2))
                    error = abs(mp.mpf(scaled_residual(GAUSS, r, x)) - exact) / exact
                    assert error <= 1e-9, (r, x, float(error))


class TestLogResidualCdf:
    def test_limits(self):
        assert log_residual_cdf(GAUSS, 1.0, 50.0) == pytest.approx(1.0, rel=1e-9)
        assert log_residual_cdf(GAUSS, 1.0, -800.0) == 0.0

    @pytest.mark.parametrize("r", [1e-3, 1.0, 300.0, 1e150])
    def test_cut_off_at_minus_354(self, r):
        # exactly 0 on both sides of the cut for either model, with no
        # overflow warning right of it (filterwarnings = error)
        cut = [-699.0, float(np.nextafter(-354.0, -np.inf)), -354.0, float(np.nextafter(-354.0, np.inf)), -353.0]
        for model in (GAUSS, EXP):
            got = log_residual_cdf(model, r, np.array(cut))
            assert np.array_equal(got, np.zeros(len(cut)))
            assert [log_residual_cdf(model, r, x) for x in cut] == [0.0] * len(cut)

    def test_frozen_value_at_origin(self):
        # tail(1)/tail(0) = 2*(1 - cdf(1))
        assert log_residual_cdf(GAUSS, 0.0, 0.0) == pytest.approx(
            0.31731050786291410283, rel=1e-12
        )

    def test_monotone(self):
        xs = np.linspace(-5.0, 10.0, 151)
        vals = [log_residual_cdf(GAUSS, 2.0, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_against_monte_carlo(self):
        # -ln(X - r) for X a truncated Gaussian has exactly this CDF
        r = 1.0
        draws = truncated_gaussian(r, RngStream(23), size=10_000)
        sample = EmpiricalSample.from_values(-np.log(draws - r))
        stat = ks_one_sample(sample, lambda t: log_residual_cdf(GAUSS, r, t))
        assert stat <= 0.015


class TestShiftedLogResidualCdf:
    def test_converges_to_gumbel(self):
        # frozen mpmath sup at r=20: 0.0014572
        xs = np.linspace(-2.0, 6.0, 161)
        sup20 = max(
            abs(shifted_log_residual_cdf(GAUSS, 20.0, float(x)) - gumbel_cdf(float(x)))
            for x in xs
        )
        assert sup20 == pytest.approx(0.0014572138, abs=1e-7)
        assert sup20 <= 0.01

    def test_algebraic_identity_with_scaled_residual(self):
        for r in (5.0, 10.0, 20.0, 30.0):
            for x in np.linspace(-2.0, 6.0, 81):
                lhs = shifted_log_residual_cdf(GAUSS, r, float(x))
                rhs = scaled_residual(GAUSS, r, math.exp(-float(x)))
                assert abs(lhs - rhs) <= 1e-13

    def test_matches_truncated_gaussian_normalization(self):
        # identical to P{-ln(N-r) - ln r <= x | N > r} = tail(r + e^-x / r)/tail(r)
        for r in (2.0, 20.0):
            for x in np.linspace(-2.0, 6.0, 33):
                direct = math.exp(GAUSS.log_tail_ratio(r, math.exp(-x) / r))
                assert abs(shifted_log_residual_cdf(GAUSS, r, float(x)) - direct) <= 1e-13

    def test_exponential_fixed_point_exact(self):
        # the exponential log tail ratio is exactly -d: exp(-exp(-x)) bit for bit
        for r in (1.0, 5.0, 30.0):
            for x in np.linspace(-2.0, 6.0, 81):
                assert shifted_log_residual_cdf(EXP, r, float(x)) == gumbel_cdf(float(x))

    def test_monotone_in_x(self):
        xs = np.linspace(-3.0, 8.0, 111)
        for r in (5.0, 20.0):
            vals = [shifted_log_residual_cdf(GAUSS, r, float(x)) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


RESIDUAL_FUNCTIONS = [
    *(
        (f"{name}[{model.name}]", lambda r, x, fn=fn, model=model: fn(model, r, x))
        for model in (GAUSS, EXP)
        for name, fn in (
            ("scaled_residual", scaled_residual),
            ("log_residual_cdf", log_residual_cdf),
            ("shifted_log_residual_cdf", shifted_log_residual_cdf),
        )
    ),
    ("log_residual_density", log_residual_density),
    ("shifted_log_residual_density", shifted_log_residual_density),
]


@pytest.mark.parametrize("fn", [fn for _, fn in RESIDUAL_FUNCTIONS], ids=[name for name, _ in RESIDUAL_FUNCTIONS])
@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.0, 1e300, exclude_min=True), x=st.floats(-1e300, 1e300))
@example(r=1e300, x=-1e300)
@example(r=1e-300, x=1e300)
@example(r=1e-3, x=-1e300)
@example(r=2e154, x=-350.0)
@example(r=5e-324, x=1.0)
def test_finite_or_typed_error_never_nan(fn, r, x):
    # filterwarnings = error: a warning fails the test. A result too large
    # for a double (a ratio e^(r^2/2) left of r) raises OverflowError, a
    # subnormal r the scaling's NonFiniteResult
    try:
        value = fn(r, x)
    except (OverflowError, NonFiniteResult):
        return
    assert type(value) is float and math.isfinite(value), (r, x, value)
