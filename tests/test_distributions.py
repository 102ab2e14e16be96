"""Scalar distribution functions against high-precision oracle values.

Frozen constants were computed with mpmath at 40 significant digits; the
sweeps recompute the oracle at test time where a single number is not
enough.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from exitgumbel import (
    NonFiniteResult,
    RngStream,
    exponential_tail_model,
    gaussian_cdf,
    gaussian_log_tail,
    gaussian_pdf,
    gaussian_tail,
    gaussian_tail_asymptotic,
    gaussian_tail_model,
    gumbel_cdf,
    gumbel_density,
    gumbel_identity_residual,
    log_residual_density,
    shifted_log_residual_density,
)
from exitgumbel.cli import _density_window_mass
from exitgumbel.distributions import _log_r_mills

mp.mp.dps = 40


class TestGumbel:
    def test_density_at_zero(self):
        assert gumbel_density(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_density_at_one_frozen(self):
        # mpmath: exp(-1 - exp(-1))
        assert gumbel_density(1.0) == pytest.approx(0.25464638004358249582, rel=1e-14)

    def test_density_vanishes_in_both_tails(self):
        assert gumbel_density(-50.0) == 0.0
        assert gumbel_density(800.0) == pytest.approx(0.0, abs=1e-300)
        assert gumbel_density(-1e6) == 0.0

    def test_cdf_values(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_cdf(60.0) == pytest.approx(1.0, rel=1e-15)
        # median solves exp(-exp(-x)) = 1/2
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-14)

    def test_cdf_nondecreasing_and_limits(self):
        xs = np.linspace(-40.0, 40.0, 401)
        ys = [gumbel_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert ys[0] == 0.0
        assert ys[-1] == pytest.approx(1.0, rel=1e-15)

    def test_cdf_derivative_matches_density(self):
        h = 1e-5
        for x in np.linspace(-5.0, 10.0, 61):
            fd = (gumbel_cdf(x + h) - gumbel_cdf(x - h)) / (2.0 * h)
            assert abs(fd - gumbel_density(x)) <= 1e-8

    def test_identity_residual_on_grid(self):
        for x in np.linspace(-5.0, 10.0, 151):
            assert abs(gumbel_identity_residual(x)) <= 1e-12

    def test_identity_residual_spot(self):
        assert gumbel_identity_residual(0.0) == pytest.approx(0.0, abs=1e-13)
        assert abs(gumbel_identity_residual(5.0)) <= 1e-12
        assert abs(gumbel_identity_residual(-3.0)) <= 1e-12


class TestGaussianTail:
    def test_half_at_zero(self):
        assert gaussian_tail(0.0) == pytest.approx(0.5, rel=1e-15)

    def test_decile_frozen(self):
        assert gaussian_tail(1.2815515655446004) == pytest.approx(0.1, rel=1e-14)

    def test_deep_tail_frozen(self):
        assert gaussian_tail(8.0) == pytest.approx(6.2209605742717841235e-16, rel=1e-13)
        assert gaussian_tail(37.0) == pytest.approx(5.7255712225245768227e-300, rel=1e-12)

    def test_relative_accuracy_against_mpmath(self):
        # cancellation-free evaluation across both branches
        for r in np.linspace(-8.0, 37.0, 91):
            exact = mp.ncdf(-mp.mpf(float(r)))
            rel = abs(gaussian_tail(float(r)) - float(exact)) / float(exact)
            assert rel <= 1e-12, f"tail({r}) off by {rel}"

    def test_erfc_branch_to_half_an_ulp_against_mpmath(self):
        # erfc of the rounded r/sqrt(2) alone is off by ~r^2 ulps (5.7e-15 at
        # r = 8); the first-order correction for that rounding keeps [0, 8]
        # within 5e-16, and [-8, 0] within 2e-16
        rs = np.concatenate([np.linspace(0.0, 8.0, 1601), RngStream(18).substream(0).uniform(0.0, 8.0, 400)])
        for sign, bound in ((1.0, 5e-16), (-1.0, 2e-16)):
            values = sign * rs
            got = gaussian_tail(values)
            assert np.array_equal(got, [gaussian_tail(float(r)) for r in values])
            worst = max(abs((mp.mpf(t) - mp.ncdf(-mp.mpf(r))) / mp.ncdf(-mp.mpf(r))) for r, t in zip(values.tolist(), got.tolist()))
            assert worst <= bound, f"sign {sign}: {float(worst):.3g}"

    def test_log_tail_frozen(self):
        assert gaussian_log_tail(40.0) == pytest.approx(-804.60844201375378817, rel=1e-14)
        assert gaussian_log_tail(20.0) == pytest.approx(-203.91715537109726394, rel=1e-14)
        assert gaussian_log_tail(1.0) == pytest.approx(math.log(0.15865525393145705), rel=1e-13)

    def test_strictly_decreasing(self):
        grid = np.linspace(-8.0, 37.0, 451)
        vals = [gaussian_tail(r) for r in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_symmetry(self):
        for r in np.linspace(0.0, 8.0, 81):
            assert abs(gaussian_tail(-r) + gaussian_tail(r) - 1.0) <= 1e-13

    def test_cdf_tail_sum(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(gaussian_cdf(x) + gaussian_tail(x) - 1.0) <= 1e-14

    def test_mills_two_sided_bound(self):
        for r in np.linspace(2.0, 30.0, 113):
            ratio = r * gaussian_tail(r) / gaussian_pdf(r)
            assert 1.0 - 1.0 / (r * r) < ratio < 1.0


class TestTailAsymptotic:
    def test_frozen_values(self):
        assert gaussian_tail_asymptotic(10.0) == pytest.approx(7.6945986267064193463e-24, rel=1e-13)
        assert gaussian_tail_asymptotic(1.0) == pytest.approx(0.2419707245191433498, rel=1e-13)

    def test_ratio_tends_to_one(self):
        ratios = [gaussian_tail(r) / gaussian_tail_asymptotic(r) for r in (2.0, 5.0, 10.0, 20.0, 35.0)]
        gaps = [abs(1.0 - q) for q in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_tail_asymptotic(0.0)
        with pytest.raises(ValueError):
            gaussian_tail_asymptotic(-1.0)


def _oracle_density(r, x):
    # density of -ln(N - r) given N > r, straight from the definition
    u = mp.exp(-mp.mpf(x))
    return float(mp.npdf(u + r) * u / mp.ncdf(-mp.mpf(r)))


class TestConditionalDensity:
    def test_at_origin_frozen(self):
        # pdf(1)/0.5
        assert log_residual_density(0.0, 0.0) == pytest.approx(0.4839414490382866996, rel=1e-13)

    def test_frozen_points(self):
        assert log_residual_density(1.0, 0.5) == pytest.approx(0.41962775072985337974, rel=1e-13)
        assert log_residual_density(5.0, -0.25) == pytest.approx(0.0047556216379111252201, rel=1e-13)

    def test_matches_oracle_across_thresholds(self):
        for r in (0.0, 1.0, 5.0, 20.0, 40.0):
            for x in np.linspace(-2.0, 6.0, 17):
                want = _oracle_density(r, float(x))
                got = log_residual_density(r, float(x))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_left_tail_vanishes(self):
        for r in (0.0, 2.0, 10.0):
            assert log_residual_density(r, -30.0) == 0.0
            assert log_residual_density(r, -500.0) == 0.0

    def test_normalization_by_trapezoid(self):
        # the identity suite's trapezoid sum against the mpmath integral over
        # the same window [-15, 25 + r], whose mass falls short of 1 by ~1e-11
        for r in (0.0, 1.0, 2.0, 5.0):
            window = mp.quad(lambda x: mp.npdf(mp.exp(-x) + r) * mp.exp(-x), [-15, 0, 25 + r])
            want = float(window / mp.ncdf(-mp.mpf(r)))
            assert abs(_density_window_mass(r) - want) <= 1e-14

    def test_normalization_by_mpmath(self):
        for r in (0.0, 1.0, 5.0):
            total = mp.quad(lambda x: mp.npdf(mp.exp(-x) + r) * mp.exp(-x), [-15, 0, 25 + r])
            total = float(total / mp.ncdf(-mp.mpf(r)))
            assert abs(total - 1.0) <= 1e-9


class TestShiftedDensity:
    def test_positive_everywhere(self):
        for r in (0.5, 1.0, 20.0):
            for x in np.linspace(-1.0, 5.0, 31):
                assert shifted_log_residual_density(r, float(x)) > 0.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            shifted_log_residual_density(0.0, 1.0)
        with pytest.raises(ValueError):
            shifted_log_residual_density(-2.0, 1.0)

    def test_frozen_value_at_r20(self):
        assert shifted_log_residual_density(20.0, 2.0) == pytest.approx(
            0.11849629159582647102, rel=1e-12
        )

    def test_converges_to_gumbel_density(self):
        xs = np.linspace(-1.0, 5.0, 601)
        sups = []
        for r in (20.0, 40.0):
            sups.append(
                max(abs(shifted_log_residual_density(r, float(x)) - gumbel_density(float(x))) for x in xs)
            )
        assert sups[0] <= 0.01
        assert sups[1] < sups[0]


class TestLogRMills:
    @pytest.mark.parametrize("r", [0.5, 3.0, 8.0, float(np.nextafter(8.0, np.inf)), 30.0, 1e3, 1e8, 1e20])
    def test_against_mpmath(self, r):
        # log(r M(r)) to 40 digits: mpmath loses ~2 digits a decade of r to
        # the exponent r^2/2 and ~2 more to r M(r) -> 1, so its working
        # precision grows with r. Above the switch the error is relative: the
        # continued fraction's own tail f keeps digits that (r + f) - r loses
        with mp.workdps(40 + 4 * max(0, math.ceil(math.log10(r)))):
            R = mp.mpf(r)
            want = mp.log(R * mp.ncdf(-R) / mp.npdf(R))
            error = abs(_log_r_mills(r) - want)
            if r <= 8.0:
                assert error <= 1e-14
            else:
                assert error <= 2e-16 * abs(want)


class TestTailModels:
    def test_gaussian_model_wiring(self):
        g = gaussian_tail_model()
        assert g.name == "gaussian"
        assert g.tail(1.0) == gaussian_tail(1.0)
        assert g.scaling_a(4.0) == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(ValueError):
            g.scaling_a(0.0)

    def test_gaussian_scaling_overflow_is_typed(self):
        with pytest.raises(NonFiniteResult, match="1e-320"):
            gaussian_tail_model().scaling_a(1e-320)

    def test_exponential_model(self):
        e = exponential_tail_model()
        assert e.tail(0.0) == 1.0
        assert e.tail(-3.0) == 1.0
        assert e.tail(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert e.scaling_a(7.0) == 1.0
        assert e.log_tail(3.0) == -3.0

    def test_tail_ratio_uses_log_space(self):
        g = gaussian_tail_model()
        # both tails underflow in linear space; the ratio is still finite
        ratio = math.exp(g.log_tail_ratio(39.9, 0.1))
        assert 0.0 < ratio < 1.0
        assert math.log(ratio) == pytest.approx(
            gaussian_log_tail(40.0) - gaussian_log_tail(39.9), rel=1e-12
        )

    def test_tail_nonincreasing_both_models(self):
        for model in (gaussian_tail_model(), exponential_tail_model()):
            xs = np.linspace(-5.0, 30.0, 141)
            vals = [model.tail(float(x)) for x in xs]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

