"""Residual life times over a high threshold and their log transform.

For a tail R, the residual life beyond r has tail R(r+x)/R(r), from the model's
log_tail_ratio(r, x), which never rounds r + x; rescaled by a(r) it flattens to
exp(-x). The negative log of the residual, recentered by ln a(r) as the factor
a(r) of the increment exp(-x), never added to x, converges to the Gumbel law. x is
a float or a 1-d array. `log_residual_cdf` is also the exit-time limit law (`exitsim`).
"""
from __future__ import annotations

import math

from .distributions import TailModel, _each, _log_mills, _log_r_mills, _where

__all__ = [
    "scaled_residual",
    "log_residual_cdf",
    "shifted_log_residual_cdf",
    "log_residual_density",
    "shifted_log_residual_density",
]

_CUT = -354.0  # left of it exp(-x) > 3e153 and every log-residual curve is exactly 0


def scaled_residual(model: TailModel, r: float, x):
    """Residual tail at the model's own scale: tail(r + a(r)*x)/tail(r).

    Converges to exp(-x) as r grows for tails in the Gumbel domain.
    """
    return _each(math.exp, model.log_tail_ratio(r, model.scaling_a(r) * x))


def _residual_cdf(model: TailModel, r: float, scale: float, x):
    """tail(r + scale*exp(-x))/tail(r) for r >= 0, the CDF of -ln(X - r) + ln(scale) given X > r."""
    return _where(x < _CUT, x, lambda x: 0.0, lambda x: _each(math.exp, model.log_tail_ratio(r, scale * _each(math.exp, -x))))


def log_residual_cdf(model: TailModel, r: float, x):
    """P{-ln(X - r) <= x | X > r} = tail(r + exp(-x))/tail(r), full precision for every finite r >= 0."""
    return _residual_cdf(model, r, 1.0, x)


def shifted_log_residual_cdf(model: TailModel, r: float, x):
    """log-residual CDF recentered by ln a(r), which is scaled_residual(model, r, exp(-x));
    converges to the Gumbel CDF."""
    return _residual_cdf(model, r, model.scaling_a(r), x)


def _gaussian_residual_density(r: float, c: float, log_c_mills: float, x):
    """Density at x of -ln(N - r) - ln(c) for a standard Gaussian N given N > r >= 0,
    from log_c_mills = log(c M(r)). Its log, -x - w(r/c + w/2c^2) - log(c M(r)) with
    w = exp(-x), never squares r and never rounds a ln c."""
    def density(x):
        w = _each(math.exp, -x)
        return _each(math.exp, -x - w * (r / c + 0.5 * w / c / c) - log_c_mills)

    return _where(x < _CUT, x, lambda x: 0.0, density)


def log_residual_density(r: float, x):
    """Density at x of -ln(N - r) for a standard Gaussian N given N > r >= 0."""
    return _gaussian_residual_density(r, 1.0, _log_mills(r), x)


def shifted_log_residual_density(r: float, x):
    """Density at x of -ln(N - r) - ln(r) given N > r > 0; converges to the Gumbel density."""
    if r <= 0.0:
        raise ValueError(f"recentering by ln(r) requires r > 0, got {r}")
    return _gaussian_residual_density(r, r, _log_r_mills(r), x)
