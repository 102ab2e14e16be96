"""Residual life times over a high threshold and their log transform.

For a tail R, the residual life beyond r has tail R(r+x)/R(r), from the model's
log_tail_ratio(r, x), which never rounds r + x; rescaled by a(r) it flattens to
exp(-x), and the negative log of the residual, shifted by -ln a(r), converges to
the Gumbel law. `log_residual_cdf` is also the exit-time limit law (see `exitsim`).
The curve functions take x as a float or a 1-d array (see `distributions`).
"""
from __future__ import annotations

import math

from .distributions import TailModel, _each, _where

__all__ = [
    "scaled_residual",
    "log_residual_cdf",
    "shifted_log_residual_cdf",
]


def scaled_residual(model: TailModel, r: float, x):
    """Residual tail at the model's own scale: tail(r + a(r)*x)/tail(r).

    Converges to exp(-x) as r grows for tails in the Gumbel domain.
    """
    return _each(math.exp, model.log_tail_ratio(r, model.scaling_a(r) * x))


def log_residual_cdf(model: TailModel, r: float, x):
    """P{-ln(X - r) <= x | X > r} = tail(r + exp(-x))/tail(r) for r >= 0, from the
    model's log tail ratio with the increment exp(-x) apart from r: full precision
    for every finite r. Exactly 0 left of x = -354 (exp(-x) > 3e153)."""
    return _where(x < -354.0, x, lambda x: 0.0, lambda x: _each(math.exp, model.log_tail_ratio(r, _each(math.exp, -x))))


def shifted_log_residual_cdf(model: TailModel, r: float, x):
    """log-residual CDF recentered by ln a(r); converges to the Gumbel CDF.

    Algebraically identical to scaled_residual(model, r, exp(-x)) before
    any limit is taken.
    """
    return log_residual_cdf(model, r, x - math.log(model.scaling_a(r)))

