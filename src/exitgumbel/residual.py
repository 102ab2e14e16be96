"""Residual life times over a high threshold and their log transform.

For a tail R, the residual life beyond r has tail R(r+x)/R(r); rescaled
by the model's a(r) it flattens to exp(-x), and the negative log of the
residual, shifted by -ln a(r), converges to the Gumbel law. This is the
bridge between the conditioned exit times and classical extreme values.
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
    return model.tail_ratio(r + model.scaling_a(r) * x, r)


def log_residual_cdf(model: TailModel, r: float, x):
    """P{-ln(X - r) <= x | X > r} = tail(r + exp(-x))/tail(r)."""
    return _where(-x > 700.0, x, lambda x: 0.0, lambda x: model.tail_ratio(r + _each(math.exp, -x), r))


def shifted_log_residual_cdf(model: TailModel, r: float, x):
    """log-residual CDF recentered by ln a(r); converges to the Gumbel CDF.

    Algebraically identical to scaled_residual(model, r, exp(-x)) before
    any limit is taken.
    """
    return log_residual_cdf(model, r, x - math.log(model.scaling_a(r)))

