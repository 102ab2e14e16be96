"""Residual life times over a high threshold and their log transform.

For a tail R, the residual life beyond r has tail R(r+x)/R(r); rescaled
by the model's a(r) it flattens to exp(-x), and the negative log of the
residual, shifted by -ln a(r), converges to the Gumbel law. `log_residual_cdf`
is also the exit-time limit law (see `exitsim`): the bridge is one function.
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
    """P{-ln(X - r) <= x | X > r} = tail(r + exp(-x))/tail(r), exactly 0 left of
    x = -354 (exp(-x) > 3e153) for either model and every r; right of it the
    Gaussian log tail of r + exp(-x) stays finite up to r ~ 1.5e154. ValueError
    where log tail(r) is -inf (a Gaussian r above ~1.9e154)."""
    if model.log_tail(r) == -math.inf:
        raise ValueError(f"log tail(r) is -inf at r = {r}")
    return _where(x < -354.0, x, lambda x: 0.0, lambda x: model.tail_ratio(r + _each(math.exp, -x), r))


def shifted_log_residual_cdf(model: TailModel, r: float, x):
    """log-residual CDF recentered by ln a(r); converges to the Gumbel CDF.

    Algebraically identical to scaled_residual(model, r, exp(-x)) before
    any limit is taken.
    """
    return log_residual_cdf(model, r, x - math.log(model.scaling_a(r)))

