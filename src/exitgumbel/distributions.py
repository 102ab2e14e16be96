"""Exact distribution functions of a float or of a 1-d float array.

Gumbel law, standard Gaussian law with cancellation-free tails, and the
explicit density of the log-transformed Gaussian excess over a high
threshold. All functions are pure and safe under arbitrary concurrency.

An array is evaluated as each element would be, bit for bit: numpy does
the IEEE arithmetic in the scalar order and exp/log/erfc stay `math` calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteResult, ZeroTail

__all__ = [
    "GridCurve",
    "TailModel",
    "gumbel_cdf",
    "gumbel_density",
    "gumbel_identity_residual",
    "gaussian_pdf",
    "gaussian_cdf",
    "gaussian_tail",
    "gaussian_log_tail",
    "gaussian_tail_asymptotic",
    "log_residual_density",
    "shifted_log_residual_density",
    "gaussian_tail_model",
    "exponential_tail_model",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# exp(-x) overflows a double just past x = -709.78; below this the Gumbel
# functions are exactly 0 to double precision anyway.
_GUMBEL_UNDERFLOW_X = -700.0

# Switch from erfc to the asymptotic continued fraction.  erfc itself is
# accurate far beyond 8, but the continued fraction keeps full relative
# precision in log space all the way to the representability limit.
_TAIL_SWITCH = 8.0
_MILLS_CF_DEPTH = 64


def _each(fn, x):
    """`fn`, a `math` function, of a float or of each element of an array."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, memoryview(x)), float, x.size)


def _where(cond, x, if_true, if_false):
    """`if_true(x)` where `cond` holds, else `if_false(x)`. For an array each
    branch sees only its own elements, so neither runs where it would fail."""
    if not isinstance(x, np.ndarray):
        return if_true(x) if cond else if_false(x)
    out = np.empty_like(x)
    out[cond] = if_true(x[cond])
    out[~cond] = if_false(x[~cond])
    return out


def gumbel_cdf(x):
    """Gumbel distribution function exp(-exp(-x))."""
    return _where(x < _GUMBEL_UNDERFLOW_X, x, lambda x: 0.0, lambda x: _each(math.exp, -_each(math.exp, -x)))


def gumbel_density(x):
    """Gumbel density exp(-x - exp(-x)); underflows to 0 for large |x|."""
    return _where(x < _GUMBEL_UNDERFLOW_X, x, lambda x: 0.0, lambda x: _each(math.exp, -x - _each(math.exp, -x)))


def gumbel_identity_residual(x: float) -> float:
    """Defect of the identity -ln(cdf(exp(-x))) = cdf(x).

    Both sides are evaluated through the actual `gumbel_cdf` code path, so
    the returned value measures floating-point consistency rather than
    restating the algebra. Zero up to roundoff for every finite x.
    """
    inner = gumbel_cdf(math.exp(-x)) if x > _GUMBEL_UNDERFLOW_X else 1.0
    lhs = -math.log(inner) if inner > 0.0 else math.inf
    return lhs - gumbel_cdf(x)


def gaussian_pdf(x):
    """Standard Gaussian density."""
    return _each(math.exp, -0.5 * x * x - _LOG_SQRT_2PI)


def _mills_ratio(r):
    """Mills ratio tail/pdf via the asymptotic continued fraction.

    Backward recurrence, fixed depth; accurate to well below 1e-16
    relative for r >= 8.
    """
    f = 0.0
    for k in range(_MILLS_CF_DEPTH, 0, -1):
        f = k / (r + f)
    return 1.0 / (r + f)


def gaussian_tail(r):
    """Upper tail P{N > r} of the standard Gaussian, without cancellation.

    erfc evaluation for r <= 8, asymptotic continued fraction beyond.
    Relative accuracy ~1e-13 or better wherever the value is representable;
    underflows to 0 for r beyond ~37.6 (use `gaussian_log_tail` there).
    """
    return _where(
        r <= _TAIL_SWITCH, r, lambda r: 0.5 * _each(math.erfc, r / _SQRT2), lambda r: gaussian_pdf(r) * _mills_ratio(r)
    )


def gaussian_log_tail(r):
    """log P{N > r}, valid for every finite r (no underflow)."""
    return _where(
        r <= _TAIL_SWITCH,
        r,
        lambda r: _each(math.log, gaussian_tail(r)),
        lambda r: -0.5 * r * r - _LOG_SQRT_2PI + _each(math.log, _mills_ratio(r)),
    )


def gaussian_cdf(x):
    """Standard Gaussian distribution function, via the mirrored tail."""
    return gaussian_tail(-x)


def gaussian_tail_asymptotic(r: float) -> float:
    """Leading tail asymptotic pdf(r)/r; the ratio tail/asymptotic -> 1.

    Raises ValueError for r <= 0 where the asymptotic is meaningless.
    """
    if r <= 0.0:
        raise ValueError(f"asymptotic tail requires r > 0, got {r}")
    return gaussian_pdf(r) / r


def log_residual_density(r: float, x):
    """Density at x of -ln(N - r) for a standard Gaussian N given N > r.

    Closed form pdf(exp(-x) + r) * exp(-x) / tail(r). The exponent is
    assembled in expanded form

        -x - exp(-2x)/2 - r*exp(-x) - r^2/2 - log tail(r)

    so the r^2/2 term cancels against the log-tail before exponentiating;
    intermediate factors never overflow, for any r. log tail(r) is computed
    once per call.
    """
    log_tail_r = gaussian_log_tail(r)

    def density(x):
        u = _each(math.exp, -x)
        exponent = -x - 0.5 * u * u - r * u - 0.5 * r * r - log_tail_r
        exponent -= _LOG_SQRT_2PI
        return _where(exponent < -745.0, exponent, lambda e: 0.0, lambda e: _each(math.exp, e))

    # Left of -350 exp(-2x) > 1e304; the density is 0 there to double precision.
    return _where(-x > 350.0, x, lambda x: 0.0, density)


def shifted_log_residual_density(r: float, x):
    """Density at x of -ln(N - r) - ln(r) given N > r; converges to the
    Gumbel density as r grows.

    Requires r > 0 (the recentering shift is ln r).
    """
    if r <= 0.0:
        raise ValueError(f"shift by ln(r) requires r > 0, got {r}")
    return log_residual_density(r, x + math.log(r))


def _gaussian_scaling(r: float) -> float:
    """Residual scaling a(r) = 1/r for the Gaussian tail; defined for r > 0
    where 1/r is finite (NonFiniteResult for a subnormal r)."""
    if r <= 0.0:
        raise ValueError(f"Gaussian residual scaling needs r > 0, got {r}")
    if 1.0 / r == math.inf:
        raise NonFiniteResult(f"Gaussian residual scaling a(r) = 1/r overflows at r = {r}: 1/r = inf")
    return 1.0 / r


def _exponential_cdf(x):
    return _where(x > 0.0, x, lambda x: -_each(math.expm1, -x), lambda x: 0.0)


def _exponential_tail(x):
    return _where(x > 0.0, x, lambda x: _each(math.exp, -x), lambda x: 1.0)


def _exponential_log_tail(x):
    return _where(x > 0.0, x, lambda x: -x, lambda x: 0.0)


@dataclass(frozen=True)
class TailModel:
    """A distribution seen through its tail.

    Bundles a CDF, a directly computed upper tail (never 1 - cdf), the
    residual scaling function a(r) that flattens the tail into exp(-x),
    and optionally an exact log-tail for deep-tail work. The built-in
    models' cdf, tail and log_tail take a float or a 1-d array.
    """

    name: str
    cdf: Callable[[float], float]
    tail: Callable[[float], float]
    scaling_a: Callable[[float], float]
    log_tail: Optional[Callable[[float], float]] = None

    def tail_ratio(self, numerator_at, denominator_at: float):
        """tail(numerator_at)/tail(denominator_at), in log space when possible;
        `numerator_at` may be an array."""
        if self.log_tail is not None:
            return _each(math.exp, self.log_tail(numerator_at) - self.log_tail(denominator_at))
        denom = self.tail(denominator_at)
        if denom <= 0.0:
            raise ZeroTail(f"{self.name} tail underflowed at {denominator_at}")
        return self.tail(numerator_at) / denom


def gaussian_tail_model() -> TailModel:
    """Standard Gaussian with scaling a(r) = 1/r."""
    return TailModel(
        name="gaussian",
        cdf=gaussian_cdf,
        tail=gaussian_tail,
        scaling_a=_gaussian_scaling,
        log_tail=gaussian_log_tail,
    )


def exponential_tail_model() -> TailModel:
    """Unit exponential: the memoryless fixed point, scaling a(r) = 1."""
    return TailModel(
        name="exponential",
        cdf=_exponential_cdf,
        tail=_exponential_tail,
        scaling_a=lambda r: 1.0,
        log_tail=_exponential_log_tail,
    )


@dataclass(frozen=True)
class GridCurve:
    """A function sampled on a strictly increasing finite grid."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size == 0:
            raise ValueError("empty grid")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("grid values must be finite")
        if xs.size > 1 and not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return int(self.xs.size)
