"""Exact distribution functions of a float or of a 1-d float array.

Gumbel law, standard Gaussian law with cancellation-free tails, and the
tail models the residual curves (`residual`) are built from. All functions
are pure and safe under arbitrary concurrency.

An array is evaluated as each element would be, bit for bit: numpy does
the IEEE arithmetic in the scalar order and exp/log/erfc stay `math` calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteResult

__all__ = [
    "TailModel",
    "gumbel_cdf",
    "gumbel_density",
    "gumbel_identity_residual",
    "gaussian_pdf",
    "gaussian_cdf",
    "gaussian_tail",
    "gaussian_log_tail",
    "gaussian_tail_asymptotic",
    "gaussian_tail_model",
    "exponential_tail_model",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2_LO = -9.667293313452913e-17  # sqrt(2) - _SQRT2, from 50-digit arithmetic
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
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
    branch sees only its own elements, so neither runs where it would fail,
    and a branch with no elements does not run."""
    if not isinstance(x, np.ndarray):
        return if_true(x) if cond else if_false(x)
    out = np.empty_like(x)
    for where, fn in ((cond, if_true), (~cond, if_false)):
        if where.any():
            out[where] = fn(x[where])
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


def _gaussian_log_pdf(x):
    """log of the standard Gaussian density, -x^2/2 - log sqrt(2 pi)."""
    return -0.5 * x * x - _LOG_SQRT_2PI


def gaussian_pdf(x):
    """Standard Gaussian density."""
    return _each(math.exp, _gaussian_log_pdf(x))


def _mills_fraction(r):
    """f of the inverse Mills ratio pdf/tail = r + f, the asymptotic continued
    fraction by backward recurrence at fixed depth; well below 1e-16 relative
    error for r >= 8. f ~ 1/r keeps digits that r + f rounds away."""
    f = 0.0
    for k in range(_MILLS_CF_DEPTH, 0, -1):
        f = k / (r + f)
    return f


def _split(a):
    """Veltkamp's split of a double into a high half of 26 bits and the rest."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


_SQRT2_SPLIT = _split(_SQRT2)


def _erfc_tail(r):
    """erfc(r/sqrt 2)/2 for |r| <= _TAIL_SWITCH, with the rounding of
    x = fl(r/sqrt 2) undone to first order: erfc(x)/2 - d*exp(-x^2)/sqrt(pi)
    with d = r/sqrt 2 - x. Taken alone, that rounding costs up to ~x^2 ulps
    (5.7e-15 at r = 8). d comes from r - x*sqrt 2, whose product x*_SQRT2 is
    made exact by Dekker's two-product on the split halves, with sqrt 2 as
    the double-double _SQRT2 + _SQRT2_LO."""
    x = r / _SQRT2
    product = x * _SQRT2
    (xh, xl), (sh, sl) = _split(x), _SQRT2_SPLIT
    product_error = ((xh * sh - product) + xh * sl + xl * sh) + xl * sl
    d = ((r - product) - product_error - x * _SQRT2_LO) / _SQRT2
    return 0.5 * _each(math.erfc, x) - d * _each(math.exp, -x * x) * _INV_SQRT_PI


def gaussian_tail(r):
    """Upper tail P{N > r} of the standard Gaussian, without cancellation.

    Corrected erfc (`_erfc_tail`) on [-8, 8], within 5e-16 relative on
    [0, 8]; plain erfc below -8, where the correction is below 1e-29 of the
    tail (and the split could overflow); the asymptotic continued fraction
    above 8. Relative accuracy ~1e-13 or better wherever the value is
    representable; underflows to 0 for r beyond ~37.6 (use
    `gaussian_log_tail` there).
    """
    return _where(
        r <= _TAIL_SWITCH,
        r,
        lambda r: _where(r < -_TAIL_SWITCH, r, lambda r: 0.5 * _each(math.erfc, r / _SQRT2), _erfc_tail),
        lambda r: gaussian_pdf(r) * (1.0 / (r + _mills_fraction(r))),
    )


def gaussian_log_tail(r):
    """log P{N > r}, valid for every finite r (no underflow)."""
    return _where(
        r <= _TAIL_SWITCH,
        r,
        lambda r: _each(math.log, gaussian_tail(r)),
        lambda r: _gaussian_log_pdf(r) + _each(math.log, 1.0 / (r + _mills_fraction(r))),
    )


def _log_mills(r):
    """log M(r) of the Mills ratio M = tail/pdf for r >= 0, -inf at r = inf."""
    inverse = _where(r <= _TAIL_SWITCH, r, lambda r: gaussian_pdf(r) / gaussian_tail(r), lambda r: r + _mills_fraction(r))
    return -_each(math.log, inverse)


def _log_r_mills(r: float) -> float:
    """log(r M(r)) for r > 0. Above the switch r M(r) = r/(r + f) nears 1, and
    -log1p(f/r) keeps the digits that ln r + log M(r) would cancel."""
    return -math.log1p(_mills_fraction(r) / r) if r > _TAIL_SWITCH else math.log(r) + _log_mills(r)


def _gaussian_log_tail_ratio(r: float, d):
    """log tail(r + d)/tail(r) = -d(r + d/2) + log M(r + d) - log M(r) for
    r >= 0, never squaring r; left of r + d = 0, where M grows like
    exp((r + d)^2/2), the difference of the log tails."""
    def ratio(d):
        return -d * (r + 0.5 * d) + (_log_mills(r + d) - _log_mills(r))

    return _where(r + d < 0.0, d, lambda d: gaussian_log_tail(r + d) - gaussian_log_tail(r), ratio)


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


def _gaussian_scaling(r: float) -> float:
    """Residual scaling a(r) = 1/r for the Gaussian tail; defined for r > 0
    where 1/r is finite (NonFiniteResult for a subnormal r)."""
    if r <= 0.0:
        raise ValueError(f"Gaussian residual scaling needs r > 0, got {r}")
    if 1.0 / r == math.inf:
        raise NonFiniteResult(f"Gaussian residual scaling a(r) = 1/r overflows at r = {r}: 1/r = inf")
    return 1.0 / r


@dataclass(frozen=True)
class TailModel:
    """A distribution seen through its tail.

    Bundles a directly computed upper tail (never 1 - cdf), its exact
    logarithm for deep-tail work, the residual scaling function a(r)
    that flattens the tail into exp(-x), the log density, whose
    difference with the log tail is the log tail's exact slope, and
    log_tail_ratio(r, d) = log tail(r + d)/tail(r) for r >= 0, with the
    increment d apart from r. The built-in models' tail, log_tail and log_pdf
    take a float or a 1-d array, and so does log_tail_ratio as its d.
    """

    name: str
    tail: Callable[[float], float]
    log_tail: Callable[[float], float]
    scaling_a: Callable[[float], float]
    log_pdf: Callable[[float], float]
    log_tail_ratio: Callable[[float, float], float]


def gaussian_tail_model() -> TailModel:
    """Standard Gaussian with scaling a(r) = 1/r."""
    return TailModel(
        name="gaussian",
        tail=gaussian_tail,
        log_tail=gaussian_log_tail,
        scaling_a=_gaussian_scaling,
        log_pdf=_gaussian_log_pdf,
        log_tail_ratio=_gaussian_log_tail_ratio,
    )


def exponential_tail_model() -> TailModel:
    """Unit exponential: the memoryless fixed point, scaling a(r) = 1."""
    return TailModel(
        name="exponential",
        tail=lambda x: _where(x > 0.0, x, lambda x: _each(math.exp, -x), lambda x: 1.0),
        log_tail=lambda x: _where(x > 0.0, x, lambda x: -x, lambda x: 0.0),
        scaling_a=lambda r: 1.0,
        log_pdf=lambda x: _where(x > 0.0, x, lambda x: -x, lambda x: -math.inf),
        log_tail_ratio=lambda r, d: _where(d < -r, d, lambda d: r, lambda d: -d),
    )

