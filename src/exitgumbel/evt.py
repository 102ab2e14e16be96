"""Extreme-value side: normalizing sequences for Gaussian maxima, the
tail-count criterion curves, and Monte Carlo block maxima."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import TailModel, _each, _where
from .errors import NoBracket
from .stats import EmpiricalSample, RngStream

__all__ = [
    "NormalizingSequence",
    "solve_normalizers",
    "gnedenko_lhs",
    "max_cdf",
    "max_cdf_of_tail",
    "sample_normalized_max",
    "standard_gaussian_sampler",
]

_BRACKET_HIGH = 50.0
_BISECT_WIDTH = 1e-3
_LOG_TAIL_TOL = 1e-13  # |log tail - log(1/n)|, i.e. ~relative error in tail space


@dataclass(frozen=True)
class NormalizingSequence:
    """Affine normalization for the maximum of n i.i.d. draws.

    The normalized maximum is (max - center)/scale; center solves
    tail(center) = 1/n and scale is the model's residual scaling at the
    center (1/center for the Gaussian).
    """

    n: int
    scale: float
    center: float

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def _log_tail(model: TailModel, x: float) -> float:
    if model.log_tail is not None:
        return model.log_tail(x)
    t = model.tail(x)
    return math.log(t) if t > 0.0 else -math.inf


def solve_normalizers(model: TailModel, n: int) -> NormalizingSequence:
    """Solve tail(center) = 1/n on [0, 50] to ~1e-13 relative in tail space.

    Bisection down to a 1e-3 bracket, then safeguarded Newton on the
    log-tail (nearly linear in center^2 for Gaussian-like tails, so Newton
    is quadratic once bracketed). Requires n >= 3 so the Gaussian center
    is strictly positive and its scale 1/center finite. Raises NoBracket
    when the tail never crosses 1/n on the search interval.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    target = -math.log(n)
    lo, hi = 0.0, _BRACKET_HIGH
    f_lo = _log_tail(model, lo) - target
    f_hi = _log_tail(model, hi) - target
    if f_lo < 0.0:
        raise NoBracket(f"tail(0) is already below 1/{n}")
    if f_hi > 0.0:
        raise NoBracket(f"tail({_BRACKET_HIGH}) does not reach 1/{n}")

    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if _log_tail(model, mid) - target >= 0.0:
            lo = mid
        else:
            hi = mid

    b = 0.5 * (lo + hi)
    for _ in range(40):
        f = _log_tail(model, b) - target
        if abs(f) <= _LOG_TAIL_TOL:
            break
        if f >= 0.0:
            lo = max(lo, b)
        else:
            hi = min(hi, b)
        db = 1e-6 * max(1.0, abs(b))
        slope = (_log_tail(model, b + db) - _log_tail(model, b - db)) / (2.0 * db)
        step = f / slope if slope != 0.0 else 0.0
        candidate = b - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        b = candidate

    return NormalizingSequence(n=n, scale=model.scaling_a(b), center=b)


def gnedenko_lhs(model: TailModel, seq: NormalizingSequence, x):
    """Expected exceedance count n * tail(scale*x + center) at a float or array x.

    Equals 1 exactly at x = 0 by construction of the center, and converges
    to exp(-x) as n grows for tails in the Gumbel domain.
    """
    return seq.n * model.tail(seq.scale * x + seq.center)


def max_cdf(model: TailModel, seq: NormalizingSequence, x):
    """P{normalized max of n i.i.d. draws <= x} = F^n(scale*x + center)."""
    return max_cdf_of_tail(seq.n, model.tail(seq.scale * x + seq.center))


def max_cdf_of_tail(n: int, t):
    """F^n from the tail t = 1 - F (a float or a 1-d array), evaluated as
    exp(n*log1p(-t)) so huge n loses nothing."""
    return _where(t >= 1.0, t, lambda t: 0.0, lambda t: _each(math.exp, n * _each(math.log1p, -t)))


def standard_gaussian_sampler(gen: np.random.Generator, size: int) -> np.ndarray:
    """Sampler adapter for standard Gaussian draws."""
    return gen.standard_normal(size)


def sample_normalized_max(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    seq: NormalizingSequence,
    replicas: int,
    rng,
) -> EmpiricalSample:
    """Monte Carlo normalized block maxima: each replica draws seq.n i.i.d.
    values and records (max - center)/scale.

    Replica i draws from substream i of the given stream, so results are
    reproducible and independent of any parallel split.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if isinstance(rng, np.random.Generator):
        raise TypeError("replica sampling needs an RngStream (or seed), not a Generator")
    stream = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    out = np.empty(replicas, dtype=float)
    for i in range(replicas):
        draws = sampler(stream.substream(i), seq.n)
        out[i] = (float(np.max(draws)) - seq.center) / seq.scale
    return EmpiricalSample.from_values(out)
