"""Extreme-value side: normalizing sequences for Gaussian maxima, the
tail-count criterion curves, and Monte Carlo block maxima."""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def solve_normalizers(model: TailModel, n: int) -> NormalizingSequence:
    """Solve tail(center) = 1/n on [0, 50] to ~1e-13 relative in tail space.

    Requires n >= 3 so the Gaussian center is strictly positive and its
    scale 1/center finite. Raises NoBracket when the tail never crosses
    1/n on the search interval.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    target = -math.log(n)
    if model.log_tail(0.0) - target < 0.0:
        raise NoBracket(f"tail(0) is already below 1/{n}")
    if model.log_tail(_BRACKET_HIGH) - target > 0.0:
        raise NoBracket(f"tail({_BRACKET_HIGH}) does not reach 1/{n}")
    b = float(_solve_log_tail(model, np.array([target]), 0.0, _BRACKET_HIGH)[0])
    return NormalizingSequence(n=n, scale=model.scaling_a(b), center=b)


def _solve_log_tail(model: TailModel, target: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Solve model.log_tail(x) = target for each element of `target` on a
    bracket [lo, hi] with log_tail(lo) >= target >= log_tail(hi).

    Bisection down to a 1e-3 bracket, then safeguarded Newton on the
    log-tail with a central-difference slope (nearly linear in x^2 for
    Gaussian-like tails, so Newton is quadratic once bracketed). Each
    element runs the scalar arithmetic on its own bracket and stops moving
    once |log_tail(x) - target| <= 1e-13.
    """
    lo = np.full(target.shape, lo)
    hi = np.full(target.shape, hi)
    while (halving := hi - lo > _BISECT_WIDTH).any():
        mid = 0.5 * (lo + hi)
        up = model.log_tail(mid) - target >= 0.0
        lo = np.where(halving & up, mid, lo)
        hi = np.where(halving & ~up, mid, hi)

    b = 0.5 * (lo + hi)
    live = np.arange(b.size)  # the elements not yet within tolerance
    for _ in range(40):
        f = model.log_tail(b[live]) - target[live]
        moving = np.abs(f) > _LOG_TAIL_TOL
        live, f = live[moving], f[moving]
        if live.size == 0:
            break
        x = b[live]
        lo[live] = l = np.where(f >= 0.0, np.maximum(lo[live], x), lo[live])
        hi[live] = h = np.where(f >= 0.0, hi[live], np.minimum(hi[live], x))
        db = 1e-6 * np.maximum(1.0, np.abs(x))
        slope = (model.log_tail(x + db) - model.log_tail(x - db)) / (2.0 * db)
        candidate = x - np.divide(f, slope, out=np.zeros_like(f), where=slope != 0.0)
        b[live] = np.where((l < candidate) & (candidate < h), candidate, 0.5 * (l + h))
    return b


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


def sample_normalized_max(
    model: TailModel,
    seq: NormalizingSequence,
    replicas: int,
    rng,
    workers: int = 1,
) -> EmpiricalSample:
    """Monte Carlo normalized block maxima: each replica is the max of seq.n
    i.i.d. draws of `model`, recorded as (max - center)/scale.

    A draw is tail^-1(U) for a uniform U, and tail^-1 is decreasing, so the
    max of n draws is tail^-1 of the min of n uniforms (Devroye, Non-Uniform
    Random Variate Generation, 1986). Replica i keeps 1 - max of seq.n
    uniforms on [0, 1) from substream i of the given stream, an exact
    value in (0, 1]; it depends only on that substream, so the result is
    the same for every worker count. Each of `workers` threads fills a
    contiguous range (numpy's draws release the GIL); one array solve then
    inverts the tail for every replica.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if isinstance(rng, np.random.Generator):
        raise TypeError("replica sampling needs an RngStream (or seed), not a Generator")
    stream = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    u = np.full(replicas, np.nan)  # a replica no range fills fails the finiteness check

    def fill(start: int, stop: int) -> None:
        gen = np.random.Generator(np.random.Philox(key=0))  # seated at each replica
        for i in range(start, stop):
            u[i] = 1.0 - np.max(stream.seat(gen, i).random(seq.n))

    if workers <= 1:
        fill(0, replicas)
    else:  # imported here: a serial run loads no executor modules
        from concurrent import futures

        bounds = [replicas * k // workers for k in range(workers + 1)]
        with futures.ThreadPoolExecutor(max_workers=min(workers, replicas)) as pool:
            list(pool.map(fill, bounds[:-1], bounds[1:]))
    maxima = _solve_log_tail(model, np.log(u), -_BRACKET_HIGH, _BRACKET_HIGH)
    return EmpiricalSample.from_values(np.where(np.isnan(u), np.nan, (maxima - seq.center) / seq.scale))
