"""Extreme-value side: normalizing sequences for Gaussian maxima, the
tail-count criterion curves, and Monte Carlo block maxima, drawn on one
thread from the top 16 bits of each uniform and the lanes tied at the top."""
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


def sample_normalized_max(model: TailModel, seq: NormalizingSequence, replicas: int, rng) -> EmpiricalSample:
    """Monte Carlo normalized block maxima: each replica is the max of seq.n
    i.i.d. draws of `model`, recorded as (max - center)/scale.

    A draw is tail^-1(U) for a uniform U, and tail^-1 is decreasing, so the
    max of n draws is tail^-1 of the min of n uniforms (Devroye, Non-Uniform
    Random Variate Generation, 1986). Replica i keeps u = 1 - max of seq.n
    uniforms from substream i; one array solve inverts the tail for all.
    A uniform is (T*2^37 + L)*2^-53, numpy's 53-bit grid, with T (16 bits)
    and L (37 bits) uniform and independent; the max is decided by T, and
    only the L of lanes tied at a = max T matter. So a replica draws all n
    Ts, four 16-bit lanes to a Philox word (read little-endian on any host),
    then one fresh word per tied lane (usually one) whose top 37 bits give
    L. Those L are independent of the Ts, so u in (0, 1] has exactly the law
    of 1 - max of n `Generator.random()` draws, not their values, for a
    quarter of the Philox work; below n ~ 1e3 its extra numpy calls cost up
    to ~5 us more per replica.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if isinstance(rng, np.random.Generator):
        raise TypeError("replica sampling needs an RngStream (or seed), not a Generator")
    stream = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    u = _uniform_minima(stream, seq.n, replicas)
    maxima = _solve_log_tail(model, np.log(u), -_BRACKET_HIGH, _BRACKET_HIGH)
    return EmpiricalSample.from_values((maxima - seq.center) / seq.scale)


def _uniform_minima(stream: RngStream, n: int, replicas: int) -> np.ndarray:
    """u of replicas 0..replicas-1, drawn as `sample_normalized_max` says."""
    gen = np.random.Generator(np.random.Philox(key=0))  # seated at each replica
    words = -(-n // 4)
    u = np.empty(replicas)
    for i in range(replicas):
        bits = stream.seat(gen, i).bit_generator
        top = bits.random_raw(words).astype("<u8", copy=False).view("<u2")[:n]
        a = int(top.max())
        low = int(bits.random_raw(np.count_nonzero(top == a)).max()) >> 27
        u[i] = (2**53 - ((a << 37) | low)) * 2.0**-53
    return u
