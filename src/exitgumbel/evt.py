"""Extreme-value side: normalizing sequences for Gaussian maxima, the
tail-count criterion curves, and Monte Carlo block maxima, each block's max
drawn as a bitwise tournament over its lanes, replicas in batches, and all
of them inverted by one Newton solve on the log tail."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import TailModel, _each, _where
from .errors import NoBracket
from .stats import EmpiricalSample, RngStream, as_stream

__all__ = [
    "NormalizingSequence",
    "solve_normalizers",
    "gnedenko_lhs",
    "max_cdf",
    "max_cdf_of_tail",
    "sample_normalized_max",
]

_BRACKET_HIGH = 50.0
_LOW_BITS = np.array([2**64 - 1] + [2**j - 1 for j in range(1, 64)], np.uint64)  # the used bits of a last word
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
    """Solve model.log_tail(x) = target <= 0 for each element of `target` on
    a bracket [lo, hi] with log_tail(lo) >= target >= log_tail(hi).

    Newton on the log tail with its exact slope -exp(log_pdf - log_tail).
    With L = -target it starts from the Gaussian asymptotic root
    sqrt(2L - log(4 pi L)) where L > 2, else from sqrt(2L), where a
    log-concave tail already lies below exp(-L). An element takes one last
    step from the first iterate with |log_tail(x) - target| <= 1e-13, which
    lands within rounding of the root, or stops where a step no longer
    moves it. The last step stands only if it lowers that residual: near
    the root the residual is a multiple of the log tail's ulp, and a step
    taken from a residual of one such ulp may land no closer. A step that
    leaves the bracket, or meets a zero density, takes the bracket's
    midpoint instead, or stays put within tolerance.
    Each element runs the scalar arithmetic (`math` calls per element).
    """
    lo = np.full(target.shape, lo)
    hi = np.full(target.shape, hi)
    L = -target
    start = _where(L > 2.0, L, lambda L: 2.0 * L - _each(math.log, 4.0 * math.pi * L), lambda L: 2.0 * L)
    b = np.clip(np.sqrt(start), lo, hi)
    live = np.arange(b.size)  # the elements still moving
    before, residual = b.copy(), np.full(b.shape, np.inf)  # each element's last iterate and its residual
    for _ in range(40):
        x = b[live]
        log_tail = model.log_tail(x)
        f = log_tail - target[live]
        before[live], residual[live] = x, f
        lo[live] = l = np.where(f >= 0.0, np.maximum(lo[live], x), lo[live])
        hi[live] = h = np.where(f >= 0.0, hi[live], np.minimum(hi[live], x))
        density = _each(math.exp, model.log_pdf(x) - log_tail)  # pdf/tail, minus the slope
        candidate = x + np.divide(f, density, out=np.full_like(f, np.nan), where=density > 0.0)
        moving = np.abs(f) > _LOG_TAIL_TOL
        fallback = np.where(moving, 0.5 * (l + h), x)  # an element within tolerance stays put
        b[live] = np.where((l <= candidate) & (candidate <= h), candidate, fallback)
        live = live[moving & (b[live] != x)]
        if live.size == 0:
            break
    return np.where(np.abs(model.log_tail(b) - target) < np.abs(residual), b, before)


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
    Random Variate Generation, 1986). Replica i keeps u = 1 - M*2^-53, with
    M the max of seq.n uniform 53-bit lanes (numpy's `Generator.random()`
    grid); one array solve inverts the tail for all.

    M is revealed from its top bit down, a bitwise tournament: k, the lanes
    tied with M's prefix, starts at n; each level draws one fresh bit per
    tied lane, and if any is 1, M's next bit is 1 and the lanes holding a 1
    stay tied, else M's next bit is 0 and k stays. Once one lane is left,
    its remaining bits are the top bits of one fresh word. A tied lane's
    next bit is a fair coin whatever came before, so u in (0, 1] has
    exactly the law of 1 - max of n `random()` draws, not their values, for
    about 2n random bits a block. Replicas run level by level in batches of
    B = max(1, min(256, 2^22 // n)); batch floor(i / B) draws from its own
    substream and always runs whole, so replica i depends only on
    (seed, stream, n, i).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    u = _uniform_minima(as_stream(rng), seq.n, replicas)
    maxima = _solve_log_tail(model, np.log(u), -_BRACKET_HIGH, _BRACKET_HIGH)
    return EmpiricalSample.from_values((maxima - seq.center) / seq.scale)


def _uniform_minima(stream: RngStream, n: int, replicas: int) -> np.ndarray:
    """u of replicas 0..replicas-1, drawn as `sample_normalized_max` says."""
    size = max(1, min(256, 2**22 // n))  # B: a level draws <= ~2^16 words a batch
    batches = [_tournament(stream.substream(b).bit_generator, n, size) for b in range(-(-replicas // size))]
    return np.concatenate(batches)[:replicas]


def _tournament(bits: np.random.BitGenerator, n: int, size: int) -> np.ndarray:
    """u of one batch of `size` replicas: each level draws the tie bits of
    every replica still tied, 64 to a word, in replica order, and then each
    replica draws one word for its lone lane's remaining bits."""
    top = np.zeros(size, np.uint64)  # the max's revealed bits, in place
    depth = np.zeros(size, np.uint64)  # how many bits are revealed
    live = np.arange(size if n > 1 else 0)  # the replicas still tied
    k = np.full(live.size, n)  # lanes tied with each live replica's prefix
    for level in range(53):
        if live.size == 0:
            break
        words = (k + 63) >> 6
        ends = np.cumsum(words)
        raw = bits.random_raw(int(ends[-1]))
        raw[ends - 1] &= _LOW_BITS[k & 63]
        ones = np.add.reduceat(np.bitwise_count(raw, out=raw), ends - words)  # in place: no second n/64 words
        hit = ones > 0
        top[live[hit]] |= np.uint64(1 << (52 - level))
        k[hit] = ones[hit]
        depth[live] = level + 1
        live, k = live[k > 1], k[k > 1]
    top |= bits.random_raw(size) >> (depth + np.uint64(11))  # numpy shifts 64 bits to 0
    return (np.uint64(2**53) - top) * 2.0**-53
