"""Small-noise exit-time simulation for the linear-drift diffusion.

The model is dX = beta*X dt + epsilon dW on the interval (-1, 1) around
the unstable equilibrium at 0, started at x0 = -epsilon*a, run to the first
boundary exit. Exits through the right end oppose the drift and become
exponentially rare as epsilon shrinks; this module provides

* the exact-transition integrator (exit at grid times),
* rejection sampling of right-conditioned exits, simulated coarsely and
  refined by Brownian bridges only where a boundary may be crossed,
  reproducible for any worker count,
* the pathwise exit-time construction driven by a realization of the
  exponentially discounted noise integral, and
* the limit law of the normalized exit time, `residual.log_residual_cdf`
  through one map (beta, a) -> (r, c), and a truncated-Gaussian sampler.

All simulations run in units of the noise amplitude (Y = X/epsilon),
which makes the path for epsilon' = c*epsilon exactly c times the path
for epsilon under shared noise.
"""
from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .distributions import gaussian_tail, gaussian_tail_model
from .errors import BudgetExceeded, GuardExceeded
from .residual import log_residual_cdf
from .stats import as_generator, as_stream

__all__ = [
    "ExitProblem",
    "ExitRecord",
    "NoiseRealization",
    "ConditionedSample",
    "simulate_exit_exact",
    "simulate_path",
    "sample_conditioned_exits",
    "sample_noise",
    "duhamel_exit_time",
    "limit_normalized_time",
    "truncated_gaussian",
    "limit_law_sample",
    "limit_law_cdf",
    "right_exit_probability",
    "monitored_right_exit_probability",
]

# Horizon rule for noise realizations: run until exp(-beta*T) <= this, at
# which point the remaining variance of the discounted integral is
# negligible and the terminal value stands in for the infinite-horizon one.
_NOISE_DECAY_TARGET = 1e-9

# Largest integration step an ExitProblem accepts, and largest beta*step.
MAX_STEP = 1e-2
_MAX_BETA_STEP = 354.0  # e^(2*beta*step) in _exact_coefficients overflows past ~354.9
# Most fine steps a guard horizon may span for conditioned sampling: the
# kernel's fine-step boundary tables take 16 bytes a step, ~270 MB at this
# cap (A1 needs 44,608 steps). A multiple of _COARSE, so a guard within it
# stays within it once `guard_steps` rounds it up to whole intervals.
_MAX_GUARD_STEPS = 2**24

_BGK_RHO = 0.5825971579390107  # -zeta(1/2)/sqrt(2 pi), the discrete-monitoring boundary shift

_FOLLOWUP_CHUNK = 2048
_MAX_CHUNK = 65536
# Conditioned sampling runs its attempts in whole lockstep batches of
# _BATCH_ATTEMPTS, one substream each, up to _MAX_ATTEMPTS attempts rounded
# up to a whole batch, in-process or, once its projected
# in-process time left reaches _POOL_BREAK_EVEN_S seconds (about what
# starting and feeding a process pool costs), in a pool; results never
# depend on which. Noise is simulated at knots every _COARSE fine steps,
# _ROUND knots per attempt per round (_batch_right_exits).
_BATCH_ATTEMPTS = 1024
_MAX_ATTEMPTS = 10**9
_POOL_BREAK_EVEN_S = 0.2
_COARSE = 64
_ROUND = 16
# Bound on the chance that an attempt stopped early would still have
# exited right, and the Gaussian quantile with 2*tail(z) <= that bound
# (see _rejection_depth).
_REJECTION_DELTA = 1e-15
_REJECTION_Z = 8.026858882534542
# Bound on the chance that the path crosses a boundary inside a knot
# interval that is not filled in at fine resolution.
_BRIDGE_DELTA = 1e-15


@dataclass(frozen=True)
class ExitProblem:
    """One conditioned-exit experiment on the domain (-1, 1), under the
    linear drift b(x) = beta*x with slope beta > 0 (units 1/time).

    Start point is -epsilon*a, strictly inside (-1, 0). The guard
    horizon, derived and not set, caps simulated time; exits happen almost
    surely well before it.
    """

    beta: float
    epsilon: float
    a: float
    step: float = 1e-3

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive, got {self.a}")
        if not (0.0 < self.step <= MAX_STEP):
            raise ValueError(f"step must be in (0, {MAX_STEP:g}], got {self.step}")
        if not self.beta * self.step <= _MAX_BETA_STEP:
            raise ValueError(f"beta*step must be at most {_MAX_BETA_STEP:g}, got {self.beta * self.step:g}")
        if not (-1.0 < -self.epsilon * self.a < 0.0):
            raise ValueError(
                f"start -epsilon*a = {-self.epsilon * self.a} must lie strictly "
                "inside (-1, 0)"
            )

    @property
    def centering_time(self) -> float:
        """(1/beta) * ln(1/epsilon), the deterministic part of the exit time."""
        return math.log(1.0 / self.epsilon) / self.beta

    @property
    def bound(self) -> float:
        """1/epsilon, the domain's half-width in Y = X/epsilon units."""
        return 1.0 / self.epsilon

    @property
    def guard_horizon(self) -> float:
        """The cap on simulated time, centering + 40/beta."""
        return self.centering_time + 40.0 / self.beta

    @property
    def guard_steps(self) -> int:
        """The guard horizon in fine steps, rounded up to whole knot intervals."""
        return _COARSE * math.ceil(self.guard_horizon / (_COARSE * self.step))


@dataclass(frozen=True)
class ExitRecord:
    """Outcome of one simulated exit."""

    tau: float
    side: str
    normalized_time: float
    steps_taken: int

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class NoiseRealization:
    """Discretized exponentially discounted noise integral on [0, T].

    `values[k]` approximates the integral of exp(-beta*s) dW over [0, k*step];
    the grid is long enough that the terminal value is an adequate proxy
    for the infinite-horizon limit (exp(-beta*T) <= 1e-9).
    """

    beta: float
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2 or values[0] != 0.0:
            raise ValueError("values must be a 1-d array of at least 2 points, starting at 0")
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.beta * (self.step * (values.size - 1)) < math.log(1.0 / _NOISE_DECAY_TARGET):
            raise ValueError(
                f"horizon too short: need exp(-beta*T) <= {_NOISE_DECAY_TARGET}"
            )
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.values.size, dtype=float)

    @property
    def limit_value(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class ConditionedSample:
    """Right exits kept by rejection, as an (n, 2) int64 array of (attempt
    index, fine steps) rows in attempt order, and the number of processes
    that ran the attempts (1 when no pool started), which `==` ignores."""

    problem: ExitProblem
    records: np.ndarray
    attempts: int
    workers_used: int = 1

    def __eq__(self, other):
        if not isinstance(other, ConditionedSample):
            return NotImplemented
        same = (self.problem, self.attempts) == (other.problem, other.attempts)
        return same and np.array_equal(self.records, other.records)

    @property
    def acceptance_rate(self) -> float:
        return len(self.records) / self.attempts

    def columns(self):
        """Attempt indices and steps (int64), tau = steps*h and the
        normalized time tau - centering (float64): `_record`'s values."""
        attempt, steps = self.records.T
        tau = steps * self.problem.step
        return attempt, steps, tau, tau - self.problem.centering_time


@lru_cache(maxsize=64)
def _power_arrays(growth: float, size: int):
    """g^(k+1) and g^-(j+1) for one chunk; cached read-only."""
    lg = math.log(growth)
    exponents = np.arange(1, size + 1, dtype=float) * lg
    pos = np.exp(exponents)
    neg = np.exp(-exponents)
    pos.setflags(write=False)
    neg.setflags(write=False)
    return pos, neg


def _chunk_schedule(problem: ExitProblem, growth: float):
    """Chunk sizes (first, rest): the first reaches the typical exit depth in
    one pass; none exceeds 30/ln(g) steps, which keeps g^k within e^30,
    clipped to [16, _MAX_CHUNK]."""
    max_chunk = max(16, min(_MAX_CHUNK, int(30.0 / math.log(growth))))
    target_time = max(problem.step, problem.centering_time + 2.0 / problem.beta)
    first = min(max_chunk, int(target_time / problem.step) + 16)
    return first, min(_FOLLOWUP_CHUNK, max_chunk)


def _exact_coefficients(problem: ExitProblem):
    beta, h = problem.beta, problem.step
    growth = math.exp(beta * h)
    noise_scale = math.sqrt(math.expm1(2.0 * beta * h) / (2.0 * beta))
    return growth, noise_scale


def _exact_chunks(problem: ExitProblem, gen: np.random.Generator, total: int):
    """Y_1..Y_total of the exact-step recursion Y <- g*Y + s*xi from
    Y_0 = -a, in Y = X/epsilon units, in the chunks of `_chunk_schedule`
    (the last one shorter). Each chunk is evaluated in closed form on
    xi = gen.standard_normal(size), Y_k = g^k * (Y_0 + s * sum_j g^-j xi_j),
    identical to stepping in exact arithmetic.
    """
    growth, noise_scale = _exact_coefficients(problem)
    size, rest = _chunk_schedule(problem, growth)
    y = -problem.a
    while total > 0:
        xi = gen.standard_normal(min(size, total))
        pos, neg = _power_arrays(growth, xi.size)
        ys = pos * (y + noise_scale * np.cumsum(neg * xi))
        yield ys
        y = float(ys[-1])
        total -= xi.size
        size = rest


def _record(problem: ExitProblem, steps: int, side: str) -> ExitRecord:
    """The exit after `steps` fine steps: tau = steps*h, less the centering."""
    tau = steps * problem.step
    return ExitRecord(tau=tau, side=side, normalized_time=tau - problem.centering_time, steps_taken=steps)


def simulate_exit_exact(problem: ExitProblem, rng) -> ExitRecord:
    """Simulate one exit with the exact Gaussian transition of the linear SDE.

    Steps X(t+h) = e^(beta h) X(t) + epsilon*sqrt((e^(2 beta h)-1)/(2 beta))*xi
    and stops at the first grid time with X outside (-1, 1). Raises
    GuardExceeded if no exit occurs before the guard horizon.
    """
    bound = problem.bound
    steps_done = 0
    for ys in _exact_chunks(problem, as_generator(rng), problem.guard_steps):
        hit = np.abs(ys) >= bound
        if hit.any():
            k = int(np.argmax(hit))
            return _record(problem, steps_done + k + 1, "right" if ys[k] >= bound else "left")
        steps_done += ys.size
    raise GuardExceeded(
        f"no exit within guard horizon {problem.guard_horizon} "
        f"({problem.guard_steps} steps)"
    )


def simulate_path(problem: ExitProblem, rng, n_steps: int) -> np.ndarray:
    """Exact-transition path of X at grid times 0..n_steps*h, not stopped
    at the boundary, on the normals and chunks `simulate_exit_exact` uses.
    Diagnostic surface for law and coupling checks."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    chunks = _exact_chunks(problem, as_generator(rng), n_steps)
    return problem.epsilon * np.concatenate([[-problem.a], *chunks])


def sample_noise(beta: float, step: float, rng) -> NoiseRealization:
    """Draw one realization of the discounted noise integral.

    Increments over [t, t+h] are centered Gaussians with the exact
    variance (e^(-2 beta t) - e^(-2 beta (t+h)))/(2 beta), so the values
    have the exact joint law at the grid times. The horizon T satisfies
    exp(-beta*T) <= 1e-9.
    """
    if beta <= 0.0 or step <= 0.0:
        raise ValueError("beta and step must be positive")
    n = int(math.ceil(math.log(1.0 / _NOISE_DECAY_TARGET) / (beta * step))) + 1
    base = math.sqrt(-math.expm1(-2.0 * beta * step) / (2.0 * beta))
    increments = base * np.exp(-beta * (step * np.arange(n, dtype=float))) * as_generator(rng).standard_normal(n)
    return NoiseRealization(beta=beta, step=step, values=np.concatenate([[0.0], np.cumsum(increments)]))


def duhamel_exit_time(noise: NoiseRealization, problem: ExitProblem) -> ExitRecord:
    """Exit time read off the pathwise representation of the solution.

    The solution factorizes as X(t) = epsilon*e^(beta t)*(-a + I_t) with
    I the discounted noise integral, so the exit is the first grid time
    where epsilon*e^(beta t)*|-a + I_t| reaches 1 and the side is the sign
    of -a + I_t there. Tests compare it with `simulate_exit_exact` run on
    the substream that drew the noise: same normals, same order.
    """
    if noise.beta != problem.beta:
        raise ValueError("noise and problem disagree on beta")
    if abs(noise.step - problem.step) > 1e-12 * problem.step:
        raise ValueError("noise grid step must match the problem step")
    shifted = -problem.a + noise.values
    path = problem.epsilon * np.exp(noise.beta * noise.times) * shifted
    hit = np.abs(path) >= 1.0
    hit[0] = False
    if not hit.any():
        raise GuardExceeded("no boundary crossing on the noise grid")
    k = int(np.argmax(hit))
    return _record(problem, k, "right" if shifted[k] >= 0.0 else "left")


def limit_normalized_time(noise: NoiseRealization, a: float) -> float:
    """Almost-sure limit of the normalized exit time for this noise:
    -(1/beta)*ln|-a + I_infinity|."""
    gap = abs(-a + noise.limit_value)
    if gap == 0.0:
        raise ValueError("noise limit coincides with a; limit undefined")
    return -math.log(gap) / noise.beta


def _truncated_gaussian_batch(r: float, rng, size: Optional[int], origin: float = 0.0) -> np.ndarray:
    """N - origin for `size` (1 when None) Gaussians N given N > r; origin = r
    draws the increment itself, positive however large r is."""
    if not r < math.inf:
        raise ValueError(f"threshold must be a number below +inf, got {r}")
    size = 1 if size is None else size
    if size < 0:
        raise ValueError("size must be >= 0")
    gen = as_generator(rng)
    if r < 1.0:
        # Plain rejection from the untruncated Gaussian; acceptance is
        # tail(r) >= tail(1) ~ 0.159 on this branch.
        accept_rate = max(gaussian_tail(r), 1e-3)

        def propose(need: int) -> np.ndarray:
            draws = gen.standard_normal(min(1_000_000, int(need / accept_rate * 1.25) + 16))
            return draws[draws > r] - origin

    else:
        # Shifted-exponential proposal (acceptance stays bounded away from 0
        # as r grows, where plain rejection collapses like tail(r)).
        # Any alpha > 0 keeps the sampler exact. r*r overflows above ~1.34e154,
        # so past 1e150 take alpha = r: there E/alpha is below ulp(r) anyway.
        alpha = r if r > 1e150 else 0.5 * (r + math.sqrt(r * r + 4.0))

        def propose(need: int) -> np.ndarray:
            m = min(1_000_000, int(need * 1.8) + 16)
            z = (r - origin) + gen.standard_exponential(m) / alpha
            return z[np.log(gen.random(m)) <= -0.5 * (z + origin - alpha) ** 2]

    out = np.empty(size, dtype=float)
    filled = 0
    while filled < size:
        kept = propose(size - filled)
        take = min(kept.size, size - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out


def truncated_gaussian(r: float, rng, size: Optional[int] = None):
    """Draw from the standard Gaussian conditioned on exceeding r: a float when
    size is None, else an ndarray of that length."""
    z = _truncated_gaussian_batch(r, rng, size)
    return float(z[0]) if size is None else z


def _limit_law_parameters(beta: float, a: float):
    """(beta, a) -> (r, c) = (a*sqrt(2 beta), ln(2 beta)/2): the normalized exit
    time is (Y + c)/beta with Y = -ln(N - r) the Gaussian log residual at r."""
    if not (0.0 < beta < math.inf and 0.0 < a < math.inf):
        raise ValueError(f"beta and a must be positive and finite, got beta={beta}, a={a}")
    return a * math.sqrt(2.0 * beta), 0.5 * math.log(2.0 * beta)


def limit_law_sample(beta: float, a: float, rng, size: Optional[int] = None):
    """Sample the limit law of the right-conditioned normalized exit time,
    (Y + c)/beta with Y = -ln(N - r) and (r, c) from `_limit_law_parameters`."""
    r, c = _limit_law_parameters(beta, a)
    x = (c - np.log(_truncated_gaussian_batch(r, rng, size, origin=r))) / beta
    return float(x[0]) if size is None else x


def limit_law_cdf(beta: float, a: float, x):
    """Distribution function of the limit law at x, a float or an array."""
    r, c = _limit_law_parameters(beta, a)
    return log_residual_cdf(gaussian_tail_model(), r, beta * x - c)


def right_exit_probability(beta: float, a: float) -> float:
    """Small-noise limit of the right-exit probability: tail(a*sqrt(2 beta))."""
    r, _ = _limit_law_parameters(beta, a)
    return gaussian_tail(r)


def monitored_right_exit_probability(problem: ExitProblem) -> float:
    """Right-exit probability at finite epsilon, exits watched on the step grid.

    Y = X/epsilon solves dY = beta*Y dt + dW on (-B, B), B = 1/epsilon,
    from -a; its scale function gives [tail(r) - tail(R)]/(1 - 2 tail(R))
    with r = a*sqrt(2 beta) and R = B'*sqrt(2 beta). Grid monitoring acts
    as continuous monitoring with each end moved out to B' = B + rho*sqrt(h),
    rho = -zeta(1/2)/sqrt(2 pi) (Broadie, Glasserman and Kou, Math. Finance
    1997). Equals `right_exit_probability` once tail(R) underflows.
    """
    r, _ = _limit_law_parameters(problem.beta, problem.a)
    far = gaussian_tail((problem.bound + _BGK_RHO * math.sqrt(problem.step)) * math.sqrt(2.0 * problem.beta))
    return (gaussian_tail(r) - far) / (1.0 - 2.0 * far)


def _rejection_depth(problem: ExitProblem) -> float:
    """Depth c (in Y units) at which an attempt is settled as not exiting right.

    After a step with Y <= -c, a right exit needs the discounted sum of the
    future noise, s * sum_j g^-j xi_j, to exceed c. That sum is symmetric
    with variance below s^2/(g^2 - 1) = 1/(2 beta) for the exact
    coefficients, so by Levy's maximal inequality its running maximum
    exceeds c with probability at most 2*tail(c*sqrt(2 beta)) <=
    _REJECTION_DELTA. c is clipped to the left boundary, where the path
    exits anyway.
    """
    c = _REJECTION_Z / math.sqrt(2.0 * problem.beta)
    return min(c, problem.bound)


@lru_cache(maxsize=8)
def _coarse_tables(problem: ExitProblem):
    """Per-problem tables of the coarse-to-fine kernel, cached read-only.

    The path is Y_k = g^k * (-a + I_k) with I_k = s * sum_j g^-j xi_j, which
    is W(V_k) for a Brownian motion W on the clock V_k = (1 - g^-2k)/(2 beta).
    Knots sit every _COARSE fine steps, and the guard is a whole number of
    intervals. In I-space the right boundary a + (1/eps)*g^-k decreases and
    the left one a - (1/eps)*g^-k increases, so over an interval both are
    tightest at its right knot. Per interval m: first fine step `start`,
    noise scale g^-start, knot increment sd sqrt(dV), refine threshold
    dV*ln(2/delta)/2, and the boundaries and rejection floor a - c*g^-k at
    its right knot; per fine offset i = 1.._COARSE: s*g^-i and the bridge
    weight (1 - g^-2i)/(1 - g^-2*_COARSE); per interval and offset: the
    fine-step boundaries a +- (1/eps)*(g^-start * g^-i), the same
    expressions as at the knots.
    """
    beta, h = problem.beta, problem.step
    _, s = _exact_coefficients(problem)
    start = np.arange(0, problem.guard_steps, _COARSE)
    offsets = np.arange(1, _COARSE + 1)
    decay = np.exp(-beta * h * offsets)
    scale = np.exp(-beta * h * start)
    knot_decay = scale * decay[-1]
    bound = problem.bound
    bridge_var = -np.expm1(-2.0 * beta * h * offsets)
    dv = scale * scale * bridge_var[-1] / (2.0 * beta)
    fine_reach = scale[:, None] * decay
    fine_reach *= bound
    tables = dict(
        start=start,
        scale=scale,
        knot_sd=np.sqrt(dv),
        near=dv * (0.5 * math.log(2.0 / _BRIDGE_DELTA)),
        upper=problem.a + bound * knot_decay,
        lower=problem.a - bound * knot_decay,
        floor=problem.a - _rejection_depth(problem) * knot_decay,
        fine_upper=problem.a + fine_reach,
        fine_lower=problem.a - fine_reach,
        step_noise=s * decay,
        bridge_weight=bridge_var / bridge_var[-1],
    )
    for array in tables.values():
        array.setflags(write=False)
    return tables


def _needs_refining(t, lo, hi, prev, knots):
    """Which intervals lo..hi-1 (columns), run from I = prev to I = knots, a
    boundary may cross: an endpoint lies outside the band at the right knot,
    or the Brownian bridge between the endpoints reaches either boundary
    with probability above _BRIDGE_DELTA / 2. That probability is
    exp(-2(u-x)(u-y)/dV) toward the right boundary u (and likewise toward
    the left one), compared in log form as (u-x)(u-y) < dV*ln(2/delta)/2."""
    upper, lower, near = t["upper"][lo:hi], t["lower"][lo:hi], t["near"][lo:hi]
    rx, ry = upper - prev, upper - knots
    lx, ly = prev - lower, knots - lower
    outside = (rx <= 0.0) | (ry <= 0.0) | (lx <= 0.0) | (ly <= 0.0)
    with np.errstate(over="ignore"):  # inf past epsilon ~2e-155: no bridge reaches that far
        return outside | (rx * ry < near) | (lx * ly < near)


def _bridge_fill(t, m, x, y, normals):
    """I at the fine steps of intervals m, given I = x at their left knots and
    y at their right knots: the exact Gaussian bridge on the V clock,
    I = x + W - (dV_i/dV)*(W_end - (y - x)) with W the interval's own walk,
    built in place from `normals` (len(m) rows of _COARSE standard normals).
    The end point is set to y."""
    normals *= t["step_noise"]
    np.cumsum(normals, axis=1, out=normals)
    normals *= t["scale"][m][:, None]
    normals -= t["bridge_weight"] * (normals[:, -1] - (y - x))[:, None]
    normals += x[:, None]
    normals[:, -1] = y
    return normals


def _knot_round(t, lo, hi, x0, gen):
    """One round of knots: I at the right knots of intervals lo..hi-1, one
    row per entry of x0, `knot_sd`-scaled normals summed from x0 (column 0)."""
    path = np.empty((x0.size, hi - lo + 1))
    np.multiply(gen.standard_normal((x0.size, hi - lo)), t["knot_sd"][lo:hi], out=path[:, 1:])
    path[:, 0] = x0
    return np.cumsum(path, axis=1, out=path)


def _batch_right_exits(problem, stream, batch):
    """Right exits of batch `batch`, attempts batch*_BATCH_ATTEMPTS onward,
    as int64 arrays (attempt, steps) in attempt order.

    Row r runs attempt batch*_BATCH_ATTEMPTS + r, in lockstep with the
    others, on `stream.substream(batch)`. Each round
    draws I at the next _ROUND knots of all live rows (`_knot_round`). An
    attempt settles at its first knot at or below the floor a - c*g^-k (see
    `_rejection_depth`) or at or above the right boundary. No other test is
    needed: c <= 1/eps puts the floor at or above the left boundary, and a
    knot at or above the right boundary ends a flagged interval whose last
    fine step is the knot, tested against that boundary bitwise. The
    intervals that `_needs_refining` flags, up to that knot, are filled by
    `_bridge_fill` from one draw for all of them (row-major) and tested at
    every fine step; an attempt ends at its first crossing, and a right one
    writes its fine-step index at its row of `steps` (0: no right exit).
    Which rows receive a round's fresh normals depends only on earlier
    draws, so each attempt keeps the reference law.
    """
    t = _coarse_tables(problem)
    intervals = t["start"].size
    gen = stream.substream(batch)

    steps = np.zeros(_BATCH_ATTEMPTS, dtype=np.int64)
    rows = np.arange(_BATCH_ATTEMPTS)
    x0 = np.zeros(_BATCH_ATTEMPTS)
    for lo in range(0, intervals, _ROUND):
        hi = min(lo + _ROUND, intervals)
        path = _knot_round(t, lo, hi, x0, gen)
        prev, knots = path[:, :-1], path[:, 1:]

        flagged = _needs_refining(t, lo, hi, prev, knots)
        settle = (knots <= t["floor"][lo:hi]) | (knots >= t["upper"][lo:hi])
        done = settle.any(axis=1)
        flagged &= np.arange(hi - lo) <= np.where(done, settle.argmax(axis=1), hi - lo)[:, None]

        pr, pc = np.nonzero(flagged)
        if pr.size:
            m = lo + pc
            fine = _bridge_fill(t, m, path[pr, pc], path[pr, pc + 1], gen.standard_normal((pr.size, _COARSE)))
            right = fine >= t["fine_upper"][m]
            crossed = right | (fine <= t["fine_lower"][m])
            crossing = np.flatnonzero(crossed.any(axis=1))
            # row-major: each row's first crossing comes first
            p = crossing[np.diff(pr[crossing], prepend=-1) != 0]
            k = crossed[p].argmax(axis=1)
            exits = right[p, k]
            steps[rows[pr[p[exits]]]] = t["start"][m[p[exits]]] + k[exits] + 1
            done[pr[p]] = True

        if done.all():
            hit = np.flatnonzero(steps)
            return batch * _BATCH_ATTEMPTS + hit, steps[hit]
        rows, x0 = rows[~done], knots[~done, -1]
    raise GuardExceeded(
        f"no exit within guard horizon {problem.guard_horizon} "
        f"({problem.guard_steps} steps)"
    )


def sample_conditioned_exits(problem: ExitProblem, n_accept: int, rng, workers: int = 1) -> ConditionedSample:
    """Rejection-sample right exits until n_accept are kept.

    Attempts run in batches of _BATCH_ATTEMPTS, in-process and
    one at a time until the in-process time left reaches _POOL_BREAK_EVEN_S.
    That time is projected as the seconds per batch so far (0 before the
    first batch) times the batches still needed for n_accept plus 4 standard
    deviations at the grid-monitored acceptance rate. From then on, if workers > 1,
    the batches run in waves on a pool of `workers` processes, the first wave
    covering those batches and each later one half the last, down to
    `workers` batches. The noise for attempt i depends only on (stream,
    i // _BATCH_ATTEMPTS), and accepted exits are returned in attempt
    order, so the result is identical for every worker count and whether a
    pool ran or not; only `workers_used` tells.
    Raises BudgetExceeded when _MAX_ATTEMPTS attempts are (or are projected
    at the limit acceptance rate to be) insufficient, which
    signals that the right exit is too rare for rejection and the limit-law
    sampler should be used.

    Each attempt runs on the pathwise form Y_k = g^k * (-a + I_k), where I,
    the discounted noise, is a Brownian motion W on the variance clock
    V_k = (1 - g^-2k)/(2 beta). I is simulated exactly at knots every 64
    fine steps. An interval between knots is filled in with the exact
    Gaussian bridge on that clock, and tested at every fine step, only when
    an endpoint lies outside the band or the bridge crossing probability
    toward either boundary, exp(-2(u-x)(u-y)/dV), exceeds delta/2 with
    delta = 1e-15; a right exit thus keeps its exact fine-step index and
    tau = steps*h. An attempt is also settled at a knot with Y <= -c,
    c = z/sqrt(2 beta) where 2*tail(z) = delta (c clipped to the left
    boundary); by Levy's maximal inequality it would still exit right with
    probability at most delta. So the output is within total-variation
    distance attempts * delta * (1 + guard_steps/64) of running every
    attempt to its exit with `simulate_exit_exact`, the reference sampler:
    about 9e-8 at beta=1, epsilon=0.01, a=1, h=1e-3 and 1e4 accepted
    (~1.3e5 attempts, 697 intervals). Samples are law-identical to that
    sampler's but not bit-identical, and differ from those of versions that
    stepped every attempt at fine resolution or drew each attempt's noise
    from its own substream.

    The saving needs a band half-width 1/epsilon wide
    against the noise scale 1/sqrt(2 beta), the small-noise regime (100
    against 0.71 at the parameters above). In a narrow band, such as
    epsilon = 0.5 (2 against 0.71), almost every interval is refined and
    sampling is no faster than stepping every attempt.
    """
    if n_accept < 1:
        raise ValueError(f"n_accept must be >= 1, got {n_accept}")
    workers = max(1, workers)
    stream = as_stream(rng)

    p_limit = right_exit_probability(problem.beta, problem.a)
    projected = math.inf if p_limit <= 0.0 else n_accept / p_limit
    if projected > _MAX_ATTEMPTS:
        raise BudgetExceeded(
            f"projected attempts ~{projected:.3g} exceed budget {_MAX_ATTEMPTS} "
            f"(limit acceptance rate {p_limit:.3g}); use limit_law_sample instead"
        )

    max_batches = math.ceil(_MAX_ATTEMPTS / _BATCH_ATTEMPTS)
    estimate = (n_accept + 4.0 * math.sqrt(n_accept) + 16.0) / monitored_right_exit_probability(problem)
    estimate_batches = math.ceil(estimate / _BATCH_ATTEMPTS)
    hits, accepted, next_batch, wave_batches = [], 0, 0, 1
    run, workers_used, started = map, 1, time.perf_counter()
    with contextlib.ExitStack() as stack:  # shuts a pool down on every exit
        while accepted < n_accept:
            if next_batch >= max_batches:
                raise BudgetExceeded(f"budget {_MAX_ATTEMPTS} exhausted with {accepted} acceptances")
            if workers_used < workers:  # no pool yet, and one may start
                left = estimate_batches - next_batch
                per_batch = (time.perf_counter() - started) / next_batch if next_batch else 0.0
                if per_batch * left >= _POOL_BREAK_EVEN_S:
                    from concurrent import futures  # here: an in-process run loads no executor

                    run = stack.enter_context(futures.ProcessPoolExecutor(max_workers=workers)).map
                    workers_used, wave_batches = workers, max(workers, left)
            wave = range(next_batch, min(next_batch + wave_batches, max_batches))
            for attempt, steps in run(_batch_right_exits, [problem] * len(wave), [stream] * len(wave), wave):
                hits.append((attempt, steps))
                accepted += attempt.size
            next_batch = wave.stop
            wave_batches = max(workers_used, wave_batches // 2)

    records = np.concatenate(hits, axis=1).T[:n_accept]
    return ConditionedSample(problem, records, attempts=int(records[-1, 0]) + 1, workers_used=workers_used)
