"""Exit-time simulation: the exact-step integrator, conditioning, pathwise coupling,
and the closed-form limit law."""
import dataclasses
import hashlib
import math
import multiprocessing
import re
import warnings
from concurrent import futures

import mpmath as mp
import numpy as np
import pytest

from exitgumbel import exitsim
from exitgumbel import (
    BudgetExceeded,
    EmpiricalSample,
    ExitProblem,
    GuardExceeded,
    NoiseRealization,
    RngStream,
    duhamel_exit_time,
    gaussian_cdf,
    gaussian_log_tail,
    ks_one_sample,
    ks_two_sample,
    ks_two_sample_critical,
    limit_law_cdf,
    limit_law_sample,
    limit_normalized_time,
    log_residual_density,
    monitored_right_exit_probability,
    right_exit_probability,
    sample_conditioned_exits,
    sample_noise,
    simulate_exit_exact,
    simulate_path,
    truncated_gaussian,
)


def _problem(**kw):
    defaults = dict(beta=1.0, epsilon=0.01, a=1.0, step=1e-3)
    defaults.update(kw)
    return ExitProblem(**defaults)


class TestExitProblem:
    def test_start_inside_domain_required(self):
        with pytest.raises(ValueError):
            _problem(epsilon=0.5, a=2.0)  # start at -1.0, on the boundary
        with pytest.raises(ValueError):
            _problem(epsilon=0.5, a=3.0)  # start outside
        with pytest.raises(ValueError):
            _problem(a=-1.0)

    def test_step_cap(self):
        with pytest.raises(ValueError):
            _problem(step=0.02)
        with pytest.raises(ValueError):
            _problem(step=0.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_beta_positive_and_finite(self, beta):
        # the CLI's parser refuses these first, so only a library call reaches this
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            _problem(beta=beta)

    def test_beta_step_cap(self):
        # e^(2*beta*step) overflows a double past beta*step ~ 354.9
        for beta in (3.6e5, 1e6):
            with pytest.raises(ValueError, match="beta\\*step"):
                _problem(beta=beta, a=1e-3)
        assert _problem(beta=3.5e5, a=1e-3).step == 1e-3

    def test_guard_is_derived(self):
        # centering + 40/beta, rounded up to whole knot intervals; not a field
        p = _problem()
        assert [f.name for f in dataclasses.fields(ExitProblem)] == ["beta", "epsilon", "a", "step"]
        assert p.guard_horizon == pytest.approx(math.log(100.0) + 40.0, rel=1e-12)
        assert p.guard_steps == 697 * exitsim._COARSE == 44_608
        with pytest.raises(TypeError):
            _problem(guard_horizon=math.log(100.0) + 10.0)

    def test_guard_cap_is_whole_intervals(self):
        # so a guard within the CLI's cap of guard_horizon/step stays within it
        # once rounded up to whole knot intervals
        assert exitsim._MAX_GUARD_STEPS % exitsim._COARSE == 0

    def test_centering(self):
        p = _problem(epsilon=0.001)
        assert p.centering_time == pytest.approx(math.log(1000.0), rel=1e-12)


class TestIntegrators:
    def test_exact_deterministic(self):
        p = _problem()
        a = simulate_exit_exact(p, RngStream(99).substream(3))
        b = simulate_exit_exact(p, RngStream(99).substream(3))
        assert a == b

    def test_record_consistency(self):
        p = _problem()
        rec = simulate_exit_exact(p, RngStream(1).substream(0))
        assert rec.side in ("left", "right")
        assert rec.tau == pytest.approx(rec.steps_taken * p.step, rel=1e-12)
        assert rec.normalized_time == pytest.approx(rec.tau - p.centering_time, rel=1e-9)
        assert rec.steps_taken <= p.guard_steps

    def test_start_near_left_boundary_exits_left_fast(self):
        # boundary of validity: -epsilon*a just inside the left endpoint
        p = _problem(epsilon=0.999, a=1.0)
        rec = simulate_exit_exact(p, RngStream(4).substream(0))
        assert rec.side == "left"
        assert rec.tau <= 0.05

    def test_normalized_time_stabilizes_as_epsilon_shrinks(self):
        # same substream -> same driving noise in Y units; only the exit
        # threshold moves, so the normalized time settles pathwise
        times = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            rec = simulate_exit_exact(_problem(epsilon=eps), RngStream(5).substream(2))
            times.append(rec.normalized_time)
        diffs = [abs(a - b) for a, b in zip(times, times[1:])]
        assert diffs[-1] <= 0.02
        assert diffs[-1] <= diffs[0]

    def test_right_exit_fraction_matches_limit(self):
        p = _problem()
        stream = RngStream(2024)
        n = 30_000
        hits = sum(
            simulate_exit_exact(p, stream.substream(i)).side == "right" for i in range(n)
        )
        want = right_exit_probability(1.0, 1.0)
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(hits / n - want) <= 3.0 * se

    def test_scale_coupling_exact_identity(self):
        # identical noise: the path for c*epsilon is c times the path
        p1 = _problem(epsilon=0.002)
        p3 = _problem(epsilon=0.006)
        x1 = simulate_path(p1, RngStream(8).substream(0), 100)
        x3 = simulate_path(p3, RngStream(8).substream(0), 100)
        assert np.max(np.abs(x3 - 3.0 * x1)) <= 1e-12

    @pytest.mark.parametrize(
        "kw", [dict(), dict(beta=20.0, a=0.2)], ids=["a1", "beta20"]
    )
    def test_path_leaves_where_exact_sampler_exits(self, kw):
        # same substream, same normals, same chunk schedule: the path
        # leaves (-1, 1) at the sampler's exit step and side
        p = _problem(**kw)
        stream = RngStream(31)
        sides = set()
        for i in range(40):
            rec = simulate_exit_exact(p, stream.substream(i))
            x = simulate_path(p, stream.substream(i), rec.steps_taken)
            outside = (x[1:] >= 1.0) | (x[1:] <= -1.0)
            assert outside.any()
            assert int(np.argmax(outside)) + 1 == rec.steps_taken
            assert ("right" if x[-1] >= 1.0 else "left") == rec.side
            sides.add(rec.side)
        assert sides == {"left", "right"}

    def test_marginal_law_of_exact_step(self):
        # exact transition: X(t) is Gaussian with known mean/variance for
        # any step size; moment-match at t = 1 over 1e5 replicas
        beta, eps, a = 0.7, 0.02, 1.5
        p = ExitProblem(beta=beta, epsilon=eps, a=a, step=1e-2)
        stream = RngStream(21)
        n = 100_000
        vals = np.fromiter(
            (simulate_path(p, stream.substream(i), 100)[-1] for i in range(n)),
            dtype=float,
            count=n,
        )
        mean_t = -eps * a * math.exp(beta)
        var_t = eps * eps * math.expm1(2.0 * beta) / (2.0 * beta)
        assert abs(vals.mean() - mean_t) <= 4.0 * math.sqrt(var_t / n)
        assert abs(vals.var() - var_t) <= 4.0 * var_t * math.sqrt(2.0 / n)


class TestNoise:
    def test_shape_and_invariants(self):
        noise = sample_noise(1.0, 1e-3, RngStream(7).substream(0))
        assert noise.values[0] == 0.0
        assert noise.limit_value == noise.values[-1]
        assert noise.times.shape == noise.values.shape
        assert math.exp(-noise.beta * noise.times[-1]) <= 1e-9
        assert noise.step == pytest.approx(1e-3, rel=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            NoiseRealization(beta=1.0, step=0.01, values=np.zeros(501))

    def test_limit_value_variance(self):
        # infinite-horizon limit is centered Gaussian with variance 1/(2*beta)
        beta = 1.0
        vals = np.array(
            [
                sample_noise(beta, 1e-3, RngStream(30).substream(i)).limit_value
                for i in range(500)
            ]
        )
        target = 1.0 / (2.0 * beta)
        assert abs(vals.mean()) <= 4.0 * math.sqrt(target / 500)
        assert abs(vals.var() - target) <= 4.0 * target * math.sqrt(2.0 / 500)


def _subcritical_noise(beta=1.0, step=1e-2, a=1.0, epsilon=0.01):
    # synthetic realization whose gap to a shrinks like exp(-beta*t), so
    # epsilon*exp(beta*t)*|-a + I_t| stays below 1 on the whole grid and
    # the crossing never happens
    n = int(math.ceil(math.log(1e9) / (beta * step))) + 2
    times = np.arange(n + 1) * step
    gap = np.minimum(a, (0.5 / epsilon) * np.exp(-beta * times))
    return NoiseRealization(beta=beta, step=step, values=a - gap)


class TestPathwiseCoupling:
    # sample_noise and simulate_exit_exact, each given a generator built from
    # the same key, draw the same normals in the same order: the noise's n at
    # once, the integrator's in chunks. So both read one noise path.

    def test_duhamel_matches_exact_sampler(self):
        # both read the same discrete identity, so exit times coincide to
        # within one step even at knife edges
        p = _problem(step=1e-4)
        mismatches = 0
        for i in range(50):
            noise = sample_noise(1.0, 1e-4, RngStream(70).substream(i))
            d = duhamel_exit_time(noise, p)
            r = simulate_exit_exact(p, RngStream(70).substream(i))
            assert abs(d.tau - r.tau) <= 2.0 * p.step
            mismatches += d.side != r.side
        assert mismatches == 0

    def test_sides_agree_when_gap_is_clear(self):
        p = _problem()
        checked = 0
        i = 0
        while checked < 1000:
            noise = sample_noise(1.0, 1e-3, RngStream(71).substream(i))
            gen = RngStream(71).substream(i)
            i += 1
            if abs(-p.a + noise.limit_value) <= 0.1:
                continue
            d = duhamel_exit_time(noise, p)
            r = simulate_exit_exact(p, gen)
            assert d.side == r.side
            expected = "right" if -p.a + noise.limit_value > 0 else "left"
            assert d.side == expected
            checked += 1

    def test_normalized_time_converges_to_noise_limit(self):
        for i in range(10):
            noise = sample_noise(1.0, 1e-3, RngStream(72).substream(i))
            if abs(-1.0 + noise.limit_value) <= 0.1:
                continue
            target = limit_normalized_time(noise, 1.0)
            errs = [
                abs(duhamel_exit_time(noise, _problem(epsilon=eps)).normalized_time - target)
                for eps in (1e-1, 1e-3)
            ]
            assert errs[1] <= errs[0]
            assert errs[1] <= 0.05

    def test_guard_exceeded_when_gap_vanishes(self):
        noise = _subcritical_noise()
        p = ExitProblem(beta=1.0, epsilon=0.01, a=1.0, step=1e-2)
        with pytest.raises(GuardExceeded):
            duhamel_exit_time(noise, p)

    def test_parameter_mismatch_rejected(self):
        noise = sample_noise(1.0, 1e-3, RngStream(73).substream(0))
        bad_beta = ExitProblem(beta=2.0, epsilon=0.01, a=1.0, step=1e-3)
        with pytest.raises(ValueError):
            duhamel_exit_time(noise, bad_beta)
        bad_step = _problem(step=5e-3)
        with pytest.raises(ValueError):
            duhamel_exit_time(noise, bad_step)


@pytest.fixture
def one_interval_guard(monkeypatch):
    """Every problem's guard horizon becomes 0.05: one 64-step interval at
    h = 1e-3, in which no A1 attempt can settle. The kernel's tables are
    cached per problem, and the guard is not part of the key, so the cache
    is cleared on entry and on exit. The pool case relies on the fork start
    method, the default on Linux through Python 3.13: forked workers
    inherit the patched class."""
    exitsim._coarse_tables.cache_clear()
    monkeypatch.setattr(ExitProblem, "guard_horizon", property(lambda self: 0.05))
    yield
    exitsim._coarse_tables.cache_clear()


class TestConditionedSampling:
    def test_rejects_bad_arguments(self):
        p = _problem()
        with pytest.raises(ValueError):
            sample_conditioned_exits(p, 0, RngStream(1))
        with pytest.raises(TypeError):
            sample_conditioned_exits(p, 1, RngStream(1).substream(0))

    def test_keeps_only_right_exits_in_attempt_order(self):
        p = _problem()
        cs = sample_conditioned_exits(p, 40, RngStream(42))
        assert len(cs.records) == 40
        indices = [i for i, _ in cs.records]
        assert indices == sorted(indices)
        assert cs.attempts == indices[-1] + 1
        assert 0.0 < cs.acceptance_rate < 1.0

    def test_deterministic_rerun(self):
        p = _problem()
        a = sample_conditioned_exits(p, 25, RngStream(11))
        b = sample_conditioned_exits(p, 25, RngStream(11))
        assert a == b

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)  # a pool at any size
        p = _problem()
        serial = sample_conditioned_exits(p, 30, RngStream(17), workers=1)
        for workers in (2, 3):
            pooled = sample_conditioned_exits(p, 30, RngStream(17), workers=workers)
            assert pooled == serial
            assert pooled.workers_used == workers

    @pytest.mark.parametrize("workers", [2, 3])
    def test_later_parallel_waves_match_serial(self, monkeypatch, workers):
        # an overstated acceptance rate sizes the first wave at `workers`
        # blocks, too few for n, so later waves must run
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)
        p, n = _problem(), 600
        serial = sample_conditioned_exits(p, n, RngStream(17), workers=1)
        assert serial.attempts > 3 * exitsim._BATCH_ATTEMPTS
        monkeypatch.setattr(exitsim, "monitored_right_exit_probability", lambda problem: 0.9)
        pooled = sample_conditioned_exits(p, n, RngStream(17), workers=workers)
        assert pooled == serial
        assert pooled.workers_used == workers

    def test_first_pool_wave_covers_the_run(self, monkeypatch):
        # At epsilon 0.9 the rate is 0.0265, a third of the epsilon -> 0
        # limit; a first wave sized from the limit ran [4, 2, 2] batches at
        # seed 1, short of the 8 the run needs.
        waves = []

        class RecordingPool(futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                waves.append(len(iterables[-1]))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)
        cs = sample_conditioned_exits(_problem(epsilon=0.9), 200, RngStream(1), workers=2)
        assert cs.workers_used == 2
        assert len(waves) == 1 and waves[0] * exitsim._BATCH_ATTEMPTS >= cs.attempts

    def test_nonpositive_workers_run_in_process(self):
        p = _problem()
        n = 200  # more right exits than one block of attempts holds
        serial = sample_conditioned_exits(p, n, RngStream(17), workers=1)
        assert serial.attempts > exitsim._BATCH_ATTEMPTS
        for workers in (0, -3):
            assert sample_conditioned_exits(p, n, RngStream(17), workers=workers) == serial

    def test_budget_projection_raises_early(self, monkeypatch):
        # a*sqrt(2*beta) ~ 6: limit acceptance ~1e-9, hopeless for rejection
        p = ExitProblem(beta=1.0, epsilon=1e-4, a=4.25, step=1e-3)
        with pytest.raises(BudgetExceeded):
            sample_conditioned_exits(p, 10, RngStream(1))
        monkeypatch.setattr(exitsim, "_MAX_ATTEMPTS", 500)
        with pytest.raises(BudgetExceeded):
            sample_conditioned_exits(_problem(), 1000, RngStream(1))

    def test_band_too_wide_for_a_bridge_to_reach(self):
        # at epsilon <= 2e-155 the bridge test's products overflow to inf,
        # which is the right answer there, not a warning
        cs = sample_conditioned_exits(ExitProblem(1.0, 1e-160, 1.0), 5, RngStream(1))
        assert len(cs.records) == 5

    def test_acceptance_rate_near_limit(self):
        p = _problem()
        cs = sample_conditioned_exits(p, 400, RngStream(42))
        want = right_exit_probability(1.0, 1.0)
        se = math.sqrt(want * (1.0 - want) / cs.attempts)
        assert abs(cs.acceptance_rate - want) <= 3.0 * se

    @pytest.mark.parametrize("workers", [1, 2])
    def test_guard_exceeded_propagates(self, monkeypatch, one_interval_guard, workers):
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)
        p = _problem()
        assert p.guard_steps == exitsim._COARSE
        with pytest.raises(GuardExceeded):
            simulate_exit_exact(p, RngStream(1).substream(0))
        with pytest.raises(GuardExceeded):
            sample_conditioned_exits(p, 5, RngStream(1), workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_exhaustion(self, monkeypatch, workers):
        # The cap of two whole batches ends exactly at the sampler's own n-th
        # right exit: n is the number of right exits in the first two batches
        # for seed 1. Two is the fewest batches whose count the projection
        # (n + 1)/p does not refuse; re-derive n by that rule when the sample
        # for seed 1 changes.
        p, n = _problem(), 154
        stream = RngStream(1)
        unbounded = sample_conditioned_exits(p, n, stream)
        cap = 2 * exitsim._BATCH_ATTEMPTS
        assert cap - exitsim._BATCH_ATTEMPTS < unbounded.attempts <= cap
        assert (n + 1) / right_exit_probability(1.0, 1.0) <= cap  # not refused by projection
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)
        monkeypatch.setattr(exitsim, "_MAX_ATTEMPTS", cap)
        cs = sample_conditioned_exits(p, n, stream, workers=workers)
        assert cs == unbounded
        assert cs.workers_used == workers
        with pytest.raises(BudgetExceeded, match=f"exhausted with {n} "):
            sample_conditioned_exits(p, n + 1, stream, workers=workers)

    @pytest.mark.parametrize("error", [BudgetExceeded, GuardExceeded])
    def test_failed_pool_run_leaves_no_worker(self, monkeypatch, request, error):
        # The pool is entered lazily; it must still shut down when the run
        # ends in an error, raised between waves or from inside one.
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)
        monkeypatch.setattr(exitsim, "_MAX_ATTEMPTS", 2 * exitsim._BATCH_ATTEMPTS)
        p, n = _problem(), 155  # one more than the first two batches hold (test_budget_exhaustion)
        if error is GuardExceeded:
            request.getfixturevalue("one_interval_guard")
        with pytest.raises(error):
            sample_conditioned_exits(p, n, RngStream(1), workers=2)
        assert multiprocessing.active_children() == []

    def test_short_run_starts_no_pool(self):
        # the first block alone holds the 30 right exits
        assert sample_conditioned_exits(_problem(), 30, RngStream(17), workers=2).workers_used == 1

    def test_serial_stops_within_one_batch_of_last_acceptance(self, monkeypatch):
        simulated = []
        kernel = exitsim._batch_right_exits

        def counting(problem, stream, batch):
            simulated.extend(range(batch * exitsim._BATCH_ATTEMPTS, (batch + 1) * exitsim._BATCH_ATTEMPTS))
            return kernel(problem, stream, batch)

        monkeypatch.setattr(exitsim, "_batch_right_exits", counting)
        cs = sample_conditioned_exits(_problem(), 30, RngStream(17), workers=1)
        assert simulated == list(range(len(simulated)))
        assert cs.attempts <= len(simulated) <= cs.attempts + exitsim._BATCH_ATTEMPTS


class TestBatchedKernel:
    """The coarse-to-fine lockstep kernel behind `sample_conditioned_exits`
    against the reference sampler `simulate_exit_exact`."""

    # A1 physics (wide band); beta=20, where exits come within a few dozen
    # knots; epsilon=0.5, a narrow band where c is clipped to the left
    # boundary and almost every interval is refined.
    PROBLEMS = {
        "a1": dict(),
        "steep": dict(beta=20.0, a=0.2),
        "narrow": dict(epsilon=0.5),
    }

    # slow: beta = 0.25 at the largest step, h = 1e-2; tiny: epsilon = 1e-300,
    # the longest guard (centering ~691) of these.
    MORE_PROBLEMS = {
        **PROBLEMS,
        "slow": dict(beta=0.25, step=1e-2),
        "tiny": dict(epsilon=1e-300),
    }
    # SHA-256 of the (attempt index, steps taken) pairs, as little-endian
    # int64, of 200 right exits from RngStream(2028). A digest may change
    # only with a deliberate change of the kernel's draws, or of numpy's
    # Philox or normal streams, and that change is named in CHANGES.md.
    PINNED = {
        "a1": "4eb41c893232fa3f807dfb15243cab54d4df6b6250b64646474b195b4c087047",
        "steep": "b22ee2a4a486da1800286278e95d9341db9ede035e2cdd076a09354d2604ddc7",
        "narrow": "fcb491d6c50d0c6a9ac0ae3154f2ef8344d5b0c23e936df83fb3aabdb1f61382",
        "slow": "3571237d63b8d8fa1e80c284be9b52574d8a8b96ad18a4416d90f873a4bf5564",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_kernel_output_is_pinned(self, name):
        got = sample_conditioned_exits(_problem(**self.MORE_PROBLEMS[name]), 200, RngStream(2028))
        pairs = np.array(got.records, dtype="<i8")
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_columns_are_the_record_map(self, name):
        # columns() computes in numpy what _record computes per exit
        p = _problem(**self.MORE_PROBLEMS[name])
        got = sample_conditioned_exits(p, 200, RngStream(2028))
        attempt, steps, tau, normalized = got.columns()
        assert (attempt.dtype, steps.dtype, tau.dtype, normalized.dtype) == (np.int64, np.int64, np.float64, np.float64)
        assert np.array_equal(np.stack([attempt, steps], axis=1), got.records)
        for (_, k), t, x in zip(got.records.tolist(), tau.tolist(), normalized.tolist()):
            want = exitsim._record(p, k, "right")
            assert (t.hex(), x.hex()) == (want.tau.hex(), want.normalized_time.hex())

    GUARD_STEPS = {"a1": 44_608, "steep": 2_240, "slow": 17_856, "narrow": 40_704, "tiny": 730_816}

    @pytest.mark.parametrize("name", sorted(GUARD_STEPS))
    def test_guard_is_whole_intervals(self, name):
        # the shortest run of whole knot intervals that reaches centering + 40/beta
        p = _problem(**self.MORE_PROBLEMS[name])
        steps, h = p.guard_steps, p.step
        assert steps == self.GUARD_STEPS[name]
        assert steps % exitsim._COARSE == 0
        assert (steps - exitsim._COARSE) * h < p.centering_time + 40.0 / p.beta <= steps * h

    @pytest.mark.parametrize("name", sorted(GUARD_STEPS))
    def test_tables_are_finite(self, name):
        # every interval is _COARSE steps long, so no table entry is padding
        t = exitsim._coarse_tables(_problem(**self.MORE_PROBLEMS[name]))
        assert t["start"].size * exitsim._COARSE == self.GUARD_STEPS[name]
        for key, array in t.items():
            assert np.isfinite(array).all(), key

    @pytest.mark.parametrize("name", ["a1", "steep", "slow", "narrow"])
    def test_settle_mask_needs_no_other_boundary_test(self, name):
        # The kernel settles an attempt only at a knot <= floor or >= upper.
        # A knot >= upper crosses at its interval's last fine step, whose
        # boundary is upper bitwise; a knot <= lower is <= floor, with
        # equality where c is clipped to the left boundary (narrow) or where
        # both round to a (late knots, whose reach is below half an ulp of a).
        p = _problem(**self.MORE_PROBLEMS[name])
        t = exitsim._coarse_tables(p)
        assert np.array_equal(t["fine_upper"][:, -1], t["upper"])
        assert np.array_equal(t["fine_lower"][:, -1], t["lower"])
        assert np.all(t["floor"] >= t["lower"])
        clipped = exitsim._rejection_depth(p) == p.bound
        assert clipped == (name == "narrow")
        assert np.array_equal(t["floor"] == t["lower"], clipped | (t["lower"] == p.a))

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_law_matches_reference(self, name):
        p, n = _problem(**self.PROBLEMS[name]), 2000
        got = sample_conditioned_exits(p, n, RngStream(42, stream_id=1))
        reference = RngStream(42, stream_id=2)
        want, attempts = [], 0
        while len(want) < n:
            rec = simulate_exit_exact(p, reference.substream(attempts))
            attempts += 1
            if rec.side == "right":
                want.append(rec.normalized_time)
        ks = ks_two_sample(
            EmpiricalSample.from_values(got.columns()[3]),
            EmpiricalSample.from_values(want),
        )
        assert ks <= ks_two_sample_critical(n, n, 1.63)
        pooled = 2 * n / (got.attempts + attempts)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / got.attempts + 1.0 / attempts))
        assert abs(got.acceptance_rate - n / attempts) <= 3.0 * se

    @pytest.mark.parametrize("name", ["a1", "steep", "slow", "narrow"])
    def test_noise_tables_follow_the_variance_clock(self, name):
        # The knot increments' variances must add up to the clock
        # V(k) = (1 - e^(-2 beta h k))/(2 beta) at every knot, and one
        # interval's fine-step noise variances to its bridge clock
        # (1 - g^-2i)/(2 beta); any error in the noise scale breaks both.
        p = _problem(**self.MORE_PROBLEMS[name])
        t = exitsim._coarse_tables(p)
        beta, h = p.beta, p.step
        clock = -np.expm1(-2.0 * beta * h * (t["start"] + exitsim._COARSE)) / (2.0 * beta)
        np.testing.assert_allclose(np.cumsum(t["knot_sd"] ** 2), clock, rtol=1e-13, atol=0.0)
        bridge = -np.expm1(-2.0 * beta * h * np.arange(1, exitsim._COARSE + 1)) / (2.0 * beta)
        np.testing.assert_allclose(t["bridge_weight"] * bridge[-1], bridge, rtol=1e-13, atol=0.0)
        assert t["bridge_weight"][-1] == 1.0
        np.testing.assert_allclose(np.cumsum(t["step_noise"] ** 2), bridge, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", ["a1", "narrow"])
    def test_one_knot_draw_and_at_most_one_fine_draw_per_round(self, monkeypatch, name):
        # Events per round: K, the knot draw, and R, the refine test over the
        # live rows' knots; then F, the fine draw, and B, the bridge fill of
        # the flagged intervals, when any are flagged.
        events = []

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                result = super().standard_normal(size, dtype, out)
                kind = "F" if result.shape[1] == exitsim._COARSE else "K"
                events.append((kind, result.size))
                return result

        substream, refine, fill = RngStream.substream, exitsim._needs_refining, exitsim._bridge_fill

        def counting_substream(stream, i):
            return CountingGenerator(substream(stream, i).bit_generator)

        def counting_refine(t, lo, hi, prev, knots):
            events.append(("R", knots.size))
            return refine(t, lo, hi, prev, knots)

        def counting_fill(t, m, x, y, normals):
            events.append(("B", m.size))
            return fill(t, m, x, y, normals)

        p = _problem(**self.PROBLEMS[name])
        plain = sample_conditioned_exits(p, 20, RngStream(5))
        monkeypatch.setattr(RngStream, "substream", counting_substream)
        monkeypatch.setattr(exitsim, "_needs_refining", counting_refine)
        monkeypatch.setattr(exitsim, "_bridge_fill", counting_fill)
        assert sample_conditioned_exits(p, 20, RngStream(5)) == plain

        assert re.fullmatch("(KR(FB)?)+", "".join(kind for kind, _ in events))
        count = {kind: sum(size for k, size in events if k == kind) for kind in "KRFB"}
        assert count["K"] == count["R"]  # one normal per knot of each live row
        assert count["B"] > 0
        assert count["K"] + count["F"] == count["R"] + exitsim._COARSE * count["B"]

    @pytest.mark.parametrize("m", [3, -1])
    def test_bridge_fill_matches_bridge_law(self, m):
        # an early interval and the last one, both _COARSE steps long
        beta, h = 20.0, 1e-3
        p = _problem(beta=beta, a=0.2)
        t = exitsim._coarse_tables(p)
        m = m % t["start"].size
        start, length = int(t["start"][m]), exitsim._COARSE

        def clock_gain(k):
            # V(start + k) - V(start) on the clock V(j) = (1 - g^-2j)/(2 beta)
            return math.exp(-2.0 * beta * h * start) * -math.expm1(-2.0 * beta * h * k) / (2.0 * beta)

        i, rows = length // 2, 20_000
        dv, vi = clock_gain(length), clock_gain(i)
        x, y = 0.3 * math.sqrt(dv), -0.4 * math.sqrt(dv)
        normals = np.random.default_rng(8).standard_normal((rows, exitsim._COARSE))
        fill = exitsim._bridge_fill(
            t, np.full(rows, m), np.full(rows, x), np.full(rows, y), normals
        )
        assert np.all(fill[:, length - 1] == y)
        mean, var = x + vi / dv * (y - x), vi * (dv - vi) / dv
        mid = fill[:, i - 1]
        assert abs(mid.mean() - mean) <= 4.0 * math.sqrt(var / rows)
        assert abs(mid.var() / var - 1.0) <= 4.0 * math.sqrt(2.0 / rows)

    def test_refine_flags_intervals_near_either_boundary(self):
        p = _problem()
        t = exitsim._coarse_tables(p)
        m = 40
        upper, lower = t["upper"][m], t["lower"][m]
        sd = t["knot_sd"][m]
        cases = {
            "near right": (upper - 0.1 * sd, upper - 0.2 * sd, True),
            "near left": (lower + 0.1 * sd, lower + 0.2 * sd, True),
            "endpoint outside": (upper + sd, upper + 2.0 * sd, True),
            "far from both": (p.a, p.a + sd, False),
        }
        prev = np.array([[c[0]] for c in cases.values()])
        knots = np.array([[c[1]] for c in cases.values()])
        flagged = exitsim._needs_refining(t, m, m + 1, prev, knots)[:, 0]
        assert dict(zip(cases, flagged.tolist())) == {k: c[2] for k, c in cases.items()}

    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_rejection_depth_bounds_wrong_rejection(self, beta):
        p = _problem(beta=beta)
        c = exitsim._rejection_depth(p)
        assert c < 1.0 / p.epsilon
        assert math.log(2.0) + gaussian_log_tail(c * math.sqrt(2.0 * beta)) <= math.log(1e-15)

    def test_rejection_quantile_matches_delta(self):
        z, delta = exitsim._REJECTION_Z, exitsim._REJECTION_DELTA
        assert delta == 1e-15
        assert math.log(2.0) + gaussian_log_tail(z) <= math.log(delta)
        assert math.log(2.0) + gaussian_log_tail(z - 1e-3) > math.log(delta)

    def test_rejection_quantile_against_mpmath(self):
        # 2*tail(z) <= delta at 50 digits, both read as the doubles they are
        z, delta = exitsim._REJECTION_Z, exitsim._REJECTION_DELTA
        with mp.workdps(50):
            assert 2 * mp.ncdf(-mp.mpf(z)) <= mp.mpf(delta)

    def test_rejection_depth_clipped_to_left_boundary(self):
        p = _problem(epsilon=0.5)  # left boundary at Y = -2, closer than c ~ 5.7
        assert exitsim._rejection_depth(p) == 2.0


class TestTruncatedGaussian:
    def test_support(self):
        for r in (-10.0, 0.5, 2.0, 5.0):
            draws = truncated_gaussian(r, RngStream(50), size=2000)
            assert np.all(draws > r)

    def test_scalar_mode(self):
        v = truncated_gaussian(3.0, RngStream(51))
        assert isinstance(v, float) and v > 3.0

    def test_deterministic(self):
        a = truncated_gaussian(1.5, RngStream(52), size=100)
        b = truncated_gaussian(1.5, RngStream(52), size=100)
        assert np.array_equal(a, b)

    def test_mean_at_r2(self):
        # oracle: pdf(2)/tail(2), cross-checked by quadrature offline
        draws = truncated_gaussian(2.0, RngStream(53), size=1_000_000)
        want = 2.3732155328228408673
        sd = math.sqrt(1.0 + 2.0 * want - want * want)
        assert abs(draws.mean() - want) <= 3.0 * sd / 1000.0

    def test_huge_thresholds_return(self):
        # r*r overflows above ~1.34e154; the proposal rate must stay finite
        for r in (1e160, 1e300, 1.7e308):
            draws = truncated_gaussian(r, RngStream(56), size=100)
            assert np.all(draws >= r)
            assert truncated_gaussian(r, RngStream(57)) >= r

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_unattainable_threshold_raises(self, r):
        with pytest.raises(ValueError):
            truncated_gaussian(r, RngStream(58), size=10)
        with pytest.raises(ValueError):
            truncated_gaussian(r, RngStream(58))

    def test_vacuous_truncation_matches_gaussian(self):
        draws = truncated_gaussian(-10.0, RngStream(5), size=100_000)
        s = EmpiricalSample.from_values(draws)
        assert ks_one_sample(s, gaussian_cdf(s.values)) <= 0.005


class TestLimitLaw:
    def test_sampler_matches_cdf(self):
        draws = limit_law_sample(1.0, 1.0, RngStream(11), size=100_000)
        s = EmpiricalSample.from_values(draws)
        assert ks_one_sample(s, limit_law_cdf(1.0, 1.0, s.values)) <= 0.005

    def test_all_samples_finite(self):
        draws = limit_law_sample(0.5, 2.0, RngStream(54), size=50_000)
        assert np.all(np.isfinite(draws))

    def test_additive_constant_vanishes_at_half_beta(self):
        # ln(2*beta) = 0 at beta = 1/2: the sample is exactly -2*ln(N - r)
        r = 2.0 * math.sqrt(2.0 * 0.5)
        raw = truncated_gaussian(r, RngStream(55), size=1000)
        want = -2.0 * np.log(raw - r)
        got = limit_law_sample(0.5, 2.0, RngStream(55), size=1000)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_cdf_is_valid(self):
        xs = np.linspace(-3.0, 25.0, 200)
        vals = [limit_law_cdf(1.0, 1.0, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert limit_law_cdf(1.0, 1.0, -200.0) == 0.0
        assert limit_law_cdf(1.0, 1.0, 60.0) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("beta, a", [(1.0, 1.0), (20.0, 0.2), (0.25, 2.0)])
    def test_cdf_of_an_array_matches_each_value(self, beta, a):
        # both sides of the log-residual cut-off beta*x - c = -354, far left
        # of it and the tail ratio
        c = 0.5 * math.log(2.0 * beta)
        x = np.sort(np.concatenate([
            np.linspace(-800.0 / beta, -600.0 / beta, 41),
            (np.linspace(-360.0, -348.0, 41) + c) / beta,
            np.linspace(-10.0, 30.0, 2001),
            limit_law_sample(beta, a, RngStream(9), size=500),
        ]))
        each = np.array([limit_law_cdf(beta, a, float(v)) for v in x])
        whole = limit_law_cdf(beta, a, x)
        assert (whole == 0.0).any() and ((whole > 0.0) & (whole < 1.0)).any()
        y = beta * x - c
        assert (y < -354.0).any() and ((y >= -354.0) & (y < -348.0)).any()
        assert np.array_equal(whole, each)

    @pytest.mark.parametrize(
        "beta, a, tol",
        [(1.0, 1.0, 2e-13), (20.0, 0.2, 2e-13), (0.25, 1.0, 2e-13), (1.0, 6.0, 2e-13), (1.0, 20.0, 2e-13),
         (1.0, 250.0, 1e-10), (1.0, 300.0, 1e-10),
         (0.5, 424.0, 1e-13), (0.5, 1e4, 1e-13), (0.5, 1e6, 1e-13), (0.5, 1e8, 1e-13)],
    )
    def test_cdf_against_mpmath(self, beta, a, tol):
        # tail(r + sqrt(2 beta) e^(-beta x))/tail(r) at 60 digits; at a = 250
        # and 300, r = a*sqrt(2 beta) lies past any fixed cut on the argument.
        # Besides a fixed grid, one around the law's bulk, x ~ (ln r + c)/beta,
        # where the increment sqrt(2 beta) e^(-beta x) is ~1/r
        c = 0.5 * math.log(2.0 * beta)
        bulk = (math.log(a * math.sqrt(2.0 * beta)) + c + np.linspace(-3.0, 12.0, 61)) / beta
        with mp.workdps(60):
            s2b = mp.sqrt(2 * mp.mpf(beta))
            r = mp.mpf(a) * s2b

            def exact(x):
                return mp.erfc((r + s2b * mp.exp(-mp.mpf(beta) * mp.mpf(x))) / mp.sqrt(2)) / mp.erfc(r / mp.sqrt(2))

            xs = np.concatenate([np.linspace(-3.0, 12.0, 61), bulk])
            errors = [abs(mp.mpf(limit_law_cdf(beta, a, float(x))) - exact(float(x))) for x in xs]
        assert float(max(errors)) <= tol

    def test_cdf_derivative_matches_density(self):
        # chain rule: the limit-law density is beta * p(r, beta*x - ln(2 beta)/2)
        beta, a = 1.0, 1.0
        r = a * math.sqrt(2.0 * beta)
        h = 1e-5
        for x in np.linspace(-1.0, 6.0, 29):
            fd = (limit_law_cdf(beta, a, x + h) - limit_law_cdf(beta, a, x - h)) / (2.0 * h)
            dens = beta * log_residual_density(r, beta * x - 0.5 * math.log(2.0 * beta))
            assert abs(fd - dens) <= 1e-6

    def test_median_bisection_vs_monte_carlo(self):
        beta, a = 1.0, 1.0
        lo, hi = -5.0, 30.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if limit_law_cdf(beta, a, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        assert median == pytest.approx(1.4126350425433338157, abs=1e-9)
        draws = limit_law_sample(beta, a, RngStream(13), size=100_000)
        assert abs(float(np.median(draws)) - median) <= 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            limit_law_cdf(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            limit_law_sample(1.0, -1.0, RngStream(1))
        for beta, a in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError):
                limit_law_cdf(beta, a, 0.0)
            with pytest.raises(ValueError):
                limit_law_sample(beta, a, RngStream(1), size=3)
            with pytest.raises(ValueError):
                right_exit_probability(beta, a)
        # log tail(r) is -inf above r ~ 1.9e154, but the tail ratio never
        # forms it: the true values, 0 at x = 0 and 1 far right
        assert limit_law_cdf(1.0, 1e155, 0.0) == 0.0 and limit_law_cdf(1.0, 1e155, 1000.0) == 1.0
        assert np.array_equal(limit_law_cdf(1.0, 1e155, np.array([0.0, 1000.0])), [0.0, 1.0])
        # r + e^(-y) rounds to r here, which once gave 1.0
        assert limit_law_cdf(1.0, 9e153, 0.0) == 0.0

    @pytest.mark.parametrize("a", [1e9, 1e100])
    def test_large_thresholds_sample_finite_without_warning(self, a):
        # N - r is drawn as itself: it never rounds to 0, so -ln(N - r) is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = limit_law_sample(1.0, a, RngStream(1), size=1000)
            one = limit_law_sample(1.0, a, RngStream(1))
        assert np.all(np.isfinite(draws)) and math.isfinite(one)


class TestMonitoredRightExitProbability:
    @pytest.mark.parametrize(
        "beta, epsilon, a, step", [(1.0, 0.5, 1.0, 1e-3), (1.0, 0.2, 1.0, 1e-3), (20.0, 0.5, 0.2, 1e-2), (0.25, 0.3, 1.0, 1e-2)]
    )
    def test_against_mpmath_quadrature(self, beta, epsilon, a, step):
        # the scale-function ratio of integrals of exp(-beta y^2), each end
        # moved out by -zeta(1/2)/sqrt(2 pi) * sqrt(h)
        with mp.workdps(40):
            edge = 1 / mp.mpf(epsilon) - mp.zeta(0.5) / mp.sqrt(2 * mp.pi) * mp.sqrt(step)
            density = lambda y: mp.exp(-beta * y * y)
            want = mp.quad(density, [a, edge]) / mp.quad(density, [-edge, 0, edge])
        got = monitored_right_exit_probability(_problem(beta=beta, epsilon=epsilon, a=a, step=step))
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    @pytest.mark.parametrize("beta, a", [(1.0, 1.0), (20.0, 0.2), (0.25, 1.0)])
    def test_small_noise_limit(self, epsilon, beta, a):
        got = monitored_right_exit_probability(_problem(beta=beta, epsilon=epsilon, a=a))
        want = right_exit_probability(beta, a)
        assert abs(got - want) <= 1e-15 * want
