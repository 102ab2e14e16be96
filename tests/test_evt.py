"""Normalizing sequences, exceedance-count curves, and block maxima."""
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from exitgumbel import (
    EmpiricalSample,
    NoBracket,
    NormalizingSequence,
    RngStream,
    TailModel,
    exponential_tail_model,
    gaussian_tail,
    gaussian_tail_model,
    gnedenko_lhs,
    gumbel_cdf,
    ks_one_sample,
    ks_one_sample_critical,
    ks_two_sample,
    ks_two_sample_critical,
    max_cdf,
    sample_normalized_max,
    solve_normalizers,
)
from exitgumbel.evt import _solve_log_tail, _uniform_minima

GAUSS = gaussian_tail_model()
EXPO = exponential_tail_model()

# mpmath roots of tail(b) = 1/n at 40 digits
FROZEN_CENTERS = {
    10: 1.281551565544600467,
    100: 2.3263478740408411009,
    1000: 3.0902323061678135415,
    10**4: 3.7190164854556805644,
    10**6: 4.7534243088228989482,
    10**8: 5.6120012441747887315,
    10**9: 5.9978070150076868716,
}


# solve_normalizers(GAUSS, n) before the array solver, as float.hex
FROZEN_HEX_NORMALIZERS = {
    3: ("0x1.b91093bfdfa2cp-2", "0x1.292bfa0b41312p+1"),
    50: ("0x1.06e13e8aadfdcp+1", "0x1.f299b2e8f85c9p-2"),
    1000: ("0x1.8b8cbb7204471p+1", "0x1.4b5dde527b3d8p-2"),
    10**4: ("0x1.dc08bb712893cp+1", "0x1.135773fca8689p-2"),
    10**6: ("0x1.30381a9799f7fp+2", "0x1.aed8e840047edp-3"),
    10**9: ("0x1.7fdc11f44b5a8p+2", "0x1.5575485d07529p-3"),
}


class TestSolveNormalizers:
    def test_frozen_roots(self):
        for n, want in FROZEN_CENTERS.items():
            seq = solve_normalizers(GAUSS, n)
            assert seq.center == pytest.approx(want, abs=5e-13)
            assert seq.scale == pytest.approx(1.0 / want, rel=1e-12)

    def test_bit_identical_to_the_scalar_solver(self):
        # center and scale as float.hex from the scalar bisection + Newton
        # loop the array solver replaced
        for n, (center, scale) in FROZEN_HEX_NORMALIZERS.items():
            seq = solve_normalizers(GAUSS, n)
            assert (seq.center.hex(), seq.scale.hex()) == (center, scale)

    def test_tail_space_accuracy(self):
        for n in (10, 1000, 10**6, 10**9):
            seq = solve_normalizers(GAUSS, n)
            assert abs(n * gaussian_tail(seq.center) - 1.0) <= 1e-12

    def test_centers_increase_with_n(self):
        centers = [solve_normalizers(GAUSS, n).center for n in (10, 100, 10**4, 10**8)]
        assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_small_n_rejected(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError):
                solve_normalizers(GAUSS, n)

    def test_exponential_center_is_log_n(self):
        e = exponential_tail_model()
        for n in (3, 100, 10**6):
            seq = solve_normalizers(e, n)
            assert seq.center == pytest.approx(math.log(n), rel=1e-12)
            assert seq.scale == 1.0

    def test_no_bracket(self):
        # exponential tail at 50 is e^-50 ~ 2e-22; 1/n below that cannot
        # be bracketed on [0, 50]
        with pytest.raises(NoBracket):
            solve_normalizers(exponential_tail_model(), 10**23)

    def test_no_bracket_for_a_huge_n(self):
        # a 601-digit n: log tail(50) ~ -1255 is still above -log n ~ -1382
        with pytest.raises(NoBracket):
            solve_normalizers(GAUSS, 10**600)

    @pytest.mark.parametrize("model", [GAUSS, EXPO], ids=["gaussian", "exponential"])
    @pytest.mark.parametrize("n", [3, 10**4])
    def test_array_solve_reaches_the_tolerance(self, model, n):
        # the minima of n uniforms the sampler inverts; at n = 3 the
        # Gaussian maxima reach below 0
        u = 1.0 - np.max(np.random.Generator(np.random.Philox(7)).random((2000, n)), axis=1)
        x = _solve_log_tail(model, np.log(u), -50.0, 50.0)
        assert np.max(np.abs(model.log_tail(x) - np.log(u))) <= 1e-13
        if model is GAUSS and n == 3:
            assert x.min() < 0.0

    def test_zero_slope_takes_the_bracket_midpoint(self):
        # a flat log-tail has zero density, so its exact slope is 0: the
        # Newton step falls back to bisection instead of dividing by zero
        step = TailModel("step", None, lambda x: -np.floor(x), None, lambda x: np.full_like(x, -np.inf), None)
        x = _solve_log_tail(step, np.array([-0.5]), 0.0, 50.0)
        assert abs(x[0] - 1.0) <= 1e-3

    def test_asymptotic_center_growth(self):
        # center ~ sqrt(2 ln n), approached slowly from below
        ratios = []
        for n in (10**4, 10**6, 10**8):
            seq = solve_normalizers(GAUSS, n)
            ratios.append(seq.center / math.sqrt(2.0 * math.log(n)))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) <= 0.15

    @pytest.mark.parametrize("n", [3, 10**3, 10**4, 10**6, 10**9, 10**300])
    def test_center_matches_a_40_digit_root(self, n):
        # 1e300 puts the root near 37, past the continued-fraction switch at 8
        with mpmath.workdps(40):

            def gap(x):  # log tail(x) + log n
                return mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2) + mpmath.log(n)

            root = mpmath.findroot(gap, math.sqrt(2 * math.log(n)))
            assert abs(solve_normalizers(GAUSS, n).center - root) <= 1e-12
        if n <= 10**9:
            assert solve_normalizers(EXPO, n).center == math.log(n)

    @pytest.mark.parametrize("model", [GAUSS, EXPO], ids=["gaussian", "exponential"])
    def test_array_solve_is_each_one_element_solve(self, model):
        # targets from log 1, where the exponential density is 0 at the
        # root, down past the continued-fraction switch
        target = np.concatenate([[0.0, -1e-300, -0.5], -np.random.Generator(np.random.Philox(5)).exponential(8.0, 300)])
        x = _solve_log_tail(model, target, -50.0, 50.0)
        assert np.max(np.abs(model.log_tail(x) - target)) <= 1e-13
        each = np.array([_solve_log_tail(model, target[i : i + 1], -50.0, 50.0)[0] for i in range(target.size)])
        np.testing.assert_array_equal(x.view(np.uint64), each.view(np.uint64))

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**6, 10**9])
    def test_one_solve_takes_under_a_millisecond(self, n):
        # the best of 5 calls, so a busy host does not fail it
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            solve_normalizers(GAUSS, n)
            best = min(best, time.perf_counter() - start)
        assert best <= 1e-3

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            NormalizingSequence(n=1, scale=1.0, center=0.0)
        with pytest.raises(ValueError):
            NormalizingSequence(n=10, scale=0.0, center=1.0)


class TestGnedenkoCurve:
    def test_exactly_one_at_origin(self):
        for n in (10, 10**4, 10**8):
            seq = solve_normalizers(GAUSS, n)
            assert gnedenko_lhs(GAUSS, seq, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_improvement_with_n(self):
        seq_small = solve_normalizers(GAUSS, 100)
        seq_large = solve_normalizers(GAUSS, 10**8)
        for x in np.linspace(-1.0, 2.0, 61):
            e_small = abs(gnedenko_lhs(GAUSS, seq_small, x) - math.exp(-x))
            e_large = abs(gnedenko_lhs(GAUSS, seq_large, x) - math.exp(-x))
            # at x = 0 both equal 1 by the definition of the center; only
            # roundoff remains there
            assert e_large < e_small or max(e_large, e_small) <= 1e-12

    def test_relative_error_in_body(self):
        # within 10% of exp(-x) at n = 1e8 for x <= 1.5 (the bound degrades
        # toward the right edge; the acceptance suite tracks the full grid)
        seq = solve_normalizers(GAUSS, 10**8)
        for x in np.linspace(-1.0, 1.5, 26):
            rel = abs(gnedenko_lhs(GAUSS, seq, x) - math.exp(-x)) / math.exp(-x)
            assert rel <= 0.10


class TestMaxCdf:
    def test_monotone_and_limits(self):
        seq = solve_normalizers(GAUSS, 10**6)
        xs = np.linspace(-4.0, 10.0, 141)
        vals = [max_cdf(GAUSS, seq, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max_cdf(GAUSS, seq, 60.0) == pytest.approx(1.0, rel=1e-9)

    def test_sup_distance_to_gumbel(self):
        # frozen mpmath sups: 0.039836 (1e3), 0.018961 (1e6), 0.012375 (1e9)
        xs = np.linspace(-2.0, 4.0, 121)
        sups = []
        for n in (1000, 10**6, 10**9):
            seq = solve_normalizers(GAUSS, n)
            sups.append(max(abs(max_cdf(GAUSS, seq, x) - gumbel_cdf(x)) for x in xs))
        assert sups[0] == pytest.approx(0.039835846, abs=1e-6)
        assert sups[1] == pytest.approx(0.018961155, abs=1e-6)
        assert sups[2] == pytest.approx(0.012375078, abs=1e-6)
        assert sups[1] <= 0.05
        assert sups[0] > sups[1] > sups[2]

    def test_agrees_with_exceedance_count_form(self):
        # F^n vs exp(-count): relative gap O(1/n)
        seq = solve_normalizers(GAUSS, 10**6)
        for x in np.linspace(-2.0, 4.0, 61):
            direct = max_cdf(GAUSS, seq, x)
            via_count = math.exp(-gnedenko_lhs(GAUSS, seq, x))
            assert abs(direct - via_count) <= 1e-6


def _tournament_reference(stream, n, replicas):
    """u of replicas 0..replicas-1 in plain Python: batch b of B(n) replicas
    reads substream b. At each level every replica still tied, in replica
    order, draws one bit per tied lane, 64 to a word from its low end; any
    1 makes the max's next bit 1 and the lanes holding a 1 the tied ones.
    Then each replica, in replica order, takes the bits its last level left
    unrevealed from the top of one fresh word."""
    size = max(1, min(256, 2**22 // n))
    u = []
    for b in range(-(-replicas // size)):
        bits = stream.substream(b).bit_generator
        top, depth, tied = [0] * size, [0] * size, [n] * size
        for level in range(53):
            live = [j for j in range(size) if tied[j] > 1]
            if not live:
                break
            words = iter(bits.random_raw(sum(-(-tied[j] // 64) for j in live)).tolist())
            for j in live:
                ones = sum((next(words) & (2 ** min(left, 64) - 1)).bit_count() for left in range(tied[j], 0, -64))
                if ones:
                    top[j] |= 1 << (52 - level)
                    tied[j] = ones
                depth[j] = level + 1
        for j, word in enumerate(bits.random_raw(size).tolist()):
            top[j] |= word >> (11 + depth[j])
        u += [(2**53 - t) * 2.0**-53 for t in top]
    return np.array(u[:replicas])


def _full_uniform_reference(model, seq, stream, replicas):
    """1 - max of seq.n full 53-bit uniforms from substream i, inverted: the
    draw the top-16-bit lanes replaced, kept as the law's reference."""
    u = np.array([1.0 - np.max(stream.substream(i).random(seq.n)) for i in range(replicas)])
    x = _solve_log_tail(model, np.log(u), -50.0, 50.0)
    return EmpiricalSample.from_values((x - seq.center) / seq.scale)


def _tournament_sample_reference(model, seq, stream, replicas):
    """Each replica solved on its own: the one-element inversion of the
    minimum rebuilt by `_tournament_reference`, sorted."""
    u = _tournament_reference(stream, seq.n, replicas)
    x = [_solve_log_tail(model, np.log(u[i : i + 1]), -50.0, 50.0)[0] for i in range(replicas)]
    return np.sort((np.array(x) - seq.center) / seq.scale)


def _sample_on_threads(threads, *args):
    """`sample_normalized_max(*args)` called at once from `threads` threads
    that share one stream; returns each call's values."""
    barrier = threading.Barrier(threads)

    def call():
        barrier.wait(timeout=30)
        return sample_normalized_max(*args).values

    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(call) for _ in range(threads)]
        return [f.result(timeout=60) for f in futures]


def _normal_block_reference(seq, stream, replicas):
    """The max of seq.n standard normals from substream i: the sampler the
    uniform minimum replaced, kept as the law's reference."""
    values = [(np.max(stream.substream(i).standard_normal(seq.n)) - seq.center) / seq.scale for i in range(replicas)]
    return EmpiricalSample.from_values(values)


class TestNormalizedMaxSampling:
    def test_deterministic(self):
        seq = solve_normalizers(GAUSS, 50)
        a = sample_normalized_max(GAUSS, seq, 100, RngStream(3))
        b = sample_normalized_max(GAUSS, seq, 100, RngStream(3))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [3, 9])
    def test_ks_from_one_array_evaluation_equals_the_scalar_loop(self, seed):
        # evt's cross-check evaluates max_cdf once over the sorted replicas
        seq = solve_normalizers(GAUSS, 1000)
        sample = sample_normalized_max(GAUSS, seq, 2000, RngStream(seed=seed))
        per_value = ks_one_sample(sample, lambda x: max_cdf(GAUSS, seq, x))
        one_call = ks_one_sample(sample, max_cdf(GAUSS, seq, sample.values))
        assert one_call.hex() == per_value.hex()

    def test_matches_exact_finite_n_law(self):
        seq = solve_normalizers(GAUSS, 100)
        sample = sample_normalized_max(GAUSS, seq, 2000, RngStream(14))
        stat = ks_one_sample(sample, lambda x: max_cdf(GAUSS, seq, x))
        assert stat <= ks_one_sample_critical(2000)

    def test_exponential_maxima_match_their_finite_n_law(self):
        seq = solve_normalizers(EXPO, 100)
        sample = sample_normalized_max(EXPO, seq, 20_000, RngStream(15))
        stat = ks_one_sample(sample, lambda x: max_cdf(EXPO, seq, x))
        assert stat <= ks_one_sample_critical(20_000)

    @pytest.mark.parametrize("model", [GAUSS, EXPO], ids=["gaussian", "exponential"])
    @pytest.mark.parametrize("n", [3, 50, 10**4])
    def test_max_of_inverted_draws_is_the_inverted_minimum(self, model, n):
        # pathwise: tail^-1 is decreasing, so inverting each of a block's
        # uniforms and taking the max gives tail^-1 of their minimum; the
        # sampler keeps that inversion of its own block's minimum
        seq = solve_normalizers(model, n)
        stream = RngStream(11, 4)
        sampled = sample_normalized_max(model, seq, 5, stream).values
        for i, minimum in enumerate(_tournament_reference(stream, n, 5)):
            u = 1.0 - stream.substream(1000 + i).random(n)
            each = _solve_log_tail(model, np.log(u), -50.0, 50.0)
            of_min = _solve_log_tail(model, np.log(np.array([u.min()])), -50.0, 50.0)[0]
            assert abs(each.max() - of_min) <= 1e-12
            kept = _solve_log_tail(model, np.log(np.array([minimum])), -50.0, 50.0)[0]
            assert (kept - seq.center) / seq.scale in sampled

    @pytest.mark.parametrize("n", [10, 1000])
    def test_same_law_as_the_max_of_normals(self, n):
        # two-sample KS at the 1% level, 2e4 replicas per side from
        # independent stream ids
        seq = solve_normalizers(GAUSS, n)
        sample = sample_normalized_max(GAUSS, seq, 20_000, RngStream(21, 1))
        reference = _normal_block_reference(seq, RngStream(21, 2), 20_000)
        assert ks_two_sample(sample, reference) <= ks_two_sample_critical(20_000, 20_000, 1.63)

    @pytest.mark.parametrize(
        "n, replicas",
        [(3, 10), (4, 10), (5, 10), (2**18, 4), (63, 10), (64, 10), (65, 10)]
        + [(50, 1), (50, 255), (50, 256), (50, 257), (2**15, 129), (2**22 + 1, 2)],
    )
    def test_replicas_match_the_lane_reference(self, n, replicas):
        # n = 63, 64, 65 end inside, at and past one word of tie bits; at
        # n = 50 (B = 256) the replicas end inside, at and past a batch, and
        # B is 128 at n = 2^15 and 1 at n = 2^22 + 1
        seq = solve_normalizers(GAUSS, n)
        stream = RngStream(3, 2)
        u = _tournament_reference(stream, n, replicas)
        np.testing.assert_array_equal(_uniform_minima(stream, n, replicas).view(np.uint64), u.view(np.uint64))
        # each replica inverted on its own, as one-element solves
        x = np.array([_solve_log_tail(GAUSS, np.log(u[i : i + 1]), -50.0, 50.0)[0] for i in range(replicas)])
        sample = sample_normalized_max(GAUSS, seq, replicas, stream)
        reference = np.sort((x - seq.center) / seq.scale)
        np.testing.assert_array_equal(sample.values.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("replicas", [1, 7, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_worker_count_matches_per_replica_substreams(self, workers, replicas):
        # `workers` callers on their own threads share one stream; each call
        # builds generators of its own, so each matches the batch substreams
        seq = solve_normalizers(GAUSS, 50)
        stream = RngStream(3, 2)
        reference = _tournament_sample_reference(GAUSS, seq, stream, replicas)
        for values in _sample_on_threads(workers, GAUSS, seq, replicas, stream):
            np.testing.assert_array_equal(values.view(np.uint64), reference.view(np.uint64))

    def test_threads_under_fast_switching(self):
        # more callers than cores, switching every microsecond: no call
        # draws from another's generator state
        seq = solve_normalizers(GAUSS, 20)
        serial = sample_normalized_max(GAUSS, seq, 500, RngStream(9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _sample_on_threads(8, GAUSS, seq, 500, RngStream(9))
        finally:
            sys.setswitchinterval(interval)
        for values in threaded:
            np.testing.assert_array_equal(values.view(np.uint64), serial.values.view(np.uint64))

    # SHA-256 of the u bytes of `_uniform_minima(RngStream(2029), n, replicas)`:
    # B = 256 at n = 3 (cut inside the second batch), 1 at n = 2^22 + 1. A
    # digest may change only with a deliberate change of the tournament's
    # draws, or of numpy's Philox stream, and that change is named in
    # CHANGES.md.
    PINNED = {
        (3, 300): "57aa44f18f98e552e562aa42fc4502b08b9ad133e75414511375cefaa030b317",
        (1000, 600): "23afa61a0a2979a3895774c1267b20a8f56ab56744b6bf5d3c06d75037a95e17",
        (10_000, 513): "95280c94463079080b20d8133f825d6e957331e03aff15c78b25c7f881243f44",
        (2**22 + 1, 5): "518954d9690ccc3178e352abc45ecc84e772291493ba2adf98c44170fb7c42af",
    }

    @pytest.mark.parametrize("n, replicas", sorted(PINNED))
    def test_uniform_minima_are_pinned(self, n, replicas):
        u = _uniform_minima(RngStream(2029), n, replicas)
        assert hashlib.sha256(u.tobytes()).hexdigest() == self.PINNED[n, replicas]

    @pytest.mark.parametrize("n", [3, 5, 10**4, 2**18])
    def test_minima_lie_on_the_53_bit_grid(self, n):
        k = _uniform_minima(RngStream(8), n, 100) * 2.0**53
        assert np.array_equal(k, np.floor(k))
        assert k.min() >= 1.0 and k.max() <= 2.0**53

    def test_first_replicas_are_the_shorter_run(self):
        # replica i depends only on its batch floor(i / 256) at n = 50, and
        # a batch always runs whole
        stream = RngStream(3, 2)
        full = _uniform_minima(stream, 50, 600)
        for k in (1, 7, 255, 256, 257):
            np.testing.assert_array_equal(_uniform_minima(stream, 50, k).view(np.uint64), full[:k].view(np.uint64))

    @pytest.mark.parametrize("n, replicas", [(3, 20_000), (10**4, 20_000), (2**16, 4000)])
    def test_minima_follow_the_exact_finite_n_law(self, n, replicas):
        # one-sample KS at the 1% level for both models; the minima do not
        # depend on the model, so one draw serves both inversions
        u = _uniform_minima(RngStream(22, 1), n, replicas)
        for model in (GAUSS, EXPO):
            seq = solve_normalizers(model, n)
            x = (_solve_log_tail(model, np.log(u), -50.0, 50.0) - seq.center) / seq.scale
            sample = EmpiricalSample.from_values(x)
            assert ks_one_sample(sample, max_cdf(model, seq, sample.values)) <= ks_one_sample_critical(replicas)

    @pytest.mark.parametrize("n", [3, 64, 65])
    def test_minima_follow_the_law_of_the_minimum_of_n_uniforms(self, n):
        # one-sample KS at the 1% level against P{u <= x} = 1 - (1 - x)^n;
        # the tie bits of n = 64 fill one word, those of n = 65 a second
        u = EmpiricalSample.from_values(_uniform_minima(RngStream(24, 1), n, 20_000))
        cdf = -np.expm1(n * np.log1p(-u.values))
        assert ks_one_sample(u, cdf) <= ks_one_sample_critical(20_000)

    def test_a_huge_block_draws_its_tie_bits_in_words(self):
        # at n = 2^26 a level holds n/64 words, where n/4 words of 16-bit
        # lanes took 128 MB
        tracemalloc.start()
        try:
            _uniform_minima(RngStream(25), 2**26, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_same_law_as_full_uniform_draws(self):
        # two-sample KS at the 1% level against n full uniforms per replica,
        # from independent stream ids
        seq = solve_normalizers(GAUSS, 10**4)
        sample = sample_normalized_max(GAUSS, seq, 5000, RngStream(23, 1))
        reference = _full_uniform_reference(GAUSS, seq, RngStream(23, 2), 5000)
        assert ks_two_sample(sample, reference) <= ks_two_sample_critical(5000, 5000, 1.63)

    def test_rejects_bad_arguments(self):
        seq = solve_normalizers(GAUSS, 10)
        with pytest.raises(ValueError):
            sample_normalized_max(GAUSS, seq, 0, RngStream(1))
        with pytest.raises(TypeError):
            sample_normalized_max(GAUSS, seq, 10, RngStream(1).substream(0))
