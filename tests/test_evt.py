"""Normalizing sequences, exceedance-count curves, and block maxima."""
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
        # a flat log-tail gives a central-difference slope of 0: the Newton
        # step falls back to bisection instead of dividing by zero
        step = TailModel("step", None, lambda x: -np.floor(x), None)
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


def _lane_reference(stream, n, i):
    """Replica i's n lanes as 53-bit integers, rebuilt from substream i with
    shifts: the top 16 bits of every lane, four to a Philox word from its
    low end, then the top 37 bits of one fresh word OR-ed into each lane
    tied at the top, in lane order. Also returns the number of tied lanes."""
    bits = stream.substream(i).bit_generator
    words = bits.random_raw(-(-n // 4))
    top = (words[:, None] >> np.array([0, 16, 32, 48], dtype=np.uint64) & np.uint64(0xFFFF)).ravel()[:n]
    lanes = top << np.uint64(37)
    tied = top == top.max()
    lanes[tied] |= bits.random_raw(int(tied.sum())) >> np.uint64(27)
    return lanes, int(tied.sum())


def _full_uniform_reference(model, seq, stream, replicas):
    """1 - max of seq.n full 53-bit uniforms from substream i, inverted: the
    draw the top-16-bit lanes replaced, kept as the law's reference."""
    u = np.array([1.0 - np.max(stream.substream(i).random(seq.n)) for i in range(replicas)])
    x = _solve_log_tail(model, np.log(u), -50.0, 50.0)
    return EmpiricalSample.from_values((x - seq.center) / seq.scale)


def _lane_sample_reference(model, seq, stream, replicas):
    """Each replica solved on its own: the one-element inversion of the
    minimum rebuilt by `_lane_reference` from substream i, sorted."""
    x = []
    for i in range(replicas):
        lanes, _ = _lane_reference(stream, seq.n, i)
        u = np.array([(2**53 - int(lanes.max())) * 2.0**-53])
        x.append(_solve_log_tail(model, np.log(u), -50.0, 50.0)[0])
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
        # uniforms and taking the max gives tail^-1 of their minimum, the
        # replica the sampler keeps
        seq = solve_normalizers(model, n)
        stream = RngStream(11, 4)
        sampled = sample_normalized_max(model, seq, 5, stream).values
        for i in range(5):
            lanes, _ = _lane_reference(stream, n, i)
            u = (np.uint64(2**53) - lanes).astype(float) * 2.0**-53
            each = _solve_log_tail(model, np.log(u), -50.0, 50.0)
            of_min = _solve_log_tail(model, np.log(np.array([u.min()])), -50.0, 50.0)[0]
            assert abs(each.max() - of_min) <= 1e-12
            assert (of_min - seq.center) / seq.scale in sampled

    @pytest.mark.parametrize("n", [10, 1000])
    def test_same_law_as_the_max_of_normals(self, n):
        # two-sample KS at the 1% level, 2e4 replicas per side from
        # independent stream ids
        seq = solve_normalizers(GAUSS, n)
        sample = sample_normalized_max(GAUSS, seq, 20_000, RngStream(21, 1))
        reference = _normal_block_reference(seq, RngStream(21, 2), 20_000)
        assert ks_two_sample(sample, reference) <= ks_two_sample_critical(20_000, 20_000, 1.63)

    @pytest.mark.parametrize("n, replicas", [(3, 10), (4, 10), (5, 10), (2**18, 4)])
    def test_replicas_match_the_lane_reference(self, n, replicas):
        # n = 3, 4, 5 end inside, at and past one Philox word's four lanes;
        # at n = 2^18 (four lanes per 16-bit value) the top is usually tied
        seq = solve_normalizers(GAUSS, n)
        stream = RngStream(3, 2)
        refs = [_lane_reference(stream, n, i) for i in range(replicas)]
        u = np.array([(2**53 - int(lanes.max())) * 2.0**-53 for lanes, _ in refs])
        np.testing.assert_array_equal(_uniform_minima(stream, n, replicas).view(np.uint64), u.view(np.uint64))
        # each replica inverted on its own, as one-element solves
        x = np.array([_solve_log_tail(GAUSS, np.log(u[i : i + 1]), -50.0, 50.0)[0] for i in range(replicas)])
        sample = sample_normalized_max(GAUSS, seq, replicas, stream)
        reference = np.sort((x - seq.center) / seq.scale)
        np.testing.assert_array_equal(sample.values.view(np.uint64), reference.view(np.uint64))
        if n == 2**18:
            assert max(ties for _, ties in refs) >= 2

    @pytest.mark.parametrize("replicas", [1, 7, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_worker_count_matches_per_replica_substreams(self, workers, replicas):
        # `workers` callers on their own threads share one stream; each call
        # seats a generator of its own, so each matches the substreams
        seq = solve_normalizers(GAUSS, 50)
        stream = RngStream(3, 2)
        reference = _lane_sample_reference(GAUSS, seq, stream, replicas)
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

    @pytest.mark.parametrize("n", [3, 5, 10**4, 2**18])
    def test_minima_lie_on_the_53_bit_grid(self, n):
        k = _uniform_minima(RngStream(8), n, 100) * 2.0**53
        assert np.array_equal(k, np.floor(k))
        assert k.min() >= 1.0 and k.max() <= 2.0**53

    def test_first_replicas_are_the_shorter_run(self):
        # replica i depends on substream i only
        stream = RngStream(3, 2)
        full = _uniform_minima(stream, 50, 100)
        for k in (1, 7):
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
            sample_normalized_max(GAUSS, seq, 10, RngStream(1).generator())
