"""Normalizing sequences, exceedance-count curves, and block maxima."""
import math
import sys

import numpy as np
import pytest

from exitgumbel import (
    NoBracket,
    NormalizingSequence,
    RngStream,
    exponential_tail_model,
    gaussian_tail,
    gaussian_tail_model,
    gnedenko_lhs,
    gumbel_cdf,
    ks_one_sample,
    ks_one_sample_critical,
    max_cdf,
    sample_normalized_max,
    solve_normalizers,
    standard_gaussian_sampler,
)

GAUSS = gaussian_tail_model()

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


class TestSolveNormalizers:
    def test_frozen_roots(self):
        for n, want in FROZEN_CENTERS.items():
            seq = solve_normalizers(GAUSS, n)
            assert seq.center == pytest.approx(want, abs=5e-13)
            assert seq.scale == pytest.approx(1.0 / want, rel=1e-12)

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


class TestNormalizedMaxSampling:
    def test_deterministic(self):
        seq = solve_normalizers(GAUSS, 50)
        a = sample_normalized_max(standard_gaussian_sampler, seq, 100, RngStream(3))
        b = sample_normalized_max(standard_gaussian_sampler, seq, 100, RngStream(3))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [3, 9])
    def test_ks_from_one_array_evaluation_equals_the_scalar_loop(self, seed):
        # evt's cross-check evaluates max_cdf once over the sorted replicas
        seq = solve_normalizers(GAUSS, 1000)
        sample = sample_normalized_max(standard_gaussian_sampler, seq, 2000, RngStream(seed=seed))
        per_value = ks_one_sample(sample, lambda x: max_cdf(GAUSS, seq, x))
        one_call = ks_one_sample(sample, max_cdf(GAUSS, seq, sample.values))
        assert one_call.hex() == per_value.hex()

    def test_matches_exact_finite_n_law(self):
        seq = solve_normalizers(GAUSS, 100)
        sample = sample_normalized_max(standard_gaussian_sampler, seq, 2000, RngStream(14))
        stat = ks_one_sample(sample, lambda x: max_cdf(GAUSS, seq, x))
        assert stat <= ks_one_sample_critical(2000)

    @pytest.mark.parametrize("replicas", [1, 7, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_worker_count_matches_per_replica_substreams(self, workers, replicas):
        # uneven splits, and more workers than replicas
        seq = solve_normalizers(GAUSS, 50)
        stream = RngStream(3, 2)
        reference = np.sort(
            [(float(np.max(stream.substream(i).standard_normal(seq.n))) - seq.center) / seq.scale for i in range(replicas)]
        )
        sample = sample_normalized_max(standard_gaussian_sampler, seq, replicas, stream, workers=workers)
        np.testing.assert_array_equal(sample.values.view(np.uint64), reference.view(np.uint64))

    def test_threads_take_an_unpicklable_sampler(self):
        seq = solve_normalizers(GAUSS, 50)
        serial = sample_normalized_max(standard_gaussian_sampler, seq, 40, RngStream(5))
        threaded = sample_normalized_max(lambda gen, size: gen.standard_normal(size), seq, 40, RngStream(5), workers=2)
        np.testing.assert_array_equal(threaded.values.view(np.uint64), serial.values.view(np.uint64))

    def test_threads_under_fast_switching(self):
        # more threads than cores, switching every microsecond: every slot
        # of the shared output is still written by its own range only
        seq = solve_normalizers(GAUSS, 20)
        serial = sample_normalized_max(standard_gaussian_sampler, seq, 500, RngStream(9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sample_normalized_max(standard_gaussian_sampler, seq, 500, RngStream(9), workers=8)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(threaded.values.view(np.uint64), serial.values.view(np.uint64))

    def test_rejects_bad_arguments(self):
        seq = solve_normalizers(GAUSS, 10)
        with pytest.raises(ValueError):
            sample_normalized_max(standard_gaussian_sampler, seq, 0, RngStream(1))
        with pytest.raises(TypeError):
            sample_normalized_max(
                standard_gaussian_sampler, seq, 10, RngStream(1).generator()
            )
