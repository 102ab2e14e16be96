"""Empirical-distribution utilities, RNG streams, CSV IO."""
import math
import pickle

import numpy as np
import pytest

from exitgumbel import (
    EmpiricalSample,
    RngStream,
    ks_one_sample,
    ks_one_sample_critical,
    ks_two_sample,
    ks_two_sample_critical,
    read_sample_csv,
    write_sample_csv,
)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(seed=123, stream_id=4).substream(0).standard_normal(16)
        b = RngStream(seed=123, stream_id=4).substream(0).standard_normal(16)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        s = RngStream(seed=123)
        a = s.substream(0).standard_normal(16)
        b = s.substream(1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substream_independent_of_consumption(self):
        # substream i must not depend on what other substreams drew
        s = RngStream(seed=9)
        s.substream(0).standard_normal(1000)
        fresh = RngStream(seed=9).substream(7).standard_normal(8)
        assert np.array_equal(fresh, s.substream(7).standard_normal(8))

    def test_key_validation(self):
        with pytest.raises(ValueError):
            RngStream(seed=-1)
        with pytest.raises(ValueError):
            RngStream(seed=0, stream_id=1 << 64)
        with pytest.raises(ValueError):
            RngStream(seed=5).substream(-1)
        with pytest.raises(ValueError):
            RngStream(seed=5).substream(1 << 128)

    def test_picklable(self):
        s = RngStream(seed=11, stream_id=2)
        assert pickle.loads(pickle.dumps(s)) == s


class TestEmpiricalSample:
    def test_from_values_sorts(self):
        s = EmpiricalSample.from_values([3.0, 1.0, 2.0])
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.count == 3

    def test_rejects_unsorted_or_empty(self):
        with pytest.raises(ValueError):
            EmpiricalSample(values=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([])
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([np.nan, 1.0])

class TestKsOneSample:
    def test_constant_cdf(self):
        s = EmpiricalSample.from_values([0.1, 0.2, 0.3])
        assert ks_one_sample(s, lambda x: 0.0) == 1.0

    def test_single_point_at_median(self):
        s = EmpiricalSample.from_values([0.0])
        assert ks_one_sample(s, lambda x: 0.5) == 0.5

    def test_own_cdf_within_critical(self):
        gen = RngStream(seed=6).substream(0)
        s = EmpiricalSample.from_values(gen.uniform(0.0, 1.0, 10_000))
        stat = ks_one_sample(s, lambda x: min(max(x, 0.0), 1.0))
        assert stat <= ks_one_sample_critical(10_000)  # 1.63/sqrt(n), 1% point

    def test_invariant_under_monotone_transform(self):
        gen = RngStream(seed=8).substream(0)
        values = gen.standard_normal(200)
        s = EmpiricalSample.from_values(values)
        t = EmpiricalSample.from_values(values**3)

        def cdf(x):
            return 0.5 * math.erfc(-x / math.sqrt(2.0))

        def cdf_cubed(x):
            return cdf(math.copysign(abs(x) ** (1.0 / 3.0), x))

        assert ks_one_sample(s, cdf) == pytest.approx(ks_one_sample(t, cdf_cubed), abs=1e-12)

    @pytest.mark.parametrize("cdf", [0.5, np.array([0.5]), np.full((100, 1), 0.5)])
    def test_cdf_values_of_another_shape_rejected(self, cdf):
        # each of these broadcasts against 100 values without an error
        s = EmpiricalSample.from_values(np.linspace(0.0, 1.0, 100))
        with pytest.raises(ValueError, match="shape"):
            ks_one_sample(s, cdf)


class TestKsTwoSample:
    def test_identical_samples(self):
        s = EmpiricalSample.from_values([1.0, 2.0, 3.0])
        assert ks_two_sample(s, s) == 0.0

    def test_disjoint_supports(self):
        s1 = EmpiricalSample.from_values([0.0, 1.0])
        s2 = EmpiricalSample.from_values([5.0, 6.0])
        assert ks_two_sample(s1, s2) == 1.0

    def test_same_law_within_critical(self):
        gen = RngStream(seed=12).substream(0)
        s1 = EmpiricalSample.from_values(gen.standard_normal(10_000))
        s2 = EmpiricalSample.from_values(gen.standard_normal(10_000))
        assert ks_two_sample(s1, s2) <= ks_two_sample_critical(10_000, 10_000)

    def test_symmetric(self):
        gen = RngStream(seed=13).substream(0)
        s1 = EmpiricalSample.from_values(gen.standard_normal(100))
        s2 = EmpiricalSample.from_values(gen.standard_normal(150) + 0.3)
        assert ks_two_sample(s1, s2) == ks_two_sample(s2, s1)


class TestSampleCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = [
            (0, 4.539, "right", -0.0661701859880921),
            (17, 1.0 / 3.0, "left", math.pi),
            (123456, 5.1234567890123456e-12, "right", -math.e),
        ]
        path = tmp_path / "samples.csv"
        write_sample_csv(path, rows)
        back = read_sample_csv(path)
        assert len(back) == 3
        for (i0, t0, s0, n0), (i1, t1, s1, n1) in zip(rows, back):
            assert i0 == i1 and s0 == s1
            assert t0 == t1  # 17 significant digits round-trip bit-exactly
            assert n0 == n1

    def test_rfc4180_shape(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_sample_csv(path, [(0, 1.0, "right", 2.0)])
        raw = path.read_bytes()
        assert raw.startswith(b"attempt_index,tau,side,normalized_time\r\n")
        assert raw.count(b"\r\n") == 2

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\r\n1,2,right,3\r\n")
        with pytest.raises(ValueError):
            read_sample_csv(path)
