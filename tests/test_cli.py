"""CLI subcommands: outputs, exit codes, reproducibility."""
import argparse
import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exitgumbel import (
    cli,
    exitsim,
    exponential_tail_model,
    gaussian_tail_model,
    gnedenko_lhs,
    gumbel_cdf,
    gumbel_density,
    ks_one_sample_critical,
    max_cdf,
    scaled_residual,
    shifted_log_residual_cdf,
    shifted_log_residual_density,
    solve_normalizers,
)
from exitgumbel.cli import main
from exitgumbel.exitsim import ConditionedSample, ExitProblem, monitored_right_exit_probability


def _strict(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _read_json(path):
    return _strict(path.read_text())


def _stdout_json(capsys):
    return _strict(capsys.readouterr().out)


def _spy_curve_stems(monkeypatch) -> list:
    """The file stems `cli._write_curve` is called with, in order."""
    stems, write = [], cli._write_curve

    def spy(path, *args):
        stems.append(path.name)
        return write(path, *args)

    monkeypatch.setattr(cli, "_write_curve", spy)
    return stems


class TestIdentitySuite:
    def test_passes(self, tmp_path, capsys):
        code = main(["identity-suite", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "identity suite: PASS" in out
        report = _read_json(tmp_path / "identity_report.json")
        assert report["pass"] is True
        assert {"check", "value", "bound", "pass"} <= set(report["checks"][0])
        names = {row["check"] for row in report["checks"]}
        assert "gumbel-log-identity" in names
        assert "conditional-density-normalization" in names

    def test_injected_failure_detected(self, tmp_path, capsys, monkeypatch):
        checks = cli._identity_checks()
        name, value, bound = checks[1]
        checks[1] = (name, value + 1e-6, bound)
        monkeypatch.setattr(cli, "_identity_checks", lambda: checks)
        code = main(["identity-suite", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        report = _read_json(tmp_path / "identity_report.json")
        assert report["pass"] is False

    def test_normalization_fails_for_a_scaled_density(self, tmp_path, capsys, monkeypatch):
        density = cli.log_residual_density
        monkeypatch.setattr(cli, "log_residual_density", lambda r, x: density(r, x) * (1.0 + 1e-7))
        code = main(["identity-suite", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 1
        report = _read_json(tmp_path / "identity_report.json")
        failed = [row["check"] for row in report["checks"] if not row["pass"]]
        assert failed == ["conditional-density-normalization"]

    def test_output_dir_under_a_file_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["identity-suite", "--output-dir", str(blocker / "sub")])
        err = _stdout_json(capsys)
        assert code == 3
        assert err["error"]["type"] == "NotADirectoryError"


class TestDensityConvergence:
    def test_runs_and_reports(self, tmp_path, capsys):
        code = main(
            [
                "density-convergence",
                "--r", "5", "10", "20", "40",
                "--grid-step", "0.01",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = _stdout_json(capsys)
        sups = report["sup_distance"]
        assert report["strictly_decreasing_in_r"] is True
        assert sups["40"] < sups["20"] < sups["10"] < sups["5"]
        with open(tmp_path / "density_r20.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "exact", "limit", "abs_error"]
        assert len(rows) == 602

    def test_json_curve_format(self, tmp_path, capsys):
        code = main(
            [
                "density-convergence",
                "--r", "10",
                "--grid-step", "0.1",
                "--format", "json",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        curve = _read_json(tmp_path / "density_r10.json")
        assert set(curve) == {"x", "exact", "limit", "abs_error"}
        assert len(curve["x"]) == len(curve["exact"]) == 61

    def test_repeated_threshold_counts_once(self, tmp_path, capsys, monkeypatch):
        stems = _spy_curve_stems(monkeypatch)
        code = main(["density-convergence", "--r", "20", "40", "40", "--grid-step", "0.01", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["strictly_decreasing_in_r"] is True
        assert list(report["sup_distance"]) == ["20", "40"]
        assert stems == ["density_r20", "density_r40"]

    def test_large_thresholds_converge(self, tmp_path, capsys):
        # the true distance shrinks like ~1/r^2; from r = 1e8 on the sups are
        # roundoff (~1e-15), which need not decrease
        code = main(["density-convergence", "--r", "1e3", "1e5", "1e6", "1e7", "1e8", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["strictly_decreasing_in_r"] is True
        code = main(["density-convergence", "--r", "1e8", "1e9", "1e10", "1e12", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert max(report["sup_distance"].values()) <= 1e-13
        # the recentering never rounds ln r: the sup is roundoff, the true one ~1/r^2
        assert main(["density-convergence", "--r", "2e154", "--output-dir", str(tmp_path)]) == 0
        assert _stdout_json(capsys)["sup_distance"]["2e+154"] <= 1e-15

    def test_missing_r_is_usage_error(self, tmp_path):
        assert main(["density-convergence", "--output-dir", str(tmp_path)]) == 2

    def test_nonpositive_r_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["density-convergence", "--r", "-3", "--output-dir", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_nonfinite_r_is_usage_error(self, tmp_path, capsys, r):
        code = main(["density-convergence", "--r", "10", r, "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)
        assert code == 2
        assert "--r" in err["error"]["message"]

    def test_grid_point_cap_is_usage_error(self, tmp_path, capsys):
        # 6e12 points: refused before anything is allocated
        code = main(["density-convergence", "--r", "10", "--grid-step", "1e-12", "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)
        assert code == 2
        assert "--grid-step" in err["error"]["message"]
        assert not list(tmp_path.iterdir())

    def test_nonfinite_grid_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "density-convergence",
                "--r", "10",
                "--grid-min", "nan",
                "--output-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 2


class TestEvtCommand:
    def test_deterministic_curves(self, tmp_path, capsys):
        code = main(
            [
                "evt",
                "--n", "1000", "1000000", "1000000000",
                "--grid-step", "0.1",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = _stdout_json(capsys)
        assert report["strictly_decreasing_in_n"] is True
        assert (tmp_path / "exceedance_n1000.csv").exists()
        assert (tmp_path / "maxcdf_n1000000000.csv").exists()
        assert float(report["normalizers"]["1000000"]["center"]) == pytest.approx(
            4.7534243088229, rel=1e-12
        )

    def test_repeated_block_size_counts_once(self, tmp_path, capsys, monkeypatch):
        stems = _spy_curve_stems(monkeypatch)
        code = main(["evt", "--n", "1000", "1000", "--grid-step", "0.1", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["strictly_decreasing_in_n"] is True
        assert list(report["max_cdf_sup_distance"]) == ["1000"]
        assert stems == ["exceedance_n1000", "maxcdf_n1000"]

    def test_monte_carlo_block(self, tmp_path, capsys):
        code = main(
            [
                "evt",
                "--n", "1000",
                "--grid-step", "0.25",
                "--replicas", "400",
                "--mc-n", "64",
                "--output-dir", str(tmp_path),
            ]
        )
        report = _stdout_json(capsys)
        assert code == 0
        assert report["monte_carlo"]["pass"] is True

    def test_workers_is_not_an_evt_flag(self, tmp_path, capsys):
        code = main(["evt", "--n", "1000", "--workers", "2", "--output-dir", str(tmp_path / "out")])
        err = _stdout_json(capsys)["error"]
        assert code == 2
        assert err["type"] == "UsageError"
        assert "--workers" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_unallocatable_block_is_runtime_error(self, tmp_path, capsys):
        # 2e15 bytes of Philox words: more than the address space, so the
        # allocation is refused before any memory is touched
        code = main(["evt", "--n", "1000", "--replicas", "1", "--mc-n", "1000000000000000", "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert _strict(captured.out)["error"]["type"] == "MemoryError"

    def test_small_n_usage_error(self, tmp_path, capsys):
        code = main(["evt", "--n", "2", "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)
        assert code == 2
        assert err["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_curve_is_runtime_error_in_either_format(self, tmp_path, capsys, fmt):
        # exceedance counts n*tail(x/b + b) overflow to inf far left of the grid
        code = main(
            ["evt", "--n", "1000", "--grid-min", "-800", "--grid-step", "1", "--format", fmt,
             "--output-dir", str(tmp_path)]
        )
        err = _stdout_json(capsys)
        assert code == 3
        assert err["error"]["type"] == "NonFiniteResult"
        assert not list(tmp_path.iterdir())


class TestResidualCommand:
    def test_gaussian(self, tmp_path, capsys):
        code = main(
            [
                "residual",
                "--r", "10", "30",
                "--grid-step", "0.1",
                "--output-dir", str(tmp_path),
            ]
        )
        report = _stdout_json(capsys)
        assert code == 0
        assert report["exponential_fixed_point_ok"] is True
        assert report["shifted_cdf_sup_distance"]["30"] < report["shifted_cdf_sup_distance"]["10"]
        assert (tmp_path / "residual_scaled_gaussian_r10.csv").exists()
        assert (tmp_path / "residual_shifted_gaussian_r30.csv").exists()

    def test_exponential_exact(self, tmp_path, capsys):
        code = main(
            [
                "residual",
                "--model", "exponential",
                "--r", "5",
                "--grid-step", "0.25",
                "--output-dir", str(tmp_path),
            ]
        )
        report = _stdout_json(capsys)
        assert code == 0
        assert report["shifted_cdf_sup_distance"]["5"] <= 1e-13

    def test_exponential_roundoff_counts_as_converged(self, tmp_path, capsys):
        # the README form: sups at r = 10 and 30 are roundoff (~1e-15) and
        # need not decrease
        code = main(["residual", "--model", "exponential", "--r", "10", "30", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["strictly_decreasing_in_r"] is True
        assert max(report["shifted_cdf_sup_distance"].values()) <= 1e-13

    def test_nondecreasing_sups_above_tolerance_fail(self, tmp_path, capsys, monkeypatch):
        # the Gaussian sups decrease in r, so both thresholds get the r = 20 curve
        at_20 = cli.shifted_log_residual_cdf
        monkeypatch.setattr(cli, "shifted_log_residual_cdf", lambda model, r, x: at_20(model, 20.0, x))
        code = main(["residual", "--r", "20", "40", "--grid-step", "0.1", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 1
        assert report["strictly_decreasing_in_r"] is False
        assert report["shifted_cdf_sup_distance"]["40"] == report["shifted_cdf_sup_distance"]["20"] > 1e-13

    def test_repeated_threshold_counts_once(self, tmp_path, capsys, monkeypatch):
        stems = _spy_curve_stems(monkeypatch)
        code = main(["residual", "--r", "20", "20", "--grid-step", "0.1", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["strictly_decreasing_in_r"] is True
        assert list(report["shifted_cdf_sup_distance"]) == ["20"]
        assert stems == ["residual_scaled_gaussian_r20", "residual_shifted_gaussian_r20"]


    def test_overflowing_r_is_runtime_error_never_nan(self, tmp_path, capsys):
        # r*r overflows at r = 1e300, but the tail ratio never squares r and
        # the recentering never rounds ln a(r): roundoff sups, no NaN token
        code = main(["residual", "--r", "1e300", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        report = _strict(out)
        assert code == 0
        assert "NaN" not in out
        sups = [*report["scaled_sup_distance"].values(), *report["shifted_cdf_sup_distance"].values()]
        assert all(math.isfinite(s) and s <= 1e-15 for s in sups)

    @pytest.mark.parametrize("model, r", [("gaussian", "1e9"), ("exponential", "1e17")])
    def test_large_threshold_keeps_full_precision(self, tmp_path, capsys, model, r):
        # r + x would round to r here; the tail ratio takes x apart from r
        code = main(["residual", "--model", model, "--r", r, "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["scaled_sup_distance"][f"{float(r):g}"] <= 1e-13
        if model == "exponential":
            assert report["shifted_cdf_sup_distance"][f"{float(r):g}"] == 0.0

    def test_subnormal_r_is_typed_runtime_error(self, tmp_path, capsys):
        # a(r) = 1/r overflows to inf at r = 1e-320: named, not "math domain error"
        code = main(["residual", "--r", "1e-320", "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        err = _strict(captured.out)["error"]
        assert code == 3
        assert err["type"] == "NonFiniteResult"
        assert "1e-320" in err["message"] and "1/r" in err["message"]
        assert captured.err == ""
        assert not list(tmp_path.glob("residual_*"))


def _curve_columns(path):
    """The x, exact, limit and abs_error columns of a curve CSV, parsed."""
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["x", "exact", "limit", "abs_error"]
    return [np.array([float(cell) for cell in column]) for column in zip(*rows[1:])]


def _assert_curve(path, exact_at, limit):
    """Every cell of the curve file at `path` equals, bit for bit, the scalar
    function `exact_at` at that x, the limit column `limit(xs)` and their
    absolute difference."""
    xs, exact, lim, err = _curve_columns(path)
    want = np.array([exact_at(float(x)) for x in xs])
    want_limit = limit(xs)
    for got, expected in ((exact, want), (lim, want_limit), (err, np.abs(want - want_limit))):
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _scalar_limit(fn):
    return lambda xs: np.array([fn(float(x)) for x in xs])


class TestCurveContract:
    """Each curve a command writes equals the scalar functions at its grid
    points, cell by cell, bit for bit."""

    def test_density(self, tmp_path, capsys):
        argv = ["density-convergence", "--r", "2", "8", "40", "--grid-min", "-360", "--grid-max", "40"]
        assert main([*argv, "--grid-step", "0.25", "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        for r in (2.0, 8.0, 40.0):
            _assert_curve(
                tmp_path / f"density_r{r:g}.csv",
                lambda x: shifted_log_residual_density(r, x),
                _scalar_limit(gumbel_density),
            )

    @pytest.mark.parametrize("model", [gaussian_tail_model(), exponential_tail_model()])
    def test_residual(self, tmp_path, capsys, model):
        argv = ["residual", "--model", model.name, "--r", "3", "8", "30", "--grid-min", "-710", "--grid-max", "40"]
        main([*argv, "--grid-step", "0.25", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        for r in (3.0, 8.0, 30.0):
            _assert_curve(
                tmp_path / f"residual_scaled_{model.name}_r{r:g}.csv",
                lambda x: scaled_residual(model, r, x),
                lambda xs: np.exp(-xs),
            )
            _assert_curve(
                tmp_path / f"residual_shifted_{model.name}_r{r:g}.csv",
                lambda x: shifted_log_residual_cdf(model, r, x),
                _scalar_limit(gumbel_cdf),
            )

    @pytest.mark.parametrize(
        "subcommand, stems",
        [
            ("density-convergence", ["density_r{}"]),
            ("residual", ["residual_scaled_gaussian_r{}", "residual_shifted_gaussian_r{}"]),
        ],
        ids=["density-convergence", "residual"],
    )
    def test_fractional_thresholds_keep_their_own_files(self, tmp_path, capsys, subcommand, stems):
        main([subcommand, "--r", "0.5", "0.7", "--grid-step", "0.1", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        for stem in stems:
            half, seven = ((tmp_path / f"{stem.format(r)}.csv").read_bytes() for r in ("0.5", "0.7"))
            assert half != seven
            assert not (tmp_path / f"{stem.format(0)}.csv").exists()

    @pytest.mark.parametrize("subcommand", ["density-convergence", "residual"])
    def test_thresholds_that_print_alike_are_a_usage_error(self, tmp_path, capsys, subcommand):
        # both would be named r1: one curve file and one report key for two thresholds
        out = tmp_path / "out"
        argv = [subcommand, "--r", "5", "1.0000001", "1.0000002", "--grid-step", "0.1", "--output-dir", str(out)]
        assert main(argv) == 2
        err = _stdout_json(capsys)["error"]
        assert err["type"] == "UsageError"
        assert err["message"].startswith("argument --r:")
        assert "1.0000001 and 1.0000002" in err["message"]
        assert not out.exists()

    def test_evt(self, tmp_path, capsys):
        argv = ["evt", "--n", "3", "1000", "1000000000", "--grid-min", "-30", "--grid-max", "700"]
        assert main([*argv, "--grid-step", "0.5", "--output-dir", str(tmp_path)]) == 0
        report = _stdout_json(capsys)
        model = gaussian_tail_model()
        for n in (3, 1000, 10**9):
            seq = solve_normalizers(model, n)
            assert report["normalizers"][str(n)] == {"scale": seq.scale, "center": seq.center}
            _assert_curve(
                tmp_path / f"exceedance_n{n}.csv", lambda x: gnedenko_lhs(model, seq, x), lambda xs: np.exp(-xs)
            )
            _assert_curve(tmp_path / f"maxcdf_n{n}.csv", lambda x: max_cdf(model, seq, x), _scalar_limit(gumbel_cdf))


def _fake_exits(problem, n, stream, budget, workers):
    """Stands in for `sample_conditioned_exits`: n made-up right exits, no sampling."""
    return ConditionedSample(problem, records=tuple((i, 5000 + i) for i in range(n)), attempts=n)


class TestExitExperiment:
    def test_small_run_and_repeatability(self, tmp_path, capsys):
        args = [
            "exit-experiment",
            "--n", "150",
            "--ks-threshold", "0.2",  # 150 samples carry ~0.11 of KS noise
            "--workers", "1",
            "--seed", "7",
            "--output-dir", str(tmp_path),
        ]
        code = main(args)
        report = _stdout_json(capsys)
        assert code == 0
        assert report["accepted"] == 150
        assert report["pass"] is True
        first_bytes = (tmp_path / "exit_samples.csv").read_bytes()
        rows = list(csv.reader((tmp_path / "exit_samples.csv").read_text().splitlines()))
        assert rows[0] == ["attempt_index", "tau", "side", "normalized_time"]
        assert all(r[2] == "right" for r in rows[1:])

        code = main(args)
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "exit_samples.csv").read_bytes() == first_bytes

    def test_sample_file_is_pinned(self, tmp_path, capsys):
        # SHA-256 of exit_samples.csv from this invocation; it may change only
        # with a deliberate change of the kernel's draws or of the file format
        argv = ["exit-experiment", "--n", "300", "--seed", "11", "--workers", "1", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "exit_samples.csv").read_bytes()).hexdigest()
        assert digest == "d1de9efaec4d8a5336f89d0cf705b3432c6c93f17fd253b250e2b3e09a5edcb3"

    def test_rate_flag_takes_the_grid_monitored_rate(self, tmp_path, capsys, monkeypatch):
        # seed 2's counts from the real sampler at --epsilon 0.5 --n 30000: the
        # rate 0.076395 is 5.25 se below the epsilon -> 0 limit and 1.01 se
        # below the rate at epsilon 0.5 with exits watched on the step grid
        def exits(problem, n, stream, budget, workers):
            return ConditionedSample(problem, records=tuple((i, 5000 + i) for i in range(n)), attempts=392_697)

        monkeypatch.setattr(cli, "sample_conditioned_exits", exits)
        main(["exit-experiment", "--epsilon", "0.5", "--n", "30000", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert report["acceptance_rate"] == 30_000 / 392_697
        problem = ExitProblem(beta=1.0, epsilon=0.5, a=1.0, step=1e-3)
        assert report["monitored_acceptance_rate"] == monitored_right_exit_probability(problem)
        assert report["acceptance_rate_within_3se"] is True

    def test_worker_count_changes_no_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool even on one core
        monkeypatch.setattr(exitsim, "_POOL_BREAK_EVEN_S", 0.0)  # and at any size
        reports = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            argv = ["exit-experiment", "--n", "20", "--ks-threshold", "1.0", "--workers", str(workers)]
            assert main([*argv, "--output-dir", str(out)]) == 0
            reports[workers] = _stdout_json(capsys)
            assert reports[workers]["config"].pop("workers") == workers
            assert reports[workers].pop("workers_used") == workers
            assert reports[workers]["config"].pop("output_dir") == str(out)
            assert reports[workers].pop("samples_file") == str(out / "exit_samples.csv")
        assert reports[1] == reports[2]
        assert (tmp_path / "w1" / "exit_samples.csv").read_bytes() == (tmp_path / "w2" / "exit_samples.csv").read_bytes()

    def test_ks_threshold_failure_is_exit_one(self, tmp_path, capsys):
        code = main(
            [
                "exit-experiment",
                "--n", "100",
                "--ks-threshold", "0.001",  # unreachable at this sample size
                "--workers", "1",
                "--output-dir", str(tmp_path),
            ]
        )
        report = _stdout_json(capsys)
        assert code == 1
        assert report["pass"] is False

    @pytest.mark.parametrize("seed", ["11", "4711"])
    def test_default_ks_threshold_passes_a_healthy_small_run(self, tmp_path, capsys, seed):
        # KS 0.0476 (seed 11) and 0.0415 (seed 4711) at --n 500, below the 5%
        # value 1.36/sqrt(500) = 0.061; a fixed default of 0.03 failed both
        code = main(["exit-experiment", "--n", "500", "--workers", "1", "--seed", seed, "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["config"]["ks_threshold"] is None
        assert report["ks_threshold"] == 3.0 / math.sqrt(500)

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_ks_takes_the_step_lattice(self, tmp_path, capsys, seed):
        # beta*h = 0.2 puts the normalized times on a lattice a fifth of the
        # law's scale 1/beta apart. Against the continuous form of the KS
        # statistic this sample reads 0.094, 0.084 and 0.084 (seeds 1-3), above
        # the default 3/sqrt(n) = 0.067; against the lattice's left limits,
        # 0.019, 0.016 and 0.007. A kernel off by one step reads above the 1%
        # point either way.
        argv = ["exit-experiment", "--beta", "20", "--a", "0.2", "--step", "1e-2", "--n", "2000"]
        code = main([*argv, "--workers", "1", "--seed", seed, "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert code == 0
        assert report["ks_statistic"] <= ks_one_sample_critical(2000)

    def test_default_ks_threshold_is_the_a1_gate_at_1e4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sample_conditioned_exits", _fake_exits)
        main(["exit-experiment", "--n", "10000", "--output-dir", str(tmp_path)])
        report = _stdout_json(capsys)
        assert report["config"]["ks_threshold"] is None
        assert report["ks_threshold"] == 0.03

    def test_budget_exceeded_is_runtime_error(self, tmp_path, capsys):
        code = main(
            [
                "exit-experiment",
                "--a", "4.25",
                "--epsilon", "0.0001",
                "--n", "10",
                "--output-dir", str(tmp_path),
            ]
        )
        err = _stdout_json(capsys)
        assert code == 3
        assert err["error"]["type"] == "BudgetExceeded"
        assert "limit_law" in err["error"]["message"]

    @pytest.mark.parametrize(
        "flags, steps",
        [
            (["--beta", "1e-12"], "4.46e+16"),
            (["--beta", "1e-300"], "4.46e+304"),
            (["--beta", "5e-324"], "inf"),
            (["--step", "1e-9"], "4.46e+10"),
        ],
    )
    def test_untabulable_guard_horizon_is_usage_error(self, tmp_path, capsys, flags, steps):
        # (ln(1/epsilon) + 40)/beta spans more fine steps than the kernel's
        # tables may hold; refused before any sampling
        code = main(["exit-experiment", "--n", "5", "--ks-threshold", "1", *flags, "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)["error"]
        assert code == 2
        assert err["type"] == "UsageError"
        assert "--beta" in err["message"] and "--step" in err["message"]
        assert f" {steps} steps" in err["message"]
        assert not err["message"].startswith("--epsilon")
        assert not (tmp_path / "exit_samples.csv").exists()

    @pytest.mark.parametrize("beta", ["3.6e5", "1e6"])
    def test_overflowing_beta_step_is_usage_error(self, tmp_path, capsys, beta):
        # beta*step = 360 and 1000: e^(2*beta*step) overflows a double past
        # ~354.9; refused before any sampling, naming the flags that set it
        code = main(["exit-experiment", "--beta", beta, "--a", "1e-3", "--n", "5", "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)["error"]
        assert code == 2
        assert err["type"] == "UsageError"
        assert "--beta" in err["message"] and "--step" in err["message"]
        assert not err["message"].startswith("--epsilon")
        assert not (tmp_path / "exit_samples.csv").exists()

    def test_beta_step_below_the_bound_runs(self, tmp_path, capsys):
        argv = ["exit-experiment", "--beta", "3.5e5", "--a", "1e-3", "--n", "5", "--ks-threshold", "1"]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
        assert _stdout_json(capsys)["accepted"] == 5

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EXITGUMBEL_SEED", "777")
        code = main(
            [
                "exit-experiment",
                "--n", "5",
                "--ks-threshold", "1.0",
                "--workers", "1",
                "--output-dir", str(tmp_path),
            ]
        )
        report = _stdout_json(capsys)
        assert code == 0
        assert report["config"]["seed"] == 777


# Small arguments per subcommand: (passing run, extra arguments that make
# the same run fail its check).
REPORT_CASES = {
    "exit-experiment": (["--n", "20", "--ks-threshold", "1.0", "--workers", "1"], ["--ks-threshold", "0"]),
    "density-convergence": (["--r", "5", "10", "--grid-step", "0.1"], ["--tolerance", "0"]),
    "evt": (["--n", "1000", "1000000", "--grid-step", "0.25"], ["--replicas", "50", "--mc-n", "64", "--mc-ks-threshold", "0"]),
    "residual": (["--r", "10", "30", "--grid-step", "0.25"], ["--tolerance", "0"]),
    "identity-suite": ([], None),
}


class TestReportPath:
    @pytest.mark.parametrize("passing", [True, False], ids=["pass", "fail"])
    @pytest.mark.parametrize("subcommand", sorted(REPORT_CASES))
    def test_report_written_and_exit_code_follows_pass(self, tmp_path, capsys, monkeypatch, subcommand, passing):
        args, failing = REPORT_CASES[subcommand]
        if not passing and failing is None:
            monkeypatch.setattr(cli, "_identity_checks", lambda: [("forced-failure", 1.0, 0.5)])
        elif not passing:
            args = args + failing
        code = main([subcommand, *args, "--output-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        report = _read_json(tmp_path / "out" / f"{subcommand.split('-')[0]}_report.json")
        assert report["config"]["version"] == cli.__version__
        assert report["config"]["subcommand"] == subcommand
        assert report["pass"] is passing
        assert code == (0 if passing else 1)
        if subcommand == "identity-suite":
            assert out.splitlines()[-1] == f"identity suite: {'PASS' if passing else 'FAIL'}"
        else:
            assert _strict(out) == report

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["density-convergence", "--r", "10", "--tolerance", "nan"], "--tolerance"),
            (["residual", "--r", "10", "--tolerance", "-0.1"], "--tolerance"),
            (["exit-experiment", "--n", "5", "--ks-threshold", "nan"], "--ks-threshold"),
            (["evt", "--n", "1000", "--replicas", "20", "--mc-ks-threshold", "nan"], "--mc-ks-threshold"),
            (["evt", "--n", "1000", "--replicas", "-5"], "--replicas"),
        ],
    )
    def test_bad_bound_flags_are_usage_errors(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "--output-dir", str(tmp_path / "out")])
        err = _stdout_json(capsys)
        assert code == 2
        assert flag in err["error"]["message"]
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["no-such-command"]) == 2

    def test_version_flag(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exitgumbel" in out


class TestResidualGrid:
    def test_grid_without_nonnegative_point_is_usage_error(self, tmp_path, capsys):
        # the exp(-x) limit of the scaled residual holds only for x >= 0
        code = main(
            ["residual", "--r", "5", "--grid-min", "-5", "--grid-max", "-1", "--grid-step", "0.5",
             "--output-dir", str(tmp_path)]
        )
        err = _stdout_json(capsys)
        assert code == 2
        assert "--grid-max" in err["error"]["message"]
        assert not list(tmp_path.iterdir())


SUBCOMMANDS = ("exit-experiment", "density-convergence", "evt", "residual", "identity-suite")
# Arguments each subcommand needs besides the flag under test.
REQUIRED = {"density-convergence": ["--r", "10"], "evt": ["--n", "1000"], "residual": ["--r", "10"]}


def _number(cast, ok):
    def in_range(text):
        try:
            return ok(cast(text))
        except ValueError:
            return False

    return in_range


_FINITE = _number(float, math.isfinite)
_POSITIVE = _number(float, lambda v: v > 0.0 and math.isfinite(v))
_NONNEGATIVE = _number(float, lambda v: v >= 0.0 and math.isfinite(v))


def _int_at_least(k):
    return _number(int, lambda v: v >= k)


_GRID = [("--grid-min", _FINITE), ("--grid-max", _FINITE), ("--grid-step", _POSITIVE)]
# (subcommand, flag, whether a value is in range): every range-checked flag.
RANGED_FLAGS = [
    ("exit-experiment", "--beta", _POSITIVE),
    ("exit-experiment", "--epsilon", _POSITIVE),
    ("exit-experiment", "--a", _POSITIVE),
    ("exit-experiment", "--n", _int_at_least(1)),
    ("exit-experiment", "--step", _number(float, lambda v: 0.0 < v <= 1e-2)),
    ("exit-experiment", "--ks-threshold", _NONNEGATIVE),
    ("exit-experiment", "--budget", _int_at_least(1)),
    ("density-convergence", "--r", _POSITIVE),
    ("density-convergence", "--tolerance", _NONNEGATIVE),
    *[("density-convergence", flag, rule) for flag, rule in _GRID],
    ("evt", "--n", _int_at_least(3)),
    ("evt", "--replicas", _int_at_least(0)),
    ("evt", "--mc-n", _int_at_least(3)),
    ("evt", "--mc-ks-threshold", _NONNEGATIVE),
    *[("evt", flag, rule) for flag, rule in _GRID],
    ("residual", "--r", _POSITIVE),
    ("residual", "--tolerance", _NONNEGATIVE),
    *[("residual", flag, rule) for flag, rule in _GRID],
    *[(sub, "--seed", _number(int, lambda v: 0 <= v < 2**64)) for sub in SUBCOMMANDS],
]
EDGE_VALUES = ["0", "1", "-1", "1e300", "-1e300", "inf", "-inf", "nan", "x", str(2**64)]


def _stub_commands(monkeypatch):
    """Replace every command by one that does no work and passes."""
    for name in ("cmd_exit_experiment", "cmd_density_convergence", "cmd_evt", "cmd_residual", "cmd_identity_suite"):
        monkeypatch.setattr(cli, name, lambda args: {"pass": True, "checks": []})
    monkeypatch.setattr(cli, "_print_checks", lambda report: None)


class TestInputGate:
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(RANGED_FLAGS), value=st.sampled_from(EDGE_VALUES))
    def test_each_flag_range_is_checked_before_any_work(self, monkeypatch, capsys, case, value):
        subcommand, flag, in_range = case
        _stub_commands(monkeypatch)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = main([subcommand, *REQUIRED.get(subcommand, []), f"{flag}={value}", "--output-dir", str(out)])
            assert out.exists() == in_range(value)
        text = capsys.readouterr().out
        if in_range(value):
            assert code == 0
        else:
            assert code == 2
            err = _strict(text)["error"]
            assert err["type"] == "UsageError"
            assert f"argument {flag}:" in err["message"]

    @pytest.mark.parametrize("subcommand", ["exit-experiment"])
    def test_workers_clamped_to_cpu_count(self, tmp_path, capsys, monkeypatch, subcommand):
        seen = []

        def fake_exits(problem, n, stream, budget, workers):
            seen.append(workers)
            return _fake_exits(problem, n, stream, budget, workers)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "sample_conditioned_exits", fake_exits)
        base = [subcommand, "--n", "4", "--ks-threshold", "1.0", "--output-dir", str(tmp_path)]
        for requested, used in (("64", 3), ("2", 2), ("0", 1), ("-5", 1)):
            assert main(base + ["--workers", requested]) == 0
            assert _stdout_json(capsys)["config"]["workers"] == used
        assert main(base) == 0  # the default is the CPU count
        assert _stdout_json(capsys)["config"]["workers"] == 3
        assert seen == [3, 2, 1, 1, 3]

    def test_no_numeric_flag_is_unchecked(self):
        # a bare int/float type would accept any value; --workers is clamped
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if "--workers" not in action.option_strings:
                    assert action.type not in (int, float), (name, action.option_strings)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evt", "--n", "1000", "--replicas", "10", "--mc-n", "1"], "--mc-n"),
            (["exit-experiment", "--n", "0"], "--n"),
        ],
    )
    def test_range_errors_leave_nothing(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "--output-dir", str(tmp_path / "out")])
        err = _stdout_json(capsys)
        assert code == 2
        assert f"argument {flag}:" in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["exit-experiment", "identity-suite"])
    def test_format_belongs_to_curve_commands(self, tmp_path, capsys, subcommand):
        code = main([subcommand, "--format", "json", "--output-dir", str(tmp_path / "out")])
        err = _stdout_json(capsys)
        assert code == 2
        assert "--format" in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_start_outside_domain_is_usage_error(self, tmp_path, capsys):
        code = main(["exit-experiment", "--epsilon", "0.5", "--a", "3", "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)
        assert code == 2
        assert "--epsilon" in err["error"]["message"]
        assert not list(tmp_path.iterdir())

    def test_value_error_inside_a_command_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "cmd_identity_suite", broken)
        code = main(["identity-suite", "--output-dir", str(tmp_path)])
        err = _stdout_json(capsys)
        assert code == 3
        assert err["error"] == {"type": "ValueError", "message": "internal fault"}

    def test_bad_env_seed_is_usage_error_unless_seed_given(self, tmp_path, capsys, monkeypatch):
        _stub_commands(monkeypatch)
        monkeypatch.setenv("EXITGUMBEL_SEED", "-3")
        code = main(["identity-suite", "--output-dir", str(tmp_path / "a")])
        err = _stdout_json(capsys)
        assert code == 2
        assert "EXITGUMBEL_SEED" in err["error"]["message"]
        assert not (tmp_path / "a").exists()
        assert main(["identity-suite", "--seed", "5", "--output-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert _read_json(tmp_path / "b" / "identity_report.json")["config"]["seed"] == 5

    @pytest.mark.parametrize("argv", [["density-convergence"], ["no-such-command"], ["residual", "--r", "1", "--model", "x"]])
    def test_parse_errors_are_json_on_stdout(self, tmp_path, capsys, argv):
        code = main([*argv, "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert _strict(captured.out)["error"]["type"] == "UsageError"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, report",
    [
        (["density-convergence", "--r", "0.5", "0.7", "--grid-step", "0.1"], "density_report.json"),
        (["identity-suite"], "identity_report.json"),
        (["--help"], None),  # argparse drops a failed write of its own text
        (["--version"], None),
        (["evt", "--help"], None),
    ],
    ids=["density-convergence", "identity-suite", "help", "version", "evt-help"],
)
def test_closed_stdout_is_runtime_error_without_traceback(tmp_path, argv, report, unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout fails, whether on print or on the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**_child_env(), "PYTHONUNBUFFERED": unbuffered}  # empty: block-buffered, as for any pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "exitgumbel.cli", *argv, "--output-dir", str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b""
    assert report is None or (tmp_path / report).exists()


def _child_env() -> dict:
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_loads_no_pool():
    # exitsim imports concurrent.futures only when a pool starts
    code = "import sys, exitgumbel.cli; print(*sys.modules, sep='\\n')"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env(), timeout=120, check=True)
    loaded = set(proc.stdout.decode().split())
    assert "exitgumbel.cli" in loaded
    assert not loaded & {"concurrent.futures", "concurrent.futures.process", "concurrent.futures.thread", "multiprocessing"}


def test_short_exit_run_loads_no_pool():
    # block 0 alone holds the 20 right exits, so the run never projects
    # enough work for a pool
    code = (
        "import json, os, sys, tempfile\n"
        "os.cpu_count = lambda: 2\n"
        "from exitgumbel.cli import main\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    argv = ['exit-experiment', '--n', '20', '--ks-threshold', '1', '--workers', '2', '--output-dir', out]\n"
        "    assert main(argv) == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env(), timeout=120, check=True)
    *report, loaded = proc.stdout.decode().splitlines()
    report = _strict("\n".join(report))
    assert report["config"]["workers"] == 2
    assert report["workers_used"] == 1
    assert not set(json.loads(loaded)) & {"concurrent.futures", "concurrent.futures.process", "multiprocessing"}


def _after_import(preset=None):
    """OPENBLAS_NUM_THREADS and the thread count (None without /proc) of a
    fresh process after `import exitgumbel`, started with the variable unset
    or set to `preset`."""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import json, os, pathlib, exitgumbel\n"
        "status = pathlib.Path('/proc/self/status')\n"
        "lines = status.read_text().splitlines() if status.exists() else []\n"
        "threads = [int(line.split()[1]) for line in lines if line.startswith('Threads:')]\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads[0] if threads else None]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_import_pins_openblas_to_one_thread():
    assert _after_import()[0] == "1"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="thread count needs /proc")
def test_import_starts_no_blas_threads():
    assert _after_import()[1] == 1


def test_import_keeps_a_preset_openblas_thread_count():
    assert _after_import("2")[0] == "2"


_BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg"}


def test_package_calls_no_blas():
    """The OpenBLAS pin in `exitgumbel/__init__.py` assumes the package calls
    no BLAS or LAPACK routine: no `@`, and no numpy dot, matmul, einsum,
    inner, tensordot, vdot or linalg. Code that needs one (the planned
    `np.linalg.eigh` of the finite-epsilon reference, say) must re-time
    itself under the pin and then edit this test knowingly."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for alias in node.names for part in alias.name.split(".")}
                names.update((getattr(node, "module", None) or "").split("."))
                found.extend((path.name, node.lineno, name) for name in sorted(names & _BLAS_NAMES))
    assert not found
