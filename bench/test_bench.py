"""Smoke test of the benchmark: every workload runs at tiny sizes and emits
every metric with its unit, and the output checks catch corrupted outputs.

    python3 -m pytest bench -q
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    summary, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert summary["failed"] == result["failed"] == summary["known_defects"]

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])

    env = summary["environment"]
    for key in ("python", "numpy", "nproc", "os_cpu_count", "cpu_model", "commit", "seed", "workers"):
        assert key in env
    assert summary["fail_ratio"]["unit"] == "1"
    if trace:
        assert summary["outputs_identical_to_untraced"] is True
        assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
        return
    named = wl.WORK_UNIT[workload][1]
    assert summary[named]["unit"] == "1/s"
    assert summary[named]["median"] == result["metrics"]["work_per_s"]["value"]
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        assert summary[key]["runs"] >= 1
    if workload == "exit-pool":
        assert set(summary["derived"]) == {"pool_wall_speedup", "pool_cpu_ratio"}


@pytest.fixture(scope="module")
def exit_output(tmp_path_factory):
    """A real exit-experiment output at smoke size, made in-process."""
    from exitgumbel import cli

    outdir = tmp_path_factory.mktemp("exit")
    inv = wl.exit_invocation(seed=5, workers=1, smoke=True)
    code = cli.main([*inv.argv, "--output-dir", str(outdir)])
    report = (outdir / inv.report).read_text()
    return inv, code, report, outdir


def _corrupt(tmp_path, exit_output, edit):
    """Copy the good output, let `edit(dir)` corrupt it, return the stdout."""
    inv, code, report, outdir = exit_output
    for path in outdir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    return edit(tmp_path) or report


def test_good_output_passes(exit_output):
    inv, code, report, outdir = exit_output
    outcome = wl.check(inv, code, report, outdir)
    assert outcome.ok, outcome.problems
    assert outcome.work == wl.SIZES[True]["exit_n"]


def _nan_report(d):
    path = d / "exit_report.json"
    text = path.read_text()
    path.write_text(text.replace('"ks_statistic": ', '"ks_statistic": NaN, "was": '))


def _failed_report(d):
    path = d / "exit_report.json"
    path.write_text(path.read_text().replace('"pass": true', '"pass": false'))


def _short_csv(d):
    path = d / "exit_samples.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize(
    "edit, code, needle",
    [
        (lambda d: None, 3, "exit code 3"),
        (lambda d: '{"x": Infinity}', 0, "stdout is not strict JSON"),
        (_nan_report, 0, "report is not strict JSON"),
        (_failed_report, 0, "report pass is not true"),
        (lambda d: (d / "exit_samples.csv").unlink(), 0, "missing output exit_samples.csv"),
        (lambda d: (d / "exit_report.json").unlink(), 0, "missing report"),
        (_short_csv, 0, "exit_samples.csv has"),
    ],
)
def test_checks_fail_corrupted_output(tmp_path, exit_output, edit, code, needle):
    stdout = _corrupt(tmp_path, exit_output, edit)
    outcome = wl.check(exit_output[0], code, stdout, tmp_path)
    assert not outcome.ok
    assert not outcome.known_defect
    assert any(needle in p for p in outcome.problems), outcome.problems


def test_serial_and_pool_samples_must_match(tmp_path, exit_output):
    outdir = exit_output[3]

    def flip(d):
        path = d / "exit_samples.csv"
        data = bytearray(path.read_bytes())
        data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
        path.write_bytes(bytes(data))

    _corrupt(tmp_path, exit_output, flip)
    assert wl.same_bytes(outdir, outdir, ["exit_samples.csv"]) == []
    assert wl.same_bytes(outdir, tmp_path, ["exit_samples.csv"])


def test_known_defect_is_recognised_only_at_roundoff():
    inv = wl.invocations("curves", 5, smoke=True)[2]
    assert inv.name == "residual-exponential"
    report = {
        "pass": False,
        "strictly_decreasing_in_r": False,
        "exponential_fixed_point_ok": True,
        "scaled_sup_distance": {"10": 8.9e-16, "30": 1.8e-15},
        "shifted_cdf_sup_distance": {"10": 8.9e-16, "30": 1.8e-15},
    }
    assert wl.is_known_defect(inv, 1, report)
    report["shifted_cdf_sup_distance"]["30"] = 1e-3
    assert not wl.is_known_defect(inv, 1, report)
    assert not wl.is_known_defect(wl.invocations("curves", 5, smoke=True)[1], 1, report)
