"""exitgumbel benchmark: runs one workload through the `exitgumbel` CLI,
checks every output and prints the metrics.

    python3 bench/run.py --workload exit-serial --seed 1 --seconds 25 --trace 0

Untraced (`--trace 0`): a closed loop, one CLI process at a time, each
started after the previous one exits. Every pass of the workload uses a
new seed drawn from `--seed`. The end-to-end metrics are medians over the
passes made in `--seconds` seconds:

    work_per_s   workload units (exits, replicas or curve points) per
                 second of CLI wall time; printed also under the
                 workload's own name (exits_per_s, ...)
    cpu_s        user + sys CPU of the CLI process tree (wait4 rusage)
    peak_rss_mb  largest resident set of any process in that tree
    setup_s      a fresh interpreter that imports exitgumbel.cli and
                 builds the parser, no work; one launch after each pass,
                 so the median covers the same window as the passes

Traced (`--trace 1`): one untraced CLI pass as the reference, then
in-process passes of `cli.main`, alternately plain and under the tracer
(tracer.py), until `--seconds` is up. Every output must be byte-identical
to the reference's. Prints the per-layer metrics and the tracing overhead.

Either way the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a JSON
summary with the environment, the fail ratio (failed / attempted
invocations), timing tails and derived figures. `failed` counts every
invocation that failed a check; `correct` is false only when one failed
in a way other than the known `residual --model exponential` defect
(see `workloads.is_known_defect`). `--smoke` runs the same code at tiny
sizes.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"
INVOCATION_TIMEOUT_S = 120
SETUP_CODE = "import exitgumbel.cli as cli; cli.build_parser()"

# Baseline per-attempt costs from ROADMAP.md (untraced, 2 cores), printed
# next to the traced exit-serial figures for comparison.
ROADMAP_ATTEMPT_US = 190.0
ROADMAP_SUBSTREAM_US = 27.0


@dataclass
class Process:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    """One pass of a workload: its invocations, their outcomes and cost."""

    outcomes: list = field(default_factory=list)
    dirs: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0

    @property
    def work(self) -> int:
        return sum(o.work for o in self.outcomes)


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def launch(args: list, log: Path) -> Process:
    """Run `python args...` with the checkout's src on the path; wait for it
    with wait4 so its CPU and peak RSS (children included) come back."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # a crashed CLI may leave pool workers behind
        out.seek(0)
        err.seek(0)
        return Process(
            proc.returncode,
            out.read(),
            err.read(),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / 1e6,
        )


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_pass(workload: str, seed: int, smoke: bool, root: Path) -> Pass:
    """One pass of the workload, each invocation its own CLI process."""
    result = Pass()
    for j, inv in enumerate(wl.invocations(workload, seed, smoke)):
        outdir = _fresh(root / str(j))
        proc = launch(["-m", "exitgumbel.cli", *inv.argv, "--output-dir", str(outdir)], root / f"{j}")
        outcome = wl.check(inv, proc.code, proc.stdout, outdir)
        if proc.code != 0 and proc.stderr.strip():
            outcome.problems.append("stderr: " + proc.stderr.strip().splitlines()[-1])
        result.outcomes.append(outcome)
        result.dirs.append(outdir)
        result.wall_s += proc.wall_s
        result.cpu_s += proc.cpu_s
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
    return result


def inprocess_pass(cli, workload: str, seed: int, smoke: bool, root: Path) -> Pass:
    """One pass of the workload through `cli.main` in this process."""
    result = Pass()
    for j, inv in enumerate(wl.invocations(workload, seed, smoke)):
        outdir = _fresh(root / str(j))
        buf = io.StringIO()
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([*inv.argv, "--output-dir", str(outdir)])
        except Exception as exc:  # a traceback from the CLI is a failed invocation
            code, crash = -1, f"raised {exc!r}"
        result.wall_s += time.perf_counter() - start
        outcome = wl.check(inv, code, buf.getvalue(), outdir)
        if crash:
            outcome.problems.append(crash)
        result.outcomes.append(outcome)
        result.dirs.append(outdir)
    return result


def compare_outputs(reference: Pass, other: Pass, workload: str, seed: int, smoke: bool) -> int:
    """Fail each invocation of `other` whose data files differ from the
    reference's (reports are left out: they name their output dir).
    Returns the number of invocations failed this way."""
    mismatched = 0
    for j, inv in enumerate(wl.invocations(workload, seed, smoke)):
        problems = wl.same_bytes(reference.dirs[j], other.dirs[j], inv.outputs)
        if problems:
            mismatched += 1
            other.outcomes[j].problems.extend(problems)
            other.outcomes[j].known_defect = False
            other.outcomes[j].work = 0
    return mismatched


# -- figures ---------------------------------------------------------------


def tail(values: list, higher_is_worse: bool):
    """The highest percentile with at least ten runs beyond it (on the worse
    side), or None when there are ten runs or fewer."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values, reverse=not higher_is_worse)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}


def timing(values: list, unit: str, higher_is_worse: bool) -> dict:
    return {
        "median": statistics.median(values),
        "tail": tail(values, higher_is_worse),
        "runs": len(values),
        "unit": unit,
    }


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            return done.stdout.strip()
    return None


def environment(seed: int, outcomes: list) -> dict:
    """Where the figures come from; runs from different machines are not
    comparable."""
    configs = [o.report.get("config", {}) for o in outcomes if o.report]
    workers = sorted({c["workers"] for c in configs if "workers" in c})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "workers": workers or None,
    }


def tally(passes: list) -> dict:
    """Invocations attempted and failed, with the known defect apart."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    known = [o for o in failed if o.known_defect]
    problems = sorted({msg for o in failed if not o.known_defect for msg in o.problems})
    return {
        "fail_ratio": {
            "value": len(failed) / len(outcomes),
            "unit": "1",
            "base": f"{len(failed)} failed of {len(outcomes)} invocations",
        },
        "attempted": len(outcomes),
        "failed": len(failed),
        "known_defects": len(known),
        "unexpected": len(failed) - len(known),
        "problems": problems[:20],
    }


def setup_time(root: Path) -> float:
    """Wall time of a fresh interpreter that only imports and builds the parser."""
    proc = launch(["-c", SETUP_CODE], root / "setup")
    if proc.code != 0:
        raise RuntimeError(f"set-up launch failed ({proc.code}): {proc.stderr.strip()[-500:]}")
    return proc.wall_s


def run_untraced(args, seeds, root: Path):
    workload = args.workload
    unit, named = wl.WORK_UNIT[workload]
    setup_time(root)  # warms the byte-code cache; not counted
    reference = None
    if workload == "exit-pool":
        # Same seed, one worker: the sample CSV must be byte-identical.
        reference = cli_pass("exit-serial", seeds[0], args.smoke, root / "serial")

    passes, setup = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        seed = seeds[len(passes)]
        passes.append(cli_pass(workload, seed, args.smoke, root / "pass"))
        if reference is not None and len(passes) == 1:
            compare_outputs(reference, passes[0], workload, seed, args.smoke)
        setup.append(setup_time(root))

    rates = [p.work / p.wall_s for p in passes]
    walls = [p.wall_s for p in passes]
    cpus = [p.cpu_s for p in passes]
    rss = [p.rss_mb for p in passes]
    counted = passes + ([reference] if reference else [])
    counts = tally(counted)
    metrics = {
        "work_per_s": (statistics.median(rates), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    summary = {
        "workload": workload,
        "mode": "untraced",
        "environment": environment(args.seed, [o for p in counted for o in p.outcomes]),
        "passes": len(passes),
        "work_per_pass": {"value": statistics.median(p.work for p in passes), "unit": unit},
        named: timing(rates, "1/s", higher_is_worse=False),
        "wall_s": timing(walls, "s", higher_is_worse=True),
        "cpu_s": timing(cpus, "s", higher_is_worse=True),
        "peak_rss_mb": timing(rss, "MB", higher_is_worse=True),
        "setup_s": timing(setup, "s", higher_is_worse=True),
        **counts,
    }
    if reference is not None:
        first = passes[0]
        summary["derived"] = {
            "pool_wall_speedup": {
                "value": reference.wall_s / first.wall_s,
                "base": f"--workers 1 wall {reference.wall_s:.4f} s over --workers "
                f"{wl.POOL_WORKERS} wall {first.wall_s:.4f} s, one run each, seed {seeds[0]}",
            },
            "pool_cpu_ratio": {
                "value": first.cpu_s / reference.cpu_s,
                "base": f"--workers {wl.POOL_WORKERS} CPU {first.cpu_s:.4f} s over "
                f"--workers 1 CPU {reference.cpu_s:.4f} s, same runs",
            },
        }
    return metrics, summary, counts


def run_traced(args, seeds, root: Path):
    from tracer import Tracer

    workload, smoke, seed = args.workload, args.smoke, seeds[0]
    reference = cli_pass(workload, seed, smoke, root / "reference")

    sys.path.insert(0, str(SRC))
    from exitgumbel import cli

    tracer = Tracer()
    passes, plain_walls, traced_walls, mismatched = [reference], [], [], 0
    deadline = time.perf_counter() + args.seconds
    while not traced_walls or time.perf_counter() < deadline:
        plain = inprocess_pass(cli, workload, seed, smoke, root / "plain")
        tracer.install()
        try:
            traced = inprocess_pass(cli, workload, seed, smoke, root / "traced")
        finally:
            tracer.uninstall()
        for p in (plain, traced):
            mismatched += compare_outputs(reference, p, workload, seed, smoke)
            passes.append(p)
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)

    metrics = tracer.metrics(len(traced_walls))
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    counts = tally(passes)
    summary = {
        "workload": workload,
        "mode": "traced",
        "environment": environment(args.seed, reference.outcomes),
        "traced_passes": len(traced_walls),
        "plain_wall_s": timing(plain_walls, "s", higher_is_worse=True),
        "traced_wall_s": timing(traced_walls, "s", higher_is_worse=True),
        "outputs_identical_to_untraced": mismatched == 0,
        **counts,
    }
    attempts = tracer.calls["exitsim.attempt"]
    if attempts:
        substreams = tracer.calls["stats.substream"]
        summary["derived"] = {
            "attempt_us": {
                "value": tracer.total_s["exitsim.attempt"] / attempts * 1e6,
                "base": f"mean over {attempts} traced attempts; ROADMAP: {ROADMAP_ATTEMPT_US:g} us",
            },
            "substream_us": {
                "value": tracer.total_s["stats.substream"] / substreams * 1e6,
                "base": f"mean over {substreams} calls; ROADMAP: {ROADMAP_SUBSTREAM_US:g} us",
            },
            "normal_us_per_attempt": {
                "value": tracer.total_s["stats.normal"] / attempts * 1e6,
                "base": f"standard_normal time over {attempts} attempts",
            },
        }
    return metrics, summary, counts


def iteration_seeds(seed: int):
    """Seeds for successive passes: the same --seed gives the same inputs."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(10_000)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="exitgumbel benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the test")
    args = parser.parse_args(argv)

    if not (SRC / "exitgumbel" / "cli.py").is_file():
        print(f"bench: no exitgumbel sources under {SRC}", file=sys.stderr)
        return 2
    root = _fresh(WORK_DIR / f"bench-{os.getpid()}")
    try:
        run = run_traced if args.trace else run_untraced
        metrics, summary, counts = run(args, iteration_seeds(args.seed), root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    print(json.dumps(summary, indent=1))
    print(
        json.dumps(
            {
                "correct": counts["unexpected"] == 0,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
