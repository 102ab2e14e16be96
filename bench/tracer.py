"""Outside-in tracing of exitgumbel's layers for the benchmark's traced run.

`Tracer.install` wraps public functions of `stats`, `exitsim`, `evt` and
`cli` in their home modules and in every module that imported them by
name, so in-process calls of `cli.main` go through the wrappers. Nothing
under `src/` changes. Substreams come back as a `np.random.Generator`
subclass that times and counts `standard_normal`; it shares the Philox
bit generator, so every draw is the same and `isinstance` checks pass.

Per-point scalar functions of `distributions` and `residual` are not
wrapped: a span per point would cost as much as the work. Their time is
the self time of the `cli.cmd_*` span that evaluates the curve, i.e. the
span minus its traced children (curve and report writes, solves, ...).

Spans are aggregated as they close: inclusive and self seconds and call
count per span name, plus per-call durations where a percentile is
reported.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

CMD_SPANS = {
    "cmd_exit_experiment": "cli.cmd.exit",
    "cmd_density_convergence": "cli.cmd.density",
    "cmd_evt": "cli.cmd.evt",
    "cmd_residual": "cli.cmd.residual",
    "cmd_identity_suite": "cli.cmd.identity",
}


class Span:
    __slots__ = ("name", "start", "end", "child_s", "draws", "marks")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.draws = 0
        self.marks = []


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class Tracer:
    def __init__(self):
        self.stack = []
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self._patches = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        duration = span.end - span.start
        self.total_s[span.name] += duration
        self.self_s[span.name] += duration - span.child_s
        self.calls[span.name] += 1
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += duration
            parent.draws += span.draws

    def parent_name(self) -> str:
        return self.stack[-1].name if self.stack else ""

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(span, args, result)` runs once the
        span has closed and may replace the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            return after(span, args, result) if after else result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of the importable exitgumbel package."""
        import exitgumbel
        from exitgumbel import cli, evt, exitsim, residual, stats

        modules = (exitgumbel, cli, evt, exitsim, residual, stats)
        tracer = self

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                span = tracer.open("stats.normal")
                try:
                    result = super().standard_normal(size, dtype, out)
                    span.draws = int(np.size(result))
                finally:
                    tracer.close(span)
                tracer.counts["stats.normal.draws"] += span.draws
                return result

        def after_substream(span, args, gen):
            if self.parent_name() == "evt.sample":
                self.stack[-1].marks.append(span.start)
            return CountingGenerator(gen.bit_generator)

        def after_attempt(span, args, record):
            self.durations["exitsim.attempt"].append(span.end - span.start)
            self.counts["exitsim.steps"] += record.steps_taken
            self.counts["exitsim.attempt_draws"] += span.draws
            return record

        def after_sample(span, args, sample):
            self.counts["exitsim.attempts"] += sample.attempts
            self.counts["exitsim.accepted"] += len(sample.records)
            return sample

        def after_replicas(span, args, sample):
            starts = span.marks + [span.end]
            self.durations["evt.replica"].extend(b - a for a, b in zip(starts, starts[1:]))
            return sample

        def after_ks(span, args, ks):
            self.counts["stats.ks.values"] += args[0].count
            return ks

        def after_csv(span, args, result):
            self.counts["stats.csv.bytes"] += Path(args[0]).stat().st_size
            return result

        def after_curve(span, args, result):
            path, fmt, xs = args[0], args[1], args[2]
            self.counts["cli.write_curve.bytes"] += path.with_suffix("." + fmt).stat().st_size
            self.counts["points:" + self.parent_name()] += len(xs)
            return result

        self._patch(stats.RngStream, "substream", "stats.substream", after_substream, ())
        targets = [
            (exitsim, "simulate_exit_exact", "exitsim.attempt", after_attempt),
            (exitsim, "sample_conditioned_exits", "exitsim.sample", after_sample),
            (evt, "sample_normalized_max", "evt.sample", after_replicas),
            (evt, "solve_normalizers", "evt.solve", None),
            (stats, "ks_one_sample", "stats.ks", after_ks),
            (stats, "write_sample_csv", "stats.csv", after_csv),
            (cli, "_write_curve", "cli.write_curve", after_curve),
            (cli, "_write_json", "cli.report", None),
            (cli, "_emit", "cli.report", None),
        ]
        targets += [(cli, attr, name, None) for attr, name in CMD_SPANS.items()]
        for home, attr, name, after in targets:
            self._patch(home, attr, name, after, modules)

    def _patch(self, home, attr, name, after, importers) -> None:
        original = getattr(home, attr)
        traced = self.wrap(name, original, after)
        for owner in dict.fromkeys((home, *importers)):
            if owner is home or getattr(owner, attr, None) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer figures, each per traced pass of the workload."""
        per = 1.0 / passes
        t, s, c, n = self.total_s, self.self_s, self.calls, self.counts
        attempt_calls = c["exitsim.attempt"]
        attempt_draws = n["exitsim.attempt_draws"]
        steps = n["exitsim.steps"]
        attempt_us = [d * 1e6 for d in self.durations["exitsim.attempt"]]
        replica_us = [d * 1e6 for d in self.durations["evt.replica"]]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "stats.substream.calls": (c["stats.substream"] * per, "count"),
            "stats.substream.s": (t["stats.substream"] * per, "s"),
            "stats.normal.draws": (n["stats.normal.draws"] * per, "count"),
            "stats.normal.s": (t["stats.normal"] * per, "s"),
            "exitsim.attempts": (n["exitsim.attempts"] * per, "count"),
            "exitsim.accepted": (n["exitsim.accepted"] * per, "count"),
            "exitsim.accept_ratio": (ratio(n["exitsim.accepted"], n["exitsim.attempts"]), "1"),
            "exitsim.attempt.p50_us": (_percentile(attempt_us, 50), "us"),
            "exitsim.attempt.p99_us": (_percentile(attempt_us, 99), "us"),
            "exitsim.attempt.self_s": (s["exitsim.attempt"] * per, "s"),
            "exitsim.normals_per_attempt": (ratio(attempt_draws, attempt_calls), "count"),
            "exitsim.steps_per_attempt": (ratio(steps, attempt_calls), "count"),
            "exitsim.normals_per_step": (ratio(attempt_draws, steps), "1"),
            "exitsim.sample.self_s": (s["exitsim.sample"] * per, "s"),
            "stats.ks.s": (t["stats.ks"] * per, "s"),
            "stats.ks.values": (n["stats.ks.values"] * per, "count"),
            "stats.csv.s": (t["stats.csv"] * per, "s"),
            "stats.csv.bytes": (n["stats.csv.bytes"] * per, "B"),
            "evt.replica.p50_us": (_percentile(replica_us, 50), "us"),
            "evt.replica.p99_us": (_percentile(replica_us, 99), "us"),
            "evt.sample.self_s": (s["evt.sample"] * per, "s"),
            "evt.solve.calls": (c["evt.solve"] * per, "count"),
            "evt.solve.s": (t["evt.solve"] * per, "s"),
            "evt.curve.s": (s["cli.cmd.evt"] * per, "s"),
            "distributions.density.points": (n["points:cli.cmd.density"] * per, "count"),
            "distributions.density.s": (s["cli.cmd.density"] * per, "s"),
            "residual.points": (n["points:cli.cmd.residual"] * per, "count"),
            "residual.s": (s["cli.cmd.residual"] * per, "s"),
            "identity.s": (s["cli.cmd.identity"] * per, "s"),
            "cli.write_curve.s": (t["cli.write_curve"] * per, "s"),
            "cli.write_curve.bytes": (n["cli.write_curve.bytes"] * per, "B"),
            "cli.report.s": (t["cli.report"] * per, "s"),
        }
