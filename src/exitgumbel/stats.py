"""Empirical-distribution utilities and reproducible randomness.

Shared by every Monte Carlo suite in the package. EmpiricalSample is
immutable after construction; RngStream substreams are single-owner.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .distributions import GridCurve
from .errors import GridMismatch

__all__ = [
    "RngStream",
    "EmpiricalSample",
    "as_generator",
    "ecdf",
    "ks_one_sample",
    "ks_two_sample",
    "ks_one_sample_critical",
    "ks_two_sample_critical",
    "grid_sup_distance",
    "integrate_adaptive_simpson",
    "FLOAT_FORMAT",
    "SAMPLE_CSV_HEADER",
    "write_csv",
    "write_sample_csv",
    "read_sample_csv",
]

_UINT64 = 1 << 64
_MASK64 = _UINT64 - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Backed by the Philox counter-based generator; substreams are laid out
    at 2^128-step offsets in the counter space, so `substream(i)` depends
    only on (seed, stream_id, i) and never on how many draws other
    substreams consumed. Identical keys reproduce identical sequences for
    any worker count.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < _UINT64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0 <= self.stream_id < _UINT64):
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}")

    def _key(self) -> int:
        return self.seed + (self.stream_id << 64)

    @staticmethod
    def _counter(index: int) -> tuple:
        """Philox counter (256 bits) at which substream `index` starts,
        index << 128, as 64-bit words, low word first."""
        if not (0 <= index < 1 << 128):
            raise ValueError(f"substream index must be in [0, 2^128), got {index}")
        return (0, 0, index & _MASK64, index >> 64)

    def generator(self) -> np.random.Generator:
        """The stream's own generator (counter block 0)."""
        return self.substream(0)

    def substream(self, index: int) -> np.random.Generator:
        """Independent generator for the given substream index."""
        bit_gen = np.random.Philox(counter=np.array(self._counter(index), dtype=np.uint64), key=self._key())
        return np.random.Generator(bit_gen)

    def seat(self, gen: np.random.Generator, index: int) -> np.random.Generator:
        """Move a Philox-backed `gen` to the start of substream `index` and
        return it. Draws then equal those of `substream(index)`; setting the
        state is several times cheaper than building a new bit generator. The
        state setter copies each word, so immutable tuples serve as arrays."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter(index), "key": (self.seed, self.stream_id)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen


def as_generator(rng: RngStream | np.random.Generator | int) -> np.random.Generator:
    """Accept a stream, a ready generator, or a bare seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    return RngStream(int(rng)).generator()


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted sample of real values."""

    values: np.ndarray
    count: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        if not np.all(values[1:] >= values[:-1]):
            raise ValueError("sample values must be sorted ascending")
        if self.count != values.size:
            raise ValueError("count does not match number of values")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmpiricalSample":
        arr = np.sort(np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float))
        return cls(values=arr, count=int(arr.size))


def ecdf(sample: EmpiricalSample, x):
    """Right-continuous empirical CDF: fraction of values <= x."""
    counts = np.searchsorted(sample.values, x, side="right")
    return counts / sample.count


def _apply_cdf(cdf: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    return np.asarray([cdf(float(v)) for v in values], dtype=float)


def ks_one_sample(sample: EmpiricalSample, cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    n = sample.count
    f = _apply_cdf(cdf, sample.values)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    return float(max(d_plus, d_minus, 0.0))


def ks_two_sample(s1: EmpiricalSample, s2: EmpiricalSample) -> float:
    """Two-sample KS statistic; both ECDFs evaluated right-continuously at
    every pooled point, so ties resolve identically on any platform."""
    pooled = np.concatenate([s1.values, s2.values])
    pooled.sort(kind="stable")
    e1 = np.searchsorted(s1.values, pooled, side="right") / s1.count
    e2 = np.searchsorted(s2.values, pooled, side="right") / s2.count
    return float(np.max(np.abs(e1 - e2)))


def ks_one_sample_critical(n: int, coefficient: float = 1.63) -> float:
    """Large-sample KS critical value c/sqrt(n); default c is the 1% point."""
    return coefficient / math.sqrt(n)


def ks_two_sample_critical(n: int, m: int, coefficient: float = 1.36) -> float:
    """Two-sample critical value c*sqrt((n+m)/(n*m)); default c is the 5% point."""
    return coefficient * math.sqrt((n + m) / (n * m))


def grid_sup_distance(c1: GridCurve, c2: GridCurve) -> float:
    """Sup-norm distance between two curves sampled on the identical grid."""
    if c1.xs.size != c2.xs.size or not np.array_equal(c1.xs, c2.xs):
        raise GridMismatch("curves are not sampled on the same grid")
    return float(np.max(np.abs(c1.ys - c2.ys)))


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


_SIMPSON_PANELS = 16
_SIMPSON_MIN_DEPTH = 3  # never accept before this many splits per panel


def integrate_adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    The interval is pre-split into fixed panels and each panel is refined
    a minimum number of times before the error estimate may accept, so
    features narrower than the initial sampling are not silently skipped.
    """
    edges = np.linspace(a, b, _SIMPSON_PANELS + 1)
    panel_tol = tol / _SIMPSON_PANELS
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo, fhi = f(lo), f(hi)
        m, fm, whole = _simpson(f, lo, flo, hi, fhi)
        total += _simpson_rec(
            f, lo, flo, m, fm, hi, fhi, whole, panel_tol, max_depth, _SIMPSON_MIN_DEPTH
        )
    return total


def _simpson_rec(f, a, fa, m, fm, b, fb, whole, tol, depth, force):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or (force <= 0 and abs(delta) <= 15.0 * tol):
        return left + right + delta / 15.0
    half = tol / 2.0
    return _simpson_rec(
        f, a, fa, lm, flm, m, fm, left, half, depth - 1, force - 1
    ) + _simpson_rec(f, m, fm, rm, frm, b, fb, right, half, depth - 1, force - 1)


# CSV files of the package (exit samples, curves) are RFC-4180 (CRLF, header
# row) with floats at 17 significant digits, so values round-trip bit-exactly.
FLOAT_FORMAT = ".17g"
SAMPLE_CSV_HEADER = ("attempt_index", "tau", "side", "normalized_time")


def write_csv(path: str | Path, header: Sequence[str], template: str, rows: Iterable[Sequence]) -> None:
    """Write a header row, then `template % row` for each row. Fields are
    numbers and bare words, so none needs quoting."""
    line = template + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_sample_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write (attempt_index, tau, side, normalized_time) rows."""
    float_field = "%" + FLOAT_FORMAT
    template = ",".join(("%d", float_field, "%s", float_field))
    write_csv(path, SAMPLE_CSV_HEADER, template, rows)


def read_sample_csv(path: str | Path) -> list[tuple[int, float, str, float]]:
    """Read rows written by `write_sample_csv`."""
    out: list[tuple[int, float, str, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SAMPLE_CSV_HEADER:
            raise ValueError(f"unexpected sample CSV header: {header}")
        for row in reader:
            out.append((int(row[0]), float(row[1]), row[2], float(row[3])))
    return out
