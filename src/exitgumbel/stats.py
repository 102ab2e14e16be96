"""Empirical-distribution utilities and reproducible randomness.

Shared by every Monte Carlo suite in the package. EmpiricalSample is
immutable after construction; RngStream substreams are single-owner.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RngStream",
    "EmpiricalSample",
    "ks_one_sample",
    "ks_two_sample",
    "ks_one_sample_critical",
    "ks_two_sample_critical",
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

    def substream(self, index: int) -> np.random.Generator:
        """Independent generator for the given substream index: Philox at
        counter index << 128, as 64-bit words, low word first."""
        if not (0 <= index < 1 << 128):
            raise ValueError(f"substream index must be in [0, 2^128), got {index}")
        counter = np.array((0, 0, index & _MASK64, index >> 64), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=self._key()))


def as_stream(rng: RngStream | int) -> RngStream:
    """Accept a stream or a bare seed. A ready generator is refused: a batch
    sampler draws batch b from the stream's substream(b)."""
    if isinstance(rng, np.random.Generator):
        raise TypeError("batch sampling needs an RngStream (or seed), not a Generator")
    return rng if isinstance(rng, RngStream) else RngStream(int(rng))


def as_generator(rng: RngStream | np.random.Generator | int) -> np.random.Generator:
    """Accept a stream (its substream 0), a ready generator, or a bare seed."""
    return rng if isinstance(rng, np.random.Generator) else as_stream(rng).substream(0)


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted sample of real values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        if not np.all(values[1:] >= values[:-1]):
            raise ValueError("sample values must be sorted ascending")
        object.__setattr__(self, "values", values)

    @property
    def count(self) -> int:
        return self.values.size

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmpiricalSample":
        arr = np.sort(np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float))
        return cls(values=arr)


def ks_one_sample(sample: EmpiricalSample, cdf: np.ndarray, left: np.ndarray | None = None) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF, given as its
    values at `sample.values` (from one call of a CDF that takes an array),
    one per value. For a law with atoms, `left` holds the CDF's left limits
    at the same values, and D- is taken against them (Conover, JASA 1972);
    without it the CDF is continuous there and is its own left limit."""
    n = sample.count
    f = np.asarray(cdf, dtype=float)
    below = f if left is None else np.asarray(left, dtype=float)
    if f.shape != sample.values.shape or below.shape != f.shape:
        raise ValueError(f"CDF values have shape {f.shape} and {below.shape}, the sample {sample.values.shape}")
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - f)
    d_minus = np.max(below - (i - 1.0) / n)
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


# CSV files of the package (exit samples, curves) are RFC-4180 (CRLF, header
# row) with floats at 17 significant digits, so values round-trip bit-exactly.
FLOAT_FORMAT = ".17g"
# Rows per write of a float-column CSV, and per string of `float_blocks`.
CSV_BLOCK_ROWS = 512
SAMPLE_CSV_HEADER = ("attempt_index", "tau", "side", "normalized_time")


def float_blocks(column: np.ndarray) -> list[str]:
    """A float column's FLOAT_FORMAT fields, comma-joined per block of
    CSV_BLOCK_ROWS rows: a column several files share is formatted once and
    kept as a few long strings, not a str per value."""
    field = "%" + FLOAT_FORMAT
    blocks = (column[start : start + CSV_BLOCK_ROWS].tolist() for start in range(0, column.size, CSV_BLOCK_ROWS))
    return [",".join([field] * len(block)) % tuple(block) for block in blocks]


def write_float_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns, each a float array, its `float_blocks` or
    a str for every row (at least one an array), as a header row and one row
    per value. Each block of CSV_BLOCK_ROWS rows is one `%` of a repeated row
    template, which holds a str column as it is."""
    size = next(column.size for column in columns if isinstance(column, np.ndarray))
    varying = [column for column in columns if not isinstance(column, str)]
    width = len(varying)
    row = ",".join(
        c.replace("%", "%%") if isinstance(c, str) else "%s" if isinstance(c, list) else "%" + FLOAT_FORMAT for c in columns
    ) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block, start in enumerate(range(0, size, CSV_BLOCK_ROWS)):
            stop = min(start + CSV_BLOCK_ROWS, size)
            fields = [None] * (width * (stop - start))
            for j, column in enumerate(varying):
                fields[j::width] = column[block].split(",") if isinstance(column, list) else column[start:stop].tolist()
            fh.write(row * (stop - start) % tuple(fields))


def write_sample_csv(path: str | Path, attempt: np.ndarray, tau: np.ndarray, normalized: np.ndarray) -> None:
    """Write right exits as (attempt_index, tau, side, normalized_time) rows
    under a header row, side "right" on each. Attempt indices are int64 and
    print as integers (exact under FLOAT_FORMAT below 2^53)."""
    write_float_csv(path, SAMPLE_CSV_HEADER, (attempt, tau, "right", normalized))


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
