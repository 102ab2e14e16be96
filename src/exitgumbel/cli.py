"""Command-line interface: every experiment as a subcommand.

Exit codes: 0 all configured checks passed, 1 a check failed, 2 usage
error (any parse failure: each flag's range is checked by its parser type
before any work), 3 runtime error (budget, guard or bracket failures,
non-finite results, a ValueError from inside a command, memory that cannot
be allocated, a closed stdout).
Each subcommand computes a report; `main` adds the fully resolved
configuration, writes it as `<first word of the subcommand>_report.json`,
prints it (identity-suite prints a table instead) and maps its `pass` to
the exit code. Curve files are CSV (or JSON with --format json) with
columns x, exact, limit, abs_error; a curve command hands its curves to
`_write_curves`, which formats an x or limit column its files share once.
A repeated threshold or block size is one curve.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import (
    exponential_tail_model,
    gaussian_pdf,
    gaussian_tail,
    gaussian_tail_asymptotic,
    gaussian_tail_model,
    gumbel_cdf,
    gumbel_density,
    gumbel_identity_residual,
)
from .errors import ExitGumbelError, NonFiniteResult
from .evt import max_cdf, max_cdf_of_tail, sample_normalized_max, solve_normalizers
from .exitsim import (
    _MAX_BETA_STEP,
    _MAX_GUARD_STEPS,
    MAX_STEP,
    ExitProblem,
    limit_law_cdf,
    right_exit_probability,
    sample_conditioned_exits,
)
from .residual import log_residual_cdf, log_residual_density, scaled_residual
from .residual import shifted_log_residual_cdf, shifted_log_residual_density
from .stats import (
    EmpiricalSample,
    RngStream,
    float_blocks,
    ks_one_sample,
    ks_one_sample_critical,
    ks_two_sample_critical,
    write_float_csv,
    write_sample_csv,
)

SEED_ENV_VAR = "EXITGUMBEL_SEED"

PASS = 0
CHECK_FAILED = 1
USAGE_ERROR = 2
RUNTIME_ERROR = 3

# Roundoff: a distance at or below it counts as exact, for the exponential fixed
# point against the Gumbel CDF and for a converged curve's sup distance.
_FIXED_POINT_TOL = 1e-13

# Most points a curve grid may have.
_MAX_GRID_POINTS = 10**7

# exit-experiment's default KS threshold is this over sqrt(--n): a correct
# sampler exceeds it with probability ~3e-8 (the Kolmogorov limit law), and
# at n = 1e4 it is A1's gate, 0.03.
_EXIT_KS_COEFFICIENT = 3.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every parse failure is a UsageError, so it
    reaches `main`'s JSON usage-error path instead of printing to stderr."""

    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        """As argparse's, but a failed write (--help or --version to a
        closed stdout) raises instead of being dropped."""
        if message:
            (file or sys.stderr).write(message)


def _checked(cast, rule: str, ok):
    """An argparse type that casts the text and accepts the value only where
    `ok` holds; the error message states the `rule`."""

    def convert(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return convert


_FINITE = _checked(float, "a finite number", math.isfinite)
_POSITIVE = _checked(float, "a finite number > 0", lambda v: v > 0.0 and math.isfinite(v))
_NONNEGATIVE = _checked(float, "a finite number >= 0", lambda v: v >= 0.0 and math.isfinite(v))
_STEP = _checked(float, f"in (0, {MAX_STEP:g}]", lambda v: 0.0 < v <= MAX_STEP)
_WORKERS = _checked(lambda text: max(1, min(int(text), os.cpu_count() or 1)), "an integer", lambda v: True)
_SEED = _checked(int, f"an integer in [0, 2^64) (--seed or {SEED_ENV_VAR})", lambda v: 0 <= v < 2**64)


class _Thresholds(argparse.Action):
    """Stores --r, refusing two distinct thresholds that print alike: `:g`
    names each threshold's curve files and report keys, so the second
    would overwrite the first. A repeated value passes; commands count it
    once."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = {}
        for r in values:
            first = seen.setdefault(f"{r:g}", r)
            if first != r:
                raise argparse.ArgumentError(self, f"{first!r} and {r!r} would share the name r{r:g}")
        setattr(namespace, self.dest, values)


def _at_least(k: int):
    return _checked(int, f"an integer >= {k}", lambda v: v >= k)


def _json(payload: dict) -> str:
    """Strict JSON: a NaN or infinity is a runtime fault, never a token."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a non-finite value ({exc})") from exc


def _emit(payload: dict) -> None:
    print(_json(payload))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json(payload) + "\n")


def _write_curve(path: Path, fmt: str, xs, exact, limit, memo: dict) -> float:
    """Columns x, exact, limit, abs_error as `path`.csv or `path`.json;
    returns the sup distance max(abs_error). A non-finite value raises
    NonFiniteResult before the file is opened. The CSV's x and limit columns
    are formatted on their first use in the command's `memo` (`_formatted`)."""
    exact = np.asarray(exact, dtype=float)
    limit = np.asarray(limit, dtype=float)
    columns = {
        "x": np.asarray(xs, dtype=float),
        "exact": exact,
        "limit": limit,
        "abs_error": np.abs(exact - limit),
    }
    target = path.with_name(f"{path.name}.{fmt}")  # not with_suffix: "r0.5" keeps its ".5"
    if fmt == "json":
        _write_json(target, {name: column.tolist() for name, column in columns.items()})
    elif all(np.isfinite(column).all() for column in columns.values()):
        fields = (_formatted(memo, columns["x"]), exact, _formatted(memo, limit), columns["abs_error"])
        write_float_csv(target, tuple(columns), fields)
    else:
        raise NonFiniteResult(f"curve {target.name} holds a non-finite value")
    return float(np.max(columns["abs_error"]))


def _formatted(memo: dict, column: np.ndarray) -> list:
    """`column`'s `float_blocks`, made on its first use. The memo is keyed by
    the array's id and holds the array, so no id is reused while it lives."""
    entry = memo.get(id(column))
    if entry is None:
        entry = memo[id(column)] = (column, float_blocks(column))
    return entry[1]


def _write_curves(out: Path, fmt: str, curves) -> list:
    """Write each (file stem, xs, exact, limit) of a command's `curves` with
    `_write_curve` into `out` and return their sup distances in order. The
    curves may come from a generator, so each is computed just before it is
    written; an x or limit array several curves share is formatted once."""
    memo = {}
    return [_write_curve(out / stem, fmt, xs, exact, limit, memo) for stem, xs, exact, limit in curves]


def _curve_command(command):
    """Run a curve command with numpy's invalid and divide-by-zero raising a
    NonFiniteResult, as does a `math` OverflowError. An overflow to inf is
    left to `_write_curve`'s check: it is a non-finite curve value or the
    correctly rounded limit (exp(-inf) = 0). Underflow to 0 is silent."""

    @functools.wraps(command)
    def run(args) -> dict:
        try:
            with np.errstate(invalid="raise", divide="raise", over="ignore", under="ignore"):
                return command(args)
        except (FloatingPointError, OverflowError) as exc:
            raise NonFiniteResult(f"a curve value is not finite ({exc})") from exc

    return run


def _grid(args) -> np.ndarray:
    lo, hi, step = args.grid_min, args.grid_max, args.grid_step
    if hi <= lo:
        raise UsageError(f"--grid-min {lo} must be below --grid-max {hi}")
    # round(span) + 1 points; an infinite span (overflow) is rejected too.
    span = (hi - lo) / step
    if not span < _MAX_GRID_POINTS - 0.5:
        raise UsageError(f"--grid-step {step} gives more than {_MAX_GRID_POINTS} grid points")
    return lo + step * np.arange(int(round(span)) + 1)


def _decreasing(ordered) -> bool:
    """Whether the values strictly decrease; a value at or below
    `_FIXED_POINT_TOL` is roundoff and need not decrease further."""
    return all(b < a or b <= _FIXED_POINT_TOL for a, b in zip(ordered, ordered[1:]))


def _exponential_fixed_point_deviation() -> float:
    """Largest deviation of the exponential model's recentered log-residual
    CDF from the Gumbel CDF, which it equals exactly."""
    xs = np.linspace(-2.0, 6.0, 81)
    curves = [shifted_log_residual_cdf(exponential_tail_model(), r, xs) for r in (1.0, 5.0, 30.0)]
    return float(np.max(np.abs(np.array(curves) - gumbel_cdf(xs))))


def _resolved_config(args) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    config["version"] = __version__
    return config


def cmd_exit_experiment(args) -> dict:
    """Sample conditioned exits, compare with the limit law, write samples
    and report the KS statistic."""
    try:
        problem = ExitProblem(beta=args.beta, epsilon=args.epsilon, a=args.a, step=args.step)
    except ValueError as exc:  # the start -epsilon*a inside the domain, or beta*step
        flags = "--beta and --step" if args.beta * args.step > _MAX_BETA_STEP else "--epsilon and --a"
        raise UsageError(f"{flags}: {exc}") from exc
    steps = problem.guard_horizon / problem.step  # may be inf
    if steps > _MAX_GUARD_STEPS:
        raise UsageError(
            f"--beta {args.beta:g} and --step {args.step:g} give a guard horizon of {steps:.3g} "
            f"steps, more than the {_MAX_GUARD_STEPS} the exit kernel can tabulate"
        )
    stream = RngStream(seed=args.seed)
    conditioned = sample_conditioned_exits(
        problem, args.n, stream, budget=args.budget, workers=args.workers
    )
    attempt, steps, tau, normalized = conditioned.columns()
    samples_path = Path(args.output_dir) / "exit_samples.csv"
    write_sample_csv(samples_path, attempt, tau, normalized)

    # The exit at fine step k is the first grid time at or after the path's
    # crossing, so the sample's law puts the limit law F's mass over
    # ((k-1)h - c, kh - c] on the lattice point kh - c: F there, and the
    # left limit F((k-1)h - c).
    sample = EmpiricalSample.from_values(normalized)
    below = (np.sort(steps) - 1) * problem.step - problem.centering_time
    law = functools.partial(limit_law_cdf, args.beta, args.a)
    ks = ks_one_sample(sample, law(sample.values), law(below))
    p_limit = right_exit_probability(args.beta, args.a)
    rate = conditioned.acceptance_rate
    rate_se = math.sqrt(p_limit * (1.0 - p_limit) / conditioned.attempts)
    threshold = args.ks_threshold
    if threshold is None:
        threshold = ks_one_sample_critical(args.n, _EXIT_KS_COEFFICIENT)
    rate_ok = abs(rate - p_limit) <= 3.0 * rate_se
    return {
        "attempts": conditioned.attempts,
        "accepted": len(conditioned.records),
        "acceptance_rate": rate,
        "limit_acceptance_rate": p_limit,
        "acceptance_rate_within_3se": rate_ok,
        "ks_statistic": ks,
        "ks_threshold": threshold,
        "samples_file": str(samples_path),
        "workers_used": conditioned.workers_used,
        "pass": bool(ks <= threshold),
    }


@_curve_command
def cmd_density_convergence(args) -> dict:
    """Recentered conditional-density curves against the Gumbel density,
    one curve per threshold, with sup distances."""
    out = Path(args.output_dir)
    xs = _grid(args)
    limit = gumbel_density(xs)
    rs = list(dict.fromkeys(args.r))
    curves = ((f"density_r{r:g}", xs, shifted_log_residual_density(r, xs), limit) for r in rs)
    sups = dict(zip(rs, _write_curves(out, args.format, curves)))
    ordered = [sups[r] for r in sorted(sups)]
    decreasing = _decreasing(ordered)
    return {
        "sup_distance": {f"{r:g}": sups[r] for r in rs},
        "strictly_decreasing_in_r": decreasing,
        "tolerance_at_largest_r": args.tolerance,
        "pass": decreasing and ordered[-1] <= args.tolerance,
    }


@_curve_command
def cmd_evt(args) -> dict:
    """Normalizers, exceedance-count curves, normalized-max CDF curves, and
    an optional Monte Carlo KS cross-check of the exact finite-n law."""
    out = Path(args.output_dir)
    model = gaussian_tail_model()
    xs = _grid(args)
    limit_counts = np.exp(-xs)
    limit_gumbel = gumbel_cdf(xs)
    seqs = {n: solve_normalizers(model, n) for n in dict.fromkeys(args.n)}

    def curves():
        for n, seq in seqs.items():
            tails = model.tail(seq.scale * xs + seq.center)  # gnedenko_lhs is n*tails
            yield f"exceedance_n{n}", xs, seq.n * tails, limit_counts
            yield f"maxcdf_n{n}", xs, max_cdf_of_tail(seq.n, tails), limit_gumbel

    sups = dict(zip(seqs, _write_curves(out, args.format, curves())[1::2]))
    decreasing = _decreasing([sups[n] for n in sorted(sups)])
    passed = decreasing

    mc_report = None
    if args.replicas > 0:
        seq = solve_normalizers(model, args.mc_n)
        sample = sample_normalized_max(model, seq, args.replicas, RngStream(seed=args.seed))
        ks = ks_one_sample(sample, max_cdf(model, seq, sample.values))
        threshold = args.mc_ks_threshold
        if threshold is None:
            threshold = ks_two_sample_critical(args.replicas, args.replicas)
        mc_report = {
            "block_size": args.mc_n,
            "replicas": args.replicas,
            "ks_statistic": ks,
            "ks_threshold": threshold,
            "pass": ks <= threshold,
        }
        passed = passed and mc_report["pass"]

    return {
        "normalizers": {str(n): {"scale": seq.scale, "center": seq.center} for n, seq in seqs.items()},
        "max_cdf_sup_distance": {str(n): sups[n] for n in seqs},
        "strictly_decreasing_in_n": decreasing,
        "monte_carlo": mc_report,
        "pass": passed,
    }


@_curve_command
def cmd_residual(args) -> dict:
    """Scaled residual tails and recentered log-residual CDFs against their
    limits, plus the memoryless exact fixed point."""
    out = Path(args.output_dir)
    model = gaussian_tail_model() if args.model == "gaussian" else exponential_tail_model()
    xs = _grid(args)
    xs_pos = xs[xs >= 0.0]
    if xs_pos.size == 0:
        raise UsageError(f"--grid-max {args.grid_max} leaves no grid point >= 0 for the scaled residual")
    scaled_limit = np.exp(-xs_pos)
    gumbel = gumbel_cdf(xs)
    rs = list(dict.fromkeys(args.r))

    def curves():
        for r in rs:
            name = f"{model.name}_r{r:g}"
            yield f"residual_scaled_{name}", xs_pos, scaled_residual(model, r, xs_pos), scaled_limit
            yield f"residual_shifted_{name}", xs, shifted_log_residual_cdf(model, r, xs), gumbel

    sups = _write_curves(out, args.format, curves())
    sups_scaled = dict(zip(rs, sups[0::2]))
    sups_shifted = dict(zip(rs, sups[1::2]))

    fixed_point_dev = _exponential_fixed_point_deviation()
    fixed_point_ok = fixed_point_dev <= _FIXED_POINT_TOL

    largest = max(args.r)
    decreasing = _decreasing([sups_shifted[r] for r in sorted(rs)])
    passed = (
        decreasing
        and sups_shifted[largest] <= args.tolerance
        and sups_scaled[largest] <= args.tolerance
        and fixed_point_ok
    )
    return {
        "scaled_sup_distance": {f"{r:g}": sups_scaled[r] for r in rs},
        "shifted_cdf_sup_distance": {f"{r:g}": sups_shifted[r] for r in rs},
        "strictly_decreasing_in_r": decreasing,
        "exponential_fixed_point_deviation": fixed_point_dev,
        "exponential_fixed_point_ok": fixed_point_ok,
        "tolerance_at_largest_r": args.tolerance,
        "pass": passed,
    }


_TRAPEZOID_STEP = 0.05  # node spacing of `_density_window_mass`


def _density_window_mass(r: float) -> float:
    """Trapezoid sum of `log_residual_density(r, .)` over [-15, 25 + r]. The
    integrand is entire and decays doubly exponentially on the left and like
    e^-x on the right, so the error is geometric in 1/h."""
    h = _TRAPEZOID_STEP
    f = log_residual_density(r, -15.0 + h * np.arange(round((40.0 + r) / h) + 1))
    return float(h * (f.sum() - (f[0] + f[-1]) / 2))


def _identity_checks():
    checks = []

    grid = np.linspace(-5.0, 10.0, 61)
    fd = float(np.max(np.abs((gumbel_cdf(grid + 1e-5) - gumbel_cdf(grid - 1e-5)) / 2e-5 - gumbel_density(grid))))
    checks.append(("gumbel-cdf-density-consistency", fd, 1e-8))

    ident = max(abs(gumbel_identity_residual(x)) for x in grid)
    checks.append(("gumbel-log-identity", ident, 1e-12))

    rs = np.linspace(0.0, 8.0, 81)
    sym = float(np.max(np.abs(gaussian_tail(-rs) + gaussian_tail(rs) - 1.0)))
    checks.append(("gaussian-tail-symmetry", sym, 1e-13))

    tails = gaussian_tail(np.linspace(-8.0, 37.5, 301))
    monotone = bool(np.all(tails[1:] < tails[:-1]))
    checks.append(("gaussian-tail-strictly-decreasing", 0.0 if monotone else 1.0, 0.5))

    rs = np.linspace(2.0, 30.0, 57)
    ratio = rs * gaussian_tail(rs) / gaussian_pdf(rs)
    mills_ok = bool(np.all((1.0 - 1.0 / (rs * rs) < ratio) & (ratio < 1.0)))
    checks.append(("mills-two-sided-bound", 0.0 if mills_ok else 1.0, 0.5))

    ratio_far = gaussian_tail(20.0) / gaussian_tail_asymptotic(20.0)
    ratio_near = gaussian_tail(5.0) / gaussian_tail_asymptotic(5.0)
    improving = abs(ratio_far - 1.0) < abs(ratio_near - 1.0)
    checks.append(("tail-asymptotic-ratio-improves", 0.0 if improving else 1.0, 0.5))

    worst_norm = max(abs(_density_window_mass(r) - 1.0) for r in (0.0, 1.0, 2.0, 5.0))
    checks.append(("conditional-density-normalization", worst_norm, 1e-8))

    checks.append(("exponential-fixed-point", _exponential_fixed_point_deviation(), _FIXED_POINT_TOL))

    # against the argument-shift form, which rounds x - ln a(r) first
    g = gaussian_tail_model()
    alg = max(
        abs(shifted_log_residual_cdf(g, r, x) - log_residual_cdf(g, r, x - math.log(g.scaling_a(r))))
        for r in (5.0, 20.0)
        for x in np.linspace(-2.0, 6.0, 81)
    )
    checks.append(("shifted-cdf-equals-scaled-residual", alg, 1e-13))

    return checks


def cmd_identity_suite(args) -> dict:
    """Deterministic identity and invariant checks, one pass/fail row each."""
    rows = [
        {"check": name, "value": value, "bound": bound, "pass": bool(value <= bound)}
        for name, value, bound in _identity_checks()
    ]
    return {"checks": rows, "pass": all(r["pass"] for r in rows)}


def _print_checks(report: dict) -> None:
    rows = report["checks"]
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"{r['check']:<{width}}  {status}  value={r['value']:.3e}  bound={r['bound']:.1e}")
    print(f"identity suite: {'PASS' if report['pass'] else 'FAIL'}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_SEED, default=os.environ.get(SEED_ENV_VAR, "42"), help="base RNG seed (env EXITGUMBEL_SEED overrides the default 42)")
    parser.add_argument("--output-dir", type=str, default="exitgumbel-out", help="directory for files")


def _add_grid(parser: argparse.ArgumentParser, lo: float, hi: float, step: float) -> None:
    parser.add_argument("--grid-min", type=_FINITE, default=lo)
    parser.add_argument("--grid-max", type=_FINITE, default=hi)
    parser.add_argument("--grid-step", type=_POSITIVE, default=step)
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="curve file format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exitgumbel",
        description="Gumbel limit laws for conditioned exit times, Gaussian extremes, and residual life times.",
    )
    parser.add_argument("--version", action="version", version=f"exitgumbel {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("exit-experiment", help="conditioned exit times vs the closed-form limit law")
    p.add_argument("--beta", type=_POSITIVE, default=1.0, help="drift slope")
    p.add_argument("--epsilon", type=_POSITIVE, default=0.01, help="noise amplitude")
    p.add_argument("--a", type=_POSITIVE, default=1.0, help="start offset in noise units (start at -epsilon*a)")
    p.add_argument("--n", type=_at_least(1), default=10_000, help="conditioned samples to accept")
    p.add_argument("--step", type=_STEP, default=1e-3, help="integration step")
    p.add_argument("--ks-threshold", type=_NONNEGATIVE, default=None)
    p.add_argument("--budget", type=_at_least(1), default=10**9, help="attempt cap for rejection sampling")
    p.add_argument("--workers", type=_WORKERS, default=os.cpu_count() or 1, help="clamped to [1, CPU count]")
    _add_common(p)
    p.set_defaults(func=cmd_exit_experiment)

    p = sub.add_parser("density-convergence", help="recentered conditional density vs the Gumbel density")
    p.add_argument("--r", type=_POSITIVE, nargs="+", required=True, action=_Thresholds, help="thresholds")
    p.add_argument("--tolerance", type=_NONNEGATIVE, default=0.01, help="sup bound at the largest threshold")
    _add_grid(p, -1.0, 5.0, 1e-3)
    _add_common(p)
    p.set_defaults(func=cmd_density_convergence)

    p = sub.add_parser("evt", help="Gaussian max normalization: deterministic curves and Monte Carlo maxima")
    p.add_argument("--n", type=_at_least(3), nargs="+", required=True, help="block sizes (each >= 3)")
    p.add_argument("--replicas", type=_at_least(0), default=0, help="Monte Carlo replicas (0 = skip sampling)")
    p.add_argument("--mc-n", type=_at_least(3), default=10_000, help="block size for the Monte Carlo cross-check")
    p.add_argument("--mc-ks-threshold", type=_NONNEGATIVE, default=None)
    _add_grid(p, -2.0, 4.0, 0.05)
    _add_common(p)
    p.set_defaults(func=cmd_evt)

    p = sub.add_parser("residual", help="residual life scaling and its log transform")
    p.add_argument("--model", choices=("gaussian", "exponential"), default="gaussian")
    p.add_argument("--r", type=_POSITIVE, nargs="+", required=True, action=_Thresholds, help="thresholds")
    p.add_argument("--tolerance", type=_NONNEGATIVE, default=0.01)
    _add_grid(p, -2.0, 6.0, 0.05)
    _add_common(p)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("identity-suite", help="deterministic identity and invariant checks")
    _add_common(p)
    p.set_defaults(func=cmd_identity_suite)

    return parser


def main(argv=None) -> int:
    show, report = _emit, None
    try:
        args = build_parser().parse_args(argv)
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        report = args.func(args)
        report["config"] = _resolved_config(args)
        _write_json(out / f"{args.subcommand.split('-')[0]}_report.json", report)
        show = _print_checks if args.subcommand == "identity-suite" else _emit
        code = PASS if report["pass"] else CHECK_FAILED
    except SystemExit as exc:  # --help and --version print their own text
        code = exc.code
    except (UsageError, ExitGumbelError, OSError, ValueError, MemoryError) as exc:
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = USAGE_ERROR if isinstance(exc, UsageError) else RUNTIME_ERROR
    try:
        if report is not None:
            show(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # The report file is written but not delivered; later writes, the flush at exit too, go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return RUNTIME_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
