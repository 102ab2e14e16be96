"""Acceptance gate: every headline limit at its pinned tolerance.

One test per criterion, one printed PASS/FAIL line each (run with -s to
see them as they happen). Deterministic criteria were validated against a
40-digit mpmath oracle before the tolerances were frozen here; A4's first
clause is provably unattainable at its stated threshold and is kept as a
strict expected failure rather than loosened (details in the test).
"""
import math

import numpy as np
import pytest

from exitgumbel import (
    EmpiricalSample,
    ExitProblem,
    RngStream,
    duhamel_exit_time,
    gaussian_pdf,
    gaussian_tail,
    gaussian_tail_model,
    exponential_tail_model,
    gnedenko_lhs,
    gumbel_cdf,
    gumbel_density,
    gumbel_identity_residual,
    ks_one_sample,
    limit_law_cdf,
    limit_normalized_time,
    max_cdf,
    right_exit_probability,
    sample_conditioned_exits,
    sample_noise,
    sample_normalized_max,
    scaled_residual,
    shifted_log_residual_cdf,
    shifted_log_residual_density,
    solve_normalizers,
)
from exitgumbel.cli import main as cli_main

GAUSS = gaussian_tail_model()


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_a1_conditioned_exit_times_match_limit_law():
    """A1: KS(conditioned normalized exit times, limit law) <= 0.03 at
    beta=1, epsilon=0.01, a=1, h=1e-3, 1e4 accepted; acceptance rate
    within 3 standard errors of tail(sqrt(2)) ~ 0.0786."""
    beta, eps, a = 1.0, 0.01, 1.0
    problem = ExitProblem(beta=beta, epsilon=eps, a=a, step=1e-3)
    conditioned = sample_conditioned_exits(problem, 10_000, RngStream(42))
    sample = EmpiricalSample.from_values(conditioned.normalized_times())
    ks = ks_one_sample(sample, lambda x: limit_law_cdf(beta, a, x))

    p = right_exit_probability(beta, a)
    se = math.sqrt(p * (1.0 - p) / conditioned.attempts)
    rate_gap = abs(conditioned.acceptance_rate - p)

    ok = ks <= 0.03 and rate_gap <= 3.0 * se
    _line(
        "A1",
        ok,
        f"KS={ks:.4f} (<=0.03), attempts={conditioned.attempts}, "
        f"rate gap={rate_gap:.2e} (<= {3*se:.2e})",
    )
    assert ks <= 0.03
    assert rate_gap <= 3.0 * se


def test_a2_density_convergence_deterministic():
    """A2: sup over x in [-1,5] (step 1e-3) of the recentered conditional
    density vs the Gumbel density: <= 0.01 at r=20, and at r=40 at most
    half the r=20 value (~r^-2 decay)."""
    xs = -1.0 + 1e-3 * np.arange(6001)
    lam = np.asarray([gumbel_density(float(x)) for x in xs])

    def sup_at(r):
        vals = np.asarray([shifted_log_residual_density(r, float(x)) for x in xs])
        return float(np.max(np.abs(vals - lam)))

    sup20, sup40 = sup_at(20.0), sup_at(40.0)
    ok = sup20 <= 0.01 and sup40 <= 0.5 * sup20
    _line("A2", ok, f"sup(r=20)={sup20:.5f} (<=0.01), sup(r=40)={sup40:.5f} (<= half)")
    assert sup20 <= 0.01
    assert sup40 <= 0.5 * sup20


def test_a3_pathwise_duhamel_coupling():
    """A3: over 100 noise realizations (h=1e-4, horizon with
    exp(-beta*T)<=1e-9) conditioned on a clear gap |-a+I_inf|>0.1, the
    error of the normalized exit time against its pathwise limit shrinks
    as epsilon decreases through {1e-1, 1e-2, 1e-3} (max and mean over
    seeds), and the max at epsilon=1e-3 is <= 0.05."""
    beta, a, h = 1.0, 1.0, 1e-4
    eps_levels = (1e-1, 1e-2, 1e-3)
    errors = {eps: [] for eps in eps_levels}
    collected = 0
    seed_index = 0
    while collected < 100:
        noise = sample_noise(beta, h, RngStream(3000).substream(seed_index))
        seed_index += 1
        if abs(-a + noise.limit_value) <= 0.1:
            continue
        target = limit_normalized_time(noise, a)
        for eps in eps_levels:
            problem = ExitProblem(beta=beta, epsilon=eps, a=a, step=h)
            rec = duhamel_exit_time(noise, problem)
            errors[eps].append(abs(rec.normalized_time - target))
        collected += 1

    maxes = [max(errors[eps]) for eps in eps_levels]
    means = [float(np.mean(errors[eps])) for eps in eps_levels]
    ok = (
        maxes[0] > maxes[1] > maxes[2]
        and means[0] > means[1] > means[2]
        and maxes[2] <= 0.05
    )
    _line(
        "A3",
        ok,
        f"max err per eps {[f'{m:.4f}' for m in maxes]}, "
        f"mean {[f'{m:.5f}' for m in means]}, final max <= 0.05",
    )
    assert maxes[0] > maxes[1] > maxes[2]
    assert means[0] > means[1] > means[2]
    assert maxes[2] <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: with center solving tail(b)=1/n and scale 1/b, "
        "the exact sup over x in [-1,2] of the relative error at n=1e8 is "
        "0.11472 at x=2 (verified with a 40-digit oracle; the error grows like "
        "(x^2+2x)/(2b^2) with b^2=31.49, so 0.10 would need n ~ 1e10)"
    ),
)
def test_a4_exceedance_count_relative_error():
    """A4, first clause: relative error of n*tail(x/b + b) vs exp(-x) at
    n=1e8 is <= 0.10 on the whole grid x in [-1, 2]."""
    seq = solve_normalizers(GAUSS, 10**8)
    xs = np.linspace(-1.0, 2.0, 61)
    rel = max(
        abs(gnedenko_lhs(GAUSS, seq, float(x)) - math.exp(-x)) / math.exp(-x) for x in xs
    )
    _line("A4 (relative error clause)", rel <= 0.10, f"sup rel err={rel:.5f} vs 0.10")
    assert rel <= 0.10


def test_a4_exceedance_count_pointwise_improvement():
    """A4, second clause: the error at n=1e8 is pointwise below the error
    at n=1e2 everywhere on the grid (x=0 is exact for both by the
    definition of the center)."""
    seq_small = solve_normalizers(GAUSS, 100)
    seq_large = solve_normalizers(GAUSS, 10**8)
    worst_ratio = 0.0
    for x in np.linspace(-1.0, 2.0, 61):
        e_small = abs(gnedenko_lhs(GAUSS, seq_small, float(x)) - math.exp(-x))
        e_large = abs(gnedenko_lhs(GAUSS, seq_large, float(x)) - math.exp(-x))
        if max(e_small, e_large) <= 1e-12:
            continue
        assert e_large < e_small
        worst_ratio = max(worst_ratio, e_large / e_small)
    _line("A4 (improvement clause)", True, f"max error ratio large/small={worst_ratio:.3f}")


def test_a5_domain_of_attraction_deterministic_and_monte_carlo():
    """A5: sup |F^n - Gumbel| over x in [-2,4] is <= 0.05 at n=1e6 and
    strictly decreasing across n in {1e3, 1e6, 1e9}; KS between 1e5
    sampled normalized maxima (blocks of 1e4) and the exact finite-n curve
    is <= 0.0061."""
    xs = np.linspace(-2.0, 4.0, 121)
    lam = np.asarray([gumbel_cdf(float(x)) for x in xs])
    sups = []
    for n in (10**3, 10**6, 10**9):
        seq = solve_normalizers(GAUSS, n)
        curve = np.asarray([max_cdf(GAUSS, seq, float(x)) for x in xs])
        sups.append(float(np.max(np.abs(curve - lam))))
    det_ok = sups[1] <= 0.05 and sups[0] > sups[1] > sups[2]

    seq = solve_normalizers(GAUSS, 10**4)
    maxima = sample_normalized_max(GAUSS, seq, 100_000, RngStream(42, 5))
    ks = ks_one_sample(maxima, lambda x: max_cdf(GAUSS, seq, x))
    mc_ok = ks <= 0.0061

    _line(
        "A5",
        det_ok and mc_ok,
        f"sups={[f'{s:.4f}' for s in sups]} (1e6 <= 0.05, decreasing), MC KS={ks:.5f} (<=0.0061)",
    )
    assert det_ok
    assert mc_ok


def test_a6_residual_scaling_deterministic():
    """A6: sup over x in [0,3] of |tail(r + x/r)/tail(r) - exp(-x)| is
    <= 0.01 at r=10 and <= 0.002 at r=30."""
    xs = np.linspace(0.0, 3.0, 3001)

    def sup_at(r):
        return max(abs(scaled_residual(GAUSS, r, float(x)) - math.exp(-x)) for x in xs)

    sup10, sup30 = sup_at(10.0), sup_at(30.0)
    ok = sup10 <= 0.01 and sup30 <= 0.002
    _line("A6", ok, f"sup(r=10)={sup10:.5f} (<=0.01), sup(r=30)={sup30:.6f} (<=0.002)")
    assert sup10 <= 0.01
    assert sup30 <= 0.002


def test_a7_log_transform_gumbel_limit():
    """A7: sup over x in [-2,6] of the recentered log-residual CDF vs the
    Gumbel CDF is <= 0.01 at r=20, and the algebraic identity with the
    scaled residual holds to 1e-13 at every grid point and threshold."""
    xs = np.linspace(-2.0, 6.0, 1601)
    sup20 = max(
        abs(shifted_log_residual_cdf(GAUSS, 20.0, float(x)) - gumbel_cdf(float(x)))
        for x in xs
    )
    worst_identity = 0.0
    for r in (5.0, 10.0, 20.0, 30.0):
        for x in xs:
            gap = abs(
                shifted_log_residual_cdf(GAUSS, r, float(x))
                - scaled_residual(GAUSS, r, math.exp(-float(x)))
            )
            worst_identity = max(worst_identity, gap)
    ok = sup20 <= 0.01 and worst_identity <= 1e-13
    _line("A7", ok, f"sup(r=20)={sup20:.5f} (<=0.01), identity gap={worst_identity:.2e} (<=1e-13)")
    assert sup20 <= 0.01
    assert worst_identity <= 1e-13


def test_a8_identities():
    """A8: Gumbel log-identity to 1e-12 on [-5,10]; exponential fixed point
    equal to the Gumbel CDF to 1e-13; Gaussian symmetry and the two-sided
    Mills bound."""
    ident = max(abs(gumbel_identity_residual(float(x))) for x in np.linspace(-5.0, 10.0, 301))

    exp_model = exponential_tail_model()
    fixed = max(
        abs(shifted_log_residual_cdf(exp_model, r, float(x)) - gumbel_cdf(float(x)))
        for r in (1.0, 5.0, 30.0)
        for x in np.linspace(-2.0, 6.0, 161)
    )

    symmetry = max(
        abs(gaussian_tail(-float(r)) + gaussian_tail(float(r)) - 1.0)
        for r in np.linspace(0.0, 8.0, 161)
    )

    mills_ok = all(
        1.0 - 1.0 / (r * r) < r * gaussian_tail(float(r)) / gaussian_pdf(float(r)) < 1.0
        for r in np.linspace(2.0, 30.0, 113)
    )

    ok = ident <= 1e-12 and fixed <= 1e-13 and symmetry <= 1e-13 and mills_ok
    _line(
        "A8",
        ok,
        f"identity={ident:.2e} (<=1e-12), fixed point={fixed:.2e} (<=1e-13), "
        f"symmetry={symmetry:.2e} (<=1e-13), Mills bound={'ok' if mills_ok else 'violated'}",
    )
    assert ident <= 1e-12
    assert fixed <= 1e-13
    assert symmetry <= 1e-13
    assert mills_ok


def test_a9_worker_count_reproducibility(tmp_path):
    """A9: the exit experiment writes byte-identical sample CSVs for
    --workers 1 and --workers 8 under the same seed."""
    outputs = {}
    for workers in (1, 8):
        outdir = tmp_path / f"w{workers}"
        code = cli_main(
            [
                "exit-experiment",
                "--n", "250",
                "--ks-threshold", "0.2",
                "--seed", "42",
                "--workers", str(workers),
                "--output-dir", str(outdir),
            ]
        )
        assert code == 0
        outputs[workers] = (outdir / "exit_samples.csv").read_bytes()
    ok = outputs[1] == outputs[8]
    _line("A9", ok, f"{len(outputs[1])} bytes, identical across worker counts: {ok}")
    assert ok
