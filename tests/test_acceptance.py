"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Monte Carlo criteria use fixed seeds so the suite is deterministic.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from fdrelay.curves import build_curve, db_to_linear, exact_diversity
from fdrelay.mcsim import wilson_interval
from fdrelay.outage import (
    AntennaConfig,
    OutageQuery,
    ZFMode,
    diversity_order,
    hop_cdf,
    link_dims,
)
from fdrelay.wishart import (
    WishartDims,
    cached_table,
    extract_coefficients,
)
from fdrelay.zf import make_rng, outage_from_gains
from eig_samplers import sample_wishart_max_eig
from exppoly_eval import evaluate
from exppoly_ref import ExpPoly, max_eig_cdf
from runs import analytic_curve, make_run
from zf_reference import (
    draw_trials,
    gain_samples,
    loopback_direction,
    power_identity_residual,
    projector_law_residual,
    projectors,
    zf_null,
)

CONFIG_SET = [(2, 3, 2, 1), (2, 2, 3, 1), (2, 3, 2, 2), (2, 3, 2, 3), (3, 2, 2, 2)]
MODES = (ZFMode.RECEIVE, ZFMode.TRANSMIT)
GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
GAMMA_T = 10.0  # 10 dB threshold, linear
TRIALS = 100_000
MC_SEED = 29
Z_99 = 2.5758293035489004

BUDGET_ALPHAS = {
    "symmetric": (1.0, 1.0),
    "rd_dominant_3_2": (1.0, math.sqrt(1.5)),
    "sr_dominant_3_2": (math.sqrt(1.5), 1.0),
}


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_coefficient_exactness():
    start = time.time()
    checked = 0
    for a in range(1, 5):
        for b in range(a, 8):
            table = extract_coefficients(WishartDims(a, b))  # zero residual or raises
            assert table.total() == 1, (a, b)
            checked += 1
    elapsed = time.time() - start
    _report(
        "criterion 1: exact extraction, sum = 1 for all a<=4, b<=7",
        checked == 22 and elapsed < 60.0,
        f"{checked} tables in {elapsed:.2f}s",
    )


def test_criterion_2_known_law_oracles():
    ok = True
    for b in range(1, 8):
        table = extract_coefficients(WishartDims(1, b))
        # the Erlang-b CDF 1 - e^{-x} sum_{j<b} x^j / j!
        erlang = ExpPoly({(0, 0): 1, **{(1, j): F(-1, math.factorial(j)) for j in range(b)}})
        ok &= max_eig_cdf(WishartDims(1, b)) == erlang and table.entries == {(1, b - 1): F(1)}
    table22 = extract_coefficients(WishartDims(2, 2))
    expected22 = {(1, 2): F(2), (1, 1): F(-2), (1, 0): F(2), (2, 0): F(-1)}
    ok &= table22.entries == expected22
    _report("criterion 2: Erlang identities and the frozen 2x2 table", ok)


def test_criterion_3_eigenvalue_law_ks():
    start = time.time()
    worst = 0.0
    for i, (a, b) in enumerate([(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)]):
        dims = WishartDims(a, b)
        samples = sample_wishart_max_eig(make_rng(100 + i), dims, TRIALS)
        cdf = max_eig_cdf(dims)
        ks = stats.ks_1samp(samples, lambda x: evaluate(cdf, x)).statistic
        worst = max(worst, ks)
    elapsed = time.time() - start
    _report(
        "criterion 3: analytic CDF vs sampled max eigenvalue, KS < 0.01",
        worst < 0.01 and elapsed < 120.0,
        f"max KS {worst:.4f} in {elapsed:.1f}s",
    )


def test_criterion_4_projection_reduction_ks():
    # receive-side projection: SR gains from the simulator vs the direct
    # reduced Wishart law; transmit-side mirrored on the RD hop.
    worst = 0.0
    for i, (cols, rows) in enumerate([(2, 2), (2, 3), (3, 3)]):
        rx = AntennaConfig(n_s=cols, n_r1=rows, n_r2=2, n_d=2, mode=ZFMode.RECEIVE)
        lam_sr, _ = gain_samples(rx, TRIALS, seed=200 + i)
        direct = sample_wishart_max_eig(
            make_rng(300 + i), WishartDims.of_matrix(rows - 1, cols), TRIALS
        )
        worst = max(worst, stats.ks_2samp(lam_sr, direct).statistic)

        tx = AntennaConfig(n_s=2, n_r1=2, n_r2=rows, n_d=cols, mode=ZFMode.TRANSMIT)
        _, lam_rd = gain_samples(tx, TRIALS, seed=400 + i)
        direct = sample_wishart_max_eig(
            make_rng(500 + i), WishartDims.of_matrix(rows - 1, cols), TRIALS
        )
        worst = max(worst, stats.ks_2samp(lam_rd, direct).statistic)
    _report(
        "criterion 4: projected channel matches reduced Wishart, KS < 0.015",
        worst < 0.015,
        f"max two-sample KS {worst:.4f}",
    )


def test_criterion_5_closed_form_inside_mc_ci():
    start = time.time()
    query = OutageQuery.snr(GAMMA_T)
    misses = []
    points = 0
    bounds = [GAMMA_T / db_to_linear(g_db) for g_db in GRID_DB]
    for antennas in CONFIG_SET:
        for mode in MODES:
            cfg = AntennaConfig(*antennas, mode)
            gains = gain_samples(cfg, TRIALS, MC_SEED)
            for name, alphas in BUDGET_ALPHAS.items():
                run = make_run(antennas, mode, GRID_DB, query, alphas=alphas)
                curve = [row.analytic for row in build_curve(run).rows]
                failures = outage_from_gains(gains, run.unit_scales(), bounds)
                for g_db, analytic, k in zip(GRID_DB, curve, failures.tolist()):
                    lo, hi = wilson_interval(k, TRIALS, z=Z_99)
                    points += 1
                    if not lo <= analytic <= hi:
                        misses.append((antennas, mode.value, name, g_db,
                                       analytic, (lo, hi)))
    elapsed = time.time() - start
    _report(
        "criterion 5: closed form inside 99% Wilson CI at every sweep point",
        not misses and elapsed < 600.0,
        f"{points} points in {elapsed:.1f}s"
        + (f"; misses: {misses}" if misses else ""),
    )


def test_criterion_6_figure_1_qualitative():
    query = OutageQuery.snr(GAMMA_T)
    grid = (20.0, 25.0, 30.0)
    # config a = (2,3,2,1), b = (2,2,3,1): one curve per config and budget
    a, b = ({name: analytic_curve(antennas, ZFMode.RECEIVE, grid, query, alphas=alphas)
             for name, alphas in BUDGET_ALPHAS.items()}
            for antennas in ((2, 3, 2, 1), (2, 2, 3, 1)))
    ok = True
    for p_a_sym, p_b_sym, p_a_rd, p_b_rd, p_a_sr, p_b_sr in zip(
            *(curves[name] for name in BUDGET_ALPHAS for curves in (a, b))):
        ok &= p_a_sym <= p_b_sym  # more receive antennas at R win under symmetry
        ok &= p_a_rd <= p_b_rd
        ok &= (p_b_rd - p_a_rd) > (p_b_sym - p_a_sym)  # gap widens
        ok &= p_b_sr <= p_a_sr  # ordering reverses when the first hop dominates
    _report("criterion 6: antenna-split ordering, gap growth, and reversal", ok)


def test_criterion_7_diversity_order_slopes():
    # exact: every hop's CDF Taylor series starts at t_ab x^ab with t_ab > 0,
    # and the smaller ab is the paper's order; float: the closed form
    # approaches that exact asymptote sum t_ab (gamma_t / scale)^d from 30
    # to 40 dB and is within 1e-2 of it at 40 dB
    query = OutageQuery.snr(GAMMA_T)
    grid_db = (30.0, 35.0, 40.0)
    failures = []
    for antennas in CONFIG_SET + [(3, 4, 3, 3), (4, 5, 4, 4)]:
        for mode in MODES:
            run = make_run(antennas, mode, grid_db, query)
            check = exact_diversity(run)
            hops = [link_dims(run.antenna, link) for link in ("sr", "rd")]
            d = diversity_order(run.antenna)
            if not (check.ok and check.hop_orders == tuple(h.a * h.b for h in hops)
                    and min(check.hop_orders) == d):
                failures.append((antennas, mode.value, d, check.hop_orders))
                continue
            if antennas not in CONFIG_SET:
                continue  # orders only: the float closed form is far off this deep
            t_sum = sum(float(hop_cdf(cached_table(h)).t_j0) for h in hops if h.a * h.b == d)
            asymptote = [t_sum * (GAMMA_T / 10.0 ** (g / 10.0)) ** d for g in grid_db]
            ratios = [row.analytic / p for row, p in zip(build_curve(run).rows, asymptote)]
            gaps = [abs(1.0 - r) for r in ratios]
            # the coding gain restates the same asymptote as (G_c gammabar)^-d
            from_gain = 10.0 ** (-d * (check.coding_gain_db + grid_db[-1]) / 10.0)
            if not (gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-2
                    and math.isclose(from_gain, asymptote[-1], rel_tol=1e-12)):
                failures.append((antennas, mode.value, d, [round(r, 5) for r in ratios]))
    _report(
        "criterion 7: exact hop diversity orders; closed form -> exact asymptote at high SNR",
        not failures,
        f"failures: {failures}" if failures else "14 exact orders, 10 asymptote ratios",
    )


def test_criterion_8_model_identities():
    # kernel beams for 5,000 trials per mode, checked against test-side
    # einsum references
    worst_zf = worst_power = worst_proj = 0.0
    trials_per_mode = 5_000
    for mode, seed in ((ZFMode.RECEIVE, 800), (ZFMode.TRANSMIT, 801)):
        cfg = AntennaConfig(2, 3, 2, 2, mode)
        (h_sr, h_rr, h_rd), _, _, beams = draw_trials(cfg, trials_per_mode, seed)
        worst_zf = max(worst_zf, float(np.max(zf_null(h_rr, beams))))
        worst_power = max(worst_power,
                          float(np.max(power_identity_residual(h_sr, h_rd, beams, 2.0, 3.0))))
        proj = projectors(loopback_direction(h_rr, beams, mode))
        assert proj.shape[1] == (cfg.n_r1 if mode is ZFMode.RECEIVE else cfg.n_r2)
        worst_proj = max(worst_proj, projector_law_residual(proj))
    ok = worst_zf <= 1e-10 and worst_power <= 1e-10 and worst_proj <= 1e-12
    _report(
        "criterion 8: ZF null, power identities, projector laws on 1e4 trials",
        ok,
        f"zf {worst_zf:.2e}, power {worst_power:.2e}, projector {worst_proj:.2e}",
    )
