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

from fdrelay.exppoly import ExpPoly
from fdrelay.mcsim import (
    link_gain_samples,
    make_rng,
    outage_from_gains,
)
from fdrelay.outage import (
    AntennaConfig,
    LinkBudget,
    OutageQuery,
    ZFMode,
    diversity_order,
    end_to_end_outage,
)
from fdrelay.wishart import WishartDims, extract_coefficients, max_eig_cdf
from eig_samplers import sample_wishart_max_eig
from zf_reference import (
    draw_trials,
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


def _budget(g_db: float, alphas) -> LinkBudget:
    g = 10.0 ** (g_db / 10.0)
    return LinkBudget(gammabar_sr=g, gammabar_rd=g,
                      alpha_sr=alphas[0], alpha_rd=alphas[1])


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
        erlang = ExpPoly({(1, b - 1): F(1, math.factorial(b - 1))})
        ok &= table.density() == erlang and table.entries == {(1, b - 1): F(1)}
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
        ks = stats.ks_1samp(samples, max_eig_cdf(dims)).statistic
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
        lam_sr, _ = link_gain_samples(rx, TRIALS, seed=200 + i)
        direct = sample_wishart_max_eig(
            make_rng(300 + i), WishartDims.of_matrix(rows - 1, cols), TRIALS
        )
        worst = max(worst, stats.ks_2samp(lam_sr, direct).statistic)

        tx = AntennaConfig(n_s=2, n_r1=2, n_r2=rows, n_d=cols, mode=ZFMode.TRANSMIT)
        _, lam_rd = link_gain_samples(tx, TRIALS, seed=400 + i)
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
    for antennas in CONFIG_SET:
        for mode in MODES:
            cfg = AntennaConfig(*antennas, mode)
            gains = link_gain_samples(cfg, TRIALS, MC_SEED)
            for name, alphas in BUDGET_ALPHAS.items():
                for g_db in GRID_DB:
                    budget = _budget(g_db, alphas)
                    analytic = end_to_end_outage(cfg, budget, query)
                    _, lo, hi = outage_from_gains(gains, budget, GAMMA_T, z=Z_99)
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
    cfg_a = AntennaConfig(2, 3, 2, 1, ZFMode.RECEIVE)
    cfg_b = AntennaConfig(2, 2, 3, 1, ZFMode.RECEIVE)
    ok = True
    for g_db in (20.0, 25.0, 30.0):
        p_a_sym = end_to_end_outage(cfg_a, _budget(g_db, BUDGET_ALPHAS["symmetric"]), query)
        p_b_sym = end_to_end_outage(cfg_b, _budget(g_db, BUDGET_ALPHAS["symmetric"]), query)
        ok &= p_a_sym <= p_b_sym  # more receive antennas at R win under symmetry

        rd = BUDGET_ALPHAS["rd_dominant_3_2"]
        p_a_rd = end_to_end_outage(cfg_a, _budget(g_db, rd), query)
        p_b_rd = end_to_end_outage(cfg_b, _budget(g_db, rd), query)
        ok &= p_a_rd <= p_b_rd
        ok &= (p_b_rd - p_a_rd) > (p_b_sym - p_a_sym)  # gap widens

        sr = BUDGET_ALPHAS["sr_dominant_3_2"]
        p_a_sr = end_to_end_outage(cfg_a, _budget(g_db, sr), query)
        p_b_sr = end_to_end_outage(cfg_b, _budget(g_db, sr), query)
        ok &= p_b_sr <= p_a_sr  # ordering reverses when the first hop dominates
    _report("criterion 6: antenna-split ordering, gap growth, and reversal", ok)


def test_criterion_7_diversity_order_slopes():
    query = OutageQuery.snr(GAMMA_T)
    fit_db = np.arange(30.0, 40.01, 2.5)
    failures = []
    for antennas in CONFIG_SET:
        for mode in MODES:
            cfg = AntennaConfig(*antennas, mode)
            logs = []
            for g_db in fit_db:
                p = end_to_end_outage(cfg, _budget(g_db, (1.0, 1.0)), query)
                logs.append((g_db / 10.0, math.log10(p)))
            slope = float(np.polyfit(*zip(*logs), 1)[0])
            predicted = diversity_order(cfg)
            if abs(slope + predicted) > 0.3:
                failures.append((antennas, mode.value, predicted, round(slope, 3)))
    _report(
        "criterion 7: high-SNR slope within +/-0.3 of -diversity order",
        not failures,
        f"failures: {failures}" if failures else "10 config/mode fits",
    )


def test_criterion_8_model_identities():
    # kernel beams for 5,000 trials per mode, checked against test-side
    # einsum references
    budget = LinkBudget(p_s=2.0, p_r=3.0)
    worst_zf = worst_power = worst_proj = 0.0
    trials_per_mode = 5_000
    for mode, seed in ((ZFMode.RECEIVE, 800), (ZFMode.TRANSMIT, 801)):
        cfg = AntennaConfig(2, 3, 2, 2, mode)
        (h_sr, h_rr, h_rd), _, _, bad, beams = draw_trials(cfg, trials_per_mode, seed)
        assert not bad.any()
        worst_zf = max(worst_zf, float(np.max(zf_null(h_rr, beams))))
        worst_power = max(worst_power,
                          float(np.max(power_identity_residual(h_sr, h_rd, beams, budget))))
        proj = projectors(loopback_direction(h_rr, beams, mode))
        assert proj.shape[1] == (cfg.n_r1 if mode is ZFMode.RECEIVE else cfg.n_r2)
        worst_proj = max(worst_proj, projector_law_residual(proj))
    ok = worst_zf <= 1e-10 and worst_power <= 1e-10 and worst_proj <= 1e-12
    _report(
        "criterion 8: ZF null, power identities, projector laws on 1e4 trials",
        ok,
        f"zf {worst_zf:.2e}, power {worst_power:.2e}, projector {worst_proj:.2e}",
    )
