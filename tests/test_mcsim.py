"""Monte Carlo simulator: channel statistics, beamformers, outage estimates."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fdrelay import mcsim, zf
from fdrelay.mcsim import BLOCK_SIZE, DegenerateChannelError, link_gain_samples, wilson_interval
from fdrelay.zf import (
    SUB_BATCH,
    _block_gains,
    _col_gram,
    _sample_arrays,
    _soa,
    _top_eig,
    _zf_trials,
    make_rng,
    outage_from_gains,
)
from fdrelay.curves import build_curve, db_grid, db_to_linear
from fdrelay.outage import AntennaConfig, ZFMode
from fdrelay.wishart import WishartDims
from eig_samplers import projected_max_eig_samples, sample_wishart_max_eig
from runs import make_run
from zf_reference import (
    BeamformerSet,
    draw_trials,
    gain_samples,
    loopback_direction,
    outage_per_point,
    power_identity_residual,
    projector_law_residual,
    projectors,
    received_powers,
    zf_null,
)

RX_CFG = AntennaConfig(2, 3, 2, 2, ZFMode.RECEIVE)
TX_CFG = AntennaConfig(2, 3, 2, 2, ZFMode.TRANSMIT)


# -- channel sampling ---------------------------------------------------------


def test_sampling_is_deterministic_given_seed():
    s1 = _sample_arrays(make_rng(42), RX_CFG, 1)
    s2 = _sample_arrays(make_rng(42), RX_CFG, 1)
    for a, b in zip(s1, s2):
        np.testing.assert_array_equal(a, b)
    s3 = _sample_arrays(make_rng(43), RX_CFG, 1)
    assert not np.array_equal(s1[0], s3[0])


def test_substreams_differ():
    a = make_rng(7, stream=0).standard_normal(8)
    b = make_rng(7, stream=1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_entry_statistics():
    entries = _sample_arrays(make_rng(1), RX_CFG, 10_000)[0].ravel()
    assert entries.size >= 10_000
    assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(entries)) < 0.01


def test_channel_shapes():
    h_sr, h_rr, h_rd = _sample_arrays(make_rng(0), AntennaConfig(3, 4, 2, 1, ZFMode.RECEIVE), 5)
    assert h_sr.shape == (5, 4, 3)
    assert h_rr.shape == (5, 4, 2)
    assert h_rd.shape == (5, 2, 1)


# -- projector ---------------------------------------------------------------


def test_projector_axis_aligned():
    p = projectors(np.array([[1.0], [0.0], [0.0]], dtype=complex))
    np.testing.assert_allclose(p[0], np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_projector_laws():
    rng = make_rng(3)
    for dim in range(2, 6):
        v = rng.standard_normal((dim, 50)) + 1j * rng.standard_normal((dim, 50))
        unit = v / np.linalg.norm(v, axis=0)
        p = projectors(unit)
        assert projector_law_residual(p) <= 1e-12
        assert np.max(np.abs(np.einsum("nij,jn->in", p, v))) <= 1e-12 * np.max(np.abs(v))


def test_projector_rejects_zero_vector():
    # A zero loopback image has no direction to project off: the kernel
    # raises before it divides by the image's norm.
    h_sr, h_rr, h_rd = _sample_arrays(make_rng(4), RX_CFG, 3)
    h_rr[1] = 0.0
    for mode in ZFMode:
        with pytest.raises(DegenerateChannelError, match="loopback image is zero"):
            _zf_trials(_soa(h_sr), _soa(h_rr), _soa(h_rd), mode)


# -- beamformer designs ---------------------------------------------------------


def _norms_ok(beams):
    return all(
        np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0, atol=1e-12)
        for v in (beams.t_s, beams.t_d, beams.w_r, beams.w_t)
    )


def _projected_gains(h, p, t):
    """Top eigenvalue of each trial's h^H P h, and the beamformed gain |P h t|^2."""
    lam = np.linalg.eigvalsh(np.einsum("nji,njk,nkl->nil", h.conj(), p, h))[:, -1]
    gain = np.linalg.norm(np.einsum("nij,njk,kn->ni", p, h, t), axis=1) ** 2
    return lam, gain


def test_receive_zf_design_properties():
    (h_sr, h_rr, _), lam_sr, _, beams = draw_trials(RX_CFG, 200, seed=10)
    assert _norms_ok(beams)
    assert np.max(zf_null(h_rr, beams)) <= 1e-10
    # beamformed gain equals the projected Gram's top eigenvalue
    lam, gain = _projected_gains(h_sr, projectors(loopback_direction(h_rr, beams, RX_CFG.mode)),
                                 beams.t_s)
    np.testing.assert_allclose(gain, lam, rtol=1e-9)
    np.testing.assert_allclose(lam_sr, lam, rtol=1e-9)


def test_transmit_zf_design_properties():
    (_, h_rr, h_rd), _, lam_rd, beams = draw_trials(TX_CFG, 200, seed=11)
    assert _norms_ok(beams)
    assert np.max(zf_null(h_rr, beams)) <= 1e-10
    proj = projectors(loopback_direction(h_rr, beams, TX_CFG.mode))
    np.testing.assert_allclose(np.trace(proj, axis1=1, axis2=2).real, TX_CFG.n_r2 - 1,
                               rtol=0, atol=1e-12)
    lam, gain = _projected_gains(h_rd, proj, beams.t_d)
    np.testing.assert_allclose(gain, lam, rtol=1e-9)
    np.testing.assert_allclose(lam_rd, lam, rtol=1e-9)


# -- instantaneous SNRs ----------------------------------------------------------


def test_snrs_hand_computed_case():
    # n_s = n_d = 1, n_r1 = n_r2 = 2: everything reduces to 2-vectors
    h_sr = np.array([[2.0], [3.0]], dtype=complex)
    h_rr = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    h_rd = np.array([[1.0], [0.0]], dtype=complex)
    lam_sr, lam_rd, beams = _zf_trials(
        *(_soa(h[None]) for h in (h_sr, h_rr, h_rd)), ZFMode.RECEIVE)
    p_s, p_r = 2.0, 3.0
    # t_d = 1, h_rd_eff = e1, loopback image = e2, projector keeps e1:
    # SR gain |2|^2 = 4, RD gain |h_rd|^2 = 1
    assert p_s * lam_sr[0] == pytest.approx(2.0 * 4.0, rel=1e-12)
    assert p_r * lam_rd[0] == pytest.approx(3.0 * 1.0, rel=1e-12)
    assert zf_null(h_rr[None], BeamformerSet(*beams))[0] <= 1e-12


def test_snrs_linear_in_power():
    gains = gain_samples(RX_CFG, 5000, seed=5)
    # effective powers (1.5, 2.5) and (6, 10) at average SNR 3: a bound is
    # the threshold over the average SNR
    base, quad = (1.5, 2.5), (6.0, 10.0)
    assert quad == (4.0 * base[0], 4.0 * base[1])
    # four times the power against four times the threshold: the same trials fail
    (failures,) = outage_from_gains(gains, base, [20.0 / 3.0])
    assert 0 < failures < 5000
    assert outage_from_gains(gains, quad, [80.0 / 3.0]).tolist() == [failures]


def test_mean_projected_gain_matches_quadrature():
    # E[max eig] for the reduced 2x2 law is 7/2 by integrating x * f(x)
    lam_sr, _ = gain_samples(RX_CFG, 100_000, seed=21)
    assert np.mean(lam_sr) == pytest.approx(3.5, rel=0.01)


def test_batch_and_scalar_paths_agree():
    # a batch of one gives the same gains as that trial inside a larger,
    # sub-batched run
    for cfg in (RX_CFG, TX_CFG):
        # the block draws these same channels from the same substream
        channels = _sample_arrays(make_rng(17), cfg, SUB_BATCH + 3)
        lam_sr, lam_rd = _block_gains(make_rng(17), cfg, SUB_BATCH + 3)
        for i in (0, SUB_BATCH + 1):
            one_sr, one_rd, _ = _zf_trials(*(_soa(h[i:i + 1]) for h in channels), cfg.mode)
            assert one_sr[0] == pytest.approx(lam_sr[i], rel=1e-12)
            assert one_rd[0] == pytest.approx(lam_rd[i], rel=1e-12)


def test_sub_batch_sizes_up_to_8192_give_identical_bits(monkeypatch):
    # fixed-seed numbers must not depend on SUB_BATCH; at 2**14 those of
    # (3,4,3,3) receive would
    for cfg in (RX_CFG, TX_CFG, AntennaConfig(3, 4, 3, 3, ZFMode.RECEIVE)):
        gains = []
        for size in sorted({1 << 11, 1 << 12, 1 << 13, SUB_BATCH}):
            monkeypatch.setattr(zf, "SUB_BATCH", size)
            gains.append(_block_gains(make_rng(3), cfg, 1 << 14))
        for other in gains[1:]:
            assert all(np.array_equal(x, y) for x, y in zip(gains[0], other)), (cfg, size)


# -- power identities ----------------------------------------------------------------


def test_power_identity_random_trials():
    for cfg in (RX_CFG, TX_CFG):
        (h_sr, _, h_rd), *_, beams = draw_trials(cfg, 200, seed=6)
        assert np.max(power_identity_residual(h_sr, h_rd, beams, 4.0, 2.0)) <= 1e-10


def test_power_identity_detects_non_unit_beamformer():
    (h_sr, _, h_rd), *_, beams = draw_trials(RX_CFG, 1, seed=8)
    skewed = BeamformerSet(t_s=beams.t_s, t_d=beams.t_d,
                           w_r=1.1 * beams.w_r, w_t=beams.w_t)
    # relay noise term becomes |1.1|^2 = 1.21 while the compact form assumes 1
    residual = power_identity_residual(h_sr, h_rd, skewed, 1.0, 1.0)
    assert residual[0] == pytest.approx(0.21, abs=1e-9)


def test_noise_only_received_power():
    (h_sr, _, h_rd), *_, beams = draw_trials(RX_CFG, 1, seed=9)
    tr_r, tr_d = received_powers(h_sr, h_rd, beams, p_s=0.0, p_r=0.0)
    assert tr_r[0] == pytest.approx(1.0, abs=1e-12)
    assert tr_d[0] == pytest.approx(1.0, abs=1e-12)


# -- outage estimation -----------------------------------------------------------------


def test_outage_from_gains_hand_count():
    gains = (np.array([1.0, 2.0, 3.0, 4.0]), np.array([4.0, 3.0, 2.0, 0.5]))
    # SNRs min(2 * sr, rd) = (2, 3, 2, 0.5); the counts come back in the
    # bounds' order, which need not rise and may repeat
    failures = outage_from_gains(gains, (2.0, 1.0), [2.5, 0.25, 3.5, 2.5, 0.0])
    assert failures.dtype == np.int64
    assert failures.tolist() == [3, 0, 4, 3, 0]
    # an SNR equal to its bound is not an outage
    assert outage_from_gains(gains, (2.0, 1.0), [2.0, 0.5, 3.0]).tolist() == [1, 0, 3]
    # min(sr, 8 * rd) = (1, 2, 3, 4) and min(4 * sr, 4 * rd) = (4, 8, 8, 2)
    assert outage_from_gains(gains, (1.0, 8.0), [2.5]).tolist() == [2]
    assert outage_from_gains(gains, (4.0, 4.0), [2.5, 8.0]).tolist() == [1, 2]


@pytest.mark.parametrize("antennas, mode", [
    ((2, 3, 2, 2), ZFMode.RECEIVE), ((3, 4, 3, 3), ZFMode.RECEIVE),
    ((2, 2, 3, 2), ZFMode.TRANSMIT), ((2, 3, 2, 1), ZFMode.RECEIVE),
])
def test_outage_from_gains_matches_per_point_count(antennas, mode):
    # counts against one bound per point equal those of scaling each hop at
    # each point, on random db_grid grids of 1 to 10,000 points, some
    # shuffled or with repeats, unit scales over twelve decades and a zero
    # threshold
    gains = gain_samples(AntennaConfig(*antennas, mode), BLOCK_SIZE, seed=41)
    rng = np.random.default_rng(sum(antennas))
    crossed = 0
    for case in range(8):
        units = tuple(10.0 ** rng.uniform(-6.0, 6.0, size=2))
        gamma_t = 0.0 if case == 1 else 10.0 ** rng.uniform(-3.0, 3.0)
        # each grid spans the average SNR where the trials' SNRs cross the threshold
        cross = 10.0 * math.log10((gamma_t or 1.0) / min(units))
        if case == 0:
            grid = db_grid(cross - 50.0, cross + 49.99, 0.01)
            assert len(grid) == 10_000
        else:
            step = 10.0 ** rng.uniform(-2.0, 1.0)
            span = 0.0 if case == 4 else min(step * rng.integers(1, 2_000), 100.0)
            start = cross - rng.uniform(0.0, span)
            grid = db_grid(start, start + span, step)
        if case % 3 == 2:
            grid = rng.permutation(grid).tolist()
        elif case % 3 == 0 and case:
            grid = rng.choice(grid, size=len(grid) + 5).tolist()
        gbars = [db_to_linear(g) for g in grid]
        expected = outage_per_point(gains, [units[0] * g for g in gbars],
                                    [units[1] * g for g in gbars], gamma_t)
        counts = outage_from_gains(gains, units, [gamma_t / g for g in gbars])
        assert counts.tolist() == expected.tolist(), (case, units, gamma_t)
        crossed += len(set(expected.tolist())) > 2
    assert crossed == 6  # every curve but the one point and gamma_t = 0


def test_estimate_outage_trivial_thresholds():
    for gamma_t, expected in ((0.0, 0), (1e12, 2000)):
        assert link_gain_samples(RX_CFG, 2000, 1, (1.0, 1.0), [gamma_t])[0].tolist() == [expected]


def test_estimate_outage_deterministic():
    bounds = [5.0 / g for g in (1.0, 3.0, 10.0)]
    (f1,) = link_gain_samples(RX_CFG, 30_000, 77, (1.0, 1.0), bounds)
    (f2,) = link_gain_samples(RX_CFG, 30_000, 77, (1.0, 1.0), bounds)
    assert f1.tolist() == f2.tolist()
    assert 30_000 > f1[0] > f1[1] > f1[2] > 0


def test_estimate_outage_matches_closed_form():
    trials = 50_000
    (row,) = build_curve(make_run((2, 3, 2, 1), "receive", (15.0,), trials=trials, seed=3)).rows
    se = math.sqrt(row.analytic * (1 - row.analytic) / trials)
    assert abs(row.mc - row.analytic) <= 4.0 * se


def _reference_gains(config, trials, seed):
    """``gain_samples`` rebuilt with einsum and LAPACK, block by block."""
    def randn_c(rng, shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    def gram(h):
        return np.einsum("nij,nik->njk", h.conj(), h)

    parts = []
    for block, start in enumerate(range(0, trials, BLOCK_SIZE)):
        n = min(BLOCK_SIZE, trials - start)
        rng = make_rng(seed, block)
        h_sr = randn_c(rng, (n, config.n_r1, config.n_s))
        h_rr = randn_c(rng, (n, config.n_r1, config.n_r2))
        h_rd = randn_c(rng, (n, config.n_r2, config.n_d))
        if config.mode is ZFMode.RECEIVE:
            near, far, loop = h_sr, h_rd, h_rr
        else:
            near, far, loop = h_rd, h_sr, h_rr.conj().transpose(0, 2, 1)
        vals, vecs = np.linalg.eigh(gram(far))
        image = np.einsum("nij,njk,nk->ni", loop, far, vecs[:, :, -1])
        image /= np.linalg.norm(image, axis=1)[:, None]
        proj = np.eye(near.shape[1]) - np.einsum("ni,nj->nij", image, image.conj())
        lam_near = np.linalg.eigvalsh(gram(np.einsum("nij,njk->nik", proj, near)))[:, -1]
        lam_far = vals[:, -1]
        parts.append((lam_near, lam_far) if config.mode is ZFMode.RECEIVE else (lam_far, lam_near))
    return tuple(np.concatenate(p) for p in zip(*parts))


@pytest.mark.parametrize("antennas, mode", [
    ((2, 3, 2, 2), ZFMode.RECEIVE), ((2, 2, 3, 2), ZFMode.TRANSMIT),
    ((3, 4, 3, 3), ZFMode.RECEIVE), ((3, 2, 2, 2), ZFMode.TRANSMIT),
])
def test_gain_samples_match_lapack_reference(antennas, mode):
    cfg = AntennaConfig(*antennas, mode)
    trials = 3 * BLOCK_SIZE + 5
    assert trials % SUB_BATCH
    lam_sr, lam_rd = gain_samples(cfg, trials, seed=31)
    ref_sr, ref_rd = _reference_gains(cfg, trials, seed=31)
    assert lam_sr.shape == lam_rd.shape == (trials,)
    assert np.max(np.abs(lam_sr - ref_sr) / ref_sr) <= 1e-12
    assert np.max(np.abs(lam_rd - ref_rd) / ref_rd) <= 1e-12


@pytest.mark.parametrize("mode", [ZFMode.RECEIVE, ZFMode.TRANSMIT])
def test_gain_kernel_checks_zf_null(monkeypatch, mode):
    # A projection that only halves the loopback direction leaves a residual
    # null in every trial; the kernel must refuse it.
    def leaky(h, unit):
        return h - 0.5 * unit[:, None] * (unit.conj()[:, None] * h).sum(axis=0)

    monkeypatch.setattr(zf, "_project_off", leaky)
    with pytest.raises(DegenerateChannelError, match="ZF null"):
        link_gain_samples(AntennaConfig(2, 3, 3, 2, mode), 100, 3, (1.0, 1.0), [1.0])


#: Whether runs of two or more blocks go to worker processes on this host.
POOLED = mcsim._usable_cpus() > 1 and "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.parametrize("antennas, mode, trials", [
    ((2, 3, 2, 2), ZFMode.RECEIVE, 3 * BLOCK_SIZE + 5),
    ((2, 2, 3, 2), ZFMode.TRANSMIT, 3 * BLOCK_SIZE + 5),
    ((4, 5, 4, 4), ZFMode.RECEIVE, 2 * BLOCK_SIZE),  # LAPACK inside the workers
])
def test_pooled_gains_are_bitwise_inline_blocks(monkeypatch, antennas, mode, trials):
    # counts of the pool's blocks, of inline blocks and of whole-run gains
    # counted here point by point agree at every point of a 0-30 dB curve
    cfg = AntennaConfig(*antennas, mode)
    gbars = [10.0 ** (0.2 * i) for i in range(16)]
    bounds = [10.0 / g for g in gbars]
    (pooled,) = link_gain_samples(cfg, trials, 37, (1.0, 0.5), bounds)
    assert (mcsim._pool is not None) == POOLED
    monkeypatch.setattr(mcsim, "_block_pool", lambda: None)
    (inline,) = link_gain_samples(cfg, trials, 37, (1.0, 0.5), bounds)
    expected = outage_per_point(gain_samples(cfg, trials, 37), gbars,
                                [0.5 * g for g in gbars], 10.0).tolist()
    assert pooled.tolist() == inline.tolist() == expected
    assert len(set(expected)) >= 5  # the curve crosses the threshold


@pytest.mark.skipif(not POOLED, reason="blocks run inline on this host")
def test_pool_gets_a_bounded_number_of_blocks_ahead(monkeypatch):
    # the parent's pending work must not grow with the number of blocks
    pool, submitted = mcsim._block_pool(), []

    class CountingPool:
        def submit(self, fn, *args):
            submitted.append(args[1])
            return pool.submit(fn, *args)

    monkeypatch.setattr(mcsim, "_block_pool", CountingPool)
    ahead = mcsim.BLOCKS_AHEAD_PER_WORKER * mcsim._usable_cpus()
    sizes, bounds = [500] * (3 * ahead), np.array([5.0, 0.5])
    blocks = mcsim._run_blocks(1, RX_CFG, sizes, (1.0, 1.0), bounds)
    for done, failures in enumerate(blocks, start=1):
        assert len(submitted) == min(len(sizes), done - 1 + ahead)
        assert failures.shape == (2,)
    assert submitted == list(range(len(sizes)))


# Forked workers keep the module state of the moment the pool starts, so a
# patch of zf that must reach them runs in a fresh interpreter.  Each script
# reads the name it replaces first, so a stale patch fails loudly.
LEAKY_PROJECTION = """
import sys
from fdrelay import mcsim, zf
from fdrelay.outage import AntennaConfig, ZFMode

def leaky(h, unit):
    return h - 0.5 * unit[:, None] * (unit.conj()[:, None] * h).sum(axis=0)

assert callable(zf._project_off)
zf._project_off = leaky
cfg = AntennaConfig(2, 3, 3, 2, ZFMode(sys.argv[1]))
for run in (lambda: zf._block_gains(zf.make_rng(3, 0), cfg, mcsim.BLOCK_SIZE),
            lambda: mcsim.link_gain_samples(cfg, 2 * mcsim.BLOCK_SIZE, 3, (1.0, 1.0), [1.0])):
    try:
        run()
    except Exception as exc:
        print(type(exc).__name__, type(exc.__cause__).__name__, exc, sep="|")
"""


@pytest.mark.skipif(not POOLED, reason="blocks run inline on this host")
@pytest.mark.parametrize("mode", ["receive", "transmit"])
def test_worker_error_reaches_caller_as_inline(mode):
    result = subprocess.run([sys.executable, "-c", LEAKY_PROJECTION, mode],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    inline, pooled = (line.split("|") for line in result.stdout.splitlines())
    assert inline[0] == pooled[0] == "DegenerateChannelError"
    assert pooled[1] == "_RemoteTraceback"  # raised in a worker
    assert inline[2] == pooled[2] and "ZF null residual" in inline[2]


# A run imports the kernel, and numpy with it, before its pool forks, so the
# workers inherit both; argv[1] == "pooled" when this host runs a pool.
FORK_ORDER = """
import sys
from fdrelay import mcsim
from fdrelay.outage import AntennaConfig, ZFMode

assert "numpy" not in sys.modules and "fdrelay.zf" not in sys.modules
make_pool, seen = mcsim._block_pool, []

def spy():
    seen.append("fdrelay.zf" in sys.modules and "numpy" in sys.modules)
    return make_pool()

mcsim._block_pool = spy
mcsim.link_gain_samples(AntennaConfig(2, 3, 2, 2, ZFMode.RECEIVE), 2 * mcsim.BLOCK_SIZE + 1, 1,
                        (1.0, 1.0), [1.0])
assert seen == [True], seen
assert (mcsim._pool is not None) == (sys.argv[1] == "pooled")
"""


def test_kernel_is_imported_before_the_pool_forks():
    result = subprocess.run([sys.executable, "-c", FORK_ORDER, "pooled" if POOLED else "inline"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# The run's second block is a part block of 100 trials, and only its trial 7
# has a zero loopback channel.
ZERO_LOOPBACK = """
from fdrelay import mcsim, zf
from fdrelay.outage import AntennaConfig, ZFMode

sample = zf._sample_arrays

def zero_loopback(rng, config, n):
    h_sr, h_rr, h_rd = sample(rng, config, n)
    if n < mcsim.BLOCK_SIZE:
        h_rr[7] = 0.0
    return h_sr, h_rr, h_rd

zf._sample_arrays = zero_loopback
cfg = AntennaConfig(2, 3, 2, 2, ZFMode.RECEIVE)
for pool in (mcsim._block_pool, lambda: None):
    mcsim._block_pool = pool
    try:
        mcsim.link_gain_samples(cfg, mcsim.BLOCK_SIZE + 100, 3, (1.0, 1.0), [1.0])
        print("no error")
    except Exception as exc:
        print(type(exc).__name__, type(exc.__cause__).__name__, exc, sep="|")
"""


def test_zero_loopback_image_fails_the_run():
    # one zero image in a 2-block run has no direction to null: the run
    # raises, with the same error from a worker as from the calling process
    result = subprocess.run([sys.executable, "-c", ZERO_LOOPBACK],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    pooled, inline = (line.split("|") for line in result.stdout.splitlines())
    assert pooled[0] == inline[0] == "DegenerateChannelError"
    assert pooled[1] == ("_RemoteTraceback" if POOLED else "NoneType")
    assert inline[1] == "NoneType"
    assert pooled[2] == inline[2] == "a trial's loopback image is zero: no direction to null"


ORPHANED_WORKERS = """
import multiprocessing, os, signal
from fdrelay import mcsim
from fdrelay.outage import AntennaConfig, ZFMode

mcsim.link_gain_samples(AntennaConfig(2, 3, 2, 2, ZFMode.RECEIVE), 2 * mcsim.BLOCK_SIZE, 1,
                        (1.0, 1.0), [1.0])
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not POOLED or not Path("/proc/self/stat").exists(),
                    reason="needs worker processes and /proc")
def test_workers_exit_when_their_parent_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", ORPHANED_WORKERS],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    try:
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert len(pids) == mcsim._usable_cpus()
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


FORKED_CHILD = """
import os
from fdrelay import mcsim
from fdrelay.outage import AntennaConfig, ZFMode

cfg = AntennaConfig(2, 3, 2, 2, ZFMode.RECEIVE)
curve = ((1.0, 1.0), [5.0, 0.5])
failures = mcsim.link_gain_samples(cfg, 2 * mcsim.BLOCK_SIZE, 1, *curve)[0].tobytes()
pid = os.fork()
if pid == 0:
    same = mcsim.link_gain_samples(cfg, 2 * mcsim.BLOCK_SIZE, 1, *curve)[0].tobytes() == failures
    os._exit(0 if same else 1)
print(os.waitpid(pid, 0)[1])
"""


@pytest.mark.skipif(not POOLED, reason="blocks run inline on this host")
def test_forked_child_makes_its_own_pool():
    # the parent's pool has no manager thread in a child; using it would hang
    result = subprocess.run([sys.executable, "-c", FORKED_CHILD],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]


# The parent's peak RSS after a 2**18-trial curve and again after a
# 2**22-trial one; argv[1] == "inline" pins the process to one CPU first.
PARENT_MEMORY = """
import os, resource, sys
if sys.argv[1] == "inline":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fdrelay import curves, mcsim
from fdrelay.outage import AntennaConfig, OutageQuery, ZFMode

def peak_after(trials):
    curves.build_curve(curves.RunConfig(
        antenna=AntennaConfig(1, 2, 1, 1, ZFMode.RECEIVE), query=OutageQuery.snr(10.0),
        grid_db=(0.0, 10.0, 20.0, 30.0), p_s=1.0, p_r=1.0, alpha_sr=1.0, alpha_rd=1.0,
        trials=trials, seed=3, out_csv=None, asymmetry="symmetric", asymmetry_ratio=None))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

small, large = peak_after(2 ** 18), peak_after(2 ** 22)
print("pooled" if mcsim._pool else "inline", (large - small) / 1024)
"""


@pytest.mark.parametrize("path", [
    pytest.param("pooled", marks=pytest.mark.skipif(not POOLED, reason="blocks run inline")),
    pytest.param("inline", marks=pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                                    reason="needs sched_setaffinity")),
])
def test_parent_memory_does_not_grow_with_trials(path):
    # 16 trials more take 256 bytes of gains; no process keeps them past
    # their block, so the parent's peak stays put
    result = subprocess.run([sys.executable, "-c", PARENT_MEMORY, path],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    ran, growth_mb = result.stdout.split()
    assert ran == path
    assert float(growth_mb) < 4.0


def test_gain_samples_reject_bad_trials_argument():
    with pytest.raises(ValueError):
        link_gain_samples(RX_CFG, 0, 1, (1.0, 1.0), [1.0])


def test_gain_samples_block_invariance():
    # a run of part of a block counts that part-block's gains
    (failures,) = link_gain_samples(RX_CFG, 300, 5, (1.0, 1.0), [5.0, 0.5])
    assert failures.shape == (2,)
    scales = [1.0, 10.0]
    assert failures.tolist() == outage_per_point(gain_samples(RX_CFG, 300, 5), scales, scales,
                                                 5.0).tolist()


# -- confidence intervals ---------------------------------------------------------------


def test_wilson_interval_endpoints():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == 1.0


def test_wilson_interval_symmetric_case():
    # hand-evaluated score interval for 50/100 at 95%
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=2e-4)
    assert hi == pytest.approx(0.59617, abs=2e-4)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


# -- distribution helpers ------------------------------------------------------------------


def test_wishart_sampler_shapes_and_support():
    vals = sample_wishart_max_eig(make_rng(2), WishartDims(2, 3), 500)
    assert vals.shape == (500,)
    assert np.all(vals >= 0.0)


def test_projected_sampler_matches_reduced_wishart_roughly():
    from scipy import stats

    n = 40_000
    proj = projected_max_eig_samples(make_rng(14), rows=3, cols=2, trials=n)
    direct = sample_wishart_max_eig(make_rng(15), WishartDims.of_matrix(2, 2), n)
    assert stats.ks_2samp(proj, direct).statistic < 0.025


# -- closed-form eigensolves ----------------------------------------------------------------


def _as_batch(mats):
    """(n, k, k) matrices -> the (k, k, n) layout of the gain kernel."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(mats, dtype=complex), 0, -1))


def _rotated(rng, eigenvalues):
    """U diag(eigenvalues) U^H for a random unitary U per row of eigenvalues."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    n, k = eigenvalues.shape
    u, _ = np.linalg.qr(rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k)))
    return np.einsum("nij,nj,nkj->nik", u, eigenvalues, u.conj())


def _hermitian_cases(k):
    rng = np.random.default_rng(40 + k)
    g = rng.standard_normal((500, k + 1, k)) + 1j * rng.standard_normal((500, k + 1, k))
    rank1 = rng.standard_normal((50, 1, k)) + 1j * rng.standard_normal((50, 1, k))
    cases = {
        "random": np.einsum("nij,nik->njk", g.conj(), g),
        "diagonal": np.stack([np.diag(d) for d in rng.uniform(0.0, 5.0, (50, k))]),
        "scalar": np.stack([c * np.eye(k) for c in (0.0, 1.0, 3.5, 1e-300, 1e150)]),
        "rank1": np.einsum("nij,nik->njk", rank1.conj(), rank1),
        "zero": np.zeros((3, k, k)),
    }
    if k > 1:
        top = np.array([[2.0] * 2 + [1.0] * (k - 2)] * 20)
        cases["repeated_top"] = _rotated(rng, top)
        near = np.array([[1.0 + d, 1.0] + [0.25] * (k - 2) for d in 10.0 ** -np.arange(1, 16)])
        cases["nearly_repeated_top"] = _rotated(rng, near)
    return cases


def test_col_gram_matches_einsum():
    rng = np.random.default_rng(39)
    for rows, cols in ((3, 1), (2, 3), (4, 3), (5, 4)):
        h = rng.standard_normal((40, rows, cols)) + 1j * rng.standard_normal((40, rows, cols))
        np.testing.assert_allclose(_col_gram(_as_batch(h)),
                                   _as_batch(np.einsum("nij,nik->njk", h.conj(), h)),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_top_eig_matches_lapack(k):
    for name, mats in _hermitian_cases(k).items():
        ref = np.linalg.eigvalsh(mats)[:, -1]
        lam, vec = _top_eig(_as_batch(mats))
        assert np.all(np.abs(lam - ref) <= 1e-12 * np.abs(ref)), name
        v = vec.T
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-14), name
        resid = np.linalg.norm(np.einsum("nij,nj->ni", mats, v) - lam[:, None] * v, axis=1)
        assert np.all(resid <= 1e-12 * np.maximum(lam, 1.0)), name


def test_top_eig3_hands_only_close_top_pairs_to_lapack(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cases = _hermitian_cases(3)
    _top_eig(_as_batch(cases["random"]))
    assert calls == []
    _top_eig(_as_batch(np.concatenate([cases["random"], cases["repeated_top"]])))
    assert calls == [len(cases["repeated_top"])]
