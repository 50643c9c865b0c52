"""Monte Carlo simulator: channel statistics, beamformers, outage estimates."""

import dataclasses
import math

import numpy as np
import pytest

from fdrelay import mcsim
from fdrelay.mcsim import (
    BLOCK_SIZE,
    SUB_BATCH,
    BeamformerSet,
    ChannelSample,
    DegenerateChannelError,
    _col_gram,
    _gains_from_channels,
    _top_eig,
    design_receive_zf,
    design_transmit_zf,
    estimate_outage,
    instantaneous_snrs,
    left_null_projector,
    link_gain_samples,
    make_rng,
    power_identity_check,
    received_powers,
    sample_channels,
    sample_wishart_max_eig,
    projected_max_eig_samples,
    wilson_interval,
    zf_residual,
)
from fdrelay.outage import AntennaConfig, LinkBudget, OutageQuery, ZFMode, end_to_end_outage
from fdrelay.wishart import WishartDims

RX_CFG = AntennaConfig(2, 3, 2, 2, ZFMode.RECEIVE)
TX_CFG = AntennaConfig(2, 3, 2, 2, ZFMode.TRANSMIT)


# -- channel sampling ---------------------------------------------------------


def test_sampling_is_deterministic_given_seed():
    s1 = sample_channels(make_rng(42), RX_CFG)
    s2 = sample_channels(make_rng(42), RX_CFG)
    np.testing.assert_array_equal(s1.h_sr, s2.h_sr)
    np.testing.assert_array_equal(s1.h_rr, s2.h_rr)
    np.testing.assert_array_equal(s1.h_rd, s2.h_rd)
    s3 = sample_channels(make_rng(43), RX_CFG)
    assert not np.array_equal(s1.h_sr, s3.h_sr)


def test_substreams_differ():
    a = make_rng(7, stream=0).standard_normal(8)
    b = make_rng(7, stream=1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_entry_statistics():
    rng = make_rng(1)
    entries = np.concatenate([
        sample_channels(rng, RX_CFG).h_sr.ravel() for _ in range(10_000)
    ])
    assert entries.size >= 10_000
    assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(entries)) < 0.01


def test_channel_shapes():
    s = sample_channels(make_rng(0), AntennaConfig(3, 4, 2, 1, ZFMode.RECEIVE))
    assert s.h_sr.shape == (4, 3)
    assert s.h_rr.shape == (4, 2)
    assert s.h_rd.shape == (2, 1)


# -- projector ---------------------------------------------------------------


def test_projector_axis_aligned():
    p = left_null_projector(np.array([1.0, 0.0, 0.0], dtype=complex), 3)
    np.testing.assert_allclose(p, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_projector_laws():
    rng = make_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        p = left_null_projector(v)
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p @ v)) <= 1e-12 * np.linalg.norm(v)
        assert np.trace(p).real == pytest.approx(dim - 1, abs=1e-12)


def test_projector_rejects_zero_vector():
    with pytest.raises(DegenerateChannelError):
        left_null_projector(np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        left_null_projector(np.ones(3, dtype=complex), dim=4)


# -- beamformer designs ---------------------------------------------------------


def _norms_ok(beams):
    return all(
        np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        for v in (beams.t_s, beams.t_d, beams.w_r, beams.w_t)
    )


def test_receive_zf_design_properties():
    rng = make_rng(10)
    for _ in range(200):
        s = sample_channels(rng, RX_CFG)
        beams = design_receive_zf(s)
        assert _norms_ok(beams)
        assert zf_residual(s, beams) <= 1e-10
        # beamformed gain equals the projected Gram's top eigenvalue
        proj = left_null_projector(s.h_rr @ beams.w_t)
        lam = np.linalg.eigvalsh(s.h_sr.conj().T @ proj @ s.h_sr)[-1]
        gain = np.linalg.norm(proj @ (s.h_sr @ beams.t_s)) ** 2
        assert gain == pytest.approx(lam, rel=1e-9)


def test_transmit_zf_design_properties():
    rng = make_rng(11)
    for _ in range(200):
        s = sample_channels(rng, TX_CFG)
        beams = design_transmit_zf(s)
        assert _norms_ok(beams)
        assert zf_residual(s, beams) <= 1e-10
        proj = left_null_projector(s.h_rr.conj().T @ (s.h_sr @ beams.t_s))
        assert np.trace(proj).real == pytest.approx(TX_CFG.n_r2 - 1, abs=1e-12)
        lam = np.linalg.eigvalsh(s.h_rd.conj().T @ proj @ s.h_rd)[-1]
        gain = np.linalg.norm(proj @ (s.h_rd @ beams.t_d)) ** 2
        assert gain == pytest.approx(lam, rel=1e-9)


# -- instantaneous SNRs ----------------------------------------------------------


def test_snrs_hand_computed_case():
    # n_s = n_d = 1, n_r1 = n_r2 = 2: everything reduces to 2-vectors
    cfg = AntennaConfig(1, 2, 2, 1, ZFMode.RECEIVE)
    sample = ChannelSample(
        h_sr=np.array([[2.0], [3.0]], dtype=complex),
        h_rr=np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
        h_rd=np.array([[1.0], [0.0]], dtype=complex),
    )
    beams = design_receive_zf(sample)
    budget = LinkBudget(p_s=2.0, p_r=3.0)
    res = instantaneous_snrs(sample, beams, budget, cfg.mode)
    # t_d = 1, h_rd_eff = e1, loopback image = e2, projector keeps e1:
    # SR gain |2|^2 = 4, RD gain |h_rd|^2 = 1
    assert res.snr_sr == pytest.approx(2.0 * 4.0, rel=1e-12)
    assert res.snr_rd == pytest.approx(3.0 * 1.0, rel=1e-12)
    assert res.zf_residual <= 1e-12


def test_snrs_linear_in_power():
    rng = make_rng(5)
    s = sample_channels(rng, RX_CFG)
    beams = design_receive_zf(s)
    base = LinkBudget(p_s=1.5, p_r=2.5, gammabar_sr=3.0, gammabar_rd=7.0)
    quad = LinkBudget(p_s=6.0, p_r=10.0, gammabar_sr=3.0, gammabar_rd=7.0)
    r1 = instantaneous_snrs(s, beams, base, ZFMode.RECEIVE)
    r4 = instantaneous_snrs(s, beams, quad, ZFMode.RECEIVE)
    assert r4.snr_sr == 4.0 * r1.snr_sr
    assert r4.snr_rd == 4.0 * r1.snr_rd


def test_mean_projected_gain_matches_quadrature():
    # E[max eig] for the reduced 2x2 law is 7/2 by integrating x * f(x)
    lam_sr, _ = link_gain_samples(RX_CFG, 100_000, seed=21)
    assert np.mean(lam_sr) == pytest.approx(3.5, rel=0.01)


def test_batch_and_scalar_paths_agree():
    rng = make_rng(17)
    for cfg in (RX_CFG, TX_CFG):
        s = sample_channels(rng, cfg)
        design = design_receive_zf if cfg.mode is ZFMode.RECEIVE else design_transmit_zf
        beams = design(s)
        res = instantaneous_snrs(s, beams, LinkBudget(), cfg.mode)
        lam_sr, lam_rd, bad = _gains_from_channels(
            s.h_sr[None], s.h_rr[None], s.h_rd[None], cfg.mode
        )
        assert not bad[0]
        assert res.snr_sr == pytest.approx(float(lam_sr[0]), rel=1e-9)
        assert res.snr_rd == pytest.approx(float(lam_rd[0]), rel=1e-9)


# -- power identities ----------------------------------------------------------------


def test_power_identity_random_trials():
    rng = make_rng(6)
    budget = LinkBudget(p_s=4.0, p_r=2.0)
    for _ in range(200):
        s = sample_channels(rng, RX_CFG)
        beams = design_receive_zf(s)
        assert power_identity_check(s, beams, budget) <= 1e-10


def test_power_identity_detects_non_unit_beamformer():
    s = sample_channels(make_rng(8), RX_CFG)
    beams = design_receive_zf(s)
    skewed = BeamformerSet(t_s=beams.t_s, t_d=beams.t_d,
                           w_r=1.1 * beams.w_r, w_t=beams.w_t)
    budget = LinkBudget()
    # relay noise term becomes |1.1|^2 = 1.21 while the compact form assumes 1
    assert power_identity_check(s, skewed, budget) == pytest.approx(0.21, abs=1e-9)


def test_noise_only_received_power():
    s = sample_channels(make_rng(9), RX_CFG)
    beams = design_receive_zf(s)
    tr_r, tr_d = received_powers(s, beams, p_s=0.0, p_r=0.0)
    assert tr_r == pytest.approx(1.0, abs=1e-12)
    assert tr_d == pytest.approx(1.0, abs=1e-12)


# -- outage estimation -----------------------------------------------------------------


def test_estimate_outage_trivial_thresholds():
    budget = LinkBudget()
    zero = estimate_outage(RX_CFG, budget, OutageQuery.snr(0.0), 2000, seed=1)
    assert zero.p_hat == 0.0
    sure = estimate_outage(RX_CFG, budget, OutageQuery.snr(1e12), 2000, seed=1)
    assert sure.p_hat == 1.0


def test_estimate_outage_deterministic():
    budget = LinkBudget(gammabar_sr=10.0, gammabar_rd=10.0)
    q = OutageQuery.snr(5.0)
    e1 = estimate_outage(RX_CFG, budget, q, 30_000, seed=77)
    e2 = estimate_outage(RX_CFG, budget, q, 30_000, seed=77)
    assert e1 == e2
    assert e1.ci_low <= e1.p_hat <= e1.ci_high
    assert e1.trials == 30_000


def test_estimate_outage_matches_closed_form():
    cfg = AntennaConfig(2, 3, 2, 1, ZFMode.RECEIVE)
    g = 10.0 ** 1.5
    budget = LinkBudget(gammabar_sr=g, gammabar_rd=g)
    q = OutageQuery.snr(10.0)
    analytic = end_to_end_outage(cfg, budget, q)
    est = estimate_outage(cfg, budget, q, 50_000, seed=3)
    se = math.sqrt(analytic * (1 - analytic) / est.trials)
    assert abs(est.p_hat - analytic) <= 4.0 * se


def _reference_gains(config, trials, seed):
    """link_gain_samples rebuilt with einsum and LAPACK, block by block."""
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
    lam_sr, lam_rd = link_gain_samples(cfg, trials, seed=31)
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

    monkeypatch.setattr(mcsim, "_project_off", leaky)
    with pytest.raises(DegenerateChannelError, match="ZF null"):
        link_gain_samples(AntennaConfig(2, 3, 3, 2, mode), 100, seed=3)


def test_gain_samples_reject_bad_trials_argument():
    with pytest.raises(ValueError):
        link_gain_samples(RX_CFG, 0, seed=1)


def test_gain_samples_block_invariance():
    # totals must not depend on how many blocks the request spans
    lam_sr, lam_rd = link_gain_samples(RX_CFG, 300, seed=5)
    assert lam_sr.shape == lam_rd.shape == (300,)
    again_sr, again_rd = link_gain_samples(RX_CFG, 300, seed=5)
    np.testing.assert_array_equal(lam_sr, again_sr)
    np.testing.assert_array_equal(lam_rd, again_rd)


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
        lam, vec = _top_eig(_as_batch(mats), want_vec=True)
        lam_only, none = _top_eig(_as_batch(mats))
        assert none is None
        np.testing.assert_array_equal(lam, lam_only)
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
    _top_eig(_as_batch(cases["random"]), want_vec=True)
    assert calls == []
    _top_eig(_as_batch(np.concatenate([cases["random"], cases["repeated_top"]])), want_vec=True)
    assert calls == [len(cases["repeated_top"])]
