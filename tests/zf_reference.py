"""Test-side references for the batched ZF kernel's beamformers and gains.

Channels are sampled as (n, rows, cols) and beams come from ``_zf_trials``
as (length, n).  Everything here is plain einsum code, independent of the
kernel's own column-product arithmetic.  ``gain_samples`` gives the
unit-scale gains of a whole run, which the simulator itself only counts.
"""

from dataclasses import dataclass

import numpy as np

from fdrelay.mcsim import (
    BLOCK_SIZE,
    _block_gains,
    _project_off,
    _sample_arrays,
    _soa,
    _zf_trials,
    make_rng,
)
from fdrelay.outage import ZFMode


@dataclass(frozen=True)
class BeamformerSet:
    """Unit-norm precoding/combining vectors satisfying the ZF null, one
    column per trial: the kernel's beam tuple, by name."""

    t_s: np.ndarray  # (n_s, n) source precoder
    t_d: np.ndarray  # (n_d, n) destination combiner
    w_r: np.ndarray  # (n_r1, n) relay receive vector
    w_t: np.ndarray  # (n_r2, n) relay transmit vector


def gain_samples(config, trials, seed):
    """Unit-scale (lam_sr, lam_rd) of a ``trials``-trial run at ``seed``:
    each block's ``_block_gains`` on its own substream, in block order."""
    blocks = [_block_gains(make_rng(seed, block), config, min(BLOCK_SIZE, trials - start))
              for block, start in enumerate(range(0, trials, BLOCK_SIZE))]
    return tuple(np.concatenate(part) for part in list(zip(*blocks))[:2])


def draw_trials(config, n, seed):
    """``n`` fixed-seed trials through the kernel: (channels, lam_sr, lam_rd, bad, beams)."""
    channels = _sample_arrays(make_rng(seed), config, n)
    lam_sr, lam_rd, bad, beams = _zf_trials(*map(_soa, channels), config.mode)
    return channels, lam_sr, lam_rd, bad, BeamformerSet(*beams)


def zf_null(h_rr, beams):
    """|w_r^H H_rr w_t| per trial."""
    return np.abs(np.einsum("in,nij,jn->n", beams.w_r.conj(), h_rr, beams.w_t))


def loopback_direction(h_rr, beams, mode):
    """Unit loopback image the near hop is projected off, as (length, n):
    H_rr w_t for receive ZF, H_rr^H w_r for transmit ZF."""
    if mode is ZFMode.RECEIVE:
        image = np.einsum("nij,jn->in", h_rr, beams.w_t)
    else:
        image = np.einsum("nji,jn->in", h_rr.conj(), beams.w_r)
    return image / np.linalg.norm(image, axis=0)


def projectors(unit):
    """Each trial's I - u u^H as (n, dim, dim), built by projecting the
    identity's columns with the kernel's ``_project_off``."""
    dim, n = unit.shape
    eye = np.broadcast_to(np.eye(dim, dtype=complex)[:, :, None], (dim, dim, n))
    return np.moveaxis(_project_off(eye, unit), -1, 0)


def projector_law_residual(p):
    """Worst deviation of (n, dim, dim) projectors from P^2 = P, P = P^H and
    trace dim - 1."""
    ph = p.conj().transpose(0, 2, 1)
    return max(
        float(np.max(np.abs(p @ p - p))),
        float(np.max(np.abs(p - ph))),
        float(np.max(np.abs(np.trace(p, axis1=1, axis2=2).real - (p.shape[1] - 1)))),
    )


def received_powers(h_sr, h_rd, beams, p_s, p_r):
    """Received powers at relay and destination via the covariance expansion.

    Relay: p_s * w_r^H h h^H w_r + w_r^H w_r with h = H_sr t_s (the noise
    term carries the actual beamformer norm, not an assumed one).
    Destination: p_r * g^H w_t w_t^H g + 1 with g = H_rd t_d.
    """
    h = np.einsum("nij,jn->ni", h_sr, beams.t_s)
    hh = np.einsum("ni,nj->nij", h, h.conj())
    cov_r = (p_s * np.einsum("in,nij,jn->n", beams.w_r.conj(), hh, beams.w_r).real
             + np.einsum("in,in->n", beams.w_r.conj(), beams.w_r).real)
    g = np.einsum("nij,jn->ni", h_rd, beams.t_d)
    ww = np.einsum("in,jn->nij", beams.w_t, beams.w_t.conj())
    cov_d = p_r * np.einsum("ni,nij,nj->n", g.conj(), ww, g).real + 1.0
    return cov_r, cov_d


def power_identity_residual(h_sr, h_rd, beams, budget):
    """Per trial, the larger gap between the covariance-expansion received
    powers and the compact p * |inner product|^2 + 1 forms.  Non-unit
    beamformers break the relay-side identity."""
    p_s, p_r = budget.effective_p_s, budget.effective_p_r
    cov_r, cov_d = received_powers(h_sr, h_rd, beams, p_s, p_r)
    h = np.einsum("nij,jn->ni", h_sr, beams.t_s)
    g = np.einsum("nij,jn->ni", h_rd, beams.t_d)
    compact_r = p_s * np.abs(np.einsum("in,ni->n", beams.w_r.conj(), h)) ** 2 + 1.0
    compact_d = p_r * np.abs(np.einsum("ni,in->n", g.conj(), beams.w_t)) ** 2 + 1.0
    return np.maximum(np.abs(cov_r - compact_r), np.abs(cov_d - compact_d))
