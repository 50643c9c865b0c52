"""Channel sampling and the batched zero-forcing gain kernel of the Monte
Carlo validator, the only fdrelay module that imports numpy.  ``mcsim``
imports it before it forks its pool, so the workers inherit it.

One kernel, ``_zf_trials``, serves both ZF modes, and a single trial is a
batch of one.  It projects the relay's receive or transmit vector off the
loopback direction, so the self-interference term is exactly nulled, and
solves the Gram matrices (at most 3x3 in the paper's configurations) in
closed form, SUB_BATCH trials at a time.  A bad trial raises
DegenerateChannelError: its loopback image is zero, which leaves no
direction to null, or its null |w_r^H H_rr w_t| exceeds ZF_NULL_TOL.  The
image is H_rr w for a unit w independent of H_rr, so it is CN(0, I_k) with
k >= 2 and is zero with probability 0.

Both hop SNRs scale with the average SNR, so a trial's end-to-end SNR at
unit average SNR decides its outage at every point of a curve:
``outage_from_gains`` sorts those once and counts each point by a search.
"""

from __future__ import annotations

import math

import numpy as np

from .mcsim import DegenerateChannelError
from .outage import AntennaConfig, ZFMode

#: Trials per pass of the gain kernel within one RNG block; bounds its
#: temporaries without moving any block boundary.
#: The kernel's float results depend on it above 2**13: 2**11 to 2**13 give
#: identical bits, but at 2**14 the (3,4,3,3) receive near-hop gains of a
#: block move in their last bits (270 of 16,384 trials, at most 5.2e-16
#: relative).  So raising it moves fixed-seed numbers.
SUB_BATCH = 1 << 13

#: Largest accepted ZF null |w_r^H H_rr w_t| of unit beamformers, per trial.
ZF_NULL_TOL = 1e-10

#: Relative top-eigenvalue gap (lam1 - lam2) / lam1 below which a 3x3
#: eigenpair is left to LAPACK.  The closed form takes arccos(r) of
#: r = det(B) / 2 with B = (m - q I) / p, where a first-order count of the
#: roundings bounds the error in r by R_ERR = 32 eps.  As
#: |d arccos r| = |dr| / sqrt(1 - r^2), the top eigenvalue of a positive
#: semidefinite m is then off by at most 2 / (9 sqrt 3) * R_ERR / gap
#: relative; keeping that below 1e-13 needs
EIG3_GAP_MIN = 2.0 / (9.0 * math.sqrt(3.0)) * 32.0 * np.finfo(float).eps / 1e-13


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for one substream of the given seed."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def _randn_c(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries with unit variance: real
    parts first, then imaginary, each scaled by 1/sqrt(2) from one buffer."""
    out, buf = np.empty(shape, dtype=complex), np.empty(shape)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(out=buf), 1.0 / math.sqrt(2.0), out=part)
    return out


def _sample_arrays(rng: np.random.Generator, config: AntennaConfig, n: int):
    # Fixed draw order (SR, RR, RD) is part of the reproducibility contract.
    h_sr = _randn_c(rng, (n, config.n_r1, config.n_s))
    h_rr = _randn_c(rng, (n, config.n_r1, config.n_r2))
    h_rd = _randn_c(rng, (n, config.n_r2, config.n_d))
    return h_sr, h_rr, h_rd


# -- batched gain kernel ------------------------------------------------------
# Trials sit on the last axis, (rows, cols, n), so that every entry of the
# per-trial matrices is one contiguous length-n vector.


def _soa(h: np.ndarray) -> np.ndarray:
    """(n, rows, cols) -> contiguous (rows, cols, n)."""
    return np.ascontiguousarray(np.moveaxis(h, 0, -1))


def _col_gram(h: np.ndarray) -> np.ndarray:
    """Gram h^H h of (rows, cols, n) channels, from products of column pairs."""
    cols = h.shape[1]
    g = np.empty((cols, cols, h.shape[2]), dtype=complex)
    hc = h.conj()
    for j in range(cols):
        for k in range(j, cols):
            g[j, k] = (hc[:, j] * h[:, k]).sum(axis=0)
            g[k, j] = g[j, k].conj()
    return g


def _unit_cols(v: np.ndarray) -> np.ndarray:
    """Normalise each trial's vector; a zero vector becomes e_1 (in ``v`` too)."""
    nrm = np.linalg.norm(v, axis=0)
    zero = nrm == 0.0
    v[0, zero] = 1.0
    return v / np.where(zero, 1.0, nrm)


def _top_eig(m: np.ndarray):
    """Largest eigenvalue and a unit eigenvector of a batch of Hermitian
    positive semidefinite matrices given as (k, k, n).

    Returns ``(lam, vec)``: ``lam`` of shape (n,), clipped at 0, and ``vec``
    of shape (k, n).  k = 1 and 2 are closed forms; k = 3 solves the
    characteristic cubic trigonometrically, takes the eigenvector as a cross
    product of two rows of m - lam I, and leaves trials with a top-eigenvalue
    gap below EIG3_GAP_MIN to LAPACK; k >= 4 is LAPACK throughout.
    """
    k, n = m.shape[0], m.shape[2]
    if k == 1:
        lam = m[0, 0].real
        vec = np.ones((1, n), dtype=complex)
    elif k == 2:
        a, d, b = m[0, 0].real, m[1, 1].real, m[0, 1]
        half = 0.5 * (a - d)
        h = np.hypot(half, np.abs(b))
        lam = 0.5 * (a + d) + h
        # (b, lam - a) and (lam - d, b*) both solve (m - lam) v = 0; the
        # one whose second term adds h to |half| has no cancellation.
        vec = _unit_cols(np.where(half <= 0.0, [b, h - half], [h + half, b.conj()]))
    elif k == 3:
        lam, vec = _top_eig3(m)
    else:
        vals, vecs = np.linalg.eigh(np.moveaxis(m, -1, 0))
        lam = vals[:, -1]
        vec = vecs[:, :, -1].T
    return np.maximum(lam, 0.0), vec


def _top_eig3(m: np.ndarray):
    diag = m[[0, 1, 2], [0, 1, 2]].real
    q = diag.mean(axis=0)
    b0, b1, b2 = diag - q
    o01, o02, o12 = m[0, 1], m[0, 2], m[1, 2]
    s01, s02, s12 = (o.real ** 2 + o.imag ** 2 for o in (o01, o02, o12))
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (s01 + s02 + s12)) / 6.0)
    det = (b0 * b1 * b2 + 2.0 * (o01 * o12 * o02.conj()).real
           - b0 * s12 - b1 * s02 - b2 * s01)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arccos(np.clip(det / (2.0 * p ** 3), -1.0, 1.0)) / 3.0
        lam = q + 2.0 * p * np.cos(phi)
        gap = 2.0 * math.sqrt(3.0) * p * np.sin(math.pi / 3.0 - phi) / lam
    slow = ~(gap >= EIG3_GAP_MIN)  # also catches the NaNs of p = 0
    # m - lam I has rank 2, so its adjugate, whose columns are cross
    # products of row pairs, is a multiple of v v^H: take the column
    # with the largest diagonal entry.
    c0, c1, c2 = diag - lam
    a01 = o02 * o12.conj() - c2 * o01
    a02 = o01 * o12 - c1 * o02
    a12 = o02 * o01.conj() - c0 * o12
    a00, a11, a22 = c1 * c2 - s12, c0 * c2 - s02, c0 * c1 - s01
    adj = np.array([[a00, a01, a02], [a01.conj(), a11, a12], [a02.conj(), a12.conj(), a22]])
    best = np.argmax([a00, a11, a22], axis=0)
    vec = np.take_along_axis(adj, best[None, None], axis=1)[:, 0]
    vec[:, slow] = 0.0  # filled in by LAPACK below
    vec = _unit_cols(vec)
    idx = np.flatnonzero(slow)
    if idx.size:
        vals, vecs = np.linalg.eigh(np.moveaxis(m[:, :, idx], -1, 0))
        lam[idx] = vals[:, -1]
        vec[:, idx] = vecs[:, :, -1].T
    return lam, vec


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x per trial, for a of shape (rows, cols, n) and x of shape (cols, n)."""
    return (a * x).sum(axis=1)


def _project_off(h: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """(I - u u^H) h per trial: the channel with direction ``unit`` removed."""
    return h - unit[:, None] * (unit.conj()[:, None] * h).sum(axis=0)


def _zf_trials(h_sr, h_rr, h_rd, mode: ZFMode):
    """ZF beamformers and unit-scale gains of a trial batch, as (rows, cols, n).

    The relay serves the hop without the null (``far``) with its dominant
    eigen-beam, and projects the beamformer of the other hop (``near``) off
    that beam's loopback image: (near, far, loop) is (h_sr, h_rd, h_rr) for
    receive ZF and (h_rd, h_sr, h_rr^H) for transmit ZF.

    Returns (lam_sr, lam_rd, beams): ``beams`` is the tuple (t_s, t_d, w_r,
    w_t) of unit source, destination and relay receive and transmit vectors
    as (length, n).  Raises DegenerateChannelError when a trial's loopback
    image is zero or its null |w_r^H H_rr w_t| exceeds ZF_NULL_TOL.
    """
    receive = mode is ZFMode.RECEIVE
    if receive:
        near, far, loop = h_sr, h_rd, h_rr
    else:
        near, far, loop = h_rd, h_sr, h_rr.conj().transpose(1, 0, 2)
    lam_far, t_far = _top_eig(_col_gram(far))
    w_far = _unit_cols(_matvec(far, t_far))
    image = _matvec(loop, w_far)
    nrm = np.linalg.norm(image, axis=0)
    if (nrm == 0.0).any():
        raise DegenerateChannelError("a trial's loopback image is zero: no direction to null")
    projected = _project_off(near, image / nrm)
    lam_near, t_near = _top_eig(_col_gram(projected))
    w_near = _unit_cols(_matvec(projected, t_near))
    worst = float(np.max(np.abs((w_near.conj() * image).sum(axis=0))))
    if not worst <= ZF_NULL_TOL:
        raise DegenerateChannelError(f"ZF null residual {worst:.3g} exceeds {ZF_NULL_TOL:g}")
    if receive:
        return lam_near, lam_far, (t_near, t_far, w_near, w_far)
    return lam_far, lam_near, (t_far, t_near, w_far, w_near)


def _block_gains(rng: np.random.Generator, config: AntennaConfig, n: int):
    """Unit-scale hop gains (lam_sr, lam_rd), the largest eigenvalues, of
    ``n`` trials drawn from ``rng``; the kernel takes them SUB_BATCH at a
    time."""
    channels = _sample_arrays(rng, config, n)
    lam_sr, lam_rd = np.empty(n), np.empty(n)
    for start in range(0, n, SUB_BATCH):
        part = slice(start, start + SUB_BATCH)
        lam_sr[part], lam_rd[part], _ = _zf_trials(*(_soa(h[part]) for h in channels),
                                                   config.mode)
    return lam_sr, lam_rd


def _block_failures(seed: int, block: int, config: AntennaConfig, n: int, units, bounds):
    """Failure counts at every bound of one block's own substream; what a
    worker runs."""
    gains = _block_gains(make_rng(seed, block), config, n)
    return outage_from_gains(gains, units, bounds)


def outage_from_gains(gains, units, bounds) -> np.ndarray:
    """Outage counts of unit-scale (SR, RD) gain samples against each bound.

    ``units`` are the hops' scales at unit average SNR, (u_sr, u_rd), where
    a trial's end-to-end SNR is z = min(u_sr * lam_sr, u_rd * lam_rd).  It
    is in outage at average SNR gbar iff z < gamma_t / gbar, that point's
    bound.  Returns one int64 count per bound, in the bounds' order, which
    may be any: the trials with z below it, so z equal to it is no outage.
    """
    (lam_sr, lam_rd), (unit_sr, unit_rd) = gains, units
    z = np.sort(np.minimum(unit_sr * lam_sr, unit_rd * lam_rd))
    return np.searchsorted(z, bounds).astype(np.int64)
