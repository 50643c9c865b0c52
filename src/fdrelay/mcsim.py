"""Monte Carlo ground truth for the full-duplex relay outage analysis.

Samples i.i.d. Rayleigh MIMO channels, builds the zero-forcing beamformers
(the relay's receive or transmit vector is projected off the loopback
direction so the self-interference term is exactly nulled), and counts the
trials in outage at every point of an SNR grid; the caller turns each count
into an outage estimate with ``wilson_interval``.

Randomness uses the counter-based Philox generator with one jumped
substream per fixed-size block of trials, so each block's gains depend only
on (seed, block) and runs are exactly reproducible.  Each block is
thresholded where it was drawn, by ``outage_from_gains``, and only its
per-point failure counts leave it, so no process holds more than one block
of gains.  A run of two or more blocks sends them to a pool of worker
processes, forked once per process with one worker per usable CPU, and adds
up their counts in block order; the counts are those of running every block
inline, as a one-block run, a one-CPU host or a platform without ``fork``
does.

One batched kernel, ``_zf_trials``, is the only simulator: it serves both ZF
modes, and a single trial is a batch of one.  It takes each block SUB_BATCH
trials at a time, solves the Gram matrices (at most 3x3 in the paper's
configurations) in closed form, and fails on any trial whose null
|w_r^H H_rr w_t| exceeds ZF_NULL_TOL.
"""

from __future__ import annotations

import atexit
import logging
import math
import os
import threading
import time
from collections import deque
from itertools import islice, repeat, starmap

import numpy as np

from .outage import AntennaConfig, ZFMode

log = logging.getLogger(__name__)

#: Trials per RNG substream; fixed so block boundaries never move.
BLOCK_SIZE = 1 << 16

#: Norm below which a projector's defining vector counts as degenerate.
DEGENERATE_TOL = 1e-150

#: Fraction of redrawn degenerate trials above which a run fails loudly.
MAX_REDRAW_FRACTION = 1e-5

#: Trials per pass of the gain kernel and of the failure count within one
#: RNG block; bounds their temporaries without moving any block boundary.
#: The kernel's float results depend on it above 2**13: 2**11 to 2**13 give
#: identical bits, but at 2**14 the (3,4,3,3) receive near-hop gains of a
#: block move in their last bits (270 of 16,384 trials, at most 5.2e-16
#: relative).  So raising it moves fixed-seed numbers.
SUB_BATCH = 1 << 13

#: Blocks handed to the pool per worker ahead of the block whose counts the
#: parent adds next: keeps every worker busy, while the parent's pending
#: work stays the same size whatever the number of trials.
BLOCKS_AHEAD_PER_WORKER = 2

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

#: Two-sided 95% normal quantile for the default Wilson interval.
Z_95 = 1.959963984540054


class DegenerateChannelError(RuntimeError):
    """A normalization denominator underflowed (or too many did)."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for one substream of the given seed."""
    bg = np.random.Philox(key=seed)
    if stream:
        bg = bg.jumped(stream)
    return np.random.Generator(bg)


def _randn_c(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries with unit variance."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= math.sqrt(2.0)
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

    Returns (lam_sr, lam_rd, bad, beams): ``bad`` flags trials whose
    loopback image underflowed, and ``beams`` is the tuple (t_s, t_d, w_r,
    w_t) of unit source, destination and relay receive and transmit vectors
    as (length, n).  Raises DegenerateChannelError when another trial's null
    |w_r^H H_rr w_t| exceeds ZF_NULL_TOL.
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
    bad = nrm < DEGENERATE_TOL
    projected = _project_off(near, image / np.where(bad, 1.0, nrm))
    lam_near, t_near = _top_eig(_col_gram(projected))
    w_near = _unit_cols(_matvec(projected, t_near))
    null = np.abs((w_near.conj() * image).sum(axis=0))
    worst = float(np.max(np.where(bad, 0.0, null)))
    if not worst <= ZF_NULL_TOL:
        raise DegenerateChannelError(f"ZF null residual {worst:.3g} exceeds {ZF_NULL_TOL:g}")
    if receive:
        return lam_near, lam_far, bad, (t_near, t_far, w_near, w_far)
    return lam_far, lam_near, bad, (t_far, t_near, w_far, w_near)


def _gains_from_channels(h_sr, h_rr, h_rd, mode: ZFMode):
    """Unit-scale per-hop gains (largest eigenvalues) for a trial batch.

    Channels are (n, rows, cols) as sampled, taken SUB_BATCH trials at a
    time.  Returns (lam_sr, lam_rd, bad) where ``bad`` flags trials whose
    projector direction underflowed and whose gains are therefore invalid.
    """
    n = h_sr.shape[0]
    lam_sr, lam_rd, bad = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for start in range(0, n, SUB_BATCH):
        part = slice(start, start + SUB_BATCH)
        lam_sr[part], lam_rd[part], bad[part], _ = _zf_trials(
            _soa(h_sr[part]), _soa(h_rr[part]), _soa(h_rd[part]), mode)
    return lam_sr, lam_rd, bad


def _block_gains(rng: np.random.Generator, config: AntennaConfig, n: int):
    h_sr, h_rr, h_rd = _sample_arrays(rng, config, n)
    lam_sr, lam_rd, bad = _gains_from_channels(h_sr, h_rr, h_rd, config.mode)
    redraws = 0
    attempts = 0
    while bad.any():
        idx = np.flatnonzero(bad)
        redraws += idx.size
        attempts += 1
        if attempts > 50:
            raise DegenerateChannelError("persistent degenerate trials; giving up")
        hs, hr, hd = _sample_arrays(rng, config, idx.size)
        ls, lr, still_bad = _gains_from_channels(hs, hr, hd, config.mode)
        lam_sr[idx] = ls
        lam_rd[idx] = lr
        bad = np.zeros_like(bad)
        bad[idx[still_bad]] = True
    return lam_sr, lam_rd, redraws


def _block_failures(seed: int, block: int, config: AntennaConfig, n: int,
                    scales_sr: np.ndarray, scales_rd: np.ndarray, gamma_t: float):
    """Failure counts at every grid point, and redraws, of one block's own
    substream; what a worker runs."""
    lam_sr, lam_rd, redraws = _block_gains(make_rng(seed, block), config, n)
    return outage_from_gains((lam_sr, lam_rd), scales_sr, scales_rd, gamma_t), redraws


#: This process's pool of block workers; made by ``_block_pool`` on first
#: use and kept, because forking the workers costs about as much as a block.
_pool = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _block_pool():
    """The process's pool of forked block workers, one per usable CPU, or
    None where blocks run inline: on one CPU or without the fork start method.

    Fork is asked for by name because the platform default may change; the
    workers start from the parent's imported modules, so starting them costs
    no import.
    """
    global _pool
    if _pool is None and _usable_cpus() > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            _pool = ProcessPoolExecutor(_usable_cpus(),
                                        mp_context=multiprocessing.get_context("fork"),
                                        initializer=_exit_with_parent,
                                        initargs=(os.getpid(),))
    return _pool


def _exit_with_parent(parent: int) -> None:
    """Worker initializer.  A parent that is killed never shuts its pool
    down, and its workers would wait for work forever, so each worker exits
    within a second of its parent's death."""

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@atexit.register
def _close_pool() -> None:
    """Shut the pool down and drop it.  At exit this runs before module
    teardown, so the executor is collected while the modules it needs exist."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _forget_pool() -> None:
    """At-fork hook: a child has none of its parent's pool threads, so a run
    there would wait forever on the inherited pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(seed: int, config: AntennaConfig, sizes: list[int],
                scales_sr: np.ndarray, scales_rd: np.ndarray, gamma_t: float):
    """``_block_failures`` of every block, yielded in block order.

    Every work item shares the one pair of scale arrays.  The pool gets at
    most BLOCKS_AHEAD_PER_WORKER blocks per worker beyond those yielded.
    """
    work = zip(repeat(seed), range(len(sizes)), repeat(config), sizes,
               repeat(scales_sr), repeat(scales_rd), repeat(gamma_t))
    pool = _block_pool() if len(sizes) > 1 else None
    if pool is None:
        yield from starmap(_block_failures, work)
        return
    from concurrent.futures import BrokenExecutor

    ahead = BLOCKS_AHEAD_PER_WORKER * _usable_cpus()
    pending = deque()
    try:
        while True:
            pending.extend(pool.submit(_block_failures, *args)
                           for args in islice(work, ahead - len(pending)))
            if not pending:
                return
            yield pending.popleft().result()
    except BrokenExecutor:
        _close_pool()  # a broken pool takes no more work; the next run forks anew
        raise
    finally:
        for future in pending:  # after an error, or when the caller stops early
            future.cancel()


def link_gain_samples(config: AntennaConfig, trials: int, seed: int,
                      scales_sr, scales_rd, gamma_t: float) -> tuple[np.ndarray]:
    """Outage counts of ``trials`` independent fades at each point of a curve.

    A point is a pair of hop scales (effective power times average SNR)
    from ``scales_sr`` and ``scales_rd``; a trial is in outage there when
    ``outage_from_gains`` says so.  Returns ``(failures,)``, a tuple that
    further per-point sums can join: one int64 count per point,
    deterministic in (config, trials, seed), whatever the CPU count.  Each
    block's unit-scale gains are drawn, thresholded and dropped in the
    process that drew them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scales_sr = np.asarray(scales_sr, dtype=float)
    scales_rd = np.asarray(scales_rd, dtype=float)
    sizes = [min(BLOCK_SIZE, trials - start) for start in range(0, trials, BLOCK_SIZE)]
    failures = np.zeros(scales_sr.size, dtype=np.int64)
    redraws = 0
    for block_failures, block_redraws in _run_blocks(seed, config, sizes,
                                                     scales_sr, scales_rd, gamma_t):
        failures += block_failures
        redraws += block_redraws
    if redraws:
        log.warning("redrew %d degenerate trial(s) of %d", redraws, trials)
        if redraws > trials * MAX_REDRAW_FRACTION:
            raise DegenerateChannelError(
                f"{redraws} degenerate trials out of {trials} exceeds tolerance"
            )
    return (failures,)


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # degenerate counts pin the corresponding endpoint exactly
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def outage_from_gains(gains, scales_sr, scales_rd, gamma_t: float) -> np.ndarray:
    """Outage counts of unit-scale (SR, RD) gain samples at each point of a
    curve, the pairs of hop scales ``zip(scales_sr, scales_rd)``.

    A trial fails iff either hop's SNR is below ``gamma_t``, which is the
    same event as min(snr_sr, snr_rd) < gamma_t.  Returns one int64 count
    per point.  Counts SUB_BATCH trials at a time, so that the temporaries
    of every point stay small and in cache.
    """
    lam_sr, lam_rd = gains
    failures = np.zeros(len(scales_sr), dtype=np.int64)
    for start in range(0, lam_sr.size, SUB_BATCH):
        part_sr, part_rd = lam_sr[start:start + SUB_BATCH], lam_rd[start:start + SUB_BATCH]
        for i, (scale_sr, scale_rd) in enumerate(zip(scales_sr, scales_rd)):
            snr_min = np.minimum(scale_sr * part_sr, scale_rd * part_rd)
            failures[i] += np.count_nonzero(snr_min < gamma_t)
    return failures
