"""Monte Carlo ground truth for the full-duplex relay outage analysis: the
blocks of a run, the pool that runs them, their outage counts and Wilson
intervals.

A run of i.i.d. Rayleigh trials is split into fixed-size blocks, each with
its own jumped substream of the counter-based Philox generator, so each
block's gains depend only on (seed, block) and runs are exactly
reproducible.  ``zf`` draws a block's channels, builds its zero-forcing
beamformers and counts its outages against one bound per point where they
were drawn; only those counts leave it, so no process holds more than one
block of gains.  A run of two or more blocks sends them to a pool of worker
processes, forked once per process with one worker per usable CPU, and adds
up their counts in block order; the counts are those of running every block
inline, as a one-block run, a one-CPU host or a platform without ``fork``
does.  The caller turns each count into an outage estimate with
``wilson_interval``.

This module does not import numpy: ``zf`` and numpy load on a run's first
block, so the analytic commands never pay for them.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from collections import deque
from itertools import islice, repeat, starmap

from .outage import AntennaConfig

#: Trials per RNG substream; fixed so block boundaries never move.
BLOCK_SIZE = 1 << 16

#: Blocks handed to the pool per worker ahead of the block whose counts the
#: parent adds next: keeps every worker busy, while the parent's pending
#: work stays the same size whatever the number of trials.
BLOCKS_AHEAD_PER_WORKER = 2

#: Two-sided 95% normal quantile for the default Wilson interval.
Z_95 = 1.959963984540054


class DegenerateChannelError(RuntimeError):
    """A trial's ZF beamformers cannot null its loopback: the loopback image
    is zero, or the null |w_r^H H_rr w_t| exceeds ZF_NULL_TOL."""


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


def _run_blocks(seed: int, config: AntennaConfig, sizes: list[int], units, bounds):
    """``zf._block_failures`` of every block, yielded in block order.

    Every work item shares the one array of bounds.  The pool gets at most
    BLOCKS_AHEAD_PER_WORKER blocks per worker beyond those yielded.
    """
    from .zf import _block_failures  # before the pool forks: workers inherit it

    work = zip(repeat(seed), range(len(sizes)), repeat(config), sizes,
               repeat(units), repeat(bounds))
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


def link_gain_samples(config: AntennaConfig, trials: int, seed: int, units, bounds) -> tuple:
    """Outage counts of ``trials`` independent fades at each point of a curve.

    ``units`` are the hops' effective powers (u_sr, u_rd), and the point at
    average SNR gbar is the bound gamma_t / gbar, as ``zf.outage_from_gains``
    counts.  Returns ``(failures,)``: one int64 count per bound, in the
    bounds' order, deterministic in (config, trials, seed), whatever the CPU
    count; it stays a tuple because ``bench/run.py`` reads one.  Each
    block's unit-scale gains are drawn, counted and dropped in the process
    that drew them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    import numpy as np  # only Monte Carlo runs pay for numpy

    bounds = np.asarray(bounds, dtype=float)
    sizes = [min(BLOCK_SIZE, trials - start) for start in range(0, trials, BLOCK_SIZE)]
    failures = np.zeros(bounds.size, dtype=np.int64)
    for block_failures in _run_blocks(seed, config, sizes, units, bounds):
        failures += block_failures
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
