"""The benchmark's three workloads.

Each workload builds its inputs from the seed, hands the program only
``RunConfig``s, dims and a cache directory, and times nothing but calls into
the program's public functions. A round is one pass over the same fixed set
of operations, so every run attempts whole rounds and the share of failed
operations does not depend on how many rounds fit in the run.

``run_round`` returns the timed seconds, the units of work done and the
round's outputs as (key, item) pairs. Outputs that repeat across rounds
share a key, so the expensive oracle checks in ``failures`` run once per
distinct output, after the timed part of the run.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path
from time import perf_counter

from fdrelay import cli, mcsim, outage, wishart

import checks

RECEIVE, TRANSMIT = "receive", "transmit"

#: Antenna tuples (n_s, n_r1, n_r2, n_d) of scripts/outage_curves.py and
#: scripts/diversity_slopes.py. The two single-destination tuples also run
#: the 3:2 asymmetric budgets at a 5 dB threshold, as in the figures.
FIGURE_ANTENNAS = ((2, 3, 2, 1), (2, 2, 3, 1), (2, 2, 2, 2), (2, 3, 2, 2),
                   (2, 2, 3, 2), (2, 3, 2, 3), (3, 2, 2, 2))
ASYMMETRIC_ANTENNAS = ((2, 3, 2, 1), (2, 2, 3, 1))
#: Larger relays whose closed form loses accuracy earliest in SNR.
TAIL_ANTENNAS = ((3, 4, 3, 3), (4, 5, 4, 4))
#: (asymmetry, ratio, gamma_t_db) of each budget.
SYMMETRIC = ("symmetric", None, 10.0)
ASYMMETRIC = (("rd_dominant", 1.5, 5.0), ("sr_dominant", 1.5, 5.0))
ANALYTIC_GRID_DB = tuple(0.5 * i for i in range(81))  # 0 .. 40 dB

MC_CONFIGS = (((2, 3, 2, 2), RECEIVE), ((2, 2, 3, 2), TRANSMIT), ((3, 4, 3, 3), RECEIVE))
MC_BLOCKS = 4  # blocks of mcsim.BLOCK_SIZE trials per configuration
MC_GRID_DB = tuple(2.0 * i for i in range(16))  # 0 .. 30 dB
MC_GAMMA_T_DB = 10.0

#: Dims beyond the configurations, up to a = 7; a >= 6 takes the
#: fraction-free branch of exppoly.determinant.
LARGE_DIMS = ((4, 7), (5, 5), (5, 7), (6, 6), (6, 7), (7, 7))
#: Oracle abscissae for the table checks are drawn log-uniform in this range.
TABLE_X_RANGE = (0.05, 40.0)
TABLE_X_PER_DIMS = 3


def hop_dims(antennas, mode: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """(a, b) of the source->relay and relay->destination eigenvalue laws.

    The hop next to the zero-forcing null loses one relay antenna to the
    projection; the other hop keeps its full antenna counts.
    """
    n_s, n_r1, n_r2, n_d = antennas
    rows_sr = n_r1 - 1 if mode == RECEIVE else n_r1
    rows_rd = n_r2 - 1 if mode == TRANSMIT else n_r2
    return _ab(rows_sr, n_s), _ab(rows_rd, n_d)


def _ab(n1: int, n2: int) -> tuple[int, int]:
    return min(n1, n2), max(n1, n2)


def config_label(antennas, mode: str) -> str:
    return "".join(map(str, antennas)) + "_" + mode


def analytic_specs():
    """(antennas, mode, asymmetry, ratio, gamma_t_db) of the sweep curves."""
    specs = []
    for antennas in FIGURE_ANTENNAS + TAIL_ANTENNAS:
        budgets = (SYMMETRIC,) + (ASYMMETRIC if antennas in ASYMMETRIC_ANTENNAS else ())
        for mode in (RECEIVE, TRANSMIT):
            for asymmetry, ratio, gamma_t_db in budgets:
                specs.append((antennas, mode, asymmetry, ratio, gamma_t_db))
    return specs


def needed_dims() -> list[tuple[int, int]]:
    dims = set()
    for antennas, mode, *_ in analytic_specs():
        dims.update(hop_dims(antennas, mode))
    for antennas, mode in MC_CONFIGS:
        dims.update(hop_dims(antennas, mode))
    return sorted(dims)


def make_run(antennas, mode, asymmetry, ratio, gamma_t_db, grid, trials, seed):
    return cli.RunConfig(
        antenna=outage.AntennaConfig(*antennas, outage.ZFMode(mode)),
        query=outage.OutageQuery.snr(10.0 ** (gamma_t_db / 10.0)),
        grid_db=grid, p_s=1.0, p_r=1.0, alpha_sr=1.0, alpha_rd=1.0,
        trials=trials, seed=seed, out_csv=None,
        asymmetry=asymmetry, asymmetry_ratio=ratio,
    )


def reference_curve(antennas, mode, asymmetry, ratio, gamma_t_db, grid, dims=None):
    """Oracle end-to-end outage at each grid point (unit powers)."""
    import oracle  # here, so mpmath adds nothing to set-up time or peak memory

    dims_sr, dims_rd = dims or hop_dims(antennas, mode)
    power_sr = ratio if asymmetry == "sr_dominant" else 1.0
    power_rd = ratio if asymmetry == "rd_dominant" else 1.0
    gamma_t = 10.0 ** (gamma_t_db / 10.0)
    refs = []
    for g_db in grid:
        gbar = 10.0 ** (g_db / 10.0)
        refs.append(oracle.link_outage(dims_sr, dims_rd, gamma_t / (power_sr * gbar),
                                       gamma_t / (power_rd * gbar)))
    return refs


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def fill_cache(dims, cache_dir: Path) -> None:
    """Fill a table cache the way ``fdrelay coeffs --cache-dir`` does."""
    for a, b in sorted(dims):
        cli.load_or_compute_table(wishart.WishartDims(a, b), cache_dir)


class TablesCold:
    """Extract, save and load every table on an empty cache, each round."""

    name = "tables_cold"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.dims = sorted(set(needed_dims()) | set(LARGE_DIMS))
        rng.shuffle(self.dims)
        lo, hi = TABLE_X_RANGE
        self.xs = {d: [lo * (hi / lo) ** rng.random() for _ in range(TABLE_X_PER_DIMS)]
                   for d in self.dims}
        self.workdir = workdir
        self.ops_per_round = len(self.dims)
        self.cache_bytes = 0
        self._round = 0

    def setup(self) -> None:
        """Nothing to prepare: every round starts from an empty cache."""

    def run_round(self):
        cache_dir = self.workdir / f"tables{self._round}"
        self._round += 1
        cache_dir.mkdir(parents=True)
        wishart.cached_table.cache_clear()
        seconds = 0.0
        outputs = []
        for a, b in self.dims:
            path = cache_dir / f"coeff_a{a}_b{b}.txt"
            start = perf_counter()
            table = wishart.extract_coefficients(wishart.WishartDims(a, b))
            wishart.save_table(table, path)
            loaded = wishart.load_table(path)
            seconds += perf_counter() - start
            # Only digests outlive the call, so the benchmark holds no tables
            # while the program's memory peaks.
            outputs.append((((a, b), _digest(table), _digest(loaded)), None))
        self.cache_bytes = dir_bytes(cache_dir)
        shutil.rmtree(cache_dir)
        return seconds, len(self.dims), outputs

    def round_problems(self, outputs) -> list[str]:
        return []

    def failures(self, key, item) -> int:
        """Checks a timed output through a fresh one with the same digests."""
        dims, table_digest, loaded_digest = key
        cache_dir = self.workdir / "check"
        cache_dir.mkdir(exist_ok=True)
        path = cache_dir / f"coeff_a{dims[0]}_b{dims[1]}.txt"
        table = wishart.extract_coefficients(wishart.WishartDims(*dims))
        wishart.save_table(table, path)
        loaded = wishart.load_table(path)
        if (_digest(table), _digest(loaded)) != (table_digest, loaded_digest):
            return 1  # the timed output is not what the program makes now
        problems = checks.table_problems(table, loaded, dims)
        if not problems:
            problems = checks.table_oracle_problems(table, dims, self.xs[dims])
        return int(bool(problems))


def _digest(table) -> str:
    key = (table.dims.a, table.dims.b, table.norm_const, tuple(sorted(table.entries.items())))
    return hashlib.sha256(repr(key).encode()).hexdigest()


class AnalyticSweep:
    """Closed-form curves (trials = 0) from a cache filled during set-up."""

    name = "analytic_sweep"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.specs = analytic_specs()
        rng.shuffle(self.specs)
        self.runs = [make_run(*spec, ANALYTIC_GRID_DB, 0, rng.randrange(2 ** 31))
                     for spec in self.specs]
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.ops_per_round = len(self.runs) * len(ANALYTIC_GRID_DB)
        self.cache_bytes = 0

    def setup(self) -> None:
        fill_cache({d for spec in self.specs for d in hop_dims(spec[0], spec[1])},
                   self.cache_dir)
        self.cache_bytes = dir_bytes(self.cache_dir)

    def run_round(self):
        seconds = 0.0
        outputs = []
        for i, run in enumerate(self.runs):
            path = self.workdir / f"curve{i}.csv"
            start = perf_counter()
            curve = cli.build_curve(run, self.cache_dir)
            cli.write_csv(curve, path)
            seconds += perf_counter() - start
            rows = tuple(curve.rows)
            outputs.append(((i, tuple(r.analytic for r in rows)), (rows, path.read_text())))
        return seconds, self.ops_per_round, outputs

    def round_problems(self, outputs) -> list[str]:
        problems = []
        for (i, _), (rows, text) in outputs:
            problems += checks.csv_problems(text, ANALYTIC_GRID_DB, rows, with_mc=False)
        return problems

    def failures(self, key, item) -> int:
        i, values = key
        refs = reference_curve(*self.specs[i], ANALYTIC_GRID_DB)
        return sum(checks.analytic_failures(values, refs))


class MCCompare:
    """What ``fdrelay compare`` computes: closed form plus Monte Carlo."""

    name = "mc_compare"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.trials = MC_BLOCKS * mcsim.BLOCK_SIZE
        self.runs = [make_run(antennas, mode, "symmetric", None, MC_GAMMA_T_DB, MC_GRID_DB,
                              self.trials, rng.randrange(2 ** 31))
                     for antennas, mode in MC_CONFIGS]
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.ops_per_round = len(self.runs) * len(MC_GRID_DB)
        self.cache_bytes = 0
        self._first_csv: dict[int, str] = {}

    def setup(self) -> None:
        fill_cache({d for antennas, mode in MC_CONFIGS for d in hop_dims(antennas, mode)},
                   self.cache_dir)
        self.cache_bytes = dir_bytes(self.cache_dir)

    def run_round(self):
        seconds = 0.0
        outputs = []
        for i, run in enumerate(self.runs):
            path = self.workdir / f"compare{i}.csv"
            start = perf_counter()
            curve = cli.build_curve(run, self.cache_dir)
            cli.write_csv(curve, path)
            seconds += perf_counter() - start
            rows = tuple(curve.rows)
            key = (i, tuple((r.mc, r.ci_low, r.ci_high) for r in rows))
            outputs.append((key, (rows, path.read_text())))
        return seconds, self.trials * len(self.runs), outputs

    def round_problems(self, outputs) -> list[str]:
        problems = []
        for (i, _), (rows, text) in outputs:
            problems += checks.csv_problems(text, MC_GRID_DB, rows, with_mc=True)
            first = self._first_csv.setdefault(i, text)
            if text != first:
                problems.append(f"{config_label(*MC_CONFIGS[i])}: CSV bytes differ "
                                "between rounds of one seed")
        return problems

    def failures(self, key, item) -> int:
        i, _ = key
        rows, _ = item
        antennas, mode = MC_CONFIGS[i]
        refs = reference_curve(antennas, mode, "symmetric", None, MC_GAMMA_T_DB, MC_GRID_DB)
        return sum(checks.mc_failures(rows, self.trials, refs, self.ops_per_round))


WORKLOADS = {w.name: w for w in (TablesCold, AnalyticSweep, MCCompare)}
