"""Run library: a run's configuration, the outage curves built from it, their
CSV form, and the exact diversity check.

dB enters the model here and nowhere else in the library: ``db_grid`` spaces
the SNR grid in dB and ``RunConfig.hop_scales`` takes each point to linear.
``outage``, ``mcsim`` and ``wishart`` are linear-scale only.
``RunConfig`` checks a run's rules, so a config file and a script meet the same.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

from . import mcsim
from .outage import (
    AntennaConfig,
    HopCDF,
    OutageQuery,
    diversity_order,
    hop_cdf,
    link_dims,
    link_outage,
)
from .wishart import (
    CacheFormatError,
    CoeffTable,
    WishartDims,
    cached_table,
    extract_coefficients,
    load_table,
    save_table,
)

CSV_HEADER = "gammabar_db,analytic,mc,ci_low,ci_high"
#: Longest SNR grid a run may ask for: 0.01 dB steps across 100 dB.
#: Finer curves show nothing new, and every point costs a closed-form
#: evaluation and, in each Monte Carlo block, one binary search.
MAX_GRID_POINTS = 10_000
#: Most Monte Carlo trials a run may ask for.  Memory does not grow with
#: trials, since each block is counted where it is drawn, so the bound is
#: one of time: (2,3,2,2) takes about 50 minutes on 2 CPUs, and resolves an
#: outage of 1e-6 to about +-3 % at 95 %.
MAX_TRIALS = 2 ** 32


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def db_grid(start_db: float, stop_db: float, step_db: float) -> Tuple[float, ...]:
    """The SNR grid start, start + step, ... up to stop (within 1e-9 dB);
    raises ValueError for an empty or reversed grid or one of more than
    ``MAX_GRID_POINTS`` points."""
    if not (step_db > 0 and stop_db >= start_db):
        raise ValueError("need a grid step > 0 and a grid stop >= the grid start")
    # the count takes the filter's 1e-9 dB rule; min() keeps int() off the
    # inf that a tiny step gives
    count = int(min((stop_db - start_db + 1e-9) / step_db, MAX_GRID_POINTS)) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"the grid has more than {MAX_GRID_POINTS} points")
    return tuple(start_db + i * step_db for i in range(count)
                 if start_db + i * step_db <= stop_db + 1e-9)


class CurveRow(NamedTuple):
    gammabar_db: float
    analytic: float
    mc: Optional[float]
    ci_low: Optional[float]
    ci_high: Optional[float]


@dataclass(frozen=True)
class OutageCurve:
    rows: Tuple[CurveRow, ...]


@dataclass(frozen=True)
class RunConfig:
    antenna: AntennaConfig
    query: OutageQuery
    grid_db: Tuple[float, ...]
    p_s: float = 1.0
    p_r: float = 1.0
    alpha_sr: float = 1.0
    alpha_rd: float = 1.0
    trials: int = 0
    seed: int = 0
    out_csv: Optional[str] = None
    asymmetry: str = "symmetric"
    asymmetry_ratio: Optional[float] = None

    def __post_init__(self):
        """Raises ValueError for trials or a seed not an integer in range, for
        a budget the asymmetry shorthand does not allow (an asymmetric one
        leaves both alphas at 1.0), for a power or amplitude not > 0, for a
        grid point not finite, or for a hop scale not finite and > 0 at an end
        of the grid or, with no grid, at unit average SNR."""
        for name, value in (("trials", self.trials), ("seed", self.seed)):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= 2**32 = {MAX_TRIALS}, got {self.trials}")
        if not 0 <= self.seed < 2 ** 128:  # Philox keys are 128-bit
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.asymmetry not in ("symmetric", "sr_dominant", "rd_dominant"):
            raise ValueError("asymmetry must be symmetric|sr_dominant|rd_dominant")
        if self.asymmetry == "symmetric":
            if self.asymmetry_ratio is not None:
                raise ValueError("asymmetry_ratio needs asymmetry = sr_dominant or rd_dominant")
        elif self.asymmetry_ratio is None or not self.asymmetry_ratio > 1.0:
            raise ValueError("asymmetric budgets need asymmetry_ratio > 1")
        else:
            alphas = [n for n in ("alpha_sr", "alpha_rd") if getattr(self, n) != 1.0]
            if alphas:
                raise ValueError(f"asymmetry = {self.asymmetry} sets both alphas; "
                                 f"drop {' and '.join(alphas)} or the asymmetry")
        for name in ("p_s", "p_r", "alpha_sr", "alpha_rd"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for g_db in self.grid_db:  # min and max pass over a nan
            if not math.isfinite(g_db):
                raise ValueError(f"grid point {g_db!r} dB is not finite")
        # the scales grow with the average SNR, so the grid's ends bound them all;
        # with no grid, the unit scales (0 dB) are checked
        ends, at = (0.0,), " is out of range"
        if self.grid_db:
            ends = (min(self.grid_db), max(self.grid_db))
            at = " * gammabar is out of range at an end of the grid"
        try:
            units = self.unit_scales()
            gbars = [db_to_linear(g) for g in ends]
        except OverflowError:  # alpha ** 2 or the last point overflowed
            units, gbars = (math.inf, math.inf), (math.inf,)
        for hop, power, unit in zip(("sr", "rd"), ("p_s", "p_r"), units):
            if not all(0.0 < unit * g < math.inf for g in gbars):
                raise ValueError(f"the {hop} hop's linear scale alpha_{hop}**2 * {power}{at}: "
                                 "it must be finite and > 0")

    def resolved_alphas(self) -> Tuple[float, float]:
        """Path-loss amplitudes after applying the asymmetry shorthand.

        The shorthand sets both alphas, which it requires to be left at 1.0:
        the dominant hop gets amplitude sqrt(ratio) so the effective power
        ratio equals ratio.
        """
        if self.asymmetry == "sr_dominant":
            return math.sqrt(self.asymmetry_ratio), 1.0
        if self.asymmetry == "rd_dominant":
            return 1.0, math.sqrt(self.asymmetry_ratio)
        return self.alpha_sr, self.alpha_rd

    def unit_scales(self) -> Tuple[float, float]:
        """Each hop's effective power alpha**2 * p: its scale at unit average SNR."""
        a_sr, a_rd = self.resolved_alphas()
        return a_sr ** 2 * self.p_s, a_rd ** 2 * self.p_r

    def hop_scales(self) -> Tuple[list, list]:
        """Each hop's scale, effective power times average SNR, at every grid
        point: the unit-SNR scale times the point's average SNR."""
        unit_sr, unit_rd = self.unit_scales()
        gbars = [db_to_linear(g_db) for g_db in self.grid_db]
        return [unit_sr * g for g in gbars], [unit_rd * g for g in gbars]


# -- coefficient cache --------------------------------------------------------


def load_or_compute_table(dims: WishartDims, cache_dir: Optional[Path] = None) -> CoeffTable:
    """A weight table from memory or, given a directory, from that disk cache, which
    each computed table fills.  Only the benchmark passes a directory."""
    if cache_dir is None:
        return cached_table(dims)
    path = cache_dir / f"coeff_a{dims.a}_b{dims.b}.txt"
    if path.exists():
        try:
            table = load_table(path)
            if table.dims != dims:
                raise CacheFormatError(f"{path}: holds a={table.dims.a} b={table.dims.b}")
            return table
        except CacheFormatError as exc:
            print(f"warning: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
    table = extract_coefficients(dims)
    cache_dir.mkdir(parents=True, exist_ok=True)
    save_table(table, path)
    return table


@lru_cache(maxsize=None)
def _hop(dims: WishartDims, cache_dir: Optional[Path]) -> HopCDF:
    """A hop's CDF, read and prepared once per process per dims and cache directory."""
    return hop_cdf(load_or_compute_table(dims, cache_dir))


def _analysis_dims(antenna: AntennaConfig, fault: Optional[str]) -> tuple[WishartDims, WishartDims]:
    if fault == "wrong-dims":
        # test-only: ignore the projection loss so the analytic curve is wrong
        return (WishartDims.of_matrix(antenna.n_r1, antenna.n_s),
                WishartDims.of_matrix(antenna.n_r2, antenna.n_d))
    return link_dims(antenna)


# -- curve construction -------------------------------------------------------


def build_curve(run: RunConfig, cache_dir: Optional[Path] = None,
                fault: Optional[str] = None) -> OutageCurve:
    """Analytic (and optionally Monte Carlo) outage across the SNR grid.

    Monte Carlo draws one set of trials per run and counts, block by block,
    the trials in outage at every grid point, which is identical in
    distribution to per-point estimation with the same seed and keeps the
    CSV deterministic.
    """
    dims_sr, dims_rd = _analysis_dims(run.antenna, fault)
    gamma_t = run.query.gamma_t
    scales_sr, scales_rd = run.hop_scales()
    p_sr = link_outage(_hop(dims_sr, cache_dir), scales_sr, gamma_t)
    # equal dims and equal scales, as in a symmetric budget: the same hop twice
    same = dims_rd == dims_sr and scales_rd == scales_sr
    p_rd = p_sr if same else link_outage(_hop(dims_rd, cache_dir), scales_rd, gamma_t)
    mc = [(None, None, None)] * len(run.grid_db)
    if run.trials > 0:
        bounds = [gamma_t / db_to_linear(g_db) for g_db in run.grid_db]
        failures = mcsim.link_gain_samples(run.antenna, run.trials, run.seed,
                                           run.unit_scales(), bounds)[0].tolist()
        mc = [(k / run.trials, *mcsim.wilson_interval(k, run.trials)) for k in failures]
    # the link fails iff either hop fails; link_outage has clamped both to [0, 1]
    return OutageCurve(rows=tuple(CurveRow(g_db, sr + (1.0 - sr) * rd, *m)
                                  for g_db, sr, rd, m in zip(run.grid_db, p_sr, p_rd, mc)))


def write_csv(curve: OutageCurve, path: str | Path) -> None:
    """The curve as CSV: 10 significant digits, and empty Monte Carlo fields
    where the row has none."""
    lines = [CSV_HEADER]
    lines += [f"{g:.10g},{p:.10g},,," if mc is None else
              f"{g:.10g},{p:.10g},{mc:.10g},{lo:.10g},{hi:.10g}"
              for g, p, mc, lo, hi in curve.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- exact diversity ------------------------------------------------------------


@dataclass(frozen=True)
class DiversityCheck:
    """Exact high-SNR law of a run; ``str`` gives its ``fdrelay diversity`` line."""

    predicted: int  # outage.diversity_order: the paper's formula
    hop_orders: Tuple[int, int]  # (sr, rd): each hop's j0 = ab, its order at 0
    coding_gain_db: Optional[float]  # if ok: outage ~ (G_c * gammabar) ** -predicted
    ok: bool

    def __str__(self) -> str:
        gain = "" if self.coding_gain_db is None else f", coding gain {self.coding_gain_db:+.3f} dB"
        return (f"predicted order {self.predicted}, exact hop orders sr {self.hop_orders[0]} "
                f"rd {self.hop_orders[1]}{gain} -> {'PASS' if self.ok else 'FAIL'}")


def exact_diversity(run: RunConfig) -> DiversityCheck:
    """Hop orders and coding gain from each prepared hop: its order j0 = ab and
    its exact leading coefficient t_j0 = g_ab = t_ab, which ``hop_cdf`` checks
    (g_j is 0 below ab and t_ab > 0).  An a x b hop's outage is
    t_ab x^ab + O(x^{ab+1}) at x = gamma_t / scale, so with d the smaller ab,
    outage ~ (G_c gammabar)^-d where G_c^-d sums t_ab (gamma_t / unit scale)^d
    over the hops of order d, exactly: at 9x9 its float terms can underflow.
    G_c is +inf dB at gamma_t = 0, where the outage is 0 at every SNR."""
    hops = []
    for dims, unit in zip(link_dims(run.antenna), run.unit_scales()):
        hop = _hop(dims, None)
        hops.append((hop.j0, hop.t_j0, unit))
    d, predicted = min(o for o, _, _ in hops), diversity_order(run.antenna)
    ok = d == predicted
    gain_db = None
    if ok:
        gamma_t = Fraction(run.query.gamma_t)
        s = sum(t * (gamma_t / Fraction(unit)) ** d for o, t, unit in hops if o == d)
        gain_db = (10.0 * (math.log(s.denominator) - math.log(s.numerator)) / (d * math.log(10.0))
                   if s else math.inf)
    return DiversityCheck(predicted, tuple(o for o, _, _ in hops), gain_db, ok)
