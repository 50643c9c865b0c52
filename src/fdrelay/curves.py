"""Run library: a run's configuration, the outage curves built from it, their
CSV form, and the exact diversity check.

dB enters the model here and nowhere else in the library: ``db_grid`` spaces
the SNR grid in dB and ``RunConfig.hop_scales`` takes each point to linear.
``outage``, ``mcsim`` and ``wishart`` are linear-scale only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

from . import mcsim
from .outage import (
    AntennaConfig,
    OutageQuery,
    diversity_order,
    e2e_outage,
    link_dims,
    link_outage,
)
from .wishart import (
    CacheFormatError,
    CoeffTable,
    WishartDims,
    cached_table,
    cdf_taylor,
    extract_coefficients,
    load_table,
    save_table,
)

CSV_HEADER = "gammabar_db,analytic,mc,ci_low,ci_high"
#: Longest SNR grid a run may ask for: 0.01 dB steps across 100 dB.
#: Finer curves show nothing new, and every point costs a closed-form
#: evaluation and, in each Monte Carlo block, a pass over that block's gains.
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
    # min() keeps int() off the inf that a tiny step gives
    count = int(round(min((stop_db - start_db) / step_db, MAX_GRID_POINTS))) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"the grid has more than {MAX_GRID_POINTS} points")
    return tuple(start_db + i * step_db for i in range(count)
                 if start_db + i * step_db <= stop_db + 1e-9)


@dataclass(frozen=True)
class CurveRow:
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
        """Raises ValueError for trials or a seed out of range, or for a hop
        scale that is not finite and > 0 somewhere on a non-empty grid."""
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= 2**32 = {MAX_TRIALS}, got {self.trials}")
        if not 0 <= self.seed < 2 ** 128:  # Philox keys are 128-bit
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if not self.grid_db:
            return
        # the scales grow with the average SNR, so the grid's ends bound them all
        try:
            units = self.unit_scales()
            gbars = (db_to_linear(min(self.grid_db)), db_to_linear(max(self.grid_db)))
        except OverflowError:  # alpha ** 2 or the last point overflowed
            units, gbars = (math.inf, math.inf), (math.inf,)
        for hop, power, unit in zip(("sr", "rd"), ("p_s", "p_r"), units):
            if not all(0.0 < unit * g < math.inf for g in gbars):
                raise ValueError(f"the {hop} hop's linear scale alpha_{hop}**2 * {power} "
                                 "* gammabar is out of range at an end of the grid: "
                                 "it must be finite and > 0")

    def resolved_alphas(self) -> Tuple[float, float]:
        """Path-loss amplitudes after applying the asymmetry shorthand.

        The shorthand overrides explicit alphas: the dominant hop gets
        amplitude sqrt(ratio) so the effective power ratio equals ratio.
        """
        if self.asymmetry == "sr_dominant":
            return math.sqrt(self.asymmetry_ratio), 1.0
        if self.asymmetry == "rd_dominant":
            return 1.0, math.sqrt(self.asymmetry_ratio)
        return self.alpha_sr, self.alpha_rd

    def unit_scales(self) -> Tuple[float, float]:
        """Each hop's effective power alpha**2 * p: its scale at unit average SNR."""
        a_sr, a_rd = self.resolved_alphas()
        for name, value in (("p_s", self.p_s), ("p_r", self.p_r),
                            ("alpha_sr", a_sr), ("alpha_rd", a_rd)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0")
        return a_sr ** 2 * self.p_s, a_rd ** 2 * self.p_r

    def hop_scales(self) -> Tuple[list, list]:
        """Each hop's scale, effective power times average SNR, at every grid
        point: the unit-SNR scale times the point's average SNR."""
        unit_sr, unit_rd = self.unit_scales()
        gbars = [db_to_linear(g_db) for g_db in self.grid_db]
        return [unit_sr * g for g in gbars], [unit_rd * g for g in gbars]


# -- coefficient cache --------------------------------------------------------


def _cache_path(cache_dir: Path, dims: WishartDims) -> Path:
    return cache_dir / f"coeff_a{dims.a}_b{dims.b}.txt"


def load_or_compute_table(dims: WishartDims, cache_dir: Optional[Path]) -> tuple[CoeffTable, str]:
    """Fetch a weight table, preferring the disk cache; returns (table, origin)."""
    if cache_dir is None:
        return cached_table(dims), "computed"
    path = _cache_path(cache_dir, dims)
    if path.exists():
        try:
            table = load_table(path)
            if table.dims != dims:
                raise CacheFormatError(f"{path}: holds a={table.dims.a} b={table.dims.b}")
            return table, "cached"
        except CacheFormatError as exc:
            print(f"warning: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
    table = extract_coefficients(dims)
    cache_dir.mkdir(parents=True, exist_ok=True)
    save_table(table, path)
    return table, "computed"


def _analysis_dims(antenna: AntennaConfig, fault: Optional[str]) -> tuple[WishartDims, WishartDims]:
    if fault == "wrong-dims":
        # test-only: ignore the projection loss so the analytic curve is wrong
        return (WishartDims.of_matrix(antenna.n_r1, antenna.n_s),
                WishartDims.of_matrix(antenna.n_r2, antenna.n_d))
    return link_dims(antenna, "sr"), link_dims(antenna, "rd")


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
    table_sr, _ = load_or_compute_table(dims_sr, cache_dir)
    table_rd, _ = load_or_compute_table(dims_rd, cache_dir)
    gamma_t = run.query.snr_threshold()
    scales_sr, scales_rd = run.hop_scales()
    p_sr = link_outage(table_sr, scales_sr, gamma_t)
    p_rd = link_outage(table_rd, scales_rd, gamma_t)
    failures = [None] * len(run.grid_db)
    if run.trials > 0:
        failures = mcsim.link_gain_samples(run.antenna, run.trials, run.seed,
                                           scales_sr, scales_rd, gamma_t)[0].tolist()
    rows = []
    for g_db, sr, rd, k in zip(run.grid_db, p_sr, p_rd, failures):
        mc = ci_low = ci_high = None
        if k is not None:
            mc = k / run.trials
            ci_low, ci_high = mcsim.wilson_interval(k, run.trials)
        rows.append(CurveRow(g_db, e2e_outage(sr, rd), mc, ci_low, ci_high))
    return OutageCurve(rows=tuple(rows))


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else format(value, ".10g")


def write_csv(curve: OutageCurve, path: str | Path) -> None:
    lines = [CSV_HEADER]
    for r in curve.rows:
        lines.append(",".join([
            _fmt(r.gammabar_db), _fmt(r.analytic), _fmt(r.mc),
            _fmt(r.ci_low), _fmt(r.ci_high),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- exact diversity ------------------------------------------------------------


@dataclass(frozen=True)
class DiversityCheck:
    """Exact high-SNR law of a run; ``str`` gives its ``fdrelay diversity`` line."""

    predicted: int  # outage.diversity_order: the paper's formula
    hop_orders: Tuple[Optional[int], Optional[int]]  # (sr, rd): first j <= ab with t_j != 0
    coding_gain_db: Optional[float]  # if ok: outage ~ (G_c * gammabar) ** -predicted
    ok: bool

    def __str__(self) -> str:
        gain = "" if self.coding_gain_db is None else f", coding gain {self.coding_gain_db:+.3f} dB"
        return (f"predicted order {self.predicted}, exact hop orders sr {self.hop_orders[0]} "
                f"rd {self.hop_orders[1]}{gain} -> {'PASS' if self.ok else 'FAIL'}")


def exact_diversity(run: RunConfig, cache_dir: Optional[Path] = None) -> DiversityCheck:
    """Hop orders and coding gain from the exact CDF Taylor coefficients t_j.
    An a x b hop's outage is t_ab x^ab + O(x^{ab+1}) at x = gamma_t / scale, so with d
    the smaller ab, outage ~ (G_c gammabar)^-d where G_c^-d sums t_ab (gamma_t / unit
    scale)^d over the hops of order d, exactly: at 9x9 its float terms can underflow."""
    hops = []
    for link, unit in zip(("sr", "rd"), run.unit_scales()):
        dims = link_dims(run.antenna, link)
        ab = dims.a * dims.b
        t = cdf_taylor(load_or_compute_table(dims, cache_dir)[0], ab)
        hops.append((ab, next((j for j, c in enumerate(t) if c), None), t[ab], unit))
    d, predicted = min(ab for ab, _, _, _ in hops), diversity_order(run.antenna)
    ok = d == predicted and all(o == ab and t > 0 for ab, o, t, _ in hops)
    gain_db = None
    if ok:
        gamma_t = Fraction(run.query.snr_threshold())
        s = sum(t * (gamma_t / Fraction(unit)) ** d for ab, _, t, unit in hops if ab == d)
        gain_db = 10.0 * (math.log(s.denominator) - math.log(s.numerator)) / (d * math.log(10.0))
    return DiversityCheck(predicted, tuple(o for _, o, _, _ in hops), gain_db, ok)
