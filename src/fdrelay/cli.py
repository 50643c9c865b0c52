"""Command-line front end: coefficient cache management, SNR sweeps,
analytic-vs-Monte-Carlo comparison, and diversity-order slope checks.

All dB <-> linear conversion happens here, at the boundary; the library
modules are linear-scale only.  Run configurations are flat ``key = value``
text files (see ``parse_run_config`` for the key list), and sweep output is
a small CSV suitable for direct plotting.

Exit codes: 0 success, 1 validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import mcsim
from .outage import (
    AntennaConfig,
    InvalidProbabilityError,
    LinkBudget,
    OutageQuery,
    ZFMode,
    diversity_order,
    e2e_outage,
    link_dims,
    link_outage,
    rate_to_snr_threshold,
)
from .wishart import (
    CacheFormatError,
    CoeffTable,
    NonzeroResidualError,
    WishartDims,
    cached_table,
    extract_coefficients,
    load_table,
    save_table,
)

CACHE_DIR_ENV = "FDRELAY_CACHE_DIR"
CSV_HEADER = "gammabar_db,analytic,mc,ci_low,ci_high"
SLOPE_TOLERANCE = 0.3
#: Longest SNR grid a run config may ask for: 0.01 dB steps across 100 dB.
#: Finer curves show nothing new, and every point costs a closed-form
#: evaluation and a pass over all Monte Carlo gains.
MAX_GRID_POINTS = 10_000
#: Most Monte Carlo trials a run may ask for.  Their gains take 4 GiB, two
#: floats per trial, and (2,3,2,2) draws them in about 3 minutes on 2 CPUs;
#: that resolves an outage of 1e-6 to about +-12 % at 95 %.
MAX_TRIALS = 2 ** 28

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Run-configuration file is missing, malformed, or inconsistent."""


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
    p_s: float
    p_r: float
    alpha_sr: float
    alpha_rd: float
    trials: int
    seed: int
    out_csv: Optional[str]
    asymmetry: str
    asymmetry_ratio: Optional[float]

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

    def budget_at(self, gammabar_db: float) -> LinkBudget:
        a_sr, a_rd = self.resolved_alphas()
        gbar = _db_to_linear(gammabar_db)
        return LinkBudget(
            p_s=self.p_s,
            p_r=self.p_r,
            gammabar_sr=gbar,
            gammabar_rd=gbar,
            alpha_sr=a_sr,
            alpha_rd=a_rd,
        )


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _check_trials(trials: int, where: str) -> int:
    if trials < 0:
        raise ConfigError(f"{where}: trials must be >= 0, got {trials}")
    if trials > MAX_TRIALS:
        raise ConfigError(f"{where}: trials must be <= 2**28 = {MAX_TRIALS}, got {trials}")
    return trials


def _check_seed(seed: int, where: str) -> int:
    if not 0 <= seed < 2 ** 128:  # Philox keys are 128-bit
        raise ConfigError(f"{where}: seed must be in [0, 2**128), got {seed}")
    return seed


_CONFIG_TYPES = {
    "n_s": int,
    "n_r1": int,
    "n_r2": int,
    "n_d": int,
    "mode": str,
    "gamma_t_db": float,
    "rate_r0": float,
    "p_s_db": float,
    "p_r_db": float,
    "alpha_sr": float,
    "alpha_rd": float,
    "grid_start_db": float,
    "grid_stop_db": float,
    "grid_step_db": float,
    "trials": int,
    "seed": int,
    "out_csv": str,
    "asymmetry": str,
    "asymmetry_ratio": float,
}

#: Keys that enter the model through a linear value, and how they get it.
#: Each linear value must be finite and > 0; the grid lies between its ends.
_LINEAR_FORMS = {
    "gamma_t_db": _db_to_linear,
    "rate_r0": rate_to_snr_threshold,
    "p_s_db": _db_to_linear,
    "p_r_db": _db_to_linear,
    "grid_start_db": _db_to_linear,
    "grid_stop_db": _db_to_linear,
}

_REQUIRED_KEYS = ("n_s", "n_r1", "n_r2", "n_d", "mode",
                  "grid_start_db", "grid_stop_db", "grid_step_db")


def parse_run_config(path: str | Path) -> RunConfig:
    """Parse a flat ``key = value`` run configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    values: dict[str, object] = {}
    for key, text_value in raw.items():
        try:
            values[key] = _CONFIG_TYPES[key](text_value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ConfigError(f"{path}: {key} must be finite, got {text_value!r}")
    for key in ("alpha_sr", "alpha_rd"):
        if key in values and values[key] <= 0.0:
            raise ConfigError(f"{path}: {key} must be > 0, got {values[key]!r}")
    for key, to_linear in _LINEAR_FORMS.items():
        if key not in values:
            continue
        try:
            linear = to_linear(values[key])
        except OverflowError:
            linear = math.inf
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from exc
        if not 0.0 < linear < math.inf:
            raise ConfigError(f"{path}: {key} = {values[key]!r} is out of range: "
                              "its linear value must be finite and > 0")

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    mode_name = str(values["mode"]).lower()
    try:
        mode = ZFMode(mode_name)
    except ValueError:
        raise ConfigError(f"{path}: mode must be 'receive' or 'transmit', got {mode_name!r}")
    try:
        antenna = AntennaConfig(
            n_s=values["n_s"], n_r1=values["n_r1"],
            n_r2=values["n_r2"], n_d=values["n_d"], mode=mode,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    has_gamma = "gamma_t_db" in values
    has_rate = "rate_r0" in values
    if has_gamma == has_rate:
        raise ConfigError(f"{path}: specify exactly one of gamma_t_db or rate_r0")
    if has_gamma:
        query = OutageQuery.snr(_db_to_linear(values["gamma_t_db"]))
    else:
        query = OutageQuery.rate(values["rate_r0"])

    start, stop, step = (values["grid_start_db"], values["grid_stop_db"],
                         values["grid_step_db"])
    if step <= 0 or stop < start:
        raise ConfigError(f"{path}: need grid_step_db > 0 and grid_stop_db >= grid_start_db")
    # min() keeps int() off the inf that a tiny step gives
    count = int(round(min((stop - start) / step, MAX_GRID_POINTS))) + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"{path}: the grid has more than {MAX_GRID_POINTS} points")
    grid = tuple(start + i * step for i in range(count) if start + i * step <= stop + 1e-9)

    asymmetry = str(values.get("asymmetry", "symmetric")).lower()
    if asymmetry not in ("symmetric", "sr_dominant", "rd_dominant"):
        raise ConfigError(f"{path}: asymmetry must be symmetric|sr_dominant|rd_dominant")
    ratio = values.get("asymmetry_ratio")
    if asymmetry != "symmetric":
        if ratio is None or ratio <= 1.0:
            raise ConfigError(f"{path}: asymmetric budgets need asymmetry_ratio > 1")

    return RunConfig(
        antenna=antenna,
        query=query,
        grid_db=grid,
        p_s=_db_to_linear(values.get("p_s_db", 0.0)),
        p_r=_db_to_linear(values.get("p_r_db", 0.0)),
        alpha_sr=float(values.get("alpha_sr", 1.0)),
        alpha_rd=float(values.get("alpha_rd", 1.0)),
        trials=_check_trials(values.get("trials", 0), str(path)),
        seed=_check_seed(values.get("seed", 0), str(path)),
        out_csv=values.get("out_csv"),
        asymmetry=asymmetry,
        asymmetry_ratio=ratio,
    )


# -- coefficient cache --------------------------------------------------------


def resolve_cache_dir(flag_value: Optional[str]) -> Optional[Path]:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


def _cache_path(cache_dir: Path, dims: WishartDims) -> Path:
    return cache_dir / f"coeff_a{dims.a}_b{dims.b}.txt"


def load_or_compute_table(dims: WishartDims, cache_dir: Optional[Path]) -> tuple[CoeffTable, str]:
    """Fetch a weight table, preferring the disk cache; returns (table, origin)."""
    if cache_dir is None:
        return cached_table(dims), "computed"
    path = _cache_path(cache_dir, dims)
    if path.exists():
        try:
            return load_table(path), "cached"
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

    Monte Carlo gain samples are drawn once per run and rethresholded per
    grid point, which is identical in distribution to per-point estimation
    with the same seed and keeps the CSV deterministic.
    """
    dims_sr, dims_rd = _analysis_dims(run.antenna, fault)
    table_sr, _ = load_or_compute_table(dims_sr, cache_dir)
    table_rd, _ = load_or_compute_table(dims_rd, cache_dir)
    gamma_t = run.query.snr_threshold()

    gains = None
    if run.trials > 0:
        gains = mcsim.link_gain_samples(run.antenna, run.trials, run.seed)

    # a point's link scales are these effective powers times its average SNR
    base = run.budget_at(0.0)
    p_s, p_r = base.effective_p_s, base.effective_p_r
    gbars = [_db_to_linear(g_db) for g_db in run.grid_db]
    p_sr = link_outage(table_sr, [p_s * g for g in gbars], gamma_t)
    p_rd = link_outage(table_rd, [p_r * g for g in gbars], gamma_t)
    rows = []
    for g_db, sr, rd in zip(run.grid_db, p_sr, p_rd):
        mc = ci_low = ci_high = None
        if gains is not None:
            mc, ci_low, ci_high = mcsim.outage_from_gains(gains, run.budget_at(g_db), gamma_t)
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


# -- subcommands --------------------------------------------------------------


def _parse_dims_arg(text: str) -> WishartDims:
    sep = "x" if "x" in text else ","
    parts = text.lower().split(sep)
    if len(parts) != 2:
        raise ConfigError(f"bad dims {text!r}; expected N1xN2 (e.g. 2x3)")
    try:
        n1, n2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"bad dims {text!r}; expected integers")
    try:
        return WishartDims.of_matrix(n1, n2)
    except ValueError as exc:
        raise ConfigError(f"bad dims {text!r}: {exc}")


def cmd_coeffs(args: argparse.Namespace) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print(f"coeffs: no cache directory (use --cache-dir or ${CACHE_DIR_ENV})",
              file=sys.stderr)
        return EXIT_USAGE
    dims_list = [_parse_dims_arg(d) for d in args.dims]
    for dims in dims_list:
        table, origin = load_or_compute_table(dims, cache_dir)
        total = table.total()
        print(f"a={dims.a} b={dims.b}: sum = {total} "
              f"({len(table.entries)} entries, {origin})")
        if total != 1:
            print(f"coeffs: weight sum is {total}, expected 1", file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


def _load_run(args: argparse.Namespace) -> RunConfig:
    run = parse_run_config(args.config)
    if getattr(args, "seed", None) is not None:
        run = dataclasses.replace(run, seed=_check_seed(args.seed, "--seed"))
    if getattr(args, "trials", None) is not None:
        run = dataclasses.replace(run, trials=_check_trials(args.trials, "--trials"))
    return run


def cmd_sweep(args: argparse.Namespace) -> int:
    run = _load_run(args)
    if run.out_csv is None:
        raise ConfigError("sweep needs out_csv in the config file")
    curve = build_curve(run, resolve_cache_dir(args.cache_dir))
    write_csv(curve, run.out_csv)
    print(f"wrote {len(curve.rows)} points to {run.out_csv}")
    return EXIT_OK


def _z_score(analytic: float, mc: float, trials: int) -> float:
    se = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials)
    if se == 0.0:
        return 0.0 if mc == analytic else math.inf
    return (mc - analytic) / se


def cmd_compare(args: argparse.Namespace) -> int:
    run = _load_run(args)
    if run.trials < 1:
        raise ConfigError("compare needs trials > 0 (config key or --trials)")
    if run.trials < 10_000:
        print(f"warning: underpowered comparison ({run.trials} trials < 10000)",
              file=sys.stderr)
    curve = build_curve(run, resolve_cache_dir(args.cache_dir))
    worst = 0.0
    print("gammabar_db  analytic      mc            z")
    for r in curve.rows:
        z = _z_score(r.analytic, r.mc, run.trials)
        worst = max(worst, abs(z))
        print(f"{r.gammabar_db:11.4g}  {r.analytic:.6e}  {r.mc:.6e}  {z:+.3f}")
    if worst > 3.0:
        print(f"compare: FAIL (max |z| = {worst:.3f} > 3)", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"compare: OK (max |z| = {worst:.3f})")
    return EXIT_OK


def fit_high_snr_slope(curve: OutageCurve, span_db: float = 10.0) -> float:
    """Least-squares slope of log10(outage) vs log10(avg SNR) over the top
    ``span_db`` of the grid."""
    top = curve.rows[-1].gammabar_db - span_db
    pts = [(r.gammabar_db / 10.0, math.log10(r.analytic))
           for r in curve.rows if r.gammabar_db >= top - 1e-9 and r.analytic > 0.0]
    if len(pts) < 2:
        raise ConfigError("not enough high-SNR points to fit a slope")
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_diversity(args: argparse.Namespace) -> int:
    run = _load_run(args)
    if run.grid_db[-1] - run.grid_db[0] < 10.0 - 1e-9:
        raise ConfigError("diversity needs a grid covering at least 10 dB")
    run = dataclasses.replace(run, trials=0)
    curve = build_curve(run, resolve_cache_dir(args.cache_dir))
    predicted = diversity_order(run.antenna)
    slope = fit_high_snr_slope(curve)
    ok = abs(slope - (-predicted)) <= SLOPE_TOLERANCE
    a = run.antenna
    print(f"config ({a.n_s},{a.n_r1},{a.n_r2},{a.n_d}) {a.mode.value}: "
          f"predicted order {predicted}, fitted slope {slope:+.3f} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VALIDATION


# -- entry point --------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Outage analysis for full-duplex MIMO DF relaying with ZF beamforming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="compute and cache eigenvalue-law weight tables")
    p_coeffs.add_argument("dims", nargs="+", metavar="N1xN2",
                          help="channel matrix dimensions, e.g. 2x3")
    p_coeffs.add_argument("--cache-dir", default=None)

    for name, helptext in (
        ("sweep", "write an outage-vs-SNR CSV for a run config"),
        ("compare", "z-test the analytic curve against Monte Carlo"),
        ("diversity", "check the fitted high-SNR slope against the predicted order"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
        p.add_argument("--cache-dir", default=None)
        if name != "diversity":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--trials", type=int, default=None)
    return parser


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "diversity": cmd_diversity,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"fdrelay: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonzeroResidualError, InvalidProbabilityError, CacheFormatError,
            mcsim.DegenerateChannelError, OSError) as exc:
        print(f"fdrelay: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        from concurrent.futures import BrokenExecutor  # loaded already if a pool broke

        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"fdrelay: a Monte Carlo worker process failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
