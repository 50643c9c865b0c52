"""Command-line front end: exact weight-table checks, SNR sweeps,
analytic-vs-Monte-Carlo comparison, and exact diversity-order checks.

The commands run on the library in ``curves``, which turns the SNR grid
from dB to linear; ``outage``, ``mcsim`` and ``wishart`` stay linear-scale.
The config's other dB values, the threshold and the powers, are converted
here at the boundary.  Run configurations are flat ``key = value`` text
files (see ``parse_run_config`` for the key list), and sweep output is a
small CSV suitable for direct plotting.

Exit codes: 0 success, 1 validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import mcsim
from .curves import (
    RunConfig,
    build_curve,
    db_grid,
    db_to_linear,
    exact_diversity,
    load_or_compute_table,
    write_csv,
)
from .exppoly import InexactDivisionError
from .outage import (
    MAX_ANTENNAS,
    AntennaConfig,
    InvalidProbabilityError,
    OutageQuery,
    ZFMode,
    rate_to_snr_threshold,
)
from .wishart import NonzeroResidualError, WishartDims

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Run-configuration file is missing, malformed, or inconsistent."""


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
    "gamma_t_db": db_to_linear,
    "rate_r0": rate_to_snr_threshold,
    "p_s_db": db_to_linear,
    "p_r_db": db_to_linear,
    "grid_start_db": db_to_linear,
    "grid_stop_db": db_to_linear,
}

_REQUIRED_KEYS = ("n_s", "n_r1", "n_r2", "n_d", "mode",
                  "grid_start_db", "grid_stop_db", "grid_step_db")


def parse_run_config(path: str | Path) -> RunConfig:
    """Parse a flat ``key = value`` run configuration file.  Only rules that
    need the file's own keys are checked here; the library types check the
    rest, and their ``ValueError`` becomes a ``ConfigError`` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    linear: dict[str, float] = {}
    for key, to_linear in _LINEAR_FORMS.items():
        if key not in values:
            continue
        try:
            linear[key] = to_linear(values[key])
        except OverflowError:
            linear[key] = math.inf
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from exc
        if not 0.0 < linear[key] < math.inf:
            raise ConfigError(f"{path}: {key} = {values[key]!r} is out of range: "
                              "its linear value must be finite and > 0")

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    if ("gamma_t_db" in values) == ("rate_r0" in values):
        raise ConfigError(f"{path}: specify exactly one of gamma_t_db or rate_r0")
    mode_name = str(values["mode"]).lower()
    try:
        mode = ZFMode(mode_name)
    except ValueError:
        raise ConfigError(f"{path}: mode must be 'receive' or 'transmit', got {mode_name!r}")
    try:
        run = RunConfig(
            antenna=AntennaConfig(values["n_s"], values["n_r1"], values["n_r2"], values["n_d"],
                                  mode),
            query=OutageQuery(linear.get("gamma_t_db", linear.get("rate_r0"))),
            grid_db=db_grid(values["grid_start_db"], values["grid_stop_db"],
                            values["grid_step_db"]),
            p_s=linear.get("p_s_db", 1.0),
            p_r=linear.get("p_r_db", 1.0),
            alpha_sr=values.get("alpha_sr", 1.0),
            alpha_rd=values.get("alpha_rd", 1.0),
            trials=values.get("trials", 0),
            seed=values.get("seed", 0),
            out_csv=values.get("out_csv"),
            asymmetry=str(values.get("asymmetry", "symmetric")).lower(),
            asymmetry_ratio=values.get("asymmetry_ratio"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    alphas = [k for k in ("alpha_sr", "alpha_rd") if k in values]
    if alphas and run.asymmetry != "symmetric":
        raise ConfigError(f"{path}: asymmetry = {run.asymmetry} sets both alphas; "
                          f"drop {' and '.join(alphas)} or the asymmetry")
    return run


# -- subcommands --------------------------------------------------------------


def _parse_dims_arg(text: str) -> WishartDims:
    lowered = text.lower()
    parts = lowered.split("x" if "x" in lowered else ",")
    if len(parts) != 2:
        raise ConfigError(f"bad dims {text!r}; expected N1xN2 (e.g. 2x3)")
    try:
        n1, n2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"bad dims {text!r}; expected integers")
    if max(n1, n2) > MAX_ANTENNAS:
        raise ConfigError(f"bad dims {text!r}: each dim must be at most {MAX_ANTENNAS}")
    try:
        return WishartDims.of_matrix(n1, n2)
    except ValueError as exc:
        raise ConfigError(f"bad dims {text!r}: {exc}")


def cmd_coeffs(args: argparse.Namespace) -> int:
    dims_list = [_parse_dims_arg(d) for d in args.dims]
    for dims in dims_list:
        table = load_or_compute_table(dims)
        print(f"a={dims.a} b={dims.b}: sum = {table.total()} ({len(table.entries)} entries)")
    return EXIT_OK


def _load_run(args: argparse.Namespace) -> RunConfig:
    run = parse_run_config(args.config)
    for key in ("seed", "trials"):
        if getattr(args, key, None) is not None:
            try:
                run = dataclasses.replace(run, **{key: getattr(args, key)})
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from exc
    return run


def cmd_sweep(args: argparse.Namespace) -> int:
    run = _load_run(args)
    if run.out_csv is None:
        raise ConfigError("sweep needs out_csv in the config file")
    curve = build_curve(run)
    write_csv(curve, run.out_csv)
    print(f"wrote {len(curve.rows)} points to {run.out_csv}")
    return EXIT_OK


def _z_score(analytic: float, mc: float, trials: int) -> float:
    """Signed z of the exact two-sided binomial test of a failure share
    ``mc`` of ``trials`` at rate ``analytic``: its p-value is the smaller
    tail doubled.  A normal approximation is far off where less than a few
    failures or successes are expected."""
    from scipy.special import bdtr, bdtrc, ndtri  # 0.35 s to import: only compare pays

    k = round(mc * trials)
    tail = min(bdtr(k, trials, analytic), bdtrc(k - 1, trials, analytic))  # P(X <= k), P(X >= k)
    return math.copysign(-float(ndtri(min(tail, 0.5))), mc - analytic)


def cmd_compare(args: argparse.Namespace) -> int:
    run = _load_run(args)
    if run.trials < 1:
        raise ConfigError("compare needs trials > 0 (config key or --trials)")
    if run.trials < 10_000:
        print(f"warning: underpowered comparison ({run.trials} trials < 10000)",
              file=sys.stderr)
    curve = build_curve(run)
    worst, non_finite = 0.0, []
    print("gammabar_db  analytic      mc            z")
    for r in curve.rows:
        z = _z_score(r.analytic, r.mc, run.trials)
        if not math.isfinite(z):  # max() passes over a nan
            non_finite.append(f"{r.gammabar_db:.4g}")
        worst = max(worst, abs(z))
        print(f"{r.gammabar_db:11.4g}  {r.analytic:.6e}  {r.mc:.6e}  {z:+.3f}")
    if non_finite:
        print(f"compare: FAIL (z is not finite at gammabar_db = {', '.join(non_finite)})",
              file=sys.stderr)
        return EXIT_VALIDATION
    if worst > 3.0:
        print(f"compare: FAIL (max |z| = {worst:.3f} > 3)", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"compare: OK (max |z| = {worst:.3f})")
    return EXIT_OK


def cmd_diversity(args: argparse.Namespace) -> int:
    run = _load_run(args)
    check = exact_diversity(run)
    a = run.antenna
    print(f"config ({a.n_s},{a.n_r1},{a.n_r2},{a.n_d}) {a.mode.value}: {check}")
    return EXIT_OK if check.ok else EXIT_VALIDATION


# -- entry point --------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Outage analysis for full-duplex MIMO DF relaying with ZF beamforming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="compute and check eigenvalue-law weight tables")
    p_coeffs.add_argument("dims", nargs="+", metavar="N1xN2",
                          help="channel matrix dimensions, e.g. 2x3")

    for name, helptext in (
        ("sweep", "write an outage-vs-SNR CSV for a run config"),
        ("compare", "z-test the analytic curve against Monte Carlo"),
        ("diversity", "check the exact hop diversity orders and print the coding gain"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
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
    except (NonzeroResidualError, InexactDivisionError, InvalidProbabilityError,
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
