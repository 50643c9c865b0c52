#!/usr/bin/env python3
"""Generate the outage-vs-SNR curve families used in the analysis write-up.

Three experiment groups, each emitted as one CSV per (configuration, budget):

  single_destination  -- (2,3,2,1) vs (2,2,3,1), receive ZF, symmetric and
                         both 3:2 asymmetric budgets
  relay_antenna_gain  -- effect of one extra relay rx antenna (receive ZF)
                         and one extra relay tx antenna (transmit ZF)
  antenna_allocation  -- same diversity order / swapped roles comparisons,
                         receive ZF

Curves contain the analytic closed form and, when --trials > 0, a Monte
Carlo estimate with a 95% Wilson interval.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdrelay.cli import RunConfig, build_curve, write_csv
from fdrelay.outage import AntennaConfig, OutageQuery, ZFMode

BUDGETS = {
    "sym": ("symmetric", None),
    "rd32": ("rd_dominant", 1.5),
    "sr32": ("sr_dominant", 1.5),
}

GROUPS = {
    "single_destination": [
        ((2, 3, 2, 1), ZFMode.RECEIVE, ("sym", "rd32", "sr32")),
        ((2, 2, 3, 1), ZFMode.RECEIVE, ("sym", "rd32", "sr32")),
    ],
    "relay_antenna_gain": [
        ((2, 2, 2, 2), ZFMode.RECEIVE, ("sym",)),
        ((2, 3, 2, 2), ZFMode.RECEIVE, ("sym",)),
        ((2, 2, 2, 2), ZFMode.TRANSMIT, ("sym",)),
        ((2, 2, 3, 2), ZFMode.TRANSMIT, ("sym",)),
    ],
    "antenna_allocation": [
        ((2, 3, 2, 2), ZFMode.RECEIVE, ("sym",)),
        ((2, 3, 2, 3), ZFMode.RECEIVE, ("sym",)),
        ((3, 2, 2, 2), ZFMode.RECEIVE, ("sym",)),
    ],
}


def run_config(antennas, mode, budget_key, args):
    asymmetry, ratio = BUDGETS[budget_key]
    # asymmetric panels use a 5 dB threshold, symmetric ones 10 dB
    gamma_t_db = 10.0 if budget_key == "sym" else 5.0
    grid = tuple(
        args.grid_start + i * args.grid_step
        for i in range(int((args.grid_stop - args.grid_start) / args.grid_step) + 1)
    )
    return RunConfig(
        antenna=AntennaConfig(*antennas, mode),
        query=OutageQuery.snr(10.0 ** (gamma_t_db / 10.0)),
        grid_db=grid,
        trials=args.trials,
        seed=args.seed,
        asymmetry=asymmetry,
        asymmetry_ratio=ratio,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=Path)
    parser.add_argument("--trials", default=100_000, type=int)
    parser.add_argument("--seed", default=29, type=int)
    parser.add_argument("--grid-start", default=0.0, type=float)
    parser.add_argument("--grid-stop", default=30.0, type=float)
    parser.add_argument("--grid-step", default=5.0, type=float)
    parser.add_argument("--group", choices=sorted(GROUPS), default=None,
                        help="run a single experiment group")
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    groups = {args.group: GROUPS[args.group]} if args.group else GROUPS
    for group, entries in groups.items():
        for antennas, mode, budget_keys in entries:
            for key in budget_keys:
                run = run_config(antennas, mode, key, args)
                curve = build_curve(run)
                name = "".join(map(str, antennas))
                path = args.outdir / f"{group}_{name}_{mode.value}_{key}.csv"
                write_csv(curve, path)
                print(f"wrote {path} ({len(curve.rows)} points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
