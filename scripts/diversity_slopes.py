#!/usr/bin/env python3
"""Tabulate fitted high-SNR outage slopes against the predicted diversity
orders for the standard configuration set, in both ZF modes."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdrelay.cli import SLOPE_TOLERANCE, RunConfig, build_curve, fit_high_snr_slope
from fdrelay.outage import AntennaConfig, OutageQuery, ZFMode, diversity_order

CONFIGS = [(2, 3, 2, 1), (2, 2, 3, 1), (2, 3, 2, 2), (2, 3, 2, 3), (3, 2, 2, 2)]
STEP_DB = 2.5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma-t-db", default=10.0, type=float)
    parser.add_argument("--start-db", default=30.0, type=float)
    parser.add_argument("--stop-db", default=40.0, type=float)
    args = parser.parse_args()

    count = int((args.stop_db - args.start_db + 1e-9) // STEP_DB) + 1
    grid = tuple(args.start_db + i * STEP_DB for i in range(count))
    query = OutageQuery.snr(10.0 ** (args.gamma_t_db / 10.0))
    print(f"{'config':>12} {'mode':>9} {'order':>5} {'slope':>8} {'delta':>7}")
    worst = 0.0
    for antennas in CONFIGS:
        for mode in (ZFMode.RECEIVE, ZFMode.TRANSMIT):
            cfg = AntennaConfig(*antennas, mode)
            run = RunConfig(antenna=cfg, query=query, grid_db=grid, p_s=1.0, p_r=1.0,
                            alpha_sr=1.0, alpha_rd=1.0, trials=0, seed=0, out_csv=None,
                            asymmetry="symmetric", asymmetry_ratio=None)
            order = diversity_order(cfg)
            slope = fit_high_snr_slope(build_curve(run), span_db=args.stop_db - args.start_db)
            delta = abs(slope + order)
            worst = max(worst, delta)
            print(f"{str(antennas):>12} {mode.value:>9} {order:>5} "
                  f"{slope:>+8.3f} {delta:>7.3f}")
    print(f"worst |slope + order| = {worst:.3f}")
    return 0 if worst <= SLOPE_TOLERANCE else 1


if __name__ == "__main__":
    raise SystemExit(main())
