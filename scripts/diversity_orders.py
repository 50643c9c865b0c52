#!/usr/bin/env python3
"""Check the exact hop diversity orders against the predicted ones, with the
coding gains, for the standard configurations in both ZF modes; exits 1 on a miss."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdrelay.curves import RunConfig, db_to_linear, exact_diversity
from fdrelay.outage import AntennaConfig, OutageQuery, ZFMode

CONFIGS = [(2, 3, 2, 1), (2, 2, 3, 1), (2, 3, 2, 2), (2, 3, 2, 3), (3, 2, 2, 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma-t-db", default=10.0, type=float)
    args = parser.parse_args()

    try:
        query = OutageQuery.snr(db_to_linear(args.gamma_t_db))
    except (OverflowError, ValueError):  # 10 ** 400 overflows; nan is refused
        parser.error(f"--gamma-t-db {args.gamma_t_db}: its linear threshold must be finite")
    passed = 0
    for antennas in CONFIGS:
        for mode in (ZFMode.RECEIVE, ZFMode.TRANSMIT):
            check = exact_diversity(RunConfig(AntennaConfig(*antennas, mode), query, grid_db=()))
            passed += check.ok
            print(f"{str(antennas):>12} {mode.value:>8}: {check}")
    print(f"{passed} of {2 * len(CONFIGS)} exact orders match")
    return 0 if passed == 2 * len(CONFIGS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
