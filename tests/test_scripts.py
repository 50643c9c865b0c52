"""Smoke runs of the experiment scripts, each in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_outage_curves_script(tmp_path):
    result = run_script("outage_curves.py", "--group", "relay_antenna_gain",
                        "--trials", "2000", "--grid-stop", "10", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    csvs = sorted(tmp_path.glob("relay_antenna_gain_*.csv"))
    assert len(csvs) == 4
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == "gammabar_db,analytic,mc,ci_low,ci_high"
        assert len(lines) == 4 and all(lines[-1].split(","))


DIVERSITY_ORDERS_STDOUT = """\
(2, 3, 2, 1)  receive: predicted order 2, exact hop orders sr 4 rd 2, coding gain -8.495 dB -> PASS
(2, 3, 2, 1) transmit: predicted order 1, exact hop orders sr 6 rd 1, coding gain -10.000 dB -> PASS
(2, 2, 3, 1)  receive: predicted order 2, exact hop orders sr 2 rd 3, coding gain -8.495 dB -> PASS
(2, 2, 3, 1) transmit: predicted order 2, exact hop orders sr 4 rd 2, coding gain -8.495 dB -> PASS
(2, 3, 2, 2)  receive: predicted order 4, exact hop orders sr 4 rd 4, coding gain -8.055 dB -> PASS
(2, 3, 2, 2) transmit: predicted order 2, exact hop orders sr 6 rd 2, coding gain -8.495 dB -> PASS
(2, 3, 2, 3)  receive: predicted order 4, exact hop orders sr 4 rd 6, coding gain -7.302 dB -> PASS
(2, 3, 2, 3) transmit: predicted order 3, exact hop orders sr 6 rd 3, coding gain -7.406 dB -> PASS
(3, 2, 2, 2)  receive: predicted order 3, exact hop orders sr 3 rd 4, coding gain -7.406 dB -> PASS
(3, 2, 2, 2) transmit: predicted order 2, exact hop orders sr 6 rd 2, coding gain -8.495 dB -> PASS
10 of 10 exact orders match
"""


def test_diversity_orders_script():
    result = run_script("diversity_orders.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == DIVERSITY_ORDERS_STDOUT
