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


DIVERSITY_SLOPES_STDOUT = """\
      config      mode order    slope   delta
(2, 3, 2, 1)   receive     2   -1.997   0.003
(2, 3, 2, 1)  transmit     1   -0.998   0.002
(2, 2, 3, 1)   receive     2   -1.999   0.001
(2, 2, 3, 1)  transmit     2   -1.997   0.003
(2, 3, 2, 2)   receive     4   -3.996   0.004
(2, 3, 2, 2)  transmit     2   -1.997   0.003
(2, 3, 2, 3)   receive     4   -3.996   0.004
(2, 3, 2, 3)  transmit     3   -2.997   0.003
(3, 2, 2, 2)   receive     3   -2.999   0.001
(3, 2, 2, 2)  transmit     2   -1.997   0.003
worst |slope + order| = 0.004
"""


def test_diversity_slopes_script():
    result = run_script("diversity_slopes.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == DIVERSITY_SLOPES_STDOUT
