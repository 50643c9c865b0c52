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


def test_diversity_slopes_script():
    result = run_script("diversity_slopes.py")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["config", "mode", "order", "slope", "delta"]
    assert len(lines) == 12 and lines[-1].startswith("worst |slope + order|")
