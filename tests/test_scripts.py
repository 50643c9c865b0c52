"""Smoke runs of the experiment scripts, each in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from fdrelay.cli import main

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


def test_outage_curves_script_keeps_the_end_of_its_grid(tmp_path):
    # 0 + 7 * 0.1 = 0.7000000000000001 lies within 1e-9 dB of the stop; a run
    # config with the same grid gives the same 8 points and the same bytes
    result = run_script("outage_curves.py", "--group", "relay_antenna_gain", "--trials", "0",
                        "--grid-stop", "0.7", "--grid-step", "0.1", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    csvs = sorted(tmp_path.glob("relay_antenna_gain_*.csv"))
    assert len(csvs) == 4
    for path in csvs:
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 8 and rows[-1].startswith("0.7,"), path
    config = tmp_path / "run.cfg"
    config.write_text("n_s = 2\nn_r1 = 2\nn_r2 = 2\nn_d = 2\nmode = receive\n"
                      "gamma_t_db = 10\ngrid_start_db = 0\ngrid_stop_db = 0.7\n"
                      f"grid_step_db = 0.1\nout_csv = {tmp_path / 'sweep.csv'}\n")
    assert main(["sweep", "--config", str(config)]) == 0
    assert ((tmp_path / "sweep.csv").read_bytes()
            == (tmp_path / "relay_antenna_gain_2222_receive_sym.csv").read_bytes())


@pytest.mark.parametrize("step", ["0", "-5"])
def test_outage_curves_script_rejects_a_bad_grid_step(tmp_path, step):
    result = run_script("outage_curves.py", "--grid-step", step, "--outdir", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "error: need a grid step > 0 and a grid stop >= the grid start" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["--grid-start", "3000", "--grid-stop", "4000", "--grid-step", "500"],
     "the sr hop's linear scale alpha_sr**2 * p_s * gammabar is out of range"),
    (["--trials", "-1"], "trials must be >= 0, got -1"),
    (["--seed", "-5"], "seed must be in [0, 2**128), got -5"),
])
def test_outage_curves_script_checks_its_runs_first(tmp_path, args, message):
    # the run checks of a config file, made before any output exists
    result = run_script("outage_curves.py", *args, "--outdir", str(tmp_path / "out"))
    assert result.returncode == 2
    assert f"error: {message}" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("gamma_t_db", ["4000", "nan"])
def test_diversity_orders_script_refuses_a_threshold_that_is_not_finite(gamma_t_db):
    # 10 ** 400 overflows, and nan is no threshold: each ended in a traceback
    result = run_script("diversity_orders.py", "--gamma-t-db", gamma_t_db)
    assert result.returncode == 2
    assert (f"--gamma-t-db {float(gamma_t_db)}: its linear threshold must be finite"
            in result.stderr)
    assert "Traceback" not in result.stderr


def test_diversity_orders_script_at_a_threshold_that_underflows_to_zero():
    result = run_script("diversity_orders.py", "--gamma-t-db=-4000")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("coding gain +inf dB -> PASS") == 10
