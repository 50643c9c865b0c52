"""Only Monte Carlo runs load numpy: the analytic commands and scripts, and
every module but the gain kernel ``fdrelay.zf``, run without it."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# argv[1] is a scratch directory, argv[2] the scripts directory.
ANALYTIC_RUNS = """
import importlib, pkgutil, runpy, sys
from pathlib import Path

import fdrelay
from fdrelay import cli

for module in pkgutil.iter_modules(fdrelay.__path__):
    if module.name not in ("zf", "__main__"):  # __main__ runs the CLI on import
        importlib.import_module(f"fdrelay.{module.name}")

tmp, scripts = Path(sys.argv[1]), Path(sys.argv[2])
config = tmp / "run.cfg"
config.write_text("n_s = 2\\nn_r1 = 3\\nn_r2 = 2\\nn_d = 2\\nmode = receive\\n"
                  "gamma_t_db = 10\\ngrid_start_db = 0\\ngrid_stop_db = 30\\n"
                  f"grid_step_db = 5\\ntrials = 0\\nout_csv = {tmp / 'sweep.csv'}\\n")
for args in (["sweep", "--config", str(config)], ["diversity", "--config", str(config)],
             ["coeffs", "2x3"]):
    assert cli.main(args) == 0, args

for script, args in (("outage_curves.py", ["--trials", "0", "--outdir", str(tmp / "out")]),
                     ("diversity_orders.py", [])):
    sys.argv = [script, *args]
    try:
        runpy.run_path(str(scripts / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, (script, exc.code)

loaded = sorted(name for name in sys.modules if name.partition(".")[0] in ("numpy", "fdrelay"))
print(*loaded)
"""


def test_analytic_runs_never_import_numpy(tmp_path):
    result = subprocess.run([sys.executable, "-c", ANALYTIC_RUNS, str(tmp_path), str(SCRIPTS)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.splitlines()[-1].split()
    assert "fdrelay.curves" in loaded and "fdrelay.zf" not in loaded
    assert "numpy" not in loaded
    assert (tmp_path / "sweep.csv").exists() and len(list((tmp_path / "out").glob("*.csv"))) == 13
