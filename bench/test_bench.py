"""Tests of the benchmark itself: the oracle is right, and every workload's
check rejects wrong outputs. Run with ``python -m pytest bench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from scipy.stats import gamma

import checks
import oracle
import workloads as W
from fdrelay import cli, wishart

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def wrong_hop_dims(antennas):
    """Hop laws that forget the projection loss: the ``wrong-dims`` fault."""
    n_s, n_r1, n_r2, n_d = antennas
    return (min(n_r1, n_s), max(n_r1, n_s)), (min(n_r2, n_d), max(n_r2, n_d))


def table(a, b):
    return wishart.extract_coefficients(wishart.WishartDims(a, b))


@pytest.mark.parametrize("b", range(1, 7))
def test_oracle_is_erlang_for_a_equal_1(b):
    for x in (0.01, 0.5, 2.0, 7.5, 30.0):
        assert oracle.relative_error(oracle.max_eig_cdf(1, b, x), gamma(b).cdf(x)) < 1e-12


@pytest.mark.parametrize("dims, x_min", [((2, 2), 1e-4), ((4, 4), 1e-3), ((4, 7), 1e-3),
                                         ((7, 7), 1e-3)])
def test_oracle_precision_has_converged(dims, x_min):
    for x in (x_min, 0.3, 25.0):
        low = oracle.max_eig_cdf(*dims, x)
        assert low > 0
        assert oracle.relative_error(low, oracle.max_eig_cdf(*dims, x, dps=400)) < 1e-40


def test_oracle_link_outage_combines_hops():
    with mp.workdps(oracle.DPS):
        f_sr, f_rd = oracle.max_eig_cdf(2, 2, 0.4), oracle.max_eig_cdf(1, 3, 0.7)
        want = f_sr + (1 - f_sr) * f_rd
    assert oracle.relative_error(oracle.link_outage((2, 2), (1, 3), 0.4, 0.7), want) < 1e-150


def test_hop_dims_follow_the_projection():
    assert W.hop_dims((2, 3, 2, 2), W.RECEIVE) == ((2, 2), (2, 2))
    assert W.hop_dims((2, 2, 3, 2), W.TRANSMIT) == ((2, 2), (2, 2))
    assert W.hop_dims((4, 5, 4, 4), W.TRANSMIT) == ((4, 5), (3, 4))
    assert wrong_hop_dims((2, 3, 2, 2)) == ((2, 3), (2, 2))


@pytest.mark.parametrize("dims", [(1, 3), (2, 3), (3, 4)])
def test_table_checks_pass_the_program(tmp_path, dims):
    t = table(*dims)
    wishart.save_table(t, tmp_path / "t.txt")
    loaded = wishart.load_table(tmp_path / "t.txt")
    assert checks.table_problems(t, loaded, dims) == []
    assert checks.table_oracle_problems(t, dims, (0.07, 1.3, 22.0)) == []


def test_table_checks_catch_one_changed_weight():
    t = table(3, 4)
    keys = sorted(t.entries)
    bumped = dict(t.entries)
    bumped[keys[0]] += Fraction(1, 10 ** 9)
    bad = dataclasses.replace(t, entries=bumped)
    assert "weights sum" in checks.table_problems(bad, bad, (3, 4))[0]
    # moving weight between two entries keeps the sum; only the oracle sees it
    bumped[keys[1]] -= Fraction(1, 10 ** 9)
    bad = dataclasses.replace(t, entries=bumped)
    assert checks.table_problems(bad, bad, (3, 4)) == []
    assert checks.table_oracle_problems(bad, (3, 4), (0.5, 3.0))


def test_table_checks_catch_a_lossy_round_trip():
    t = table(2, 3)
    bumped = dict(t.entries)
    key = next(iter(bumped))
    bumped[key] += Fraction(1, 10 ** 30)
    assert checks.table_problems(t, dataclasses.replace(t, entries=bumped), (2, 3))


def test_table_checks_catch_wrong_dims():
    # (2,3,2,2) receive: the SR hop is 2x2 once the projection takes one of
    # the three relay antennas; the wrong-dims fault keeps it 2x3
    right, wrong = W.hop_dims((2, 3, 2, 2), W.RECEIVE)[0], wrong_hop_dims((2, 3, 2, 2))[0]
    t = table(*wrong)
    assert checks.table_problems(t, t, right)
    relabelled = dataclasses.replace(t, dims=wishart.WishartDims(*right))
    assert checks.table_oracle_problems(relabelled, right, (0.5, 3.0))


def test_erlang_check_catches_a_wrong_a_equal_1_table():
    t = table(1, 3)
    wrong = dataclasses.replace(t, entries={(1, 2): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert any("Erlang" in p for p in checks.table_problems(wrong, wrong, (1, 3)))


SPEC = ((2, 3, 2, 2), W.RECEIVE, "symmetric", None, 10.0)


def test_tables_cold_fails_a_timed_output_unlike_a_fresh_one(tmp_path):
    workload = W.TablesCold(1, tmp_path)
    (key, _), = [out for out in workload.run_round()[2] if out[0][0] == (2, 3)]
    assert workload.failures(key, None) == 0
    assert workload.failures(((2, 3), key[1], "0" * 64), None) == 1


def test_analytic_check_passes_the_program_below_the_tail():
    grid = (0.0, 4.0, 8.0, 12.0)
    curve = cli.build_curve(W.make_run(*SPEC, grid, 0, 1))
    refs = W.reference_curve(*SPEC, grid)
    assert checks.analytic_failures([r.analytic for r in curve.rows], refs) == [False] * 4


def test_analytic_check_catches_wrong_dims():
    grid = (0.0, 4.0, 8.0, 12.0)
    curve = cli.build_curve(W.make_run(*SPEC, grid, 0, 1), fault="wrong-dims")
    refs = W.reference_curve(*SPEC, grid)
    assert all(checks.analytic_failures([r.analytic for r in curve.rows], refs))


def test_analytic_check_catches_a_non_monotone_curve():
    refs = [mp.mpf("0.5"), mp.mpf("0.25"), mp.mpf("0.125")]
    assert checks.analytic_failures([0.5, 0.25, 0.125], refs) == [False] * 3
    assert checks.analytic_failures([0.5, 0.25, 0.3], [0.5, 0.25, 0.3]) == [False, False, True]


def test_mc_check_passes_the_program_and_catches_wrong_dims():
    grid = (0.0, 6.0, 12.0)
    trials = 1 << 16
    curve = cli.build_curve(W.make_run(*SPEC, grid, trials, 5))
    right = W.reference_curve(*SPEC, grid)
    wrong = W.reference_curve(*SPEC, grid, dims=wrong_hop_dims(SPEC[0]))
    assert checks.mc_failures(curve.rows, trials, right, 48) == [False] * 3
    assert any(checks.mc_failures(curve.rows, trials, wrong, 48))


def test_csv_check_catches_a_changed_row(tmp_path):
    grid = (0.0, 5.0)
    curve = cli.build_curve(W.make_run(*SPEC, grid, 0, 1))
    cli.write_csv(curve, tmp_path / "c.csv")
    text = (tmp_path / "c.csv").read_text()
    assert checks.csv_problems(text, grid, curve.rows, with_mc=False) == []
    lines = text.splitlines()
    lines[2] = lines[2].replace("5,", "5.5,", 1)
    assert checks.csv_problems("\n".join(lines), grid, curve.rows, with_mc=False)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "tables_cold", "--seed", "3",
                     "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(W.TablesCold(3, Path(".")).dims)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["exppoly.determinant_calls"]["value"] == result["attempted"]


def test_traced_warm_run_reports_the_cache_fill_of_its_set_up():
    proc = run_bench(ROOT, "--workload", "mc_compare", "--seed", "3",
                     "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in ("wishart.save_s", "wishart.extract_s", "wishart.extract_largest_s",
                 "exppoly.determinant_s", "wishart.load_s", "mcsim.link_gain_samples_s"):
        assert metrics[name]["value"] > 0, name


def test_untraced_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "analytic_sweep", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] % (len(W.analytic_specs()) * len(W.ANALYTIC_GRID_DB)) == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "mc_compare", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
