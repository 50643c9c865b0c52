"""Command-line surfaces: config parsing, subcommands, CSV contract."""

import contextlib
import hashlib
import io
import math
import multiprocessing
import subprocess
import sys
from functools import partial
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fdrelay import cli, curves, mcsim, wishart, zf
from fdrelay.cli import ConfigError, main, parse_run_config
from fdrelay.curves import build_curve, write_csv
from fdrelay.exppoly import InexactDivisionError
from fdrelay.outage import OutageQuery
from fdrelay.wishart import WishartDims, load_table
from runs import make_run


def write_config(tmp_path, name="run.cfg", **overrides):
    base = {
        "n_s": 2, "n_r1": 3, "n_r2": 2, "n_d": 1, "mode": "receive",
        "gamma_t_db": 10, "grid_start_db": 0, "grid_stop_db": 30,
        "grid_step_db": 5, "trials": 0, "seed": 9,
        "out_csv": str(tmp_path / "out.csv"),
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    path = tmp_path / name
    path.write_text("# generated by the test suite\n" + "\n".join(lines) + "\n")
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header, rows = lines[0], [ln.split(",") for ln in lines[1:]]
    return header, rows


# -- config parsing ------------------------------------------------------------


def test_parse_round_trip(tmp_path):
    cfg = parse_run_config(write_config(tmp_path, asymmetry="rd_dominant",
                                        asymmetry_ratio=1.5))
    assert cfg.antenna.n_r1 == 3
    assert cfg.grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert cfg.query.gamma_t == pytest.approx(10.0)
    a_sr, a_rd = cfg.resolved_alphas()
    assert a_sr == 1.0 and a_rd == pytest.approx(1.5 ** 0.5)


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text() + "bogus_key = 3\n")
    with pytest.raises(ConfigError):
        parse_run_config(path)


def test_parse_rejects_both_thresholds(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, rate_r0=2))


def test_parse_rejects_missing_threshold(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, gamma_t_db=None))


def test_parse_rejects_bad_grid(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, grid_step_db=-5))


def test_parse_rejects_asymmetry_without_ratio(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, asymmetry="sr_dominant"))


@pytest.mark.parametrize("overrides, message", [
    ({"asymmetry": "rd_dominant", "asymmetry_ratio": 1.5, "alpha_sr": 3},
     "asymmetry = rd_dominant sets both alphas; drop alpha_sr or the asymmetry"),
    ({"asymmetry": "sr_dominant", "asymmetry_ratio": 1.5, "alpha_sr": 1, "alpha_rd": 1},
     "asymmetry = sr_dominant sets both alphas; drop alpha_sr and alpha_rd or the asymmetry"),
    ({"asymmetry": "symmetric", "asymmetry_ratio": 1.5},
     "asymmetry_ratio needs asymmetry = sr_dominant or rd_dominant"),
    ({"asymmetry_ratio": 1.5}, "asymmetry_ratio needs asymmetry = sr_dominant or rd_dominant"),
])
def test_sweep_rejects_conflicting_budget_keys(tmp_path, capsys, overrides, message):
    # the shorthand sets both amplitudes, so an alpha beside it, or a ratio
    # without it, would be ignored
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


#: A config that parses; the property test below drops and overrides its keys.
VALID_CONFIG = {"n_s": "2", "n_r1": "3", "n_r2": "2", "n_d": "1", "mode": "receive",
                "gamma_t_db": "10", "grid_start_db": "0", "grid_stop_db": "30",
                "grid_step_db": "5"}

#: Values of any key: non-finite, overflowing, negative zero, empty, huge.
odd_texts = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "-0", "0", "", "1.5", "1e-320",
                     "1e200", "4000", "-4000", str(2 ** 200), "x"]),
    st.text(max_size=6),
)


def typed_texts(key):
    kind = cli._CONFIG_TYPES[key]
    if kind is int:
        return st.one_of(st.integers(0, 9), st.integers(-2, 2 ** 130)).map(str)
    if kind is float:
        return st.one_of(st.floats(-400, 400), st.floats()).map(repr)
    names = {"mode": ["receive", "transmit", "Transmit"],
             "asymmetry": ["symmetric", "sr_dominant", "rd_dominant"]}
    return st.sampled_from(names[key]) if key in names else st.text(max_size=6)


override_keys = st.lists(st.sampled_from(sorted(cli._CONFIG_TYPES)), unique=True,
                        max_size=4)
#: Typed values for up to four keys, and an odd one for at most one key.
config_overrides = st.tuples(
    override_keys.flatmap(lambda ks: st.fixed_dictionaries({k: typed_texts(k) for k in ks})),
    st.dictionaries(st.sampled_from(sorted(cli._CONFIG_TYPES)), odd_texts, max_size=1),
).map(lambda pair: pair[0] | pair[1])


@given(st.sets(st.sampled_from(sorted(VALID_CONFIG)), max_size=1), config_overrides)
@settings(max_examples=500)
def test_parse_run_config_parses_or_raises_config_error(tmp_path_factory, dropped, overrides):
    config = {k: v for k, v in VALID_CONFIG.items() if k not in dropped} | overrides
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    try:
        run = parse_run_config(path)
    except ConfigError:
        return
    for hop in run.hop_scales():
        assert 0.0 < hop[0] < math.inf and 0.0 < hop[-1] < math.inf


def any_value(key):
    """Text for ``key``: a name, or an integer from -2 to 10 (trials up to
    2000, so that a run stays one small block), nan, +-inf or +-1e308."""
    kind = cli._CONFIG_TYPES[key]
    if kind is str:
        return st.sampled_from(["receive", "transmit", "symmetric", "sr_dominant", "rd_dominant",
                                "x", ""])
    return st.one_of(st.integers(-2, 2000 if key == "trials" else 10).map(str),
                     st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"]))


#: Up to four known keys; out_csv is set apart, into each example's directory.
any_overrides = st.lists(st.sampled_from(sorted(set(cli._CONFIG_TYPES) - {"out_csv"})),
                         unique=True, max_size=4).flatmap(
    lambda keys: st.fixed_dictionaries({k: any_value(k) for k in keys}))
#: A line that is unknown, malformed, a duplicate of a base key, or empty.
odd_lines = st.lists(st.sampled_from(["bogus_key = 1", "n_s", "= 3", "n_s == 2", "n_s = 2",
                                      "mode = receive", "# note", ""]), max_size=1)


@given(st.sampled_from(["sweep", "diversity"]), st.sets(st.sampled_from(sorted(VALID_CONFIG)),
                                                        max_size=1),
       any_overrides, odd_lines, st.booleans())
@settings(max_examples=400, deadline=None)
def test_any_config_text_exits_with_a_code_not_a_traceback(tmp_path_factory, command, dropped,
                                                          overrides, odd, with_csv):
    directory = tmp_path_factory.mktemp("any-config")
    config = {k: v for k, v in VALID_CONFIG.items() if k not in dropped} | overrides
    if with_csv:
        config["out_csv"] = str(directory / "out.csv")
    lines = [f"{k} = {v}" for k, v in config.items()] + odd
    path = directory / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    assert code in (0, 1, 2), (code, lines)
    assert "Traceback" not in err.getvalue()


def test_parse_missing_file():
    with pytest.raises(ConfigError):
        parse_run_config("/nonexistent/run.cfg")


# -- coeffs subcommand -----------------------------------------------------------


def test_coeffs_reports_the_exact_sum_and_entry_count(capsys):
    assert main(["coeffs", "2x2", "2x3"]) == 0
    assert capsys.readouterr().out == ("a=2 b=2: sum = 1 (4 entries)\n"
                                       "a=2 b=3: sum = 1 (5 entries)\n")


def test_coeffs_exits_1_on_a_failed_exact_division(capsys, monkeypatch):
    def refuse(matrix):
        raise InexactDivisionError("coefficient not divisible")

    monkeypatch.setattr(wishart, "determinant", refuse)
    assert main(["coeffs", "2x3"]) == 1
    err = capsys.readouterr().err
    assert "fdrelay: coefficient not divisible" in err
    assert "Traceback" not in err


def test_coeffs_rejects_degenerate_dims(capsys):
    assert main(["coeffs", "0x2"]) == 2
    assert "bad dims '0x2': min dimension must be >= 1" in capsys.readouterr().err


def test_coeffs_accepts_an_upper_case_separator(capsys):
    assert main(["coeffs", "2X3"]) == 0
    assert "a=2 b=3: sum = 1" in capsys.readouterr().out


@pytest.mark.parametrize("dims", ["9x2", "2x1000000000000000000000"])
def test_coeffs_rejects_dims_above_the_antenna_bound(capsys, dims):
    assert main(["coeffs", dims]) == 2
    err = capsys.readouterr().err
    assert f"bad dims {dims!r}: each dim must be at most 8" in err
    assert "Traceback" not in err


def test_coeffs_needs_no_cache_dir(monkeypatch, capsys):
    monkeypatch.delenv("FDRELAY_CACHE_DIR", raising=False)
    assert main(["coeffs", "2x2"]) == 0


def test_no_command_writes_under_the_old_cache_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FDRELAY_CACHE_DIR", str(tmp_path / "envcache"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["coeffs", "1x2"]) == 0
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["diversity", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]


@pytest.mark.parametrize("command", ["coeffs", "sweep", "compare", "diversity"])
def test_cache_dir_flag_is_refused(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    args = ["2x2"] if command == "coeffs" else ["--config", str(write_config(tmp_path))]
    assert main([command, *args, "--cache-dir", "d"]) == 2
    assert "unrecognized arguments: --cache-dir d" in capsys.readouterr().err
    assert not (tmp_path / "d").exists() and not (tmp_path / "out.csv").exists()


def test_usage_error_exit_code():
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


# -- sweep subcommand --------------------------------------------------------------


def test_sweep_analytic_only(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "out.csv")
    assert header == "gammabar_db,analytic,mc,ci_low,ci_high"
    assert len(rows) == 7
    analytic = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(analytic, analytic[1:]))
    assert all(r[2] == "" and r[3] == "" and r[4] == "" for r in rows)


def test_sweep_with_trials_fills_mc_columns(tmp_path):
    cfg = write_config(tmp_path, trials=5000, grid_stop_db=10)
    assert main(["sweep", "--config", str(cfg)]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    for r in rows:
        mc, lo, hi = float(r[2]), float(r[3]), float(r[4])
        assert 0.0 <= lo <= mc <= hi <= 1.0


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, trials=2000, grid_stop_db=10)
    assert main(["sweep", "--config", str(cfg)]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


#: sha256 of analytic-only ``write_csv`` bytes on a 0-40 dB, 0.5 dB grid,
#: pinned from the closed form whose every value is within 1e-12 of the
#: Kang-Alouini oracle: (antennas, mode, asymmetry, ratio, gamma_t_db) -> digest.
GOLDEN_CSV_SHA256 = {
    ((2, 3, 2, 1), "receive", "rd_dominant", 1.5, 5.0):
        "7c1cd18873977d1924dc11045e731de42c0a01d504665b0814b79ff1d4d4b065",
    ((3, 4, 3, 3), "receive", "symmetric", None, 10.0):
        "28928b869a093d9d4acd19662bd1a488144e41664754d4d59ba846b8a970fa5a",
    ((4, 5, 4, 4), "transmit", "symmetric", None, 10.0):
        "94abd6dbf22ef933e227ff01ef4b23a207bd3539c6e88385e5268b0de5fc5b94",
}


def _curve_sha256(tmp_path, antennas, mode, asymmetry, ratio, gamma_t_db, grid_db,
                  trials, seed, p_s=1.0, p_r=1.0):
    run = make_run(antennas, mode, grid_db, OutageQuery.snr(10.0 ** (gamma_t_db / 10.0)),
                   p_s=p_s, p_r=p_r, trials=trials, seed=seed, asymmetry=asymmetry, ratio=ratio)
    path = tmp_path / "curve.csv"
    write_csv(build_curve(run), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_analytic_csv_bytes_are_pinned(tmp_path):
    for spec, digest in GOLDEN_CSV_SHA256.items():
        grid = tuple(0.5 * i for i in range(81))
        assert _curve_sha256(tmp_path, *spec, grid, trials=0, seed=0) == digest, spec


#: sha256 of ``write_csv`` bytes with Monte Carlo columns, 4 blocks of trials
#: at seed 5 on a 0-30 dB, 2 dB grid with a 10 dB threshold, pinned from
#: sampling the blocks one after another in one process: (antennas, mode) ->
#: digest.
GOLDEN_MC_CSV_SHA256 = {
    ((2, 3, 2, 2), "receive"):
        "529065cdd8d8c0826545f3984a1362b8be6cedb7a76b53ce704661215264f2b6",
    ((2, 2, 3, 2), "transmit"):
        "3157a196de52dc8634f050d9aa554239c76e7602005d592c810aabdf50e1eccf",
    ((3, 4, 3, 3), "receive"):
        "70972a0830b3c45edff70e59e0358998344a596099ef6427f84fcd88718d1364",
}


def _pooled_then_inline(monkeypatch):
    """Yield twice: with blocks on the worker pool (where this host has one),
    then with the inline path forced, as on one CPU."""
    yield "pooled"
    with monkeypatch.context() as patch:
        patch.setattr(mcsim, "_block_pool", lambda: None)
        yield "inline"


def test_mc_csv_bytes_are_pinned(tmp_path, monkeypatch):
    for path in _pooled_then_inline(monkeypatch):
        for (antennas, mode), digest in GOLDEN_MC_CSV_SHA256.items():
            grid = tuple(2.0 * i for i in range(16))
            assert _curve_sha256(tmp_path, antennas, mode, "symmetric", None, 10.0, grid,
                                 trials=4 * mcsim.BLOCK_SIZE, seed=5) == digest, (antennas, path)


#: As GOLDEN_MC_CSV_SHA256, for (2,3,2,2) receive with 2 blocks of trials,
#: p_s = 2 and p_r = 0.5 under a 3:2 asymmetric budget: the two hops' scales
#: differ at every point.  asymmetry -> digest.
GOLDEN_ASYMMETRIC_MC_CSV_SHA256 = {
    "rd_dominant": "3314021879b9aaa9e0246dfaad34fd54b586d0d75f5f791b4136b758c442dc02",
    "sr_dominant": "1cce4141460af6e51928f019790f60aa754a37815f118c055986829dac178fa2",
}


def test_asymmetric_mc_csv_bytes_are_pinned(tmp_path, monkeypatch):
    for path in _pooled_then_inline(monkeypatch):
        for asymmetry, digest in GOLDEN_ASYMMETRIC_MC_CSV_SHA256.items():
            grid = tuple(2.0 * i for i in range(16))
            assert _curve_sha256(tmp_path, (2, 3, 2, 2), "receive", asymmetry, 1.5, 10.0, grid,
                                 trials=2 * mcsim.BLOCK_SIZE, seed=5, p_s=2.0,
                                 p_r=0.5) == digest, (asymmetry, path)


def test_sweep_rate_threshold_equivalent(tmp_path):
    # R0 = 1 bit/s/Hz <=> threshold 2^1 - 1 = 1 = 0 dB, exactly representable
    snr_cfg = write_config(tmp_path, name="snr.cfg", gamma_t_db=0,
                           out_csv=str(tmp_path / "snr.csv"))
    rate_cfg = write_config(tmp_path, name="rate.cfg", gamma_t_db=None, rate_r0=1,
                            out_csv=str(tmp_path / "rate.csv"))
    assert main(["sweep", "--config", str(snr_cfg)]) == 0
    assert main(["sweep", "--config", str(rate_cfg)]) == 0
    assert (tmp_path / "snr.csv").read_bytes() == (tmp_path / "rate.csv").read_bytes()


def test_sweep_asymmetric_budget_changes_curve(tmp_path):
    sym = write_config(tmp_path, name="sym.cfg", out_csv=str(tmp_path / "sym.csv"))
    asym = write_config(tmp_path, name="asym.cfg", out_csv=str(tmp_path / "asym.csv"),
                        asymmetry="rd_dominant", asymmetry_ratio=1.5)
    assert main(["sweep", "--config", str(sym)]) == 0
    assert main(["sweep", "--config", str(asym)]) == 0
    _, sym_rows = read_csv(tmp_path / "sym.csv")
    _, asym_rows = read_csv(tmp_path / "asym.csv")
    assert [r[1] for r in sym_rows] != [r[1] for r in asym_rows]


def test_sweep_requires_out_csv(tmp_path):
    cfg = write_config(tmp_path, out_csv=None)
    assert main(["sweep", "--config", str(cfg)]) == 2


def test_sweep_missing_config_file():
    assert main(["sweep", "--config", "/nonexistent/run.cfg"]) == 2


def test_sweep_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read config {cfg}" in err and "utf-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("gamma_t_db", "nan"), ("grid_stop_db", "inf"),
                                        ("alpha_sr", "-inf")])
def test_sweep_rejects_non_finite_values(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("alpha_sr", "0", "alpha_sr must be > 0"), ("alpha_rd", "-1.5", "alpha_rd must be > 0"),
    ("seed", "-1", "seed must be in [0, 2**128)"),
    ("seed", str(2 ** 128), "seed must be in [0, 2**128)"),
    ("trials", "-3", "trials must be >= 0"),
    ("trials", str(2 ** 32 + 1), "trials must be <= 2**32"),
    ("n_s", str(10 ** 30), "n_s must be an integer from 1 to 8"),
    ("n_d", "9", "n_d must be an integer from 1 to 8"),
])
def test_sweep_rejects_out_of_range_values(tmp_path, capsys, key, value, message):
    cfg = write_config(tmp_path, **{key: value})
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("rate_r0", "2000", "rate_r0 = 2000.0 is out of range"),
    ("rate_r0", "0", "rate_r0 = 0.0 is out of range"),
    ("rate_r0", "-1", "rate_r0: rate threshold must be non-negative"),
    ("gamma_t_db", "4000", "gamma_t_db = 4000.0 is out of range"),
    ("gamma_t_db", "-4000", "gamma_t_db = -4000.0 is out of range"),
    ("p_s_db", "4000", "p_s_db = 4000.0 is out of range"),
    ("p_s_db", "-4000", "p_s_db = -4000.0 is out of range"),
    ("p_r_db", "4000", "p_r_db = 4000.0 is out of range"),
    ("grid_start_db", "-4000", "grid_start_db = -4000.0 is out of range"),
    ("grid_stop_db", "4000", "grid_stop_db = 4000.0 is out of range"),
    ("alpha_sr", "1e-200", "the sr hop's linear scale alpha_sr**2 * p_s * gammabar is out"),
    ("alpha_sr", "1e200", "the sr hop's linear scale alpha_sr**2 * p_s * gammabar is out"),
    ("alpha_rd", "1e-170", "the rd hop's linear scale alpha_rd**2 * p_r * gammabar is out"),
])
def test_sweep_rejects_values_outside_the_linear_range(tmp_path, capsys, key, value, message):
    # each linear value (10**(dB/10), or 2**R0 - 1) must be finite and > 0,
    # and so must each hop's scale across the grid; overflow, underflow to 0
    # and a zero threshold all exit 2
    threshold = {"gamma_t_db": None} if key == "rate_r0" else {}
    cfg = write_config(tmp_path, **threshold, **{key: value})
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("sweep", "--seed", "-3", "--seed: seed must be in [0, 2**128)"),
    ("compare", "--seed", str(2 ** 128), "--seed: seed must be in [0, 2**128)"),
    ("sweep", "--trials", "-3", "--trials: trials must be >= 0"),
    ("compare", "--trials", "-1", "--trials: trials must be >= 0"),
    pytest.param("sweep", "--trials", str(2 ** 32 + 1), "--trials: trials must be <= 2**32",
                 id="sweep---trials-2**32+1"),
])
def test_overrides_are_range_checked(tmp_path, capsys, command, flag, value, message):
    cfg = write_config(tmp_path, grid_start_db=25, grid_stop_db=40, grid_step_db=2.5)
    assert main([command, "--config", str(cfg), flag, value]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_diversity_rejects_seed_flag(tmp_path, capsys):
    # diversity runs no Monte Carlo, so a seed would change nothing
    cfg = write_config(tmp_path, grid_start_db=25, grid_stop_db=40, grid_step_db=2.5)
    assert main(["diversity", "--config", str(cfg), "--seed", "5"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stop, step", [(100, 0.01), (30, 1e-320)])
def test_sweep_rejects_oversized_grid(tmp_path, capsys, stop, step):
    # 10,001 points, and a step whose point count overflows a float; both are
    # rejected from the step alone, before any grid point exists
    cfg = write_config(tmp_path, grid_stop_db=stop, grid_step_db=step)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"more than {curves.MAX_GRID_POINTS} points" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_parse_accepts_largest_grid(tmp_path):
    # 0 to 99.99 either way: 99.996 is not a whole number of steps
    for stop in (99.99, 99.996):
        cfg = parse_run_config(write_config(tmp_path, grid_stop_db=stop, grid_step_db=0.01))
        assert len(cfg.grid_db) == curves.MAX_GRID_POINTS
        assert cfg.grid_db[-1] == pytest.approx(99.99)


def test_parse_accepts_most_trials(tmp_path):
    # parse only: a run of this size takes minutes
    assert parse_run_config(write_config(tmp_path, trials=2 ** 32)).trials == curves.MAX_TRIALS


# -- the library's disk cache, which the benchmark's sweeps fill ------------------


def test_sweep_uses_cache_dir(tmp_path):
    run = parse_run_config(write_config(tmp_path))
    cache = tmp_path / "cache"
    build_curve(run, cache)
    assert (cache / "coeff_a2_b2.txt").exists()
    assert (cache / "coeff_a1_b2.txt").exists()


def test_sweep_replaces_a_cached_table_of_other_dims(tmp_path, capsys):
    # a well-formed table of 2x4 under the 2x3 name is as unusable as a
    # corrupt file: warn, recompute, rewrite
    cache = tmp_path / "cache"
    for dims in (WishartDims(2, 3), WishartDims(2, 4)):
        curves.load_or_compute_table(dims, cache)
    (cache / "coeff_a2_b4.txt").replace(cache / "coeff_a2_b3.txt")
    run = parse_run_config(write_config(tmp_path, n_s=3, n_r1=3, grid_start_db=10,
                                        grid_stop_db=10))
    write_csv(build_curve(run, cache), run.out_csv)
    _, rows = read_csv(tmp_path / "out.csv")
    assert float(rows[0][1]) == pytest.approx(0.2658, abs=5e-5)  # the 2x4 table gives 0.2643
    assert "ignoring unreadable cache" in capsys.readouterr().err
    assert load_table(cache / "coeff_a2_b3.txt").dims == WishartDims(2, 3)


def _checksummed(body):
    return f"{body}\nsha256:{hashlib.sha256(body.encode()).hexdigest()}\n".encode()


@pytest.mark.parametrize("content", [b"\xff\xfe not text\n", _checksummed("[1]")],
                         ids=["not-utf8", "not-an-object"])
def test_sweep_recomputes_an_unreadable_cached_table(tmp_path, capsys, content):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    expected = (tmp_path / "out.csv").read_bytes()
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "coeff_a2_b2.txt").write_bytes(content)
    run = parse_run_config(cfg)
    write_csv(build_curve(run, cache), run.out_csv)
    assert (tmp_path / "out.csv").read_bytes() == expected
    err = capsys.readouterr().err
    assert f"warning: ignoring unreadable cache {cache / 'coeff_a2_b2.txt'}" in err
    assert "Traceback" not in err
    assert load_table(cache / "coeff_a2_b2.txt").dims == WishartDims(2, 2)


# -- compare subcommand ----------------------------------------------------------------


def test_compare_agrees_with_healthy_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=20_000, seed=4, grid_stop_db=15)
    assert main(["compare", "--config", str(cfg)]) == 0
    assert "max |z|" in capsys.readouterr().out


def test_compare_z_is_exact_where_few_successes_are_expected(tmp_path, capsys):
    # at 0 dB about 0.3 non-outages are expected of 131072 trials, and 2
    # were drawn: a normal approximation called that z = -3.08
    cfg = write_config(tmp_path, trials=2 * mcsim.BLOCK_SIZE, seed=9, grid_stop_db=15)
    assert main(["compare", "--config", str(cfg)]) == 0
    assert "compare: OK (max |z| = 1.779)" in capsys.readouterr().out


def test_compare_detects_injected_fault(tmp_path, capsys, monkeypatch):
    # hop laws that forget the projection loss must fail the z-test
    monkeypatch.setattr(cli, "build_curve", partial(build_curve, fault="wrong-dims"))
    cfg = write_config(tmp_path, trials=20_000, seed=4, grid_stop_db=15)
    assert main(["compare", "--config", str(cfg)]) == 1
    assert "compare: FAIL" in capsys.readouterr().err


def test_compare_fails_on_a_z_that_is_not_a_number(tmp_path, capsys, monkeypatch):
    # scipy's bdtr gives nan at n >= 2**31 trials, and max() passes over a nan
    cfg = write_config(tmp_path, trials=20_000, seed=4, grid_stop_db=15)
    at_5_db = build_curve(parse_run_config(cfg)).rows[1].analytic
    z_score = cli._z_score
    monkeypatch.setattr(cli, "_z_score", lambda analytic, mc, trials: (
        math.nan if analytic == at_5_db else z_score(analytic, mc, trials)))
    assert main(["compare", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "compare: OK" not in out
    assert "compare: FAIL (z is not finite at gammabar_db = 5)" in err


def test_compare_warns_when_underpowered(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=1000, seed=12, grid_stop_db=10)
    main(["compare", "--config", str(cfg)])
    assert "underpowered" in capsys.readouterr().err


def test_compare_requires_trials(tmp_path):
    cfg = write_config(tmp_path, trials=0)
    assert main(["compare", "--config", str(cfg)]) == 2


def test_compare_trials_and_seed_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=0, grid_stop_db=10)
    assert main(["compare", "--config", str(cfg), "--trials", "15000",
                 "--seed", "99"]) == 0


POOLED = mcsim._usable_cpus() > 1 and "fork" in multiprocessing.get_all_start_methods()


def test_compare_with_worker_processes_exits_cleanly(tmp_path):
    cfg = write_config(tmp_path, trials=2 * mcsim.BLOCK_SIZE + 1, seed=4, grid_stop_db=15)
    result = subprocess.run([sys.executable, "-m", "fdrelay", "compare", "--config", str(cfg)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "compare: OK" in result.stdout
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


# Forked workers inherit the patch, so it runs in a fresh interpreter; a
# patch of a name that no longer exists would kill nothing, so it fails first.
KILL_THE_WORKERS = """
import os, signal, sys
from fdrelay import cli, zf

def killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)

assert callable(zf._block_gains)
zf._block_gains = killed
sys.exit(cli.main(["compare", "--config", sys.argv[1]]))
"""


@pytest.mark.skipif(not POOLED, reason="blocks run inline on this host")
def test_compare_reports_a_killed_worker(tmp_path):
    cfg = write_config(tmp_path, trials=2 * mcsim.BLOCK_SIZE, grid_stop_db=15)
    result = subprocess.run([sys.executable, "-c", KILL_THE_WORKERS, str(cfg)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "fdrelay: a Monte Carlo worker process failed" in result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_compare_exits_1_on_a_zero_loopback_image(tmp_path, capsys, monkeypatch):
    sample = zf._sample_arrays

    def zero_loopback(rng, config, n):
        h_sr, h_rr, h_rd = sample(rng, config, n)
        h_rr[3] = 0.0
        return h_sr, h_rr, h_rd

    monkeypatch.setattr(zf, "_sample_arrays", zero_loopback)
    cfg = write_config(tmp_path, trials=20_000, grid_stop_db=15)  # one block, run here
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "fdrelay: a trial's loopback image is zero: no direction to null" in err
    assert "Traceback" not in err


# -- diversity subcommand -----------------------------------------------------------------


def test_diversity_slope_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, grid_start_db=25, grid_stop_db=40, grid_step_db=2.5)
    assert main(["diversity", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "predicted order 2, exact hop orders sr 4 rd 2, coding gain" in out
    assert out.endswith("-> PASS\n")


def test_diversity_same_order_configs(tmp_path, capsys):
    for antennas in ((2, 3, 2, 2), (2, 3, 2, 3)):
        n_s, n_r1, n_r2, n_d = antennas
        cfg = write_config(tmp_path, name=f"d{n_d}.cfg", n_s=n_s, n_r1=n_r1,
                           n_r2=n_r2, n_d=n_d, grid_start_db=25,
                           grid_stop_db=40, grid_step_db=2.5)
        assert main(["diversity", "--config", str(cfg)]) == 0
        assert "predicted order 4" in capsys.readouterr().out


@pytest.mark.parametrize("antennas, mode, order", [
    ((3, 4, 3, 3), "receive", 9), ((3, 4, 3, 3), "transmit", 6),
    ((4, 5, 4, 4), "receive", 16), ((4, 5, 4, 4), "transmit", 12),
])
def test_diversity_is_exact_where_the_closed_form_is_not(tmp_path, capsys, antennas, mode,
                                                        order):
    # a slope fit to the float closed form gave -3.285 for (3,4,3,3) receive
    # on this grid, and -0.610 for (4,5,4,4)
    n_s, n_r1, n_r2, n_d = antennas
    cfg = write_config(tmp_path, n_s=n_s, n_r1=n_r1, n_r2=n_r2, n_d=n_d, mode=mode,
                       grid_start_db=0, grid_stop_db=60, grid_step_db=2.5)
    assert main(["diversity", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert f"predicted order {order}," in out and out.endswith("-> PASS\n")


def test_diversity_ignores_the_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, grid_start_db=0, grid_stop_db=5)
    assert main(["diversity", "--config", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_diversity_prints_the_coding_gain(tmp_path, capsys):
    # (2,3,2,1) receive at gamma_t = 10: only the 1x2 hop has order 2, with
    # CDF x^2/2 + O(x^3), so the outage tends to 50 / gammabar^2 and
    # G_c = 50^(-1/2)
    cfg = write_config(tmp_path, gamma_t_db=10, p_s_db=0, p_r_db=0)
    assert main(["diversity", "--config", str(cfg)]) == 0
    assert f"coding gain {-10 * math.log10(50) / 2:+.3f} dB -> PASS" in capsys.readouterr().out


# -- curve internals ------------------------------------------------------------------------


def test_antenna_swap_comparison(tmp_path):
    # same total antenna count, swapped source/relay-rx roles
    swap = parse_run_config(write_config(
        tmp_path, name="a.cfg", n_s=3, n_r1=2, n_r2=2, n_d=2,
        grid_start_db=20, grid_stop_db=30, grid_step_db=5))
    orig = parse_run_config(write_config(
        tmp_path, name="b.cfg", n_s=2, n_r1=3, n_r2=2, n_d=2,
        grid_start_db=20, grid_stop_db=30, grid_step_db=5))
    for r_swap, r_orig in zip(build_curve(swap).rows, build_curve(orig).rows):
        assert r_orig.analytic < r_swap.analytic


# -- installed entry point ---------------------------------------------------------------------


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fdrelay", "coeffs", "2x2"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert result.returncode == 0
    assert "sum = 1" in result.stdout
