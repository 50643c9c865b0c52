"""Closed-form outage: per-hop CDFs, end-to-end combination, diversity."""

import math
import re
import sys
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from fdrelay import curves, outage
from fdrelay.curves import build_curve, exact_diversity
from fdrelay.outage import (
    MAX_ANTENNAS,
    AntennaConfig,
    InvalidProbabilityError,
    OutageQuery,
    ZFMode,
    diversity_order,
    hop_cdf,
    link_dims,
    link_outage,
    rate_to_snr_threshold,
)
from fdrelay.wishart import CoeffTable, NonzeroResidualError, WishartDims, cached_table
from kang_alouini import max_eig_cdf
from outage_reference import link_snr_pdf
from runs import analytic_curve, make_run

DIMS_UP_TO_4X7 = [(a, b) for a in range(1, 5) for b in range(a, 8)]
ALL_DIMS = [(a, b) for a in range(1, MAX_ANTENNAS + 1) for b in range(a, MAX_ANTENNAS + 1)]


def table(a, b):
    return cached_table(WishartDims(a, b))


def hop(a, b):
    return hop_cdf(table(a, b))


# -- configuration types -----------------------------------------------------


def test_antenna_config_validation():
    AntennaConfig(2, 3, 2, 1, ZFMode.RECEIVE)
    with pytest.raises(ValueError):
        AntennaConfig(2, 1, 2, 1, ZFMode.RECEIVE)  # projection needs n_r1 >= 2
    with pytest.raises(ValueError):
        AntennaConfig(2, 2, 1, 1, ZFMode.TRANSMIT)
    with pytest.raises(ValueError):
        AntennaConfig(0, 2, 2, 1, ZFMode.RECEIVE)
    with pytest.raises(ValueError, match="n_d must be an integer from 1 to 8"):
        AntennaConfig(2, 2, 2, MAX_ANTENNAS + 1, ZFMode.RECEIVE)
    # a count must be an integer: 2.5 used to pass and fail later in build_curve
    for bad in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="n_s must be an integer from 1 to 8"):
            AntennaConfig(bad, 3, 2, 1, ZFMode.RECEIVE)
    AntennaConfig(np.int64(2), 3, 2, 1, ZFMode.RECEIVE)
    AntennaConfig(*[MAX_ANTENNAS] * 4, ZFMode.TRANSMIT)
    # single relay-tx antenna is fine when the null is on the receive side
    AntennaConfig(2, 2, 1, 1, ZFMode.RECEIVE)


def test_run_config_unit_scales():
    run = make_run((2, 3, 2, 1), "receive", (10.0, 0.0), p_s=2.0, p_r=4.0, alphas=(0.5, 2.0))
    assert run.unit_scales() == (0.5, 16.0)
    assert run.hop_scales() == ([5.0, 0.5], [160.0, 16.0])
    # the shorthand's amplitude sqrt(ratio) replaces alpha_rd
    assert make_run((2, 3, 2, 1), "receive", (), asymmetry="rd_dominant",
                    ratio=1.5).unit_scales() == (1.0, math.sqrt(1.5) ** 2)
    for bad in ({"p_s": 0.0}, {"p_r": -1.0}, {"alphas": (1.0, 0.0)}):
        with pytest.raises(ValueError, match="must be > 0"):
            make_run((2, 3, 2, 1), "receive", (10.0,), **bad).unit_scales()
        with pytest.raises(ValueError, match="must be > 0"):
            make_run((2, 3, 2, 1), "receive", (10.0,), **bad).hop_scales()


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": -1}, "trials must be >= 0"),
    ({"trials": 2 ** 32 + 1}, "trials must be <= 2**32"),
    ({"seed": -1}, "seed must be in [0, 2**128)"),
    ({"seed": 2 ** 128}, "seed must be in [0, 2**128)"),
    ({"grid_db": (0.0, 4000.0)}, "the sr hop's linear scale"),
    ({"grid_db": (-4000.0, 0.0)}, "the sr hop's linear scale"),
    ({"alphas": (1.0, 1e-170)}, "the rd hop's linear scale"),
    ({"asymmetry": "sr-dominant", "ratio": 1.5},
     "asymmetry must be symmetric|sr_dominant|rd_dominant"),
    ({"asymmetry": "sr_dominant"}, "asymmetric budgets need asymmetry_ratio > 1"),
    ({"asymmetry": "rd_dominant", "ratio": 0.5}, "asymmetric budgets need asymmetry_ratio > 1"),
    ({"ratio": 1.5}, "asymmetry_ratio needs asymmetry = sr_dominant or rd_dominant"),
    ({"grid_db": (), "p_s": 0.0}, "p_s must be > 0"),
    ({"trials": 10.5}, "trials must be an integer, got 10.5"),
    ({"trials": 10.0}, "trials must be an integer, got 10.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"asymmetry": "sr_dominant", "ratio": 1.5, "alphas": (3.0, 0.5)},
     "asymmetry = sr_dominant sets both alphas; drop alpha_sr and alpha_rd or the asymmetry"),
])
def test_run_config_checks_its_ranges(kwargs, message):
    args = {"grid_db": (0.0, 30.0)} | kwargs
    with pytest.raises(ValueError, match=re.escape(message)):
        make_run((2, 3, 2, 1), "receive", **args)


def test_run_config_without_a_grid_checks_its_unit_scales():
    # the exact diversity check runs on a grid-free config, so its unit
    # scales must be usable: alpha**2 underflows to 0 at 1e-170, and
    # overflows at 1e200
    assert make_run((2, 3, 2, 1), "receive", (), alphas=(1.0, 1e-150)).grid_db == ()
    for alphas, hop in (((1.0, 1e-170), "rd"), ((1e200, 1.0), "sr")):
        with pytest.raises(ValueError, match=re.escape(
                f"the {hop} hop's linear scale alpha_{hop}**2 * p_{hop[0]} is out of range")):
            make_run((2, 3, 2, 1), "receive", (), alphas=alphas)
    with pytest.raises(ValueError, match="seed must be"):
        make_run((2, 3, 2, 1), "receive", (), seed=-1)


#: Powers and amplitudes: in range, and in about one draw in ten zero,
#: negative, non-finite, tiny or huge.
budget_values = st.integers(0, 9).flatmap(
    lambda i: st.floats(1e-3, 1e3) if i else
    st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-200, 1e200]))


@st.composite
def budgets(draw):
    """(asymmetry, ratio, (alpha_sr, alpha_rd)): in about nine draws in ten a
    ratio and amplitudes that suit the asymmetry (none and any for a symmetric
    budget, one above 1 and 1.0 for an asymmetric one), else any."""
    asymmetry = draw(st.sampled_from(["symmetric", "sr_dominant", "rd_dominant", "sr-dominant"]))
    if draw(st.integers(0, 9)) == 0:
        return (asymmetry, draw(st.one_of(st.none(), budget_values)),
                (draw(st.one_of(st.just(1.0), budget_values)),
                 draw(st.one_of(st.just(1.0), budget_values))))
    if asymmetry == "symmetric":
        return asymmetry, None, (draw(budget_values), draw(budget_values))
    return asymmetry, draw(st.floats(1.0, 1e3, exclude_min=True)), (1.0, 1.0)


@given(p_s=budget_values, p_r=budget_values, budget=budgets(),
       grid=st.lists(st.floats(-400, 400), max_size=3).map(lambda g: tuple(sorted(g))))
@settings(max_examples=300, deadline=None)
def test_run_config_builds_only_usable_runs(p_s, p_r, budget, grid):
    asymmetry, ratio, (alpha_sr, alpha_rd) = budget
    try:
        run = make_run((2, 3, 2, 1), "receive", grid, p_s=p_s, p_r=p_r,
                       alphas=(alpha_sr, alpha_rd), asymmetry=asymmetry, ratio=ratio)
    except ValueError:
        return
    assert all(v > 0 for v in (p_s, p_r, alpha_sr, alpha_rd))
    assert all(0.0 < s < math.inf for s in run.unit_scales())
    for scales in run.hop_scales():
        assert all(0.0 < s < math.inf for s in scales)
    if asymmetry == "symmetric":
        assert ratio is None and run.resolved_alphas() == (alpha_sr, alpha_rd)
    else:
        assert asymmetry in ("sr_dominant", "rd_dominant") and ratio > 1.0
        assert (alpha_sr, alpha_rd) == (1.0, 1.0)
        dominant = (math.sqrt(ratio), 1.0)
        assert run.resolved_alphas() == (dominant if asymmetry == "sr_dominant"
                                         else dominant[::-1])


def test_outage_query_validation():
    with pytest.raises(ValueError):
        OutageQuery.snr(-1.0)
    assert OutageQuery.snr(3.0).gamma_t == 3.0
    assert OutageQuery.rate(1.0).gamma_t == 1.0


def test_outage_query_refuses_a_non_finite_threshold():
    # an infinite threshold gave an outage of 1 at every point, and an
    # OverflowError in exact_diversity
    for call in (lambda: OutageQuery(math.inf), lambda: OutageQuery.snr(math.inf),
                 lambda: OutageQuery.rate(math.inf)):
        with pytest.raises(ValueError, match="threshold must be finite and non-negative"):
            call()


# -- link dims ------------------------------------------------------------------


def test_link_dims_receive():
    cfg = AntennaConfig(2, 3, 2, 1, ZFMode.RECEIVE)
    assert link_dims(cfg, "sr") == WishartDims(2, 2)   # (n_r1 - 1) x n_s
    assert link_dims(cfg, "rd") == WishartDims(1, 2)   # n_r2 x n_d


def test_link_dims_transmit():
    cfg = AntennaConfig(2, 3, 2, 2, ZFMode.TRANSMIT)
    assert link_dims(cfg, "sr") == WishartDims(2, 3)   # full n_r1 x n_s
    assert link_dims(cfg, "rd") == WishartDims(1, 2)   # (n_r2 - 1) x n_d
    with pytest.raises(ValueError):
        link_dims(cfg, "xx")


# -- per-hop outage ------------------------------------------------------------------


def test_link_outage_limits():
    t = hop(2, 3)
    assert link_outage(t, [2.0], 0.0) == [0.0]
    assert link_outage(t, [2.0], 1e9)[0] == pytest.approx(1.0, abs=1e-12)


def test_link_outage_erlang_two():
    # Erlang(2) CDF at 1: 1 - 2/e; cross-checked by quadrature of x e^-x
    t = hop(1, 2)
    expected = 1.0 - 2.0 * math.exp(-1.0)
    (p,) = link_outage(t, [1.0], 1.0)
    assert p == pytest.approx(expected, rel=1e-12)
    quad, _ = integrate.quad(lambda x: x * math.exp(-x), 0.0, 1.0)
    assert p == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize("a,b,scale", [(1, 2, 1.0), (2, 2, 3.7), (2, 3, 0.6), (1, 1, 5.0)])
def test_link_outage_consistent_with_pdf(a, b, scale):
    t = table(a, b)
    for gamma_t in (0.4, 1.3, 6.0):
        ref, err = integrate.quad(lambda x: link_snr_pdf(t, scale, x), 0.0, gamma_t,
                                  limit=200)
        assert link_outage(hop_cdf(t), [scale], gamma_t)[0] == pytest.approx(
            ref, abs=max(1e-8, 10 * err))


def test_link_outage_monotone_in_threshold_and_scale():
    t = hop(2, 2)
    thresholds = np.linspace(0.0, 20.0, 60)
    vals = [link_outage(t, [2.5], float(g))[0] for g in thresholds]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    vals = link_outage(t, [float(s) for s in np.linspace(0.2, 40.0, 60)], 3.0)
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("entries, g", [
    # weights -1 and 2 at m = 1, 2 sum to 1, but F = 1 - e^{-x} (1 + x + x^2),
    # so G = e^x - 1 - x - x^2 and g_2 = -1/2
    ({(1, 1): F(-1), (1, 2): F(2)}, "g_2 = -1/2"),
    ({(1, 0): F(1)}, "g_1 = 1"),  # 1 - e^{-x}: g_1 is not 0 below ab = 2
    ({(1, 2): F(1)}, "g_2 = 0"),  # the Erlang-3 CDF: g_2 is 0 at ab = 2
])
def test_hop_cdf_refuses_a_table_whose_growth_series_is_not_positive(entries, g):
    bogus = CoeffTable(WishartDims(1, 2), F(1), entries)
    with pytest.raises(NonzeroResidualError, match=re.escape(g)):
        hop_cdf(bogus)


def test_link_outage_rejects_bogus_weights():
    good = table(1, 2)
    bogus = CoeffTable(good.dims, good.norm_const, {(1, 1): F(3, 2)})
    with pytest.raises(InvalidProbabilityError):
        link_outage(hop_cdf(bogus), [1.0], 1e6)  # weights sum to 1.5 -> "probability" 1.5


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_DIMS), st.floats(-6.0, 2.0),
       st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=30))
def test_link_outage_is_monotone(dims, log10_x, steps):
    # points at least 1e-4 apart in x, from 1e-6 to about 1e4
    t = hop(*dims)
    xs = [10.0 ** log10_x]
    for step in steps:
        xs.append(xs[-1] * (1.0 + step))
    by_scale = link_outage(t, [1.0 / x for x in reversed(xs)], 1.0)  # scales rising
    assert all(p >= q for p, q in zip(by_scale, by_scale[1:]))
    by_threshold = [link_outage(t, [1.0], x)[0] for x in xs]  # gamma_t rising
    assert all(p <= q for p, q in zip(by_threshold, by_threshold[1:]))


@pytest.mark.parametrize("dims", ALL_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
def test_every_point_of_a_dense_grid_is_proven(dims):
    # 500 points a decade, x from 1e-6 to 1e4: a point that no branch proves
    # raises InvalidProbabilityError
    values = link_outage(hop(*dims), [10.0 ** (k / 500) for k in range(3000, -2001, -1)], 1.0)
    assert len(values) == 5001 and all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("a,b", [(a, b) for b in range(1, 8) for a in range(1, b + 1)])
def test_whole_curve_is_bitwise_per_point_reference(a, b):
    # one link_outage call per point is the reference for a whole curve
    t = table(a, b)
    h = hop_cdf(t)
    rng = np.random.default_rng(100 * a + b)
    curves = {3.7: [3.7 / x for x in 10.0 ** rng.uniform(-8.0, 4.0, 300)]}
    # scales 1 and 0.5 make x = gamma_t / scale exact; from x = 746 on
    # exp(-x) underflows to 0
    edges = [float(k) for k in range(1, 2 * max(m for _, m in t.entries) + 4)]
    edges += [745.0, 746.0, 750.0, 1e4, 1e6, math.inf]
    curves.update((x, [1.0, 0.5, 1e300]) for x in edges)
    curves[1e-300] = [1e300, 1.0, 1e-10]  # gamma_t / scale underflows to 0.0 at 1e300
    for gamma_t, scales in curves.items():
        curve = link_outage(h, scales, gamma_t)
        assert [v.hex() for v in curve] == [
            link_outage(h, [s], gamma_t)[0].hex() for s in scales], gamma_t


def test_whole_curve_edges():
    t = hop(3, 4)
    # gamma_t / scale underflows to 0.0: the outage is 0, as per point
    assert link_outage(t, [1e300], 1e-300) == [0.0]
    assert link_outage(t, [1e300, 2.0], 1e-300) == [0.0, link_outage(t, [2.0], 1e-300)[0]]
    assert link_outage(t, [2.0, 5.0], 0.0) == [0.0, 0.0]
    assert link_outage(t, [1.0, 1e300], math.inf) == [1.0, 1.0]
    assert link_outage(t, [], 1.0) == []
    assert link_outage(t, (s for s in (2.0, 5.0)), 1.0) == [
        link_outage(t, [2.0], 1.0)[0], link_outage(t, [5.0], 1.0)[0]]
    for bad in ([1.0, math.nan], [1.0, 0.0], [-1.0], [math.nan], [0.0], [-2.0]):
        with pytest.raises(ValueError, match="scale must be > 0"):
            link_outage(t, bad, 1.0)
    with pytest.raises(ValueError):  # inf / inf is not a point
        link_outage(t, [1.0, math.inf], math.inf)


@pytest.mark.parametrize("dims, x", [
    ((1, 1), 1e-320),  # F ~ x: subnormal
    ((7, 7), 3e-6),  # F ~ t_49 x^49: subnormal
    ((7, 7), 1e-6),  # below half the smallest subnormal
    ((4, 7), 1e-12),
])
def test_below_the_double_range_the_outage_rounds(dims, x):
    # a value below the normal range is returned rounded, to a subnormal or
    # 0.0, and is not raised
    (value,) = link_outage(hop(*dims), [1.0], x)
    assert value < sys.float_info.min
    assert abs(value - float(max_eig_cdf(*dims, x))) <= 5e-324


def test_nan_does_not_leak_out_of_closed_form(monkeypatch):
    with pytest.raises(ValueError, match="gamma_t must be non-negative"):
        link_outage(hop(2, 3), [1.0], math.nan)
    # a branch that gives nan is caught by the [0, 1] check: x = 1 takes the
    # series, and x = 2 = X Horner and then the series
    t = hop(2, 3)
    assert t.crossover == 2.0
    monkeypatch.setattr(outage, "_series", lambda hop, x: (math.nan, math.inf))
    monkeypatch.setattr(outage, "_horner", lambda hop, x: (math.nan, math.inf))
    for x in (1.0, 2.0):
        with pytest.raises(InvalidProbabilityError,
                           match=re.escape("link outage = nan is outside")):
            link_outage(t, [1.0], x)


def test_nan_rejected_by_every_guard():
    nan = math.nan
    for call in (
        lambda: rate_to_snr_threshold(nan),
        lambda: OutageQuery.snr(nan),
        lambda: OutageQuery.rate(nan),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            call()


# -- pdf ---------------------------------------------------------------------------------


def test_pdf_values():
    assert link_snr_pdf(table(1, 1), 1.0, 0.0) == pytest.approx(1.0)
    # scaled Erlang(2): (x / scale) e^{-x/scale} / scale at x=2, scale=2
    assert link_snr_pdf(table(1, 2), 2.0, 2.0) == pytest.approx(0.5 * math.exp(-1.0))


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_pdf_normalization(a, b):
    t = table(a, b)
    total, err = integrate.quad(lambda x: link_snr_pdf(t, 1.7, x), 0.0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


# -- combination --------------------------------------------------------------------------


def e2e(monkeypatch, p_sr, p_rd):
    """build_curve's analytic column from the hop outages p_sr and p_rd, on
    (2,3,2,1) receive, whose sr hop is 2x2 and rd hop 1x2."""
    by_hop = {curves._hop(WishartDims(2, 2), None): list(p_sr),
              curves._hop(WishartDims(1, 2), None): list(p_rd)}
    monkeypatch.setattr(curves, "link_outage", lambda hop, scales, gamma_t: by_hop[hop])
    return analytic_curve((2, 3, 2, 1), "receive", [10.0] * len(p_sr))


def test_e2e_examples(monkeypatch):
    assert e2e(monkeypatch, [0.0, 1.0, 0.1], [0.4, 0.3, 0.2]) == [0.4, 1.0, pytest.approx(0.28)]
    # a hop outage outside [0, 1] never reaches the combination
    monkeypatch.undo()
    bogus = CoeffTable(WishartDims(1, 2), F(1), {(1, 1): F(3, 2)})
    monkeypatch.setattr(curves, "_hop", lambda dims, cache_dir: hop_cdf(bogus))
    with pytest.raises(InvalidProbabilityError):
        build_curve(make_run((2, 2, 2, 2), "receive", (-10.0,)))


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_e2e_properties(p, q):
    with pytest.MonkeyPatch.context() as mp:
        (v,) = e2e(mp, [p], [q])
        (swapped,) = e2e(mp, [q], [p])
    assert v == pytest.approx(1.0 - (1.0 - p) * (1.0 - q), abs=1e-15)
    assert v == pytest.approx(swapped, abs=1e-15)
    assert 0.0 <= v <= 1.0


HOP_REUSE_CASES = {
    "equal hops, symmetric: evaluated once": dict(antennas=(2, 3, 2, 2)),
    "equal dims, unequal scales": dict(antennas=(2, 3, 2, 2), asymmetry="sr_dominant",
                                       ratio=1.5),
    "equal dims, p_s != p_r": dict(antennas=(2, 3, 2, 2), p_s=2.0, p_r=0.5),
    "unequal dims": dict(antennas=(2, 3, 2, 1)),
}


@pytest.mark.parametrize("case", HOP_REUSE_CASES)
def test_analytic_column_is_the_combination_of_both_hops(case):
    kwargs = dict(HOP_REUSE_CASES[case])
    run = make_run(kwargs.pop("antennas"), "receive", [0.5 * i for i in range(81)], **kwargs)
    gamma_t = run.query.gamma_t
    scales_sr, scales_rd = run.hop_scales()
    p_sr = link_outage(hop_cdf(cached_table(link_dims(run.antenna, "sr"))), scales_sr, gamma_t)
    p_rd = link_outage(hop_cdf(cached_table(link_dims(run.antenna, "rd"))), scales_rd, gamma_t)
    want = [sr + (1.0 - sr) * rd for sr, rd in zip(p_sr, p_rd)]
    assert [r.analytic.hex() for r in build_curve(run).rows] == [v.hex() for v in want]


def test_each_cache_file_is_read_once_per_process(tmp_path, monkeypatch):
    # both hops of (2,3,2,2) receive are 2x2; the second run's unequal
    # scales make it evaluate each hop on its own
    path = tmp_path / "coeff_a2_b2.txt"
    curves.load_or_compute_table(WishartDims(2, 2), tmp_path)
    reads = []
    load_table = curves.load_table
    monkeypatch.setattr(curves, "load_table", lambda p: reads.append(p) or load_table(p))
    build_curve(make_run((2, 3, 2, 2), "receive", (0.0, 10.0)), tmp_path)
    build_curve(make_run((2, 3, 2, 2), "receive", (0.0, 10.0), asymmetry="sr_dominant",
                         ratio=1.5), tmp_path)
    assert reads == [path]


def test_curve_row_fields_are_fixed():
    row = build_curve(make_run((2, 3, 2, 1), "receive", (10.0,))).rows[0]
    assert curves.CurveRow._fields == ("gammabar_db", "analytic", "mc", "ci_low", "ci_high")
    assert repr(row) == (f"CurveRow(gammabar_db=10.0, analytic={row.analytic!r}, mc=None, "
                         "ci_low=None, ci_high=None)")
    with pytest.raises(AttributeError):
        row.analytic = 0.5


# -- rate threshold -----------------------------------------------------------------------


def test_rate_to_snr_threshold():
    assert rate_to_snr_threshold(0.0) == 0.0
    assert rate_to_snr_threshold(1.0) == 1.0
    assert rate_to_snr_threshold(3.0) == 7.0
    with pytest.raises(ValueError):
        rate_to_snr_threshold(-1.0)


def test_rate_path_is_bitwise_same_as_snr_path():
    grid = (0.0, 10.0, 14.77, 30.0)
    for r0 in (0.5, 1.0, 2.0, 3.5):
        via_rate = analytic_curve((2, 3, 2, 1), "receive", grid, OutageQuery.rate(r0))
        via_snr = analytic_curve((2, 3, 2, 1), "receive", grid, OutageQuery.snr(2.0 ** r0 - 1.0))
        assert via_rate == via_snr


# -- end-to-end closed form ----------------------------------------------------------------


def test_e2e_zero_threshold():
    assert analytic_curve((2, 3, 2, 1), "receive", (0.0, 20.0), OutageQuery.snr(0.0)) == [0.0, 0.0]


def test_e2e_monotone_in_average_snr():
    vals = analytic_curve((2, 3, 2, 1), "receive", range(0, 35, 5))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_antenna_split_ordering_high_snr():
    grid = (20.0, 25.0, 30.0)
    p_2321 = analytic_curve((2, 3, 2, 1), "receive", grid)
    p_2231 = analytic_curve((2, 2, 3, 1), "receive", grid)
    assert all(a <= b for a, b in zip(p_2321, p_2231))


# -- diversity order --------------------------------------------------------------------------


@pytest.mark.parametrize("antennas,mode,expected", [
    ((2, 3, 2, 1), ZFMode.RECEIVE, 2),
    ((2, 3, 2, 2), ZFMode.RECEIVE, 4),
    ((2, 3, 2, 3), ZFMode.RECEIVE, 4),
    ((3, 2, 2, 2), ZFMode.RECEIVE, 3),
    ((2, 3, 2, 1), ZFMode.TRANSMIT, 1),
    ((2, 2, 3, 1), ZFMode.TRANSMIT, 2),
])
def test_diversity_order(antennas, mode, expected):
    assert diversity_order(AntennaConfig(*antennas, mode)) == expected


def test_high_snr_slope_quick():
    # (2,3,2,1) receive: the 1x2 hop has order 2 and CDF x^2/2 + O(x^3), the
    # 2x2 hop order 4, so the outage tends to (gamma_t / gammabar)^2 / 2,
    # which is 50 / gammabar^2 at gamma_t = 10
    run = make_run((2, 3, 2, 1), "receive", (30.0, 40.0))
    check = exact_diversity(run)
    assert check.ok and check.predicted == 2 and check.hop_orders == (4, 2)
    assert check.coding_gain_db == pytest.approx(-5.0 * math.log10(50.0), rel=1e-12)
    p30, p40 = analytic_curve((2, 3, 2, 1), "receive", (30.0, 40.0))
    assert abs(p40 / 50e-8 - 1.0) < abs(p30 / 50e-6 - 1.0) < 1e-2


def test_exact_diversity_at_a_zero_threshold():
    # a threshold of 0 (10 ** (-4000 / 10) underflows to it) is in outage at no
    # SNR: the orders are those of any threshold, and the coding gain is +inf dB
    check = exact_diversity(make_run((2, 3, 2, 1), "receive", (), OutageQuery.snr(0.0)))
    assert check.ok and check.predicted == 2 and check.hop_orders == (4, 2)
    assert check.coding_gain_db == math.inf
    assert str(check).endswith("coding gain +inf dB -> PASS")
