"""Closed-form outage: per-hop CDFs, end-to-end combination, diversity."""

import math
import re
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate, special

from fdrelay.curves import exact_diversity
from fdrelay.outage import (
    AntennaConfig,
    InvalidProbabilityError,
    OutageQuery,
    ZFMode,
    _check_probability,
    diversity_order,
    e2e_outage,
    link_dims,
    link_outage,
    rate_to_snr_threshold,
)
from fdrelay.wishart import CoeffTable, WishartDims, cached_table
from outage_reference import link_outage_at, link_snr_pdf, regularized_lower_gamma
from runs import analytic_curve, make_run


def table(a, b):
    return cached_table(WishartDims(a, b))


# -- configuration types -----------------------------------------------------


def test_antenna_config_validation():
    AntennaConfig(2, 3, 2, 1, ZFMode.RECEIVE)
    with pytest.raises(ValueError):
        AntennaConfig(2, 1, 2, 1, ZFMode.RECEIVE)  # projection needs n_r1 >= 2
    with pytest.raises(ValueError):
        AntennaConfig(2, 2, 1, 1, ZFMode.TRANSMIT)
    with pytest.raises(ValueError):
        AntennaConfig(0, 2, 2, 1, ZFMode.RECEIVE)
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
])
def test_run_config_checks_its_ranges(kwargs, message):
    args = {"grid_db": (0.0, 30.0)} | kwargs
    with pytest.raises(ValueError, match=re.escape(message)):
        make_run((2, 3, 2, 1), "receive", **args)


def test_run_config_without_a_grid_skips_the_scale_check():
    # the exact diversity check runs on a grid-free config
    assert make_run((2, 3, 2, 1), "receive", (), alphas=(1.0, 1e-170)).grid_db == ()
    with pytest.raises(ValueError, match="seed must be"):
        make_run((2, 3, 2, 1), "receive", (), seed=-1)


def test_outage_query_validation():
    with pytest.raises(ValueError):
        OutageQuery()
    with pytest.raises(ValueError):
        OutageQuery(gamma_t=1.0, rate_r0=1.0)
    with pytest.raises(ValueError):
        OutageQuery.snr(-1.0)
    assert OutageQuery.snr(3.0).snr_threshold() == 3.0
    assert OutageQuery.rate(1.0).snr_threshold() == 1.0


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


# -- regularized lower gamma -------------------------------------------------------


def test_regularized_gamma_examples():
    assert regularized_lower_gamma(1, 0.0) == 0.0
    assert regularized_lower_gamma(1, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)
    assert regularized_lower_gamma(3, 1e4) == 1.0
    with pytest.raises(ValueError):
        regularized_lower_gamma(0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(1, -0.5)


@given(st.integers(1, 25), st.floats(min_value=0.0, max_value=1e4,
                                     allow_nan=False, allow_infinity=False))
def test_regularized_gamma_matches_scipy(s, x):
    ours = regularized_lower_gamma(s, x)
    ref = float(special.gammainc(s, x))
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_regularized_gamma_monotone():
    xs = np.linspace(0.0, 50.0, 400)
    for s in (1, 3, 8):
        vals = [regularized_lower_gamma(s, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# -- per-hop outage ------------------------------------------------------------------


def test_link_outage_limits():
    t = table(2, 3)
    assert link_outage(t, [2.0], 0.0) == [0.0]
    assert link_outage(t, [2.0], 1e9)[0] == pytest.approx(1.0, abs=1e-12)


def test_link_outage_erlang_two():
    # Erlang(2) CDF at 1: 1 - 2/e; cross-checked by quadrature of x e^-x
    t = table(1, 2)
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
        assert link_outage(t, [scale], gamma_t)[0] == pytest.approx(ref, abs=max(1e-8, 10 * err))


def test_link_outage_monotone_in_threshold_and_scale():
    t = table(2, 2)
    thresholds = np.linspace(0.0, 20.0, 60)
    vals = [link_outage(t, [2.5], float(g))[0] for g in thresholds]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    vals = link_outage(t, [float(s) for s in np.linspace(0.2, 40.0, 60)], 3.0)
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_link_outage_rejects_bogus_weights():
    good = table(1, 2)
    bogus = CoeffTable(good.dims, good.norm_const, {(1, 1): F(3, 2)})
    with pytest.raises(InvalidProbabilityError):
        link_outage(bogus, [1.0], 1e6)  # weights sum to 1.5 -> "probability" 1.5


def _reference_curve(t, scales, gamma_t):
    """Per-point reference values, or InvalidProbabilityError where it raises."""
    values = []
    for scale in scales:
        try:
            values.append(link_outage_at(t, scale, gamma_t))
        except InvalidProbabilityError:
            values.append(InvalidProbabilityError)
    return values


@pytest.mark.parametrize("a,b", [(a, b) for b in range(1, 8) for a in range(1, b + 1)])
def test_whole_curve_is_bitwise_per_point_reference(a, b):
    t = table(a, b)
    rng = np.random.default_rng(100 * a + b)
    curves = {3.7: [3.7 / x for x in 10.0 ** rng.uniform(-8.0, 4.0, 300)]}
    # scales 1 and 0.5 make x = gamma_t / scale exact: integer x puts
    # y = n * x exactly on the branch point y = s + 1 of many terms, and
    # from y = 746 on exp(-y) underflows to 0
    edges = [float(k) for k in range(1, 2 * max(m for _, m in t.entries) + 4)]
    edges += [745.0, 746.0, 750.0, 1e4, 1e6]
    assert any(n * x == m + 2 for (n, m) in t.entries for x in edges)
    curves.update((x, [1.0, 0.5]) for x in edges)
    raised = 0
    for gamma_t, scales in curves.items():
        refs = _reference_curve(t, scales, gamma_t)
        good = [(s, r) for s, r in zip(scales, refs) if r is not InvalidProbabilityError]
        curve = link_outage(t, [s for s, _ in good], gamma_t)
        assert [v.hex() for v in curve] == [r.hex() for _, r in good], gamma_t
        for s, r in zip(scales, refs):
            if r is InvalidProbabilityError:
                raised += 1
                with pytest.raises(InvalidProbabilityError):
                    link_outage(t, [s], gamma_t)
                with pytest.raises(InvalidProbabilityError):
                    link_outage(t, [1.0, s], gamma_t)
            else:
                assert link_outage(t, [s], gamma_t)[0].hex() == r.hex()
    if (a, b) == (7, 7):
        # cancellation at small x leaves [0, 1] here, at the same inputs
        assert raised > 0


def test_whole_curve_edges():
    t = table(3, 4)
    # gamma_t / scale underflows to 0.0: the outage is 0, as per point
    assert link_outage(t, [1e300], 1e-300) == [0.0] == [link_outage_at(t, 1e300, 1e-300)]
    assert link_outage(t, [1e300, 2.0], 1e-300) == [0.0, link_outage_at(t, 2.0, 1e-300)]
    assert link_outage(t, [2.0, 5.0], 0.0) == [0.0, 0.0]
    assert link_outage(t, [1.0, 1e300], math.inf) == [1.0, 1.0] == [
        link_outage_at(t, 1.0, math.inf), link_outage_at(t, 1e300, math.inf)]
    assert link_outage(t, [], 1.0) == []
    assert link_outage(t, (s for s in (2.0, 5.0)), 1.0) == [
        link_outage_at(t, 2.0, 1.0), link_outage_at(t, 5.0, 1.0)]
    for bad in ([1.0, math.nan], [1.0, 0.0], [-1.0], [math.nan], [0.0], [-2.0]):
        with pytest.raises(ValueError, match="scale must be > 0"):
            link_outage(t, bad, 1.0)
    with pytest.raises(ValueError):  # inf / inf is not a point
        link_outage(t, [1.0, math.inf], math.inf)


def test_nan_does_not_leak_out_of_closed_form():
    with pytest.raises(ValueError, match="gamma_t must be non-negative"):
        link_outage(table(2, 3), [1.0], math.nan)
    with pytest.raises(InvalidProbabilityError):
        _check_probability(math.nan, "link outage")


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


def test_e2e_examples():
    assert e2e_outage(0.0, 0.4) == 0.4
    assert e2e_outage(1.0, 0.3) == 1.0
    assert e2e_outage(0.1, 0.2) == pytest.approx(0.28)
    with pytest.raises(ValueError):
        e2e_outage(-0.1, 0.5)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_e2e_properties(p, q):
    v = e2e_outage(p, q)
    assert v == pytest.approx(1.0 - (1.0 - p) * (1.0 - q), abs=1e-15)
    assert v == pytest.approx(e2e_outage(q, p), abs=1e-15)
    assert 0.0 <= v <= 1.0


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
