"""Tables and the closed form against the independent Kang-Alouini oracle."""

import pytest

from fdrelay.outage import hop_cdf, link_outage
from fdrelay.wishart import WishartDims, extract_coefficients
from kang_alouini import max_eig_cdf, mixture_cdf, relative_error

DIMS_UP_TO_4X7 = [(a, b) for a in range(1, 5) for b in range(a, 8)]
#: the tables past 4x7, where the crossover X reaches 32
DIMS_PAST_4X7 = [(a, 8) for a in range(1, 5)] + [(a, b) for a in range(5, 9) for b in range(a, 9)]


@pytest.mark.parametrize("dims", DIMS_UP_TO_4X7, ids=lambda d: f"{d[0]}x{d[1]}")
def test_exact_weights_give_the_kang_alouini_cdf(dims):
    # the weights enter exactly and only the gamma values round, at 200
    # digits: far below 1e-40 even where the mixture cancels at small x
    entries = extract_coefficients(WishartDims(*dims)).entries
    for x in (0.05, 1.5, 40):
        assert relative_error(mixture_cdf(entries, x), max_eig_cdf(*dims, x)) <= 1e-40, x


def _closed_form_error(dims, x):
    table = extract_coefficients(WishartDims(*dims))
    return relative_error(link_outage(hop_cdf(table), [1.0], x)[0], max_eig_cdf(*dims, x))


@pytest.mark.parametrize("dims, x", [
    ((2, 2), 8), ((2, 3), 8), ((3, 3), 8), ((3, 4), 8), ((4, 5), 8),
    ((2, 2), 2), ((2, 3), 2),
])
def test_closed_form_matches_the_oracle(dims, x):
    assert _closed_form_error(dims, x) <= 1e-12


@pytest.mark.parametrize("dims, x", [((2, 3), 1e-3), ((3, 3), 1e-2)])
def test_closed_form_in_the_high_snr_tail(dims, x):
    # the float mixture sum of earlier versions was off by 0.19 and 1.7e5 here
    assert _closed_form_error(dims, x) <= 1e-12


#: 1e2 down to 1e-6, four points a decade
TAIL_XS = [10.0 ** (2 - k / 4) for k in range(33)]


@pytest.mark.parametrize("dims", DIMS_UP_TO_4X7, ids=lambda d: f"{d[0]}x{d[1]}")
def test_closed_form_matches_the_oracle_down_the_tail(dims):
    scales = [1.0 / x for x in TAIL_XS]
    values = link_outage(hop_cdf(extract_coefficients(WishartDims(*dims))), scales, 1.0)
    for scale, value in zip(scales, values):
        x = 1.0 / scale  # the x that link_outage saw
        assert relative_error(value, max_eig_cdf(*dims, x)) <= 1e-12, x


@pytest.mark.parametrize("dims", DIMS_PAST_4X7, ids=lambda d: f"{d[0]}x{d[1]}")
def test_closed_form_matches_the_oracle_around_the_crossover(dims):
    # both sides of the crossover X, up to 2X where the series stops, and one
    # point down the tail
    hop = hop_cdf(extract_coefficients(WishartDims(*dims)))
    for x in [hop.crossover * f for f in (0.5, 0.99, 1.01, 2.0, 1e-3)]:
        (value,) = link_outage(hop, [1.0], x)
        assert relative_error(value, max_eig_cdf(*dims, x)) <= 1e-12, x
