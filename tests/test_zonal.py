"""The growth series g_j of every table against the zonal oracle, which
shares nothing with the Kang-Alouini determinant that the tables come from."""

import itertools
from fractions import Fraction

import pytest

from fdrelay.outage import MAX_ANTENNAS, growth_taylor, hop_cdf
from fdrelay.wishart import WishartDims, cached_table
from zonal import growth_coefficient, ode_order, selberg

ALL_DIMS = [(a, b) for a in range(1, MAX_ANTENNAS + 1) for b in range(a, MAX_ANTENNAS + 1)]

#: Past ab, the coefficients compared where no whole-table proof runs.
SPOT_TERMS = 13


def test_selberg_product_is_the_leading_coefficient():
    # exact_diversity's coding gain rests on t_j0 = t_ab
    for a, b in ALL_DIMS:
        assert hop_cdf(cached_table(WishartDims(a, b))).t_j0 == selberg(a, b), (a, b)


@pytest.mark.parametrize("dims", ALL_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
def test_growth_series_is_the_zonal_series(dims):
    # for a <= 4, the first N coefficients make a proof that the whole table is
    # exact: G and the zonal series solve the same linear ODE of order N
    a, b = dims
    count = ode_order(a, b) if a <= 4 else a * b + SPOT_TERMS
    coefficients = itertools.islice(growth_taylor(cached_table(WishartDims(a, b))), count)
    for j, (num, den) in enumerate(coefficients):
        want = growth_coefficient(a, b, j - a * b) if j >= a * b else 0
        assert Fraction(num, den) == want, j
