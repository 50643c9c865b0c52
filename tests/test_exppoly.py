"""Exact determinants of exponential polynomials, checked against the
test-side reference ring, and the test-side ExpPoly that states them."""

import math
from fractions import Fraction as F

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from det_reference import add, det_cofactor, mul, neg
from exppoly_eval import evaluate
from exppoly_ref import ExpPoly, det, gram_entries, lower_gamma_poly, slices
from fdrelay.exppoly import InexactDivisionError, _divide, _pack, determinant
from fdrelay.outage import MAX_ANTENNAS
from fdrelay.wishart import extract_coefficients, WishartDims
from mixture import mixture_density


def ep(d):
    return ExpPoly({k: F(v) for k, v in d.items()})


ONE, ZERO = ExpPoly({(0, 0): 1}), ExpPoly()


def det_sum(p, q):
    """p + q as production computes it: det [[p, -q], [1, 1]]."""
    return det([[p, q * -1], [ONE, ONE]])


def det_product(p, q):
    """p * q as production computes it: det [[p, 0], [0, q]]."""
    return det([[p, ZERO], [ZERO, q]])


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
exppolys = st.builds(ExpPoly, st.dictionaries(keys, rationals, max_size=5))
#: Coefficients up to +-2**200 over denominators up to 2**40.
huge_rationals = st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 40))
huge_exppolys = st.builds(ExpPoly, st.dictionaries(keys, huge_rationals, max_size=4))


# -- construction and canonical form -----------------------------------------


def test_zero_coefficients_dropped():
    assert ep({(1, 1): 0, (0, 0): 2}) == ep({(0, 0): 2})
    assert ExpPoly({}) == ExpPoly() == ep({(2, 1): 0})
    assert list(ExpPoly().items()) == []


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        ExpPoly({(-1, 0): F(1)})
    with pytest.raises(ValueError):
        ExpPoly({(0, -2): F(1)})


def test_canonical_iteration_order():
    p = ep({(2, 0): 1, (1, 0): 1, (1, 3): 1, (0, 1): 1})
    assert [k for k, _ in p.items()] == [(0, 1), (1, 3), (1, 0), (2, 0)]


# -- addition: inside determinants and in the reference ring -------------------


def test_add_cancels_to_zero():
    p = ep({(1, 1): 1})
    assert det_sum(p, p * -1) == add(p, neg(p)) == ZERO


def test_add_disjoint_keys():
    p, q = ep({(0, 0): 1}), ep({(1, 0): 1})
    assert det_sum(p, q) == add(p, q) == ep({(0, 0): 1, (1, 0): 1})


def test_add_merges_like_terms():
    p, q = ep({(1, 2): 2}), ep({(1, 2): 3})
    assert det_sum(p, q) == add(p, q) == ep({(1, 2): 5})


# -- multiplication --------------------------------------------------------------


def test_mul_binomial_square():
    one_minus_e = ep({(0, 0): 1, (1, 0): -1})
    square = ep({(0, 0): 1, (1, 0): -2, (2, 0): 1})
    assert det_product(one_minus_e, one_minus_e) == mul(one_minus_e, one_minus_e) == square


def test_mul_adds_exponents():
    xe = ep({(1, 1): 1})
    assert det_product(xe, xe) == mul(xe, xe) == ep({(2, 2): 1})


def test_mul_by_zero_annihilates():
    p = ep({(1, 1): 3, (0, 2): -2})
    assert det_product(p, ZERO) == mul(p, ZERO) == ZERO
    assert p * 0 == ZERO


def test_scalar_multiplication():
    p = ep({(1, 1): 3})
    assert p * 2 == ep({(1, 1): 6})
    assert p * F(1, 3) == ep({(1, 1): 1})
    with pytest.raises(TypeError):
        p * p


# -- leading coefficient lookups ---------------------------------------------------


def test_coeff_lookup():
    terms = dict(ep({(1, 2): 1, (2, 0): -2}).items())
    assert terms.get((1, 2), 0) == 1
    assert terms.get((2, 0), 0) == -2
    assert terms.get((3, 5), 0) == 0


# -- determinants ----------------------------------------------------------------


def test_det_1x1():
    g1 = lower_gamma_poly(1)
    assert det([[g1]]) == g1 == ep({(0, 0): 1, (1, 0): -1})


def test_det_identity():
    assert det([[ONE, ZERO], [ZERO, ONE]]) == ONE


def test_det_gamma_2x2_exact_and_numeric():
    # det [[g(1), g(2)], [g(2), g(3)]] expands by hand to 1 - (x^2+2)e^-x + e^-2x
    m = [[lower_gamma_poly(1), lower_gamma_poly(2)],
         [lower_gamma_poly(2), lower_gamma_poly(3)]]
    d = det(m)
    assert d == ep({(0, 0): 1, (1, 2): -1, (1, 0): -2, (2, 0): 1})
    for lam in (0.1, 0.7, 2.0, 5.5, 11.0):
        direct = 1.0 - (lam ** 2 + 2.0) * math.exp(-lam) + math.exp(-2.0 * lam)
        assert evaluate(d, lam) == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_det_rejects_non_square():
    one = {0: [1]}
    with pytest.raises(ValueError):
        determinant([[one, one]])
    with pytest.raises(ValueError):
        determinant([])
    with pytest.raises(TypeError):
        determinant([[one, {0: [F(1, 2)]}], [one, one]])


def test_det_of_slices_is_canonical_and_signed():
    # zero slices and trailing zeros go; a swap of rows flips the sign
    assert determinant([[{0: [0], 1: [2, 0]}]]) == {1: [2]}
    assert determinant([[{}, {0: [1]}], [{1: [0, 3]}, {}]]) == {1: [0, -3]}
    assert determinant([[{}, {}], [{0: [1]}, {1: [1]}]]) == {}


@given(st.integers(2, 4), st.data())
def test_det_equal_rows_vanishes(n, data):
    rows = [
        [data.draw(exppolys) for _ in range(n)]
        for _ in range(n)
    ]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if i == j:
        j = (i + 1) % n
    rows[j] = list(rows[i])
    assert det(rows) == ZERO


@given(st.integers(2, 4), st.data())
@settings(max_examples=40)
def test_bareiss_matches_cofactor(n, data):
    rows = [[data.draw(exppolys) for _ in range(n)] for _ in range(n)]
    assert det(rows) == det_cofactor(rows)


@given(st.integers(2, 5), st.data())
@settings(max_examples=30)
def test_bareiss_matches_cofactor_with_huge_coefficients(n, data):
    # coefficients up to 2**200, so the entries pack at hundreds of bits; row
    # 0 opens with zeros, so its zero pivots swap it down past as many rows
    rows = [[data.draw(huge_exppolys) for _ in range(n)] for _ in range(n)]
    zeros = data.draw(st.integers(1, n - 1))
    rows[0][:zeros] = [ZERO] * zeros
    assert det(rows) == det_cofactor(rows)


def test_det_rows_with_different_denominators():
    # each row clears its own denominators (LCMs 6, 35 and 1), so the row
    # scales differ and their product must be divided out exactly once
    m = [
        [ep({(0, 0): F(1, 2), (1, 1): F(-1, 3)}), ep({(1, 0): F(5, 6)}), ep({(0, 2): F(1, 3)})],
        [ep({(0, 1): F(2, 5)}), ep({(0, 0): F(3, 7), (2, 0): F(1, 5)}), ep({(1, 1): F(-4, 35)})],
        [ep({(1, 0): 2}), ep({(0, 0): -1, (0, 1): 3}), ep({(2, 2): 1})],
    ]
    assert det(m) == det_cofactor(m)


def test_det_all_zero_row_vanishes():
    g = lower_gamma_poly
    for at in range(3):
        m = [[g(i + j + 1) * F(1, i + 2) for j in range(3)] for i in range(3)]
        m[at] = [ZERO] * 3
        assert det(m) == ZERO


def test_det_5x5_rational_matches_cofactor():
    rng = np.random.default_rng(5)
    m = [
        [
            ExpPoly({
                (int(k), int(l)): F(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
                for k, l in rng.integers(0, 3, size=(3, 2))
            })
            for _ in range(5)
        ]
        for _ in range(5)
    ]
    assert len({c.denominator for row in m for e in row for _, c in e.items()}) > 3
    assert det(m) == det_cofactor(m)


def test_large_matrix_uses_bareiss_path():
    # 6x6 of incomplete-gamma entries against the cofactor reference
    m = [[lower_gamma_poly(i + j + 1) for j in range(6)] for i in range(6)]
    assert det(m) == det_cofactor(m)


#: Huge odd coefficients of both signs, so that no product of them is a power
#: of two: each product needs every bit of its slot width.
HUGE = (2 ** 67 - 3, -(2 ** 61 - 1))


@pytest.mark.parametrize("anti", [False, True], ids=["diagonal", "anti_diagonal"])
@pytest.mark.parametrize("n", range(1, 6))
def test_slot_width_holds_a_coefficient_at_its_bound(n, anti):
    # one monomial per row, so the determinant's single coefficient is the
    # product of the row sums: the bound the slot width is taken from
    coeffs = [HUGE[i % 2] for i in range(n)]
    m = [[{} for _ in range(n)] for _ in range(n)]
    for i, c in enumerate(coeffs):
        m[i][n - 1 - i if anti else i] = {i % 3: [0] * i + [c]}
    sign = (-1) ** (n * (n - 1) // 2) if anti else 1
    power, decay = n * (n - 1) // 2, sum(i % 3 for i in range(n))
    assert determinant(m) == {decay: [0] * power + [sign * math.prod(coeffs)]}


# -- exact division -----------------------------------------------------------------


def _packed(terms, w=16):
    return _pack(slices(ExpPoly(terms)), w)


def test_packed_division_checks_each_coefficient():
    # integer elimination divides coefficients exactly or not at all
    assert _divide(_packed({(1, 1): 6, (0, 1): 4}), _packed({(0, 1): 2})) == _packed(
        {(1, 0): 3, (0, 0): 2})
    with pytest.raises(InexactDivisionError):
        _divide(_packed({(1, 1): 6, (0, 1): 3}), _packed({(0, 1): 2}))
    # a remainder whose leading term the divisor's lead does not divide
    with pytest.raises(InexactDivisionError):
        _divide(_packed({(0, 1): 1, (0, 0): 1}), _packed({(1, 0): 1}))


def test_every_table_up_to_max_antennas_extracts():
    # every table the program can build: extraction raises unless the
    # determinant is exactly a mixture whose weights sum to one
    for a in range(1, MAX_ANTENNAS + 1):
        for b in range(a, MAX_ANTENNAS + 1):
            assert extract_coefficients(WishartDims(a, b)).total() == 1, (a, b)


# -- ring axioms ---------------------------------------------------------------------


@given(exppolys, exppolys, exppolys)
def test_ring_axioms(p, q, r):
    # the reference ring that det_cofactor runs on, and production's packed
    # sums and products inside 2x2 determinants agree with it
    assert add(add(p, q), r) == add(p, add(q, r))
    assert add(p, q) == add(q, p)
    assert mul(p, q) == mul(q, p)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert det_sum(p, q) == add(p, q)
    assert det_product(p, q) == mul(p, q)


# -- numeric evaluation ---------------------------------------------------------------


def _exact_eval(p, lam):
    """Reference value: exact rational Horner per decay index, transcendental
    factors in 50-digit arithmetic."""
    mpmath.mp.dps = 50
    by_k = {}
    for (k, l), c in p.items():
        by_k.setdefault(k, {})[l] = c
    lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
    total = mpmath.mpf(0)
    for k, ls in by_k.items():
        acc = F(0)
        for l in range(max(ls), -1, -1):
            acc = acc * lam + ls.get(l, F(0))
        total += (mpmath.mpf(acc.numerator) / acc.denominator) * mpmath.e ** (-k * lam_mp)
    return total


def _longdouble_eval(p, lam):
    x = np.longdouble(lam.numerator) / np.longdouble(lam.denominator)
    total = np.longdouble(0)
    by_k = {}
    for (k, l), c in p.items():
        by_k.setdefault(k, {})[l] = c
    for k, ls in by_k.items():
        acc = np.longdouble(0)
        for l in range(max(ls), -1, -1):
            c = ls.get(l, F(0))
            acc = acc * x + np.longdouble(c.numerator) / np.longdouble(c.denominator)
        total += acc * np.exp(np.longdouble(-k) * x)
    return total


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_extended_precision_eval_matches_exact(dims):
    d = det(gram_entries(WishartDims(*dims)))
    polys = [d, mixture_density(extract_coefficients(WishartDims(*dims)).entries)]
    rng = np.random.default_rng(2024)
    for p in polys:
        for _ in range(12):
            lam = F(int(rng.integers(1, 80 * 4)), 4)  # rationals in (0, 20]
            exact = _exact_eval(p, lam)
            approx = _longdouble_eval(p, lam)
            assert abs(approx - float(exact)) <= 1e-12 * max(abs(float(exact)), 1e-300)


def test_call_supports_arrays():
    p = ep({(1, 1): 1, (0, 0): 2})
    xs = np.array([0.0, 1.0, 3.0])
    vals = evaluate(p, xs)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] == pytest.approx(2.0 + math.exp(-1.0))
    assert evaluate(p, 1.0) == pytest.approx(vals[1])
