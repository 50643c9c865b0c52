"""Largest-eigenvalue laws: exact densities, weight extraction, disk cache."""

import math
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from fdrelay.exppoly import ExpPoly
from fdrelay.wishart import (
    CacheChecksumError,
    CacheFormatError,
    CacheVersionError,
    CoeffTable,
    NonzeroResidualError,
    WishartDims,
    _extract_from_density,
    expected_keys,
    extract_coefficients,
    load_table,
    lower_gamma_poly,
    max_eig_cdf,
    max_eig_density,
    normalization_constant,
    save_table,
)


def ep(d):
    return ExpPoly({k: F(v) for k, v in d.items()})


# -- dims -----------------------------------------------------------------------


def test_dims_validation():
    with pytest.raises(ValueError):
        WishartDims(0, 2)
    with pytest.raises(ValueError):
        WishartDims(3, 2)
    assert WishartDims.of_matrix(4, 2) == WishartDims(2, 4)


# -- normalization constant -------------------------------------------------------


def test_normalization_constant_values():
    assert normalization_constant(WishartDims(1, 1)) == 1
    assert normalization_constant(WishartDims(1, 2)) == 1
    # (1!*2!) * (0!*1!) = 2, verified by direct product
    assert normalization_constant(WishartDims(2, 3)) == F(1, 2)


# -- incomplete gamma building block ------------------------------------------------


def test_lower_gamma_poly_small_shapes():
    assert lower_gamma_poly(1) == ep({(0, 0): 1, (1, 0): -1})
    assert lower_gamma_poly(2) == ep({(0, 0): 1, (1, 0): -1, (1, 1): -1})
    # 2!(1 - e^-x (1 + x + x^2/2)) expanded
    assert lower_gamma_poly(3) == ep({(0, 0): 2, (1, 0): -2, (1, 1): -2, (1, 2): -1})
    with pytest.raises(ValueError):
        lower_gamma_poly(0)


def test_lower_gamma_poly_matches_quadrature():
    p = lower_gamma_poly(3)
    for lam in (0.3, 1.0, 2.5, 7.0):
        ref, err = integrate.quad(lambda t: t ** 2 * math.exp(-t), 0.0, lam)
        assert p(lam) == pytest.approx(ref, rel=1e-10, abs=max(err, 1e-13))


# -- densities -----------------------------------------------------------------------


def test_density_single_channel():
    assert max_eig_density(WishartDims(1, 1)) == ep({(1, 0): 1})


def test_density_erlang_two():
    # sum of two unit exponentials
    assert max_eig_density(WishartDims(1, 2)) == ep({(1, 1): 1})
    grid = np.linspace(0.0, 12.0, 40)
    erlang2 = grid * np.exp(-grid)
    assert np.allclose(max_eig_density(WishartDims(1, 2))(grid), erlang2, atol=1e-14)


def test_density_2x2():
    # derivative of the hand-expanded CDF 1 - (x^2+2)e^-x + e^-2x
    assert max_eig_density(WishartDims(2, 2)) == ep(
        {(1, 2): 1, (1, 1): -2, (1, 0): 2, (2, 0): -2}
    )


@pytest.mark.parametrize("dims", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (4, 7)])
def test_density_properties(dims):
    dims = WishartDims(*dims)
    density = max_eig_density(dims)
    cdf = max_eig_cdf(dims)
    grid = np.arange(0.0, 50.0, 0.01)
    assert np.all(density(grid) >= -1e-12)
    # CDF anchored at 0 and 1, with exactly one non-decaying term
    assert cdf(0.0) == pytest.approx(0.0, abs=1e-12)
    assert cdf.coeff(0, 0) == 1
    assert all(k == (0, 0) for k, _ in cdf.items() if k[0] == 0)
    vals = cdf(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert cdf(200.0) == pytest.approx(1.0, abs=1e-12)
    assert cdf.differentiate() == density


# -- weight extraction -----------------------------------------------------------------


def test_extract_single_channel():
    table = extract_coefficients(WishartDims(1, 1))
    assert table.entries == {(1, 0): F(1)}


def test_extract_erlang_two():
    table = extract_coefficients(WishartDims(1, 2))
    assert table.entries == {(1, 1): F(1)}


def test_extract_2x2_frozen():
    # weights derived by hand from the (2,2) density via w = c * m! / n^(m+1)
    table = extract_coefficients(WishartDims(2, 2))
    assert table.entries == {
        (1, 2): F(2), (1, 1): F(-2), (1, 0): F(2), (2, 0): F(-1)
    }
    assert table.total() == 1


def test_extract_keys_match_declared_ranges():
    for a, b in [(1, 3), (2, 4), (3, 5)]:
        table = extract_coefficients(WishartDims(a, b))
        assert sorted(table.entries) == sorted(expected_keys(WishartDims(a, b)))


def test_extract_rejects_foreign_density():
    # a term outside the declared index ranges must be a hard error
    bogus = max_eig_density(WishartDims(2, 2)) + ExpPoly.term(3, 0, F(1, 7))
    with pytest.raises(NonzeroResidualError):
        _extract_from_density(bogus, WishartDims(2, 2))


@given(st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=12)
def test_extraction_invariants(a, extra):
    dims = WishartDims(a, a + extra)
    table = extract_coefficients(dims)
    assert table.total() == 1
    assert table.density() == max_eig_density(dims)


def test_reconstruction_identity_large():
    dims = WishartDims(4, 6)
    table = extract_coefficients(dims)
    assert table.density() == max_eig_density(dims)


def test_extract_6x6_exact():
    # exact coverage at a >= 6, where elimination runs its longest; extraction
    # raises NonzeroResidualError unless the residual vanishes
    table = extract_coefficients(WishartDims(6, 6))
    assert table.total() == 1
    assert set(table.entries) == {(n, m) for n in range(1, 7) for m in range((12 - 2 * n) * n + 1)}
    assert table.density() == max_eig_density(WishartDims(6, 6))


# -- disk cache -------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    table = extract_coefficients(WishartDims(2, 3))
    path = tmp_path / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded == table


def test_cache_version_mismatch(tmp_path):
    table = extract_coefficients(WishartDims(1, 2))
    path = tmp_path / "t.txt"
    save_table(table, path)
    body, checksum = path.read_text().splitlines()
    bad_body = body.replace('"version":1', '"version":999')
    import hashlib

    digest = hashlib.sha256(bad_body.encode()).hexdigest()
    path.write_text(bad_body + "\nsha256:" + digest + "\n")
    with pytest.raises(CacheVersionError):
        load_table(path)


def test_cache_checksum_mismatch(tmp_path):
    table = extract_coefficients(WishartDims(1, 2))
    path = tmp_path / "t.txt"
    save_table(table, path)
    body, checksum = path.read_text().splitlines()
    path.write_text(body.replace('"a":1', '"a":1 ') + "\n" + checksum + "\n")
    with pytest.raises(CacheChecksumError):
        load_table(path)


def test_cache_truncated(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text('{"version":1')
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_cache_entry_ranges_validated(tmp_path):
    table = extract_coefficients(WishartDims(1, 2))
    entries = dict(table.entries)
    entries[(2, 0)] = F(0)  # key outside declared ranges for a=1,b=2
    path = tmp_path / "t.txt"
    save_table(CoeffTable(table.dims, table.norm_const, entries), path)
    with pytest.raises(CacheFormatError):
        load_table(path)


@given(st.fractions(max_denominator=10 ** 6))
def test_fraction_serialization_roundtrip(x):
    from fdrelay.wishart import _frac_str, _parse_frac

    assert _parse_frac(_frac_str(x)) == x
