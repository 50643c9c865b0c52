"""Largest-eigenvalue laws: exact CDFs, weight extraction, disk cache."""

import errno
import hashlib
import itertools
import json
import math
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from exppoly_eval import evaluate
from exppoly_ref import ExpPoly, gram_entries, lower_gamma_poly, max_eig_cdf, slices
from fdrelay import wishart
from fdrelay.outage import growth_taylor
from fdrelay.wishart import (
    CacheChecksumError,
    CacheFormatError,
    CacheVersionError,
    CoeffTable,
    NonzeroResidualError,
    WishartDims,
    cdf_matrix,
    expected_keys,
    extract_coefficients,
    load_table,
    normalization_constant,
    save_table,
)
from mixture import mixture_cdf, mixture_density


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


def test_cdf_matrix_is_the_kang_alouini_matrix_on_integers():
    # every entry's coefficients are integers, and the Hankel rows share 2a - 1 entries
    for a, b in [(1, 1), (1, 4), (2, 3), (3, 3), (4, 7), (7, 7)]:
        dims = WishartDims(a, b)
        assert cdf_matrix(dims) == [[slices(e) for e in row] for row in gram_entries(dims)]
        assert len({id(e) for row in cdf_matrix(dims) for e in row}) == 2 * a - 1


def test_lower_gamma_poly_matches_quadrature():
    p = lower_gamma_poly(3)
    for lam in (0.3, 1.0, 2.5, 7.0):
        ref, err = integrate.quad(lambda t: t ** 2 * math.exp(-t), 0.0, lam)
        assert evaluate(p, lam) == pytest.approx(ref, rel=1e-10, abs=max(err, 1e-13))


# -- densities and CDFs ----------------------------------------------------------------


def density(dims):
    """The density of the extracted table's mixture."""
    return mixture_density(extract_coefficients(dims).entries)


def test_density_single_channel():
    assert max_eig_cdf(WishartDims(1, 1)) == ep({(0, 0): 1, (1, 0): -1})
    assert density(WishartDims(1, 1)) == ep({(1, 0): 1})


def test_density_erlang_two():
    # sum of two unit exponentials
    assert max_eig_cdf(WishartDims(1, 2)) == ep({(0, 0): 1, (1, 0): -1, (1, 1): -1})
    assert density(WishartDims(1, 2)) == ep({(1, 1): 1})
    grid = np.linspace(0.0, 12.0, 40)
    erlang2 = grid * np.exp(-grid)
    assert np.allclose(evaluate(density(WishartDims(1, 2)), grid), erlang2, atol=1e-14)


def test_density_2x2():
    # the hand-expanded CDF 1 - (x^2+2)e^-x + e^-2x and its derivative
    assert max_eig_cdf(WishartDims(2, 2)) == ep({(0, 0): 1, (1, 2): -1, (1, 0): -2, (2, 0): 1})
    assert density(WishartDims(2, 2)) == ep({(1, 2): 1, (1, 1): -2, (1, 0): 2, (2, 0): -2})


@pytest.mark.parametrize("dims", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (4, 7)])
def test_density_properties(dims):
    dims = WishartDims(*dims)
    table = extract_coefficients(dims)
    cdf = max_eig_cdf(dims)
    grid = np.arange(0.0, 50.0, 0.01)
    assert np.all(evaluate(mixture_density(table.entries), grid) >= -1e-12)
    # CDF anchored at 0 and 1, with exactly one non-decaying term
    assert evaluate(cdf, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dict(cdf.items()).get((0, 0), 0) == 1
    assert all(k == (0, 0) for k, _ in cdf.items() if k[0] == 0)
    vals = evaluate(cdf, grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert evaluate(cdf, 200.0) == pytest.approx(1.0, abs=1e-12)
    assert mixture_cdf(table.entries) == cdf


# -- weight extraction -----------------------------------------------------------------


def test_extract_single_channel():
    table = extract_coefficients(WishartDims(1, 1))
    assert table.entries == {(1, 0): F(1)}


def test_extract_erlang_two():
    table = extract_coefficients(WishartDims(1, 2))
    assert table.entries == {(1, 1): F(1)}


def test_extract_2x2_frozen():
    # weights derived by hand from the (2,2) CDF via w[n, m] = S[n, m] - S[n, m+1]
    table = extract_coefficients(WishartDims(2, 2))
    assert table.entries == {
        (1, 2): F(2), (1, 1): F(-2), (1, 0): F(2), (2, 0): F(-1)
    }
    assert table.total() == 1


def test_extract_keys_match_declared_ranges():
    for a, b in [(1, 3), (2, 4), (3, 5)]:
        table = extract_coefficients(WishartDims(a, b))
        assert sorted(table.entries) == sorted(expected_keys(WishartDims(a, b)))


def test_extract_rejects_foreign_density(monkeypatch):
    # each of the extraction's three checks on the determinant is a hard
    # error; at these dims the CDF's denominator is 1, so each foreign
    # determinant is its CDF
    cdf_22, cdf_12 = (dict(max_eig_cdf(WishartDims(*d)).items()) for d in ((2, 2), (1, 2)))
    foreign = [
        # a term past the declared decay indices
        ((2, 2), {**cdf_22, (3, 0): 1}, "outside the mixture"),
        # a term past the declared powers at n = 1
        ((1, 2), {**cdf_12, (1, 2): -1}, "outside the mixture"),
        # 2 P(2, x) - P(1, x): the 1x2 law has no component m = 0
        ((1, 2), {(0, 0): 1, (1, 0): -1, (1, 1): -2}, "below m = 1"),
        # F(0) = 1
        ((1, 2), {**cdf_12, (0, 0): 2}, "not 0 at x = 0"),
    ]
    for dims, terms, match in foreign:
        assert normalization_constant(WishartDims(*dims)) == 1
        monkeypatch.setattr(wishart, "determinant", lambda _, det=slices(ep(terms)): det)
        with pytest.raises(NonzeroResidualError, match=match):
            extract_coefficients(WishartDims(*dims))


@given(st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=12)
def test_extraction_invariants(a, extra):
    dims = WishartDims(a, a + extra)
    table = extract_coefficients(dims)
    assert table.total() == 1
    assert mixture_cdf(table.entries) == max_eig_cdf(dims)


def test_reconstruction_identity_large():
    dims = WishartDims(4, 6)
    table = extract_coefficients(dims)
    assert mixture_cdf(table.entries) == max_eig_cdf(dims)


def test_extract_6x6_exact():
    # exact coverage at a >= 6, where elimination runs its longest; extraction
    # raises NonzeroResidualError unless the CDF is exactly a mixture
    table = extract_coefficients(WishartDims(6, 6))
    assert table.total() == 1
    assert set(table.entries) == {(n, m) for n in range(1, 7) for m in range((12 - 2 * n) * n + 1)}
    assert mixture_cdf(table.entries) == max_eig_cdf(WishartDims(6, 6))


#: sha256 of the ``save_table`` file for every table up to 8x8, and 9x9.
#: Those of 1x8-4x8, 5x6, 5x8, 6x8 and 7x8 were pinned from elimination that
#: packed each step at its own width; the rest from elimination on term
#: dicts (rational, then integer), before packed integers.
GOLDEN_TABLE_SHA256 = {
    (1, 1): "7cbfa90b894bbddf37d92e3158e1057ccf16c1dfbd33d5e06344fa9df0e0cdff",
    (1, 2): "42b61a2504261c16101146faab04b15cb1ec717bc7e83b8e21b41731ae7ef5e3",
    (1, 3): "3270375646d691096993fb383d7227d918d3ea8ba2d90d94dd3fdb65cde40645",
    (1, 4): "7fa44665ee46b2bc57411df9493411f1446c879868622f7d9cd6c59198f2fe0f",
    (1, 5): "378ac50e774a1bc9c8e304edbfe92520573bd45540e9e128b7e739399700e121",
    (1, 6): "25ddfd54282cf188bddbc7427bb95bf62473a903c10fdae66ffdd06ad99251c4",
    (1, 7): "67c7bc8da34d8394a21d21e6bc9df5e18f8a6865ee3fbdd5dd1ba3ae2d71a47d",
    (1, 8): "a464b361c907bd8a8f2c44df50190c4c02f2f7c0e46e04c57ded1f47ea95e894",
    (2, 2): "2169e8dcebc5e725c4d20319c0e55ec484032f5ebfc7a79af2fcb8e4ee2a57b1",
    (2, 3): "9a637977a9c523f732217ad3b5331290f0cddcc1b3fee51a5c1b783522bf6d4b",
    (2, 4): "2b139e3b07e3e1d8468df4ea5b3101f3fb98273b40737604c62e3231cabb2a99",
    (2, 5): "1e9e7a5af773881efa051710168bfaea7e04b64ae083e6ec2c363e29948d3bd4",
    (2, 6): "bd7dc174ddd965a3472b0f9cf32027a9edb03d8ae06510eccccc709697ef54c1",
    (2, 7): "2de126abb8ea1c61c236a29f78e520c4f4c25deff25a060e96234f4bde29639d",
    (2, 8): "fae4c4b89343891534aefef2061600dcac00a5a34d930e6bd6859b89b02e8a2d",
    (3, 3): "e585fa1fc412116304ef45116e5986d4df673ee09e37830459dd1249ab043055",
    (3, 4): "c2f0924f85e9fb7d5398fb3f1b6e110dc184c159d6519c26061bcbd7d7c8bf0d",
    (3, 5): "f25eeb18555e719141440570a1b1adc25b6316df4ea94c504b56d37a73d98b9c",
    (3, 6): "6663ecaf35cdfc94cf3beb06b079b51764712a1d9b24eaae98934deef6962c3f",
    (3, 7): "e2a8152f27fb808a0876a874ebc507ad78adbfce17b4316833b1f73e1f513b18",
    (3, 8): "88b7662bf6479e22b5b47aadb4e03b7049864056b9de5597d85d001fb27f206d",
    (4, 4): "ac45d589a17263c2d885afc05ad2613c65a666bda0ad42317656db56e7fe24ad",
    (4, 5): "d7fa69c508dc4f7c715f6f1441d358a9ff4d93a5bdd002dec1145700fc02e8e8",
    (4, 6): "bdf93f6c3e90ee01efe76cb00ba6c87b2b5dd9d9218575a3bd915f9703a6837e",
    (4, 7): "c971706a82f0cfe679ccbcb526ff464962cc8de4e4b0d11e5e60bec3ad4123e6",
    (4, 8): "bd0b363031f222849c8591b90f4a7ad96ad48c38857d4af4617873ccd41f4f30",
    (5, 5): "74e92cb5adc00dd0ffe59dedc1e42ec90167979a41dc3a7ce25eaf290e407947",
    (5, 6): "189133c2cf4c01cd1497c3d795b89192d9c8b17305eaa13064bc8866df1726c7",
    (5, 7): "78e9e39cccf2a76e97e1ae551f05671e735f6d175ef64aaac75d5f40ce89e05a",
    (5, 8): "303a766b64d3538fb708da291ae8bfb61982a512f27919908ce8c4bff7a808b1",
    (6, 6): "c05489f5536793fdb57828500d42434bad3735a3c13136424c8c99d696b78f9c",
    (6, 7): "9326f2a13051523ee3379c29d3c243f0bc81a79c39344e17f68c4e33bced8d51",
    (6, 8): "68e00fa5c050567ff26e5ced5222fd2d6f6f5eef18e9b2f3fd407bf81317e648",
    (7, 7): "fe290b7fa7f8f7e70ade24af4fb784ba4a0dfd6928905edebd1b863ed1028669",
    (7, 8): "fca5b0b19bde004f567026a55fa5ead077fc7ef1f8c77a6f4715ae7238bb7ba8",
    (8, 8): "ec276caef3f032a8aea0202cb438c0601c00bc65f2efe0663b2417b524f1d6f4",
    (9, 9): "efa1e04fbb059468f60f5bcbc070d804422428c401c08efa3a3920b4fdb8c951",
}


def test_saved_table_bytes_are_pinned(tmp_path):
    for (a, b), digest in GOLDEN_TABLE_SHA256.items():
        path = tmp_path / f"coeff_a{a}_b{b}.txt"
        save_table(extract_coefficients(WishartDims(a, b)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (a, b)


# -- Taylor coefficients at 0 -------------------------------------------------------------


def cauchy_leading_coefficient(dims):
    """t_ab = K_ab det[1 / (b - a + i + j - 1)], the small-x limit of the
    CDF's determinant: gamma(s, x) ~ x^s / s.  The Cauchy matrix
    1 / (x_i + y_j), x_i = i and y_j = j + b - a - 1, has determinant
    prod_{i<j} (x_j - x_i)(y_j - y_i) / prod_{i,j} (x_i + y_j)."""
    a, shift = dims.a, dims.b - dims.a - 1
    num = math.prod((j - i) ** 2 for i in range(1, a + 1) for j in range(i + 1, a + 1))
    den = math.prod(i + j + shift for i in range(1, a + 1) for j in range(1, a + 1))
    return normalization_constant(dims) * F(num, den)


def growth(table, order):
    """g_0 .. g_order of G = e^{ax} F, exactly."""
    return [F(num, den) for num, den in itertools.islice(growth_taylor(table), order + 1)]


def test_growth_series_matches_the_cauchy_determinant():
    for a in range(1, 6):
        for b in range(a, 8):
            dims = WishartDims(a, b)
            g = growth(extract_coefficients(dims), a * b + 1)
            assert not any(g[:a * b]), dims
            assert g[a * b] == cauchy_leading_coefficient(dims), dims
    assert cauchy_leading_coefficient(WishartDims(2, 3)) == F(1, 144)
    assert cauchy_leading_coefficient(WishartDims(3, 3)) == F(1, 8640)
    assert cauchy_leading_coefficient(WishartDims(4, 7)) == F(1, 22299538725273600000)


def fraction_growth(table, order):
    """g_0 .. g_order in Fraction arithmetic, term by term: the CDF's Taylor
    coefficients from the density, times those of e^{ax}."""
    density = [F(0)] * order  # density[i] = [x^i] f
    for (n, m), w in table.entries.items():
        c = w * F(n ** (m + 1), math.factorial(m))
        for i in range(order - m):
            density[m + i] += c * F((-n) ** i, math.factorial(i))
    cdf = [F(0)] + [d / (i + 1) for i, d in enumerate(density)]
    a = table.dims.a
    return [sum(cdf[i] * F(a ** (j - i), math.factorial(j - i)) for i in range(j + 1))
            for j in range(order + 1)]


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 3), (4, 5), (5, 7)])
def test_growth_series_matches_fraction_arithmetic(dims):
    table = extract_coefficients(WishartDims(*dims))
    order = dims[0] * dims[1] + 20
    assert growth(table, order) == fraction_growth(table, order)


def test_growth_series_single_channel():
    # 1 - e^{-x} gives G = e^x - 1; the Erlang-2 CDF 1 - e^{-x} (1 + x) gives e^x - 1 - x
    assert growth(extract_coefficients(WishartDims(1, 1)), 3) == [0, 1, F(1, 2), F(1, 6)]
    assert growth(extract_coefficients(WishartDims(1, 2)), 4) == [0, 0, F(1, 2), F(1, 6),
                                                                  F(1, 24)]


# -- disk cache -------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    table = extract_coefficients(WishartDims(2, 3))
    path = tmp_path / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded == table


def _half_write_then_full_disk(self, data, encoding=None):
    with open(self, "w", encoding=encoding) as fh:
        fh.write(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_save_keeps_old_table(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "coeff_a2_b3.txt"
    save_table(extract_coefficients(WishartDims(2, 3)), path)
    before = path.read_bytes()
    if fail_at == "write":
        monkeypatch.setattr(wishart.Path, "write_text", _half_write_then_full_disk)
    else:
        def no_replace(src, dst):
            raise OSError(errno.EXDEV, "cross-device link")
        monkeypatch.setattr(wishart.os, "replace", no_replace)
    with pytest.raises(OSError):
        save_table(extract_coefficients(WishartDims(3, 3)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


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


def test_cache_not_utf8(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xff\n")
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_cache_payload_not_an_object(tmp_path):
    # the checksum holds, but the JSON line is a list
    path = tmp_path / "t.txt"
    path.write_text("[1]\nsha256:" + hashlib.sha256(b"[1]").hexdigest() + "\n")
    with pytest.raises(CacheFormatError, match="not a JSON object"):
        load_table(path)


@pytest.mark.parametrize("field, value", [("a", 2.5), ("D", "1/0"), ("D", 5), ("n", float("inf"))])
def test_cache_malformed_fields(tmp_path, field, value):
    # the checksum holds, so only the field checks stand between these and a
    # traceback; each must read as an unreadable cache
    path = tmp_path / "t.txt"
    save_table(extract_coefficients(WishartDims(2, 3)), path)
    payload = json.loads(path.read_text().splitlines()[0])
    (payload if field == "a" else payload["entries"][0])[field] = value
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    path.write_text(body + "\nsha256:" + hashlib.sha256(body.encode()).hexdigest() + "\n")
    with pytest.raises(CacheFormatError, match="malformed fields"):
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
