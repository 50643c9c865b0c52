"""Largest-eigenvalue law of a complex central Wishart matrix, exactly.

For an a x b (a = min dimension, b = max dimension) complex Gaussian channel
with unit-variance entries, the largest eigenvalue of the Gram matrix has a
density expressible as a signed mixture of Erlang-type terms

    f(x) = sum_{n=1..a} sum_{m=|b-a|..(a+b)n-2n^2}  w[n,m] * n^{m+1}/m! * x^m * e^{-n x}

with exact rational weights ``w[n, m]`` that sum to one.  This module builds
the CDF symbolically (Kang & Alouini: a determinant of a matrix of lower
incomplete gamma functions, whose coefficients are all integers), and reads
each weight straight off two adjacent integer coefficients of the
determinant; there is no fitting and no floating point, and each weight is
the one ``Fraction`` built for it.

The weight table is the single data object the closed-form outage
expressions consume; ``save_table`` keeps it as lossless text for the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path
from typing import Dict, Tuple

from .exppoly import Slices, determinant

Key = Tuple[int, int]  # (n, m): the weight of the component n^{m+1}/m! x^m e^{-n x}

ALGORITHM_VERSION = "exact-extraction-v1"
CACHE_VERSION = 1


class NonzeroResidualError(RuntimeError):
    """The exact CDF is not a mixture of the declared Erlang components.

    Raised when the CDF has a term outside the declared index ranges, a
    nonzero weight below m = b - a, F(0) other than 0 or F(inf) other than 1.
    This is a hard failure: it means the index bookkeeping or the symbolic
    algebra is wrong, never a numerical artefact.
    """


class CacheFormatError(ValueError):
    """Cache file is malformed or truncated."""


class CacheVersionError(CacheFormatError):
    """Cache file was written by an incompatible format version."""


class CacheChecksumError(CacheFormatError):
    """Cache file content does not match its checksum line."""


@dataclass(frozen=True)
class WishartDims:
    """Dimensions of the underlying Gaussian matrix: a = min, b = max."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError(f"min dimension must be >= 1, got a={self.a}")
        if self.b < self.a:
            raise ValueError(f"need b >= a, got a={self.a}, b={self.b}")

    @classmethod
    def of_matrix(cls, n1: int, n2: int) -> "WishartDims":
        """Dims for an n1 x n2 channel matrix (order-insensitive)."""
        return cls(min(n1, n2), max(n1, n2))


def normalization_constant(dims: WishartDims) -> Fraction:
    """Exact 1 / prod_{i=1..a} (a-i)! (b-i)!."""
    return Fraction(1, math.prod(factorial(dims.a - i) * factorial(dims.b - i)
                                 for i in range(1, dims.a + 1)))


def _lower_gamma_slices(s: int) -> Slices:
    """The lower incomplete gamma of integer shape s >= 1 on integers:
    (s-1)! - e^{-x} sum_{j<s} (s-1)!/j! x^j."""
    coeffs = [0] * s
    c = 1  # (s-1)!/j!, from j = s - 1 down
    for j in range(s - 1, -1, -1):
        coeffs[j] = -c
        c *= j
    return {0: [-coeffs[0]], 1: coeffs}


def cdf_matrix(dims: WishartDims) -> list[list[Slices]]:
    """The a x a matrix whose determinant is the CDF over ``normalization_constant``.

    Entry (i, j), 1-based, is the lower incomplete gamma of shape
    b - a + i + j - 1.  The matrix is Hankel, so it is built from 2a - 1
    distinct entries, which its rows share.
    """
    a, b = dims.a, dims.b
    gammas = [_lower_gamma_slices(b - a + s) for s in range(1, 2 * a)]
    return [gammas[i:i + a] for i in range(a)]


@dataclass(frozen=True)
class CoeffTable:
    """Signed Erlang-mixture weights of a largest-eigenvalue law.

    ``entries[(n, m)]`` is the weight of the component with density
    n^{m+1}/m! * x^m * e^{-n x}.  Keys cover exactly the ranges
    n = 1..a, m = b-a..(a+b)n-2n^2 (zero weights included), and the weights
    sum to one exactly.  Immutable after construction.
    """

    dims: WishartDims
    norm_const: Fraction
    entries: Dict[Key, Fraction]
    provenance: str = ALGORITHM_VERSION

    def total(self) -> Fraction:
        """Exact sum of all weights (one for a valid table)."""
        return sum(self.entries.values(), Fraction(0))


def expected_keys(dims: WishartDims) -> list[Key]:
    """Index ranges of the mixture, in extraction order (n up, m down)."""
    a, b = dims.a, dims.b
    keys = []
    for n in range(1, a + 1):
        for m in range((a + b - 2 * n) * n, b - a - 1, -1):
            keys.append((n, m))
    return keys


def extract_coefficients(dims: WishartDims) -> CoeffTable:
    """Compute the exact mixture weights for the given dimensions.

    Component (n, m) has the CDF P(m+1, n x) = 1 - e^{-n x} sum_{j<=m} (n x)^j / j!,
    so the CDF's coefficient of x^j e^{-n x} is c[n, j] = -n^j / j! * S[n, j]
    with the tail sums S[n, j] = sum_{m>=j} w[n, m].  The determinant gives
    c[n, j] = d[n, j] / D with integers d[n, j] and D = prod (a-i)!(b-i)!, so
    each weight w[n, m] = S[n, m] - S[n, m+1] is the one fraction
    m! ((m+1) d[n, m+1] - n d[n, m]) / (D n^(m+1)).  Raises NonzeroResidualError
    on a term outside the declared ranges, unless F(0) = sum_n d[n, 0] / D is 0,
    unless F(inf) = d[0, 0] / D is 1, and on a nonzero weight below m = b - a.
    With F(0) = 0 and F(inf) = 1 the weights sum to exactly one.
    """
    a, b = dims.a, dims.b
    det = determinant(cdf_matrix(dims))
    for n, coeffs in det.items():
        top = (a + b - 2 * n) * n  # 0 at n = 0: only F's constant term
        if not 0 <= n <= a or any(coeffs[top + 1:]):
            j = max((j for j, c in enumerate(coeffs) if c), default=0)
            raise NonzeroResidualError(
                f"CDF term x^{j} e^(-{n}x) is outside the mixture for dims a={a}, b={b}")
    if sum(coeffs[0] for coeffs in det.values()):
        raise NonzeroResidualError(f"CDF is not 0 at x = 0 for dims a={a}, b={b}")
    norm = normalization_constant(dims)
    if det.get(0) != [norm.denominator]:
        raise NonzeroResidualError(f"CDF does not tend to 1 for dims a={a}, b={b}")
    entries: Dict[Key, Fraction] = {}
    for n in range(1, a + 1):
        top = (a + b - 2 * n) * n
        d = det.get(n, []) + [0] * (top + 2)  # d[n, j] = 0 past the slice
        for m in range(top, -1, -1):
            num = factorial(m) * ((m + 1) * d[m + 1] - n * d[m])
            if m >= b - a:
                entries[n, m] = Fraction(num, norm.denominator * n ** (m + 1))
            elif num:
                raise NonzeroResidualError(
                    f"nonzero weight below m = {b - a} at n = {n} for dims a={a}, b={b}")
    return CoeffTable(dims=dims, norm_const=norm, entries=entries)


@lru_cache(maxsize=None)
def cached_table(dims: WishartDims) -> CoeffTable:
    """Process-wide memoised extract_coefficients."""
    return extract_coefficients(dims)


# -- lossless text cache ----------------------------------------------------
#
# One JSON line with decimal num/den strings, then one checksum line:
#
#   {"version": 1, "a": 2, "b": 3, "K_ab": "1/2", "entries": [...], ...}
#   sha256:<hex digest of the JSON line, utf-8>


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(s: str) -> Fraction:
    num, _, den = s.partition("/")
    if not den:
        raise CacheFormatError(f"bad rational literal {s!r}")
    return Fraction(int(num), int(den))


def save_table(table: CoeffTable, path: str | Path) -> None:
    """Write a table to disk losslessly (decimal rationals + checksum).

    The file is replaced atomically, so concurrent runs sharing a cache
    directory never read half a table.
    """
    payload = {
        "version": CACHE_VERSION,
        "a": table.dims.a,
        "b": table.dims.b,
        "K_ab": _frac_str(table.norm_const),
        "entries": [
            {"n": n, "m": m, "D": _frac_str(w)}
            for (n, m), w in sorted(table.entries.items(), key=lambda e: (e[0][0], -e[0][1]))
        ],
        "provenance": table.provenance,
    }
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_text(body + "\n" + "sha256:" + digest + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already unless the write or rename failed


def load_table(path: str | Path) -> CoeffTable:
    """Read a table back; raises CacheFormatError on any unreadable content."""
    text = Path(path).read_text(encoding="utf-8", errors="replace")  # bad bytes fail a check
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[1].startswith("sha256:"):
        raise CacheFormatError(f"{path}: expected one payload line and one checksum line")
    body, checksum_line = lines
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if checksum_line != "sha256:" + digest:
        raise CacheChecksumError(f"{path}: checksum mismatch")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CacheFormatError(f"{path}: invalid payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheFormatError(f"{path}: payload is not a JSON object")
    version = payload.get("version")
    if version != CACHE_VERSION:
        raise CacheVersionError(f"{path}: version {version!r}, expected {CACHE_VERSION}")
    try:
        dims = WishartDims(payload["a"], payload["b"])
        norm = _parse_frac(payload["K_ab"])
        entries = {
            (int(e["n"]), int(e["m"])): _parse_frac(e["D"]) for e in payload["entries"]
        }
        provenance = payload.get("provenance", "")
        keys_match = sorted(entries) == sorted(expected_keys(dims))
    except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise CacheFormatError(f"{path}: malformed fields: {exc}") from exc
    if not keys_match:
        raise CacheFormatError(f"{path}: entry index set does not match dims")
    return CoeffTable(dims=dims, norm_const=norm, entries=entries, provenance=provenance)
