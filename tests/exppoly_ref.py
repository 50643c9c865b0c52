"""Test-side exponential polynomials with rational coefficients.

The library holds exponential polynomials only as integer slices inside
``exppoly.determinant`` and the weight extraction. Tests state laws, build
matrices and compare results as ``ExpPoly`` values: canonical term dicts
with ``Fraction`` coefficients. ``det`` runs production's determinant on an
ExpPoly matrix by scaling each row to integers, and ``max_eig_cdf`` is the
Kang-Alouini CDF built here from ``lower_gamma_poly`` entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping, Sequence, Tuple, Union

from fdrelay.exppoly import Slices, determinant
from fdrelay.wishart import WishartDims, normalization_constant

Key = Tuple[int, int]  # (k, l): the term  coeff * x**l * exp(-k*x)
Scalar = Union[int, Fraction]


class ExpPoly:
    """Immutable exponential polynomial with exact rational coefficients.

    Canonical form: terms are keyed by ``(k, l)``, zero coefficients are
    never stored, and iteration order is k ascending / l descending within
    each k.  Negative exponents are a construction error.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, Scalar] | None = None):
        canon: dict[Key, Fraction] = {}
        for (k, l), c in (terms or {}).items():
            k, l = int(k), int(l)
            if k < 0 or l < 0:
                raise ValueError(f"negative exponent in term key ({k}, {l})")
            c = Fraction(c)
            if c:
                canon[(k, l)] = c
        self._terms = canon

    def items(self) -> Iterator[tuple[Key, Fraction]]:
        """Terms in canonical order: k ascending, l descending within k."""
        for key in sorted(self._terms, key=lambda kl: (kl[0], -kl[1])):
            yield key, self._terms[key]

    def __mul__(self, other: Scalar) -> "ExpPoly":
        """Scalar multiple; products of two ExpPolys are ``det_reference.mul``."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return ExpPoly({key: v * other for key, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return "ExpPoly(" + " + ".join(
            f"{c}*x^{l}*exp(-{k}x)" for (k, l), c in self.items()) + ")"


def slices(p: ExpPoly, scale: int = 1) -> Slices:
    """The integer coefficients of ``scale * p`` per decay index; ``scale``
    must clear every denominator."""
    poly: Slices = {}
    for (k, l), c in p.items():
        c *= scale
        assert c.denominator == 1, "scale leaves a denominator"
        coeffs = poly.setdefault(k, [0] * (l + 1))  # highest power comes first
        coeffs[l] = c.numerator
    return poly


def from_slices(poly: Slices, scale: int = 1) -> ExpPoly:
    """``poly / scale`` as an ExpPoly."""
    return ExpPoly({(k, l): Fraction(c, scale)
                    for k, coeffs in poly.items() for l, c in enumerate(coeffs)})


def det(matrix: Sequence[Sequence[ExpPoly]]) -> ExpPoly:
    """Production's determinant of an ExpPoly matrix: each row is scaled by
    the LCM of its denominators, and the result divided by their product."""
    scales = [math.lcm(*(c.denominator for p in row for _, c in p.items())) for row in matrix]
    rows = [[slices(p, s) for p in row] for row, s in zip(matrix, scales)]
    return from_slices(determinant(rows), math.prod(scales))


def lower_gamma_poly(s: int) -> ExpPoly:
    """Lower incomplete gamma with integer shape s >= 1:
    (s-1)! * (1 - e^{-x} * sum_{j<s} x^j / j!)."""
    if s < 1:
        raise ValueError(f"shape must be >= 1, got {s}")
    fs = factorial(s - 1)
    return ExpPoly({(0, 0): fs, **{(1, j): Fraction(-fs, factorial(j)) for j in range(s)}})


def gram_entries(dims: WishartDims) -> list[list[ExpPoly]]:
    """The Kang-Alouini matrix: entry (i, j), 1-based, is the lower
    incomplete gamma of shape b - a + i + j - 1."""
    a, b = dims.a, dims.b
    return [[lower_gamma_poly(b - a + i + j - 1) for j in range(1, a + 1)]
            for i in range(1, a + 1)]


def max_eig_cdf(dims: WishartDims) -> ExpPoly:
    """Exact CDF of the largest eigenvalue, from this module's matrix."""
    return det(gram_entries(dims)) * normalization_constant(dims)
