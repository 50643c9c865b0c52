"""Exact arithmetic over exponential polynomials.

An *exponential polynomial* here is a finite sum

    p(x) = sum_{(k, l)} c_{k,l} * x**l * exp(-k*x)

with non-negative integer exponents ``k`` (decay index) and ``l`` (power),
and exact rational coefficients ``c_{k,l}``.  The largest-eigenvalue CDFs
of small complex Gaussian matrices are determinants of such entries, and
this module computes those determinants exactly; an ``ExpPoly`` itself only
holds terms, lists them and scales them.  No floating point enters this
module.

Canonical form: terms are keyed by ``(k, l)``, zero coefficients are never
stored, and iteration order is k ascending / l descending within each k.

Determinants run on packed integers (Kronecker substitution).
With denominators cleared, the x-polynomial at each decay index k becomes
one Python int, its value at x = 2**W, so that multiplying two polynomials
takes a handful of big-integer products.  The slot width W comes from
rigorous coefficient bounds, and every packed quotient is checked to fit
its slots, so the packing is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Tuple, Union

Key = Tuple[int, int]  # (k, l): the term  coeff * x**l * exp(-k*x)
Scalar = Union[int, Fraction]
Slices = dict[int, list[int]]  # k -> integer coefficients of x**0, x**1, ...
Packed = dict[int, int]  # k -> that x-polynomial's value at x = 2**W


class InexactDivisionError(ArithmeticError):
    """Raised when an exact ring division is requested but does not exist."""


class ExpPoly:
    """Immutable exponential polynomial with exact rational coefficients.

    Values are safe to share across threads; every operation returns a new
    canonical instance.  Negative exponents are a construction error.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, Scalar] | None = None):
        canon: dict[Key, Fraction] = {}
        if terms:
            for (k, l), c in terms.items():
                k = int(k)
                l = int(l)
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
        """Scalar multiple; products of two ExpPolys happen inside ``determinant``."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return ExpPoly._raw({key: v * c for key, v in self._terms.items()} if c else {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "ExpPoly(0)"
        bits = []
        for (k, l), c in self.items():
            t = str(c)
            if l:
                t += f"*x^{l}" if l > 1 else "*x"
            if k:
                t += f"*exp(-{k}x)" if k > 1 else "*exp(-x)"
            bits.append(t)
        return "ExpPoly(" + " + ".join(bits) + ")"

    @classmethod
    def _raw(cls, terms: dict[Key, Fraction]) -> "ExpPoly":
        # internal: terms already canonical (no zeros, valid keys)
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj


def _denominator_lcm(polys: Sequence[ExpPoly]) -> int:
    """LCM of every coefficient denominator in ``polys`` (1 for none)."""
    return math.lcm(*{c.denominator for p in polys for c in p._terms.values()})


def _slices(p: ExpPoly, scale: int) -> Slices:
    """The integer coefficients of ``scale * p``, per decay index;
    ``scale`` must clear every denominator."""
    poly: Slices = {}
    for (k, l), c in p._terms.items():
        coeffs = poly.setdefault(k, [])
        if len(coeffs) <= l:
            coeffs.extend([0] * (l + 1 - len(coeffs)))
        coeffs[l] = c.numerator * (scale // c.denominator)
    return poly


def _from_slices(poly: Slices, scale: int) -> ExpPoly:
    """``poly / scale`` as a canonical ExpPoly."""
    return ExpPoly._raw({
        (k, l): Fraction(c, scale) for k, coeffs in poly.items() for l, c in enumerate(coeffs) if c
    })


def _norms(poly: Slices) -> tuple[int, int]:
    """The L1 norm and the largest magnitude of the coefficients."""
    mags = [abs(c) for coeffs in poly.values() for c in coeffs]
    return sum(mags), max(mags, default=0)


def _slot_width(bound: int) -> int:
    """Narrowest slot width W whose digits hold every integer of magnitude
    at most ``bound``.  Digits are balanced: they lie in [-2**(W-1), 2**(W-1)).
    """
    return bound.bit_length() + 1


def _pack(poly: Slices, w: int) -> Packed:
    """Each slice's x-polynomial evaluated at x = 2**w (Kronecker substitution)."""
    packed: Packed = {}
    for k, coeffs in poly.items():
        v = 0
        for c in reversed(coeffs):
            v = (v << w) + c
        packed[k] = v
    return packed


def _unpack(packed: Packed, w: int) -> Slices:
    """Balanced base-2**w digits of each slice: the inverse of ``_pack`` for
    coefficients of magnitude below 2**(w-1).  Zero slices are dropped."""
    half, mask, base = 1 << (w - 1), (1 << w) - 1, 1 << w
    poly: Slices = {}
    for k, v in packed.items():
        coeffs = []
        while v:
            c = v & mask
            v >>= w
            if c >= half:
                c -= base
                v += 1
            coeffs.append(c)
        if coeffs:
            poly[k] = coeffs
    return poly


def _product(x: Packed, y: Packed, out: Packed | None = None, sign: int = 1) -> Packed:
    """``out + sign * x * y`` of packed polynomials at one slot width: the
    decay indices add, and each pair of slices is one big-integer product.
    May leave zero slices."""
    out = {} if out is None else out
    for k1, v1 in x.items():
        if sign < 0:
            v1 = -v1
        for k2, v2 in y.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + v1 * v2
    return out


def _divide(num: Packed, den: Packed) -> Packed:
    """Exact quotient of packed polynomials: long division over the decay
    index, from the top.

    Each step divides the remainder's top slice by ``den``'s with one
    ``divmod`` and subtracts the quotient slice times ``den``.  Raises
    InexactDivisionError on a nonzero remainder or on a quotient index below
    zero.  This is division of the packed integers; ``_quotient`` proves
    that it is division of the polynomials too.
    """
    top = max(den)
    lead = den[top]
    tail = [(k, v) for k, v in den.items() if k != top]
    rem = {k: v for k, v in num.items() if v}
    quot: Packed = {}
    while rem:
        k = max(rem)
        dk = k - top
        if dk < 0:
            raise InexactDivisionError("leading term not divisible")
        q, r = divmod(rem.pop(k), lead)
        if r:
            raise InexactDivisionError("coefficient not divisible")
        quot[dk] = q
        for k2, v2 in tail:
            key = k2 + dk
            s = rem.get(key, 0) - q * v2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return quot


def _quotient(num: Packed, num_bound: int, den: Packed, den_max: int,
              w: int) -> tuple[Slices, tuple[int, int]]:
    """The polynomial quotient ``num / den``, checked exact, and its norms.

    ``num`` packs at width ``w`` a polynomial whose coefficients have
    magnitude at most ``num_bound``; ``den`` packs one whose largest is
    ``den_max``.  The division leaves ``q * den == num`` at x = 2**w.  When
    the coefficients of both sides, ``num``'s and those of ``q * den`` (at
    most L1(q) * den_max), are below 2**(w-1), their difference is a
    polynomial with coefficients below 2**w that vanishes at 2**w, so it is
    zero: q is the exact quotient.  Otherwise this raises
    InexactDivisionError, so it never returns a wrong quotient, whatever
    ``w``.
    """
    half = 1 << (w - 1)
    if max(num_bound, den_max) >= half:
        raise InexactDivisionError(f"division does not fit slots of {w} bits")
    quot = _unpack(_divide(num, den), w)
    norms = _norms(quot)
    if norms[0] * den_max >= half:
        raise InexactDivisionError(f"quotient does not fit slots of {w} bits")
    return quot, norms


def determinant(matrix: Sequence[Sequence[ExpPoly]]) -> ExpPoly:
    """Exact determinant of a square matrix of ExpPoly entries.

    Scales each row by the LCM of its coefficient denominators, then runs
    fraction-free Bareiss elimination on integer coefficients, in
    Z[x, e^{-x}]: each step's update ``a_ij * piv - a_ip * a_pj`` divides
    exactly by the previous pivot (Sylvester's identity).  Every step packs
    its entries at one slot width W, so that each update is a few
    big-integer products and the division is long division over the decay
    index (``_divide``).  W covers both sides of every division: the update,
    whose coefficients are at most L1(a_ij) * max|piv| + L1(a_ip) * max|a_pj|,
    and the quotient times the pivot, where the quotient is a minor of the
    scaled matrix and so has an L1 norm at most the product of its rows' L1
    sums (Hadamard).  ``_quotient`` checks each quotient against W, so a
    wrong bound raises InexactDivisionError instead of returning a wrong
    determinant.  The result is divided by the product of the row scales
    once, at the end.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for entry in row:
            if not isinstance(entry, ExpPoly):
                raise TypeError("matrix entries must be ExpPoly")
    scales = [_denominator_lcm(row) for row in matrix]
    a = [[_slices(e, s) for e in row] for row, s in zip(matrix, scales)]
    norms = [[_norms(e) for e in row] for row in a]
    # at least 1 each, so that the width also holds the previous pivot
    row_l1 = [max(1, sum(l1 for l1, _ in row)) for row in norms]
    sign = 1
    prev: Slices = {0: [1]}
    prev_max = 1
    for p in range(n - 1):
        pivot_row = next((i for i in range(p, n) if a[i][p]), None)
        if pivot_row is None:
            return ExpPoly()
        if pivot_row != p:
            for rows in (a, norms, row_l1):
                rows[p], rows[pivot_row] = rows[pivot_row], rows[p]
            sign = -sign
        piv_max = norms[p][p][1]
        cross_bound = max(
            norms[i][j][0] * piv_max + norms[i][p][0] * norms[p][j][1]
            for i in range(p + 1, n) for j in range(p + 1, n)
        )
        minor_l1 = math.prod(row_l1[:p + 1]) * max(row_l1[p + 1:])
        w = _slot_width(max(cross_bound, minor_l1 * prev_max))
        packed = [[_pack(e, w) for e in row[p:]] for row in a[p:]]
        den = _pack(prev, w)
        piv, pivot_row_packed = packed[0][0], packed[0]
        for i in range(1, n - p):
            row = packed[i]
            for j in range(1, n - p):
                cross = _product(row[j], piv)
                _product(row[0], pivot_row_packed[j], cross, -1)
                a[p + i][p + j], norms[p + i][p + j] = _quotient(
                    cross, cross_bound, den, prev_max, w)
        prev, prev_max = a[p][p], piv_max
    return _from_slices(a[n - 1][n - 1], sign * math.prod(scales))
