"""Exact determinants of matrices of exponential polynomials.

An *exponential polynomial* here is a finite sum

    p(x) = sum_{(k, l)} c_{k,l} * x**l * exp(-k*x)

with non-negative integer exponents ``k`` (decay index) and ``l`` (power),
and integer coefficients ``c_{k,l}``.  It is held as *slices*: a dict from
each decay index k to the list of its x-polynomial's coefficients, lowest
power first.  The largest-eigenvalue CDFs of small complex Gaussian
matrices are determinants of such entries, and this module computes those
determinants exactly, on integers throughout.  No floating point and no
``Fraction`` enters this module.

Determinants run on packed integers (Kronecker substitution): the
x-polynomial at each decay index k becomes one Python int, its value at
x = 2**W, so that multiplying two polynomials takes a handful of
big-integer products.  With y = e^{-x}, packing is the ring homomorphism
Z[x][y] -> Z[y] that sends x to 2**W: it keeps sums and products for any W.
So if a = b * q in Z[x][y], the packed a is the packed b times the packed
q, and as Z[y] has no zero divisors, dividing by a packed b that is not
zero gives the packed q.  Fraction-free elimination, whose divisions are
all exact in Z[x][y], therefore ends on the packed determinant.  W only
has to let the minors unpack: digits are balanced, so every coefficient of
magnitude below 2**(W-1) reads back, and below that packing is injective,
so a pivot is zero exactly when it packs to zero.  No coefficient of a
minor exceeds the permanent of its entries' L1 norms, which is at most the
product of the whole matrix's row sums of those norms (each taken as at
least 1); W is the width of that product.
"""

from __future__ import annotations

import math
from typing import Sequence

Slices = dict[int, list[int]]  # k -> integer coefficients of x**0, x**1, ...
Packed = dict[int, int]  # k -> that x-polynomial's value at x = 2**W


class InexactDivisionError(ArithmeticError):
    """Raised when an exact ring division is requested but does not exist."""


def _slot_width(bound: int) -> int:
    """Narrowest slot width W whose digits hold every integer of magnitude
    at most ``bound``.  Digits are balanced: they lie in [-2**(W-1), 2**(W-1)).
    """
    return bound.bit_length() + 1


def _pack(poly: Slices, w: int) -> Packed:
    """Each nonzero slice's x-polynomial evaluated at x = 2**w (Kronecker
    substitution)."""
    packed: Packed = {}
    for k, coeffs in poly.items():
        v = 0
        for c in reversed(coeffs):
            v = (v << w) + c
        if v:
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
    zero; ``determinant`` divides only where the quotient exists.  Leaves
    no zero slices.
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


def determinant(matrix: Sequence[Sequence[Slices]]) -> Slices:
    """Exact determinant of a square matrix of integer exponential polynomials.

    Runs fraction-free Bareiss elimination: each step's update
    ``a_ij * piv - a_ip * a_pj`` divides exactly by the previous pivot
    (Sylvester's identity).  Every entry is packed once, at the one width
    the module docstring proves, so that each update is a few big-integer
    products and each division is long division over the decay index
    (``_divide``); only the last pivot is unpacked.  The result is
    canonical: no zero slices and no trailing zeros; zero is ``{}``.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    row_coeffs = [[c for e in row for coeffs in e.values() for c in coeffs] for row in matrix]
    if not all(isinstance(c, int) for cs in row_coeffs for c in cs):
        raise TypeError("matrix entries must have integer coefficients")
    bound = math.prod(max(1, sum(map(abs, cs))) for cs in row_coeffs)
    w = _slot_width(bound)
    m = [[_pack(e, w) for e in row] for row in matrix]
    sign = 1
    prev: Packed = {0: 1}
    for p in range(n - 1):
        pivot_row = next((i for i in range(p, n) if m[i][p]), None)
        if pivot_row is None:
            return {}
        if pivot_row != p:
            m[p], m[pivot_row] = m[pivot_row], m[p]
            sign = -sign
        piv, pivot_packed = m[p][p], m[p]
        for row in m[p + 1:]:
            for j in range(p + 1, n):
                num = _product(row[p], pivot_packed[j], _product(row[j], piv), -1)
                row[j] = _divide(num, prev)
        prev = piv
    return _unpack({k: sign * v for k, v in m[n - 1][n - 1].items()}, w)
