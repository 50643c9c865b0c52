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
x = 2**W, in slot k of a dense list, so that multiplying two polynomials
takes a handful of big-integer products.  With y = e^{-x}, packing is the
ring homomorphism Z[x][y] -> Z[y] that sends x to 2**W, for any W.  Z[y] is
an integral domain, all that fraction-free elimination needs, so
elimination on the packed entries, with its pivots tested and its exact
divisions taken in Z[y], ends on their determinant: the packed determinant.
Only that is unpacked, so W only has to hold its coefficients: digits are
balanced, so any coefficient of magnitude below 2**(W-1) reads back.  Each
is at most the permanent of the entries' L1 norms, so at most the product
of the rows' sums of those norms (zero, like the determinant, if a row is
zero); W is the width of that product.
"""

from __future__ import annotations

import math
from typing import Sequence

Slices = dict[int, list[int]]  # k -> integer coefficients of x**0, x**1, ...
Packed = list[int]  # slot k -> slice k's value at x = 2**W; no trailing zeros


class InexactDivisionError(ArithmeticError):
    """Raised when an exact ring division is requested but does not exist."""


def _slot_width(bound: int) -> int:
    """Narrowest slot width W whose digits hold every integer of magnitude
    at most ``bound``.  Digits are balanced: they lie in [-2**(W-1), 2**(W-1)).
    """
    return bound.bit_length() + 1


def _pack(poly: Slices, w: int) -> Packed:
    """Each slice's x-polynomial evaluated at x = 2**w (Kronecker
    substitution), in slot k."""
    packed = [0] * (max(poly, default=-1) + 1)
    for k, coeffs in poly.items():
        for c in reversed(coeffs):
            packed[k] = (packed[k] << w) + c
    while packed and not packed[-1]:
        packed.pop()
    return packed


def _unpack(packed: Packed, w: int) -> Slices:
    """Balanced base-2**w digits of each slot: the inverse of ``_pack`` for
    coefficients of magnitude below 2**(w-1).  Zero slices are dropped."""
    half, mask, base = 1 << (w - 1), (1 << w) - 1, 1 << w
    poly: Slices = {}
    for k, v in enumerate(packed):
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


def _update(a: Packed, b: Packed, c: Packed, d: Packed) -> Packed:
    """``a * b - c * d`` of packed polynomials at one slot width: the decay
    indices add, and each pair of slots is one big-integer product."""
    out = [0] * max(len(a) + len(b), len(c) + len(d))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    for i, u in enumerate(c):
        for j, v in enumerate(d):
            out[i + j] -= u * v
    while out and not out[-1]:
        out.pop()
    return out


def _divide(num: Packed, den: Packed) -> Packed:
    """Exact quotient of packed polynomials: long division over the decay
    index, from the top slot.

    Each quotient slot is one ``divmod`` of the remainder's top slot by
    ``den``'s top slot.  Raises InexactDivisionError unless each divides
    and the low ``len(den) - 1`` remainder slots end at zero;
    ``determinant`` divides only where the quotient exists.
    """
    low, lead = len(den) - 1, den[-1]
    rem = list(num)
    quot = [0] * (len(num) - low)
    for k in reversed(range(len(quot))):
        q, r = divmod(rem[k + low], lead)
        if r:
            raise InexactDivisionError("coefficient not divisible")
        quot[k] = q
        for j in range(low):
            rem[k + j] -= q * den[j]
    if any(rem[:low]):
        raise InexactDivisionError("nonzero remainder")
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
    bad = [k for row in matrix for e in row for k in e if not isinstance(k, int) or k < 0]
    if bad:
        raise ValueError(f"decay index {bad[0]!r} is not a non-negative int")
    row_coeffs = [[c for e in row for coeffs in e.values() for c in coeffs] for row in matrix]
    if not all(isinstance(c, int) for cs in row_coeffs for c in cs):
        raise TypeError("matrix entries must have integer coefficients")
    w = _slot_width(math.prod(sum(map(abs, cs)) for cs in row_coeffs))
    m = [[_pack(e, w) for e in row] for row in matrix]
    sign = 1
    prev: Packed = [1]
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
                row[j] = _divide(_update(row[j], piv, row[p], pivot_packed[j]), prev)
        prev = piv
    return _unpack([sign * v for v in m[n - 1][n - 1]], w)
