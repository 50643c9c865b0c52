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
big-integer products.  Every packed quotient is checked to fit its slots,
so the packing is exact whatever W; rigorous coefficient bounds make sure
that a width which fails the check is retried wide enough to pass it.
"""

from __future__ import annotations

import math
from typing import Sequence

Slices = dict[int, list[int]]  # k -> integer coefficients of x**0, x**1, ...
Packed = dict[int, int]  # k -> that x-polynomial's value at x = 2**W

#: Bits above the update's own bound at which each elimination step starts.
#: The quotient check decides whether they suffice; up to 9x9 Kang-Alouini
#: matrices they always do.
_SLACK_BITS = 8


class InexactDivisionError(ArithmeticError):
    """Raised when an exact ring division is requested but does not exist."""


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


def _canonical(poly: Slices) -> Slices:
    """``poly`` without zero slices or trailing zero coefficients; raises
    TypeError on a coefficient that is not an integer."""
    out: Slices = {}
    for k, coeffs in poly.items():
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("matrix entries must have integer coefficients")
        top = len(coeffs)
        while top and not coeffs[top - 1]:
            top -= 1
        if top:
            out[k] = coeffs[:top]
    return out


def _eliminate(rows: list[list[Slices]], prev: Slices, prev_max: int, bound: int,
               w: int) -> list[list[tuple[Slices, tuple[int, int]]]]:
    """One Bareiss step at slot width ``w``: ``(a_ij * piv - a_i0 * a_0j) / prev``
    with its norms, for the rows and columns after the first; ``rows[0][0]``
    is the pivot and ``bound`` bounds every update's coefficients."""
    packed = [[_pack(e, w) for e in row] for row in rows]
    den = _pack(prev, w)
    piv, pivot_row = packed[0][0], packed[0]
    return [
        [_quotient(_product(row[0], pivot_row[j], _product(row[j], piv), -1),
                   bound, den, prev_max, w) for j in range(1, len(row))]
        for row in packed[1:]
    ]


def determinant(matrix: Sequence[Sequence[Slices]]) -> Slices:
    """Exact determinant of a square matrix of integer exponential polynomials.

    Runs fraction-free Bareiss elimination in Z[x, e^{-x}]: each step's
    update ``a_ij * piv - a_ip * a_pj`` divides exactly by the previous pivot
    (Sylvester's identity).  Every step packs its entries at one slot width
    W, so that each update is a few big-integer products and the division is
    long division over the decay index (``_divide``).  ``_quotient`` checks
    that both sides of each division fit W, so no width returns a wrong
    determinant; a width too narrow raises InexactDivisionError.

    A step first tries the width of the update's bound, at most
    L1(a_ij) * max|piv| + L1(a_ip) * max|a_pj| (and of the previous pivot),
    plus ``_SLACK_BITS``.  Only if a quotient does not fit does it
    redo the step at the width that provably holds the quotient times the
    pivot too: the quotient is a minor of the matrix, so its L1 norm is at
    most the product of its rows' L1 sums (Hadamard).  The result is
    canonical: no zero slices and no trailing zeros; zero is ``{}``.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    a = [[_canonical(e) for e in row] for row in matrix]
    norms = [[_norms(e) for e in row] for row in a]
    # at least 1 each, so that the width also holds the previous pivot
    row_l1 = [max(1, sum(l1 for l1, _ in row)) for row in norms]
    sign = 1
    prev: Slices = {0: [1]}
    prev_max = 1
    for p in range(n - 1):
        pivot_row = next((i for i in range(p, n) if a[i][p]), None)
        if pivot_row is None:
            return {}
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
        wide = _slot_width(max(cross_bound, minor_l1 * prev_max))
        narrow = _slot_width(max(cross_bound, prev_max)) + _SLACK_BITS
        rows = [row[p:] for row in a[p:]]
        try:
            update = _eliminate(rows, prev, prev_max, cross_bound, min(narrow, wide))
        except InexactDivisionError:
            if narrow >= wide:
                raise
            update = _eliminate(rows, prev, prev_max, cross_bound, wide)
        for i, row in enumerate(update, p + 1):
            for j, (quot, quot_norms) in enumerate(row, p + 1):
                a[i][j], norms[i][j] = quot, quot_norms
        prev, prev_max = a[p][p], piv_max
    det = a[n - 1][n - 1]
    return det if sign > 0 else {k: [-c for c in coeffs] for k, coeffs in det.items()}
