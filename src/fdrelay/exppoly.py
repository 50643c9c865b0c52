"""Exact arithmetic over exponential polynomials.

An *exponential polynomial* here is a finite sum

    p(x) = sum_{(k, l)} c_{k,l} * x**l * exp(-k*x)

with non-negative integer exponents ``k`` (decay index) and ``l`` (power),
and exact rational coefficients ``c_{k,l}``.  This family is closed under
addition, multiplication and differentiation, which is everything needed to
manipulate the eigenvalue densities and CDFs that arise from small complex
Gaussian matrices.  No floating point enters any of the symbolic paths.

Canonical form: terms are keyed by ``(k, l)``, zero coefficients are never
stored, and iteration order is k ascending / l descending within each k.
That ordering makes "read off the slowest-decaying remaining term" a plain
dictionary lookup.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Tuple, Union

import numpy as np

Key = Tuple[int, int]  # (k, l): the term  coeff * x**l * exp(-k*x)
Scalar = Union[int, Fraction]


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

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def one(cls) -> "ExpPoly":
        return cls({(0, 0): Fraction(1)})

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Key, Fraction]]:
        """Terms in canonical order: k ascending, l descending within k."""
        for key in sorted(self._terms, key=lambda kl: (kl[0], -kl[1])):
            yield key, self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return ExpPoly._raw(out)

    def __radd__(self, other):
        # supports sum(...) with integer start 0
        if other == 0:
            return self
        return NotImplemented

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["ExpPoly", Scalar]) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return ExpPoly.zero()
            return ExpPoly._raw({key: v * c for key, v in self._terms.items()})
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly._raw(_nonzero(_mul_acc({}, self._terms, other._terms)))

    def __rmul__(self, other: Scalar) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def differentiate(self) -> "ExpPoly":
        """Exact d/dx:  a*x**l*e^{-kx}  ->  a*l*x**(l-1)*e^{-kx} - a*k*x**l*e^{-kx}."""
        out: dict[Key, Fraction] = {}

        def bump(key: Key, c: Fraction) -> None:
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)

        for (k, l), c in self._terms.items():
            if l > 0:
                bump((k, l - 1), c * l)
            if k > 0:
                bump((k, l), -c * k)
        return ExpPoly._raw(out)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- numeric evaluation -------------------------------------------------

    def __call__(self, x):
        """Evaluate in float64 (scalar or numpy array), Horner per decay index."""
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        for k, coeffs in self._dense_by_k().items():
            acc = np.zeros_like(arr)
            for c in coeffs:  # highest power first
                acc = acc * arr + c
            out += acc * np.exp(-k * arr)
        return out if arr.ndim else float(out)

    def _dense_by_k(self) -> dict[int, list[float]]:
        """Dense float coefficient lists per k, highest power first."""
        by_k: dict[int, dict[int, Fraction]] = {}
        for (k, l), c in self._terms.items():
            by_k.setdefault(k, {})[l] = c
        dense: dict[int, list[float]] = {}
        for k, ls in by_k.items():
            deg = max(ls)
            dense[k] = [float(ls.get(l, 0)) for l in range(deg, -1, -1)]
        return dense

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


def _mul_acc(out: dict, x: Mapping, y: Mapping, sign: int = 1) -> dict:
    """out += sign * x * y over term dicts; may leave zero coefficients."""
    for (k1, l1), c1 in x.items():
        c1 = sign * c1
        for (k2, l2), c2 in y.items():
            key = (k1 + k2, l1 + l2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def _int_div(a: int, b: int) -> int:
    c, r = divmod(a, b)
    if r:
        raise InexactDivisionError("coefficient not divisible")
    return c


def _peel(rem: dict, q: Mapping) -> dict:
    """Quotient of the integer term dict ``rem`` by nonzero ``q``; consumes
    ``rem``.

    Peels the leading term (lexicographic (k, l) order) of the running
    remainder against the leading term of q, dividing coefficients with
    ``_int_div``.  Every term a peel adds sits below the term it cancels, so
    the leading keys fall strictly and a heap of keys finds the next one.
    Raises InexactDivisionError if q does not divide the remainder.
    """
    qk, ql = qlead = max(q)
    qc = q[qlead]
    tail = [(k, l, c) for (k, l), c in q.items() if (k, l) != qlead]
    heap = [(-k, -l) for k, l in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        nk, nl = heapq.heappop(heap)
        c = rem.pop((-nk, -nl), 0)
        if not c:
            continue  # stale heap entry: the term cancelled after it was queued
        dk, dl = -nk - qk, -nl - ql
        if dk < 0 or dl < 0:
            raise InexactDivisionError("leading term not divisible")
        c = _int_div(c, qc)
        quot[(dk, dl)] = c
        for k2, l2, c2 in tail:
            key = (k2 + dk, l2 + dl)
            t = c * c2
            s = rem.get(key)
            if s is None:
                rem[key] = -t
                heapq.heappush(heap, (-key[0], -key[1]))
            elif s == t:
                del rem[key]
            else:
                rem[key] = s - t
    return quot


def determinant(matrix: Sequence[Sequence[ExpPoly]]) -> ExpPoly:
    """Exact determinant of a square matrix of ExpPoly entries.

    Scales each row by the LCM of its coefficient denominators, then runs
    fraction-free Bareiss elimination on integer coefficients, in
    Z[x, e^{-x}]: each step's update divides exactly by the previous pivot
    (Sylvester's identity), and each coefficient division is checked to
    leave no remainder.  The result is divided by the product of the row
    scales once, at the end.
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
    scales = [math.lcm(*{c.denominator for e in row for c in e._terms.values()}) for row in matrix]
    a = [
        [{key: c.numerator * (s // c.denominator) for key, c in e._terms.items()} for e in row]
        for row, s in zip(matrix, scales)
    ]
    sign = 1
    prev = {(0, 0): 1}
    for p in range(n - 1):
        pivot_row = next((i for i in range(p, n) if a[i][p]), None)
        if pivot_row is None:
            return ExpPoly.zero()
        if pivot_row != p:
            a[p], a[pivot_row] = a[pivot_row], a[p]
            sign = -sign
        piv = a[p][p]
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                cross = _nonzero(_mul_acc(_mul_acc({}, a[i][j], piv), a[i][p], a[p][j], -1))
                a[i][j] = _peel(cross, prev) if p else cross  # step 0 divides by 1
        prev = piv
    scale = sign * math.prod(scales)
    return ExpPoly._raw({key: Fraction(c, scale) for key, c in a[n - 1][n - 1].items()})
