"""Test-side exact references: a naive exponential-polynomial ring and a
memoised cofactor determinant over it.

``exppoly.determinant`` multiplies packed big integers inside fraction-free
elimination with exact ring division. Here a product multiplies term dicts
one pair of terms at a time, and the determinant expands along rows with
products and sums only, so the two share no arithmetic. This uses only the
test-side ``ExpPoly`` constructor and ``items``.
"""

from fractions import Fraction
from typing import Sequence

from exppoly_ref import ExpPoly


def add(*polys: ExpPoly) -> ExpPoly:
    """Exact sum of any number of ExpPolys."""
    out: dict = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, Fraction(0)) + c
    return ExpPoly(out)


def neg(p: ExpPoly) -> ExpPoly:
    return ExpPoly({key: -c for key, c in p.items()})


def mul(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    """Exact product, term by term: decay indices and powers add."""
    out: dict = {}
    for (k1, l1), c1 in p.items():
        for (k2, l2), c2 in q.items():
            key = (k1 + k2, l1 + l2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ExpPoly(out)


def det_cofactor(matrix: Sequence[Sequence[ExpPoly]]) -> ExpPoly:
    """Exact determinant of a square ExpPoly matrix by cofactor expansion."""
    n = len(matrix)
    memo: dict[tuple[int, ...], ExpPoly] = {}

    def minor(cols: tuple[int, ...]) -> ExpPoly:
        # determinant of the submatrix on rows n-len(cols).. and columns `cols`
        if len(cols) == 1:
            return matrix[n - 1][cols[0]]
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = n - len(cols)
        terms = []
        for pos, col in enumerate(cols):
            contrib = mul(matrix[row][col], minor(cols[:pos] + cols[pos + 1:]))
            terms.append(contrib if pos % 2 == 0 else neg(contrib))
        memo[cols] = add(*terms)
        return memo[cols]

    return minor(tuple(range(n)))
