"""Test-side reference determinant: memoised cofactor expansion.

``exppoly.determinant`` eliminates fraction-free with exact ring division;
this expands along rows instead and uses only ring multiplication and
addition, so the two share no algorithm beyond the ExpPoly ring itself.
"""

from typing import Sequence

from fdrelay.exppoly import ExpPoly


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
        acc = ExpPoly.zero()
        for pos, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero:
                continue
            sub = minor(cols[:pos] + cols[pos + 1:])
            contrib = entry * sub
            acc = acc + contrib if pos % 2 == 0 else acc - contrib
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))
