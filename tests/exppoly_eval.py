"""Test-side float evaluation of an ExpPoly.

The library keeps exponential polynomials exact; tests compare them against
quadrature, closed forms and samples in float64 through ``evaluate``.
"""

from fractions import Fraction

import numpy as np

from exppoly_ref import ExpPoly


def evaluate(p: ExpPoly, x):
    """Evaluate in float64 (scalar or numpy array), Horner per decay index."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    for k, coeffs in _dense_by_k(p).items():
        acc = np.zeros_like(arr)
        for c in coeffs:  # highest power first
            acc = acc * arr + c
        out += acc * np.exp(-k * arr)
    return out if arr.ndim else float(out)


def _dense_by_k(p: ExpPoly) -> dict[int, list[float]]:
    """Dense float coefficient lists per k, highest power first."""
    by_k: dict[int, dict[int, Fraction]] = {}
    for (k, l), c in p.items():
        by_k.setdefault(k, {})[l] = c
    dense: dict[int, list[float]] = {}
    for k, ls in by_k.items():
        deg = max(ls)
        dense[k] = [float(ls.get(l, 0)) for l in range(deg, -1, -1)]
    return dense
