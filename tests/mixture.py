"""Test-side exact laws of a signed Erlang mixture, built from its weights.

Component (n, m) of a ``CoeffTable`` has the density n^{m+1}/m! x^m e^{-n x}
and the CDF P(m + 1, n x) = 1 - e^{-n x} sum_{j<=m} (n x)^j / j!, so both
laws of the mixture are exact ExpPolys.
"""

from fractions import Fraction
from math import factorial

from exppoly_ref import ExpPoly


def mixture_density(entries) -> ExpPoly:
    """sum w[n, m] n^{m+1}/m! x^m e^{-n x}."""
    return ExpPoly({(n, m): w * Fraction(n ** (m + 1), factorial(m))
                    for (n, m), w in entries.items()})


def mixture_cdf(entries) -> ExpPoly:
    """sum w[n, m] P(m + 1, n x)."""
    terms = {(0, 0): sum(entries.values(), Fraction(0))}
    for (n, m), w in entries.items():
        for j in range(m + 1):
            terms[n, j] = terms.get((n, j), Fraction(0)) - w * Fraction(n ** j, factorial(j))
    return ExpPoly(terms)
