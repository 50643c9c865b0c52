"""Test-side independent oracle: the Kang & Alouini largest-eigenvalue CDF
in mpmath, from the defining formula, with nothing from ``fdrelay``.

The largest eigenvalue of an a x b complex central Wishart matrix
(a = min dimension) has the CDF (Kang & Alouini, IEEE JSAC 2003)

    F(x) = K_ab * det[ gamma(b - a + i + j - 1, x) ]_{i,j=1..a},
    K_ab = 1 / prod_{i=1..a} (a - i)! (b - i)!,

with gamma the lower incomplete gamma function. Every permutation of the
determinant shares the leading power x^(ab), which cancels at small x;
the mixture form sums O(1) terms down to F. At 4x7 and x = 1e-6, F is
about 4.5e-188, so ``DPS`` keeps more than 100 digits past that
cancellation.
"""

import mpmath as mp

DPS = 300


def max_eig_cdf(a: int, b: int, x) -> mp.mpf:
    """Largest-eigenvalue CDF at x (a float, a Fraction or an mpf)."""
    with mp.workdps(DPS):
        x = _mpf(x)
        if x <= 0:
            return mp.mpf(0)
        m = mp.matrix([[mp.gammainc(b - a + i + j - 1, 0, x) for j in range(1, a + 1)]
                       for i in range(1, a + 1)])
        k = mp.mpf(1)
        for i in range(1, a + 1):
            k /= mp.factorial(a - i) * mp.factorial(b - i)
        return +(k * mp.det(m))


def mixture_cdf(entries, x) -> mp.mpf:
    """CDF of a signed Erlang mixture {(n, m): weight} at x: the sum of
    w * P(m + 1, n x), with P the regularized lower incomplete gamma. The
    weights enter as exact rationals."""
    with mp.workdps(DPS):
        x = _mpf(x)
        return +mp.fsum(_mpf(w) * mp.gammainc(m + 1, 0, n * x, regularized=True)
                        for (n, m), w in entries.items() if w)


def relative_error(value, reference) -> float:
    """|value - reference| / |reference| at the oracle's precision."""
    with mp.workdps(DPS):
        reference = mp.mpf(reference)
        return float(abs(mp.mpf(value) - reference) / abs(reference))


def _mpf(v) -> mp.mpf:
    """An mpf from a float, an mpf or anything with numerator/denominator."""
    if hasattr(v, "denominator"):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)
