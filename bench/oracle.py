"""Independent reference values for the benchmark's checks.

Everything here is computed with mpmath from the defining formulas and
imports nothing from ``fdrelay.exppoly`` or ``fdrelay.wishart``:

* The largest eigenvalue of an a x b complex central Wishart matrix
  (a = min dimension) has the CDF of Kang & Alouini (IEEE JSAC 2003)

      F(x) = K_ab * det[ gamma(b - a + i + j - 1, x) ]_{i,j=1..a},
      K_ab = 1 / prod_{i=1..a} (a - i)! (b - i)!,

  with gamma the lower incomplete gamma function.
* The decode-and-forward link fails when either hop fails:
  P = F_sr + (1 - F_sr) * F_rd.

At 200 digits one CDF value costs a few milliseconds, so callers memoise
and evaluate outside the timed part of a run.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

#: Working precision. The determinant cancels heavily at small x (all
#: permutations share the leading power x^(ab)); at 200 digits the value
#: agrees with a 400-digit one to 1e-40 for every dims up to 7x7 at
#: x >= 1e-3, and for 2x2 at x >= 1e-4, the smallest the workloads use.
DPS = 200


def max_eig_cdf(a: int, b: int, x, dps: int = DPS) -> mp.mpf:
    """Largest-eigenvalue CDF at x (a float or mpf), to ``dps`` digits."""
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    with mp.workdps(dps):
        x = mp.mpf(x)
        if x <= 0:
            return mp.mpf(0)
        lower = {s: mp.gammainc(s, 0, x) for s in range(b - a + 1, b + a)}
        m = mp.matrix([[lower[b - a + i + j - 1] for j in range(1, a + 1)]
                       for i in range(1, a + 1)])
        k = mp.mpf(1)
        for i in range(1, a + 1):
            k /= mp.factorial(a - i) * mp.factorial(b - i)
        return +(k * mp.det(m))


@lru_cache(maxsize=None)
def hop_cdf(a: int, b: int, x: float) -> mp.mpf:
    """Memoised ``max_eig_cdf`` at a float abscissa."""
    return max_eig_cdf(a, b, x)


def link_outage(dims_sr, dims_rd, x_sr: float, x_rd: float) -> mp.mpf:
    """End-to-end outage from the two hop CDFs at their scaled thresholds."""
    with mp.workdps(DPS):
        f_sr = hop_cdf(*dims_sr, x_sr)
        f_rd = hop_cdf(*dims_rd, x_rd)
        return +(f_sr + (1 - f_sr) * f_rd)


def mixture_cdf(entries, x) -> mp.mpf:
    """CDF of a signed Erlang mixture {(n, m): weight} at x.

    Component (n, m) has density n^(m+1)/m! x^m e^(-n x), so its CDF is the
    regularized lower incomplete gamma P(m + 1, n x). Weights are taken as
    exact rationals, so only the gamma values carry rounding.
    """
    with mp.workdps(DPS):
        x = mp.mpf(x)
        total = mp.mpf(0)
        for (n, m), w in entries.items():
            if w:
                total += (mp.mpf(w.numerator) / w.denominator) * mp.gammainc(
                    m + 1, 0, n * x, regularized=True)
        return +total


def relative_error(value, reference) -> float:
    """|value - reference| / |reference|, computed at the oracle's precision."""
    with mp.workdps(DPS):
        reference = mp.mpf(reference)
        diff = abs(mp.mpf(value) - reference)
        if reference == 0:
            return 0.0 if diff == 0 else float("inf")
        return float(diff / abs(reference))
