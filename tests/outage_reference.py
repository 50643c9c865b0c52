"""Test-side reference closed form: one grid point, one gamma call per term.

``outage.link_outage`` evaluates a hop over a whole curve in one call and
shares the weight floats, the log-gamma constants and one log and exp per
rate and point between terms. This is the per-point form it replaced: every
term makes its own ``regularized_lower_gamma`` call. Each (point, term) takes
the same float operations in the same order in both, so the two must agree
bit for bit.
"""

import math

from fdrelay.outage import _check_probability
from fdrelay.wishart import CoeffTable


def regularized_lower_gamma(s: int, x: float) -> float:
    """P(s, x) = 1 - e^{-x} sum_{j<s} x^j/j! for integer s >= 1, x >= 0.

    Two branches keep the result stable from the deep left tail up to
    x ~ 1e4: below s+1 the Poisson-tail series (all terms positive), above
    it the complement sum (also all positive, subtracted once from one).
    """
    if s < 1:
        raise ValueError("shape must be a positive integer")
    if not x >= 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 0.0
    if x < s + 1:
        # P = e^{-x} * sum_{j>=s} x^j/j!, summed from j = s upward
        term = math.exp(s * math.log(x) - x - math.lgamma(s + 1))
        total = term
        j = s + 1
        while True:
            term *= x / j
            total += term
            if term <= total * 1e-18:
                return min(total, 1.0)
            j += 1
    # complement: Q = e^{-x} sum_{j<s} x^j/j!
    e = math.exp(-x)
    if e == 0.0:
        return 1.0
    term = e
    q = e
    for j in range(1, s):
        term *= x / j
        q += term
    return 1.0 - q


def link_outage_at(table: CoeffTable, scale: float, gamma_t: float) -> float:
    """Per-hop outage at one scale, summed term by term."""
    if not scale > 0:
        raise ValueError("scale must be > 0")
    if not gamma_t >= 0:
        raise ValueError("gamma_t must be non-negative")
    if gamma_t == 0:
        return 0.0
    x = gamma_t / scale
    total = math.fsum(
        float(w) * regularized_lower_gamma(m + 1, n * x)
        for (n, m), w in table.entries.items()
        if w
    )
    return _check_probability(total, "link outage")


def link_snr_pdf(table: CoeffTable, scale: float, x: float) -> float:
    """Density of the hop SNR at x (scaled signed Erlang mixture)."""
    if not scale > 0:
        raise ValueError("scale must be > 0")
    if not x >= 0:
        raise ValueError("x must be non-negative")
    parts = []
    for (n, m), w in table.entries.items():
        if not w:
            continue
        rate = n / scale
        parts.append(float(w) / math.factorial(m) * rate ** (m + 1) * x ** m * math.exp(-rate * x))
    return math.fsum(parts)
