"""Test-side density of a hop's SNR, summed term by term from the weights.

``outage.link_outage`` gives the hop CDF; tests integrate this density by
quadrature to check it.
"""

import math

from fdrelay.wishart import CoeffTable


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
