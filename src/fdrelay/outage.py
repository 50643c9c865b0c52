"""Closed-form outage probabilities for the two-hop full-duplex relay link.

A decode-and-forward relay fails end to end when either hop fails, so the
end-to-end outage combines the two per-hop outages.  Each hop's SNR is a
scaled largest eigenvalue whose law is a signed Erlang mixture (see
``wishart``); its outage at threshold g is therefore a weighted sum of
regularized lower incomplete gamma values

    P_hop(g) = sum w[n, m] * P(m + 1, n * g / scale)

where ``scale`` is the product of effective transmit power and average link
SNR (the two only ever enter as a product).  All functions here are pure and
operate in linear SNR units; dB conversions belong to ``curves`` and ``cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal, Optional, Sequence, Tuple

from .wishart import CoeffTable, WishartDims

#: Probabilities may exceed [0, 1] by at most this much before we treat the
#: excursion as a coefficient bug instead of roundoff.
PROBABILITY_SLACK = 1e-12

Link = Literal["sr", "rd"]


class InvalidProbabilityError(ArithmeticError):
    """A computed probability left [0, 1] by more than roundoff slack."""


class ZFMode(Enum):
    """Which side of the relay carries the self-interference null."""

    RECEIVE = "receive"
    TRANSMIT = "transmit"


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts (source, relay-rx, relay-tx, destination) plus ZF mode."""

    n_s: int
    n_r1: int
    n_r2: int
    n_d: int
    mode: ZFMode

    def __post_init__(self) -> None:
        for name in ("n_s", "n_r1", "n_r2", "n_d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.mode is ZFMode.RECEIVE and self.n_r1 < 2:
            raise ValueError("receive ZF needs n_r1 >= 2 (projection removes one dimension)")
        if self.mode is ZFMode.TRANSMIT and self.n_r2 < 2:
            raise ValueError("transmit ZF needs n_r2 >= 2 (projection removes one dimension)")

    def antennas(self) -> Tuple[int, int, int, int]:
        return (self.n_s, self.n_r1, self.n_r2, self.n_d)


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold, either directly in linear SNR or via a target rate."""

    gamma_t: Optional[float] = None
    rate_r0: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.gamma_t is None) == (self.rate_r0 is None):
            raise ValueError("specify exactly one of gamma_t or rate_r0")
        value = self.gamma_t if self.gamma_t is not None else self.rate_r0
        if not value >= 0:
            raise ValueError("threshold must be non-negative")

    @classmethod
    def snr(cls, gamma_t: float) -> "OutageQuery":
        return cls(gamma_t=gamma_t)

    @classmethod
    def rate(cls, r0: float) -> "OutageQuery":
        return cls(rate_r0=r0)

    def snr_threshold(self) -> float:
        """Resolve to a linear SNR threshold (rate form maps through 2**R - 1)."""
        if self.gamma_t is not None:
            return self.gamma_t
        return rate_to_snr_threshold(self.rate_r0)


def rate_to_snr_threshold(r0: float) -> float:
    """SNR below which a rate-R0 transmission is in outage: 2**R0 - 1."""
    if not r0 >= 0:
        raise ValueError("rate threshold must be non-negative")
    return 2.0 ** r0 - 1.0


def link_dims(config: AntennaConfig, link: Link) -> WishartDims:
    """Wishart dimensions governing one hop's SNR law.

    The hop adjacent to the null constraint loses one relay dimension to the
    projection; the other hop keeps its full antenna counts.
    """
    n_s, n_r1, n_r2, n_d = config.antennas()
    if link == "sr":
        rows = n_r1 - 1 if config.mode is ZFMode.RECEIVE else n_r1
        return WishartDims.of_matrix(rows, n_s)
    if link == "rd":
        rows = n_r2 - 1 if config.mode is ZFMode.TRANSMIT else n_r2
        return WishartDims.of_matrix(rows, n_d)
    raise ValueError(f"unknown link {link!r}")


def _check_probability(value: float, context: str) -> float:
    if not -PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK:
        raise InvalidProbabilityError(f"{context} = {value!r} is outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def link_outage(table: CoeffTable, scales: Sequence[float], gamma_t: float) -> list[float]:
    """Per-hop outage at linear threshold gamma_t over a whole curve of
    scales, one probability per scale > 0.

    A scale is effective power times average SNR. P(s, y) for y = n * x,
    x = gamma_t / scale, is the Poisson-tail series e^{-y} sum_{j>=s} y^j/j!
    below y = s + 1 and one minus the complement e^{-y} sum_{j<s} y^j/j!
    above it: positive terms only, stable from the deep left tail up to
    y ~ 1e4. The weights alternate in sign, so each point is summed exactly
    with math.fsum. Weight floats and lgamma(m + 2) are made once per call,
    log(y) and exp(-y) once per rate n and point.
    """
    scales = tuple(scales)
    for s in scales:
        if not s > 0:
            raise ValueError("scale must be > 0")
    if not gamma_t >= 0:
        raise ValueError("gamma_t must be non-negative")
    if gamma_t == 0:
        return [0.0] * len(scales)
    by_rate: dict[int, list[tuple[int, float, float]]] = {}
    for (n, m), w in table.entries.items():
        if w:
            by_rate.setdefault(n, []).append((m + 1, float(w), math.lgamma(m + 2)))
    outages = []
    for s in scales:
        x = gamma_t / s
        if x != x:  # inf / inf
            raise ValueError("gamma_t / scale is not a number")
        if x == 0.0:  # gamma_t / scale underflowed: every P is 0
            outages.append(0.0)
            continue
        parts = []
        for n, terms in by_rate.items():
            y = n * x
            log_y = math.log(y)
            e = math.exp(-y)
            for shape, w, lgamma_s1 in terms:
                if y < shape + 1:
                    term = math.exp(shape * log_y - y - lgamma_s1)
                    total = term
                    j = shape + 1
                    while True:
                        term *= y / j
                        total += term
                        if term <= total * 1e-18:
                            break
                        j += 1
                    p = min(total, 1.0)
                elif e == 0.0:
                    p = 1.0
                else:
                    term = q = e
                    for j in range(1, shape):
                        term *= y / j
                        q += term
                    p = 1.0 - q
                parts.append(w * p)
        outages.append(_check_probability(math.fsum(parts), "link outage"))
    return outages


def e2e_outage(p_sr: float, p_rd: float) -> float:
    """Combine hop outages: the link fails iff either hop fails."""
    for p in (p_sr, p_rd):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"hop outage {p!r} outside [0, 1]")
    return p_sr + (1.0 - p_sr) * p_rd


def diversity_order(config: AntennaConfig) -> int:
    """High-SNR log-log slope magnitude of the end-to-end outage."""
    n_s, n_r1, n_r2, n_d = config.antennas()
    if config.mode is ZFMode.RECEIVE:
        return min(n_s * (n_r1 - 1), n_r2 * n_d)
    return min(n_d * (n_r2 - 1), n_s * n_r1)
