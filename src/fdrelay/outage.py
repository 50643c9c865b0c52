"""Closed-form outage probabilities for the two-hop full-duplex relay link.

A decode-and-forward relay fails end to end when either hop fails, so
``curves`` combines the two per-hop outages given here.  Each hop's outage
at threshold g is the CDF of its scaled largest eigenvalue at x = g / scale,
where ``scale`` is the product of effective transmit power and average
link SNR (the two only ever enter as a product).  The CDF is an exact
exponential polynomial, which ``hop_cdf`` reads in one step off the
mixture weights of a ``wishart`` table:

    F(x) = c00 + sum_n e^{-n x} sum_l c[n, l] x^l,
    c00 = sum w,  c[n, l] = -(n^l / l!) sum_{m >= l} w[n, m].

Its terms are O(1) while F falls like x^(ab) at small x, so no single float
sum holds everywhere.  Each point takes the first of three branches that
proves a relative error of at most HOP_RTOL = 1e-12:

* Horner: the float polynomial, one pass per decay index on one exp(-x)
  and its powers, with Higham's running error bound;
* Taylor: the float series sum t_j x^j at 0, from the exact coefficients of
  ``wishart.cdf_taylor`` and starting at the first nonzero one, with the
  same kind of bound plus a bound on the terms left out;
* ``decimal``: the exact coefficients in decimal arithmetic, at 25 digits
  plus the measured cancellation, doubled until its own bound holds.

Which float branch goes first depends on x and the table alone, so a point
has the same value in any curve.  Below the double range the value is
returned rounded, to a subnormal or to 0.0, and is not an error.  The
module keeps no state (``curves`` keeps each prepared hop); its functions
are pure and operate in linear SNR units, and dB conversions belong to
``curves`` and ``cli``.
"""

from __future__ import annotations

import decimal
import math
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Literal, Optional, Sequence, Tuple

from .wishart import CoeffTable, WishartDims, cdf_taylor

#: Probabilities may exceed [0, 1] by at most this much before we treat the
#: excursion as a coefficient bug instead of roundoff.
PROBABILITY_SLACK = 1e-12

#: Most antennas at a node: an 8x8 table extracts in 13 ms, a 16x16 one in 18 s.
MAX_ANTENNAS = 8

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
            try:
                count = operator.index(getattr(self, name))
            except TypeError:
                count = 0
            if not 1 <= count <= MAX_ANTENNAS:
                raise ValueError(f"{name} must be an integer from 1 to {MAX_ANTENNAS}")
        if self.mode is ZFMode.RECEIVE and self.n_r1 < 2:
            raise ValueError("receive ZF needs n_r1 >= 2 (projection removes one dimension)")
        if self.mode is ZFMode.TRANSMIT and self.n_r2 < 2:
            raise ValueError("transmit ZF needs n_r2 >= 2 (projection removes one dimension)")

    def antennas(self) -> Tuple[int, int, int, int]:
        return (self.n_s, self.n_r1, self.n_r2, self.n_d)


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold in linear SNR; ``rate`` builds it from a target rate."""

    gamma_t: float

    def __post_init__(self) -> None:
        if not 0 <= self.gamma_t < math.inf:
            raise ValueError("threshold must be finite and non-negative")

    @classmethod
    def snr(cls, gamma_t: float) -> "OutageQuery":
        return cls(gamma_t)

    @classmethod
    def rate(cls, r0: float) -> "OutageQuery":
        try:
            return cls(rate_to_snr_threshold(r0))
        except OverflowError:
            raise ValueError(f"rate threshold {r0!r} overflows 2**R0 - 1") from None


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


def link_outage(hop: HopCDF, scales: Sequence[float], gamma_t: float) -> list[float]:
    """Per-hop outage at linear threshold gamma_t over a whole curve of
    scales, one probability per scale > 0: the CDF ``hop`` (from ``hop_cdf``)
    at x = gamma_t / scale.

    Each point is evaluated on its own, so a curve gives bit for bit the
    values of one call per point. It takes the first branch whose error
    bound is at most HOP_RTOL * F: the float Taylor series at 0 and the
    float polynomial by Horner, in an order set by x alone, then ``decimal``.
    """
    if not gamma_t >= 0:
        raise ValueError("gamma_t must be non-negative")
    outages = []
    for s in scales:
        if not s > 0:
            raise ValueError("scale must be > 0")
        x = gamma_t / s
        if x != x:  # inf / inf
            raise ValueError("gamma_t / scale is not a number")
        if x == 0.0:  # gamma_t is 0, or gamma_t / scale underflowed
            outages.append(0.0)
            continue
        taylor = _taylor(hop, x) if x < hop.series_first else None
        if taylor is not None and taylor[1] <= HOP_RTOL * taylor[0]:
            value = taylor[0]
        else:
            horner = _horner(hop, x)
            value = horner[0]
            if not horner[1] <= HOP_RTOL * value:
                if x >= hop.series_first:
                    taylor = _taylor(hop, x)
                if taylor is not None and taylor[1] <= HOP_RTOL * taylor[0]:
                    value = taylor[0]
                else:
                    # the F of the float branch with the lesser relative bound sets the precision
                    estimate = min(((err / f, f) for f, err, *_ in filter(None, (taylor, horner))
                                    if 0 < f and err < f), default=(0.0, 0.0))[1]
                    value = _decimal(hop, x, horner[2], estimate)
        if not -PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK:
            raise InvalidProbabilityError(f"link outage = {value!r} is outside [0, 1]")
        outages.append(0.0 if value < 0.0 else 1.0 if value > 1.0 else value)
    return outages


# -- one hop's CDF ------------------------------------------------------------

#: Relative error each branch of the hop CDF must prove before it is used.
HOP_RTOL = 1e-12
#: Taylor coefficients kept past a * b, which is where they start for a
#: valid table.
TAYLOR_TERMS = 80
#: The Taylor series is set up at X = 2^m for these m; x takes the terms
#: set up at the least X > x, smaller x those of the smallest X, and larger
#: x leave the series to the other branches.
SERIES_EXP_MIN, SERIES_EXP_MAX = -24, 4
_EPS = sys.float_info.epsilon
#: log of 2**-1076, below half the smallest subnormal: a value below it rounds to 0.0.
_LOG_UNDERFLOW = -1076 * math.log(2.0)


@dataclass(frozen=True)
class HopCDF:
    """A table's CDF F(x) = c00 + sum_n e^{-nx} sum_l c[n, l] x^l, ready to
    evaluate in each branch; see ``hop_cdf``."""

    c00: Fraction
    c00_float: float
    #: (n - previous n, exact c[n, D_n..0], float c[n, D_n..0]), n ascending
    polys: Tuple[Tuple[int, Tuple[Fraction, ...], Tuple[float, ...]], ...]
    deg: int  # D, the highest power of x
    rate: int  # a, the highest decay index n
    log_size: float  # log sum |c[n, l]|
    j0: int  # the first nonzero Taylor coefficient
    t_j0: Fraction  # its exact value, or 0 if t_j is 0 up to ab + TAYLOR_TERMS
    #: per X = 2^m: (G, (t_j for j = j0 + N - 1 down to j0)), or None
    series: Tuple[Optional[Tuple[float, Tuple[float, ...]]], ...]
    series_first: float = 0.0  # below this x the series goes before Horner


def hop_cdf(table: CoeffTable) -> HopCDF:
    """Exact CDF coefficients from the weights, c00 = sum w and
    c[n, j] = -(n^j / j!) sum_{m >= j} w[n, m], and their floats.

    The Taylor coefficients t_j = sum c[n, l] (-n)^{j-l} / (j-l)! come
    exactly from ``cdf_taylor``, as floats from the first nonzero one, j0,
    up to K = ab + TAYLOR_TERMS or the first that is subnormal. At X = 2^m
    the series keeps its first N terms, the fewest whose rest, at most
    x^{j0+N} G with G = sum_{k >= j0+N} |t_k| X^{k-j0-N} for x <= X, is
    below 2^-66 |t_j0| X^j0. Past K, |t_k| is at most
    T_k = sum |c[n, l]| n^{k-l} / (k-l)!, whose ratios a X / (k-D) stay below
    1/2 where 2 a X <= K + 2 - D, so those terms add at most 2 T_{K+1} X^{K+1}.
    The series goes first below the least X at which Horner's bound holds.
    """
    exact = cdf_taylor(table, table.dims.a * table.dims.b + TAYLOR_TERMS)
    j0 = next((j for j, t in enumerate(exact) if t), len(exact))
    taylor = []
    for t in exact[j0:]:
        if t and not abs(float(t)) >= sys.float_info.min:
            break  # a subnormal coefficient would escape the error bound
        taylor.append(float(t))
    last = j0 + len(taylor) - 1
    by_rate: dict[int, dict[int, Fraction]] = {}
    for (n, m), w in table.entries.items():
        if w:
            by_rate.setdefault(n, {})[m] = w
    polys, rest, prev = [], [], 0  # rest: the terms of T_{K+1}
    for n in sorted(by_rate):
        weights = by_rate[n]
        tail, coeffs = Fraction(0), []
        for j in range(max(weights), -1, -1):
            tail += weights.get(j, 0)
            coeffs.append(-tail * Fraction(n ** j, factorial(j)))
        polys.append((n - prev, tuple(coeffs), tuple(float(c) for c in coeffs)))
        rest += [abs(float(c)) * (n ** (last + 1 - l) / factorial(last + 1 - l))
                 for l, c in enumerate(reversed(coeffs)) if l <= last + 1]
        prev = n
    deg = max((len(c) - 1 for _, c, _ in polys), default=0)
    rate = max(prev, 1)
    series = []
    for m in range(SERIES_EXP_MIN, SERIES_EXP_MAX + 1):
        x = 2.0 ** m
        if not taylor or 2.0 * rate * x > last + 2 - deg:
            series.append(None)
            continue
        g, tails = 2.0 * math.fsum(rest), []  # tails[i]: G past the first i + 1 terms
        for t in reversed(taylor):
            tails.append(g)
            g = abs(t) + x * g
        tails.reverse()
        count = next((i + 1 for i, g in enumerate(tails)
                      if g * x ** (i + 1) <= 2.0 ** -66 * abs(taylor[0])), None)
        series.append(count and (tails[count - 1], tuple(reversed(taylor[:count]))))
    c00 = sum(table.entries.values(), Fraction(0))
    log_size = math.log(math.fsum(abs(c) for _, _, cs in polys for c in cs) or 1.0)
    t_j0 = exact[j0] if j0 < len(exact) else Fraction(0)
    hop = HopCDF(c00, float(c00), tuple(polys), deg, rate, log_size, j0, t_j0, tuple(series))
    for m in range(SERIES_EXP_MIN, SERIES_EXP_MAX + 1):
        f, err, _ = _horner(hop, 2.0 ** m)
        if err <= HOP_RTOL * f:
            return replace(hop, series_first=2.0 ** m)
    return replace(hop, series_first=math.inf)


def _horner(hop: HopCDF, x: float) -> Tuple[float, float, float]:
    """(F, error bound, size) from the float polynomial: one Horner pass
    per decay index on one exp(-x) and its powers.

    The bound is Higham's running error bound for Horner's rule (Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Alg. 5.1): a pass
    through partial sums y_i has error at most u (2 mu - |y_0|) with
    mu = sum |y_i| x^i, and the rounded coefficients add at most 4 u mu.
    Each power of exp(-x) adds n + 1 rounding errors and each product
    one, with u = eps / 2; ``size`` = |c00| + sum e^{-nx} mu_n bounds |F|,
    and 4 size the sum of |terms|. Where e^{-nx} leaves the normal range,
    so that x > 708 / n > 1, the terms from n on are dropped and their bound
    e^{-nx} x^D sum |c| joins the error bound; up to 7x7 it underflows to 0.
    """
    e = math.exp(-x)
    en = 1.0
    parts = [hop.c00_float]
    size = abs(hop.c00_float)
    n = 0
    dropped = 0.0
    for gap, _, coeffs in hop.polys:
        n += gap
        for _ in range(gap):
            en *= e
        if en < sys.float_info.min:
            if x < math.inf:
                dropped = math.exp(min(hop.deg * math.log(x) + hop.log_size - n * x, 700.0))
            break
        h = mu = 0.0
        for c in coeffs:
            h = h * x + c
            mu = mu * x + abs(h)
        parts.append(en * h)
        size += en * mu
    f = math.fsum(parts)
    if not f > 0:
        return f, math.inf, size
    return f, (hop.rate + 10) * _EPS * size + dropped, size


def _taylor(hop: HopCDF, x: float) -> Optional[Tuple[float, float]]:
    """(F, error bound) from the float Taylor series x^j0 sum_i t_{j0+i} x^i
    by Horner over the terms set up for x, or None where there are none,
    where the bound on the rest is not below 2^-56 of the sum, or where F
    is subnormal. The running error bound is as in ``_horner``, plus the
    rest, at most 2^-1074 for each step that underflows, x^j0 and the
    product. Where 4 mu plus the rest, times x^j0, is below 2^-1076, F
    rounds to 0.0."""
    m = max(math.frexp(x)[1], SERIES_EXP_MIN)
    series = hop.series[m - SERIES_EXP_MIN] if m <= SERIES_EXP_MAX else None
    if series is None:
        return None
    g, terms = series
    s = mu = 0.0
    for t in terms:
        s = s * x + t
        mu = mu * x + abs(s)
    tail = g * x ** len(terms)
    if not tail <= 2.0 ** -56 * abs(s):
        return None
    xp = x ** hop.j0
    f = s * xp
    if f >= sys.float_info.min:
        return f, (5 * _EPS * mu + tail + len(terms) * 5e-324) * xp
    if math.log(4.0 * mu + tail) + hop.j0 * math.log(x) < _LOG_UNDERFLOW:
        return 0.0, 0.0  # |F| rounds to 0.0
    return None


def _decimal(hop: HopCDF, x: float, size: float, estimate: float) -> float:
    """F from the exact coefficients in ``decimal``.

    The precision is 25 digits plus the cancellation digits
    log10(size / F) that ``estimate`` of F gives, and doubles until the
    error bound is below 1e-20 of F or, where F is below the double range,
    below 1e-330. The bound takes 4 size from ``_horner`` for the sum of
    |terms|. The coefficients are converted inside the working context.
    """
    factor = 2 * hop.deg + hop.rate + 4
    size = max(4.0 * size, sys.float_info.min)
    needed = 335 + max(0, math.ceil(math.log10(factor * size)))
    cond = needed
    if estimate > 0:
        cond = max(0, math.ceil(math.log10(size / estimate)))
    digits = 25 + min(cond, needed)
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ctx.traps[decimal.Underflow] = ctx.traps[decimal.Subnormal] = False
            xd = decimal.Decimal(x)
            e = (-xd).exp()
            total = decimal.Decimal(hop.c00.numerator) / hop.c00.denominator
            en = decimal.Decimal(1)
            for gap, coeffs, _ in hop.polys:
                en *= e ** gap
                h = decimal.Decimal(0)
                for c in coeffs:
                    h = h * xd + decimal.Decimal(c.numerator) / c.denominator
                total += en * h
            err = decimal.Decimal(size) * factor * decimal.Decimal(10) ** (1 - digits)
            if err <= abs(total) * decimal.Decimal("1e-20") or err <= decimal.Decimal("1e-330"):
                return float(total)
        digits *= 2


def diversity_order(config: AntennaConfig) -> int:
    """High-SNR log-log slope magnitude of the end-to-end outage."""
    n_s, n_r1, n_r2, n_d = config.antennas()
    if config.mode is ZFMode.RECEIVE:
        return min(n_s * (n_r1 - 1), n_r2 * n_d)
    return min(n_d * (n_r2 - 1), n_s * n_r1)
