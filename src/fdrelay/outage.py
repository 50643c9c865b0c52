"""Closed-form outage probabilities for the two-hop full-duplex relay link.

A decode-and-forward relay fails end to end when either hop fails, so
``curves`` combines the two per-hop outages given here.  Each hop's outage
at threshold g is the CDF of its scaled largest eigenvalue at x = g / scale,
where ``scale`` is the product of effective transmit power and average
link SNR (the two only ever enter as a product).  The CDF is an exact
exponential polynomial, which ``hop_cdf`` reads off a ``wishart`` table:

    F(x) = c00 + sum_n e^{-n x} sum_l c[n, l] x^l,
    c00 = sum w,  c[n, l] = -(n^l / l!) sum_{m >= l} w[n, m].

Its terms are O(1) while F falls like x^(ab) at small x, so they cancel;
the exact Taylor coefficients g_j of G = e^{ax} F = t_ab x^{ab} 1F1(a; a+b;
x I_a) are >= 0, so their float sum does not. Each point takes one of two
branches and raises unless it proves a relative error of HOP_RTOL = 1e-12:
that series times e^{-ax} below a crossover X, and Horner on F from X on
(the series again below 2X where Horner's bound fails).  The branch depends
on x and the table alone, so a point has the same value in any curve.
Below the double range the value is returned rounded, to a subnormal or to
0.0, and is not an error.
The module keeps no state (``curves`` keeps each prepared hop); its
functions are pure and operate in linear SNR units, and dB conversions
belong to ``curves`` and ``cli``.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence, Tuple

from .wishart import CoeffTable, NonzeroResidualError, WishartDims

#: Probabilities may exceed [0, 1] by at most this much before we treat the
#: excursion as a coefficient bug instead of roundoff.
PROBABILITY_SLACK = 1e-12

#: Most antennas at a node: an 8x8 table extracts in 13 ms, a 16x16 one in 18 s.
MAX_ANTENNAS = 8


class InvalidProbabilityError(ArithmeticError):
    """A computed probability left [0, 1] by more than roundoff slack, or no
    branch proved it to HOP_RTOL."""


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
        if not isinstance(self.mode, ZFMode):
            raise ValueError(f"mode must be a ZFMode, got {self.mode!r}")
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
    """Outage threshold in linear SNR; ``rate_to_snr_threshold`` turns a rate into one."""

    gamma_t: float

    def __post_init__(self) -> None:
        if not 0 <= self.gamma_t < math.inf:
            raise ValueError("threshold must be finite and non-negative")

    @classmethod
    def snr(cls, gamma_t: float) -> "OutageQuery":
        return cls(gamma_t)


def rate_to_snr_threshold(r0: float) -> float:
    """SNR below which a rate-R0 transmission is in outage: 2**R0 - 1."""
    if not r0 >= 0:
        raise ValueError("rate threshold must be non-negative")
    return 2.0 ** r0 - 1.0


def link_dims(config: AntennaConfig) -> Tuple[WishartDims, WishartDims]:
    """Wishart dimensions governing the (sr, rd) hops' SNR laws.

    The hop adjacent to the null constraint loses one relay dimension to the
    projection; the other hop keeps its full antenna counts.
    """
    n_s, n_r1, n_r2, n_d = config.antennas()
    if config.mode is ZFMode.RECEIVE:
        return WishartDims.of_matrix(n_r1 - 1, n_s), WishartDims.of_matrix(n_r2, n_d)
    return WishartDims.of_matrix(n_r1, n_s), WishartDims.of_matrix(n_r2 - 1, n_d)


def link_outage(hop: HopCDF, scales: Sequence[float], gamma_t: float) -> list[float]:
    """Per-hop outage at linear threshold gamma_t over a whole curve of
    scales, one probability per scale > 0: the CDF ``hop`` (from ``hop_cdf``)
    at x = gamma_t / scale.

    Each point is evaluated on its own, so a curve gives bit for bit the
    values of one call per point: by the positive series below the hop's
    crossover X, by Horner from X on, and by the series again below 2X where
    Horner's bound fails. A point that neither proves raises.
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
        value, rel = _series(hop, x) if x < hop.crossover else _horner(hop, x)
        if not rel <= HOP_RTOL and hop.crossover <= x < 2.0 * hop.crossover:
            value, rel = _series(hop, x)
        if not (-PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK and rel <= HOP_RTOL):
            raise InvalidProbabilityError(f"link outage = {value!r} is outside [0, 1] or "
                                          f"its bound {rel!r} is above {HOP_RTOL}")
        outages.append(0.0 if value < 0.0 else 1.0 if value > 1.0 else value)
    return outages


# -- one hop's CDF ------------------------------------------------------------

#: Relative error each branch of the hop CDF must prove before it is used.
HOP_RTOL = 1e-12
#: log 2^-60: the series' rest is at most this share of its sum.
_LOG_TAIL = -60 * math.log(2.0)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class HopCDF:
    """A table's CDF F(x), ready to evaluate in each branch; see ``hop_cdf``."""

    c00: float
    polys: Tuple[Tuple[int, Tuple[float, ...]], ...]  # (n - previous n, c[n, D_n..0])
    rate: int  # a, so that G = e^{ax} F
    j0: int  # ab, the order of F and G at 0
    t_j0: Fraction  # g_ab = t_ab, the exact leading coefficient
    crossover: float = math.inf  # X
    terms: Tuple[float, ...] = ()  # h_k = g_{ab+k} X^k, k = K down to 0
    #: (first of ``terms`` to sum, bound on the rest) for x / X in [2^-i, 2^(1-i))
    cuts: Tuple[Tuple[int, float], ...] = ()


def hop_cdf(table: CoeffTable) -> HopCDF:
    """A table's CDF, ready for both branches: c[n, l] = q_l / (l! L) (see
    ``growth_taylor``), and X the least power of two from 2^-16 (to 64) at which
    Horner's bound holds. Raises ``NonzeroResidualError`` unless the weights sum
    to 1 and g_j is 0 below ab, > 0 at ab and >= 0 above. For a hop's table
    g_{ab+k} <= t_ab a^k / k!, as (a)_kappa <= (a+b)_kappa, so below 2X the rest
    past h_K is at most t_ab sum_{k>K} (2aX)^k / k!. K makes that at most 2^-60
    of the sum at X, and each binade of x / X the same at its own ends.
    """
    ab = table.dims.a * table.dims.b
    lcm, c00, rate, exact = _integer_cdf(table)
    if c00 != lcm:
        raise NonzeroResidualError(f"weights of {table.dims} sum to {Fraction(c00, lcm)}, not 1")
    polys = tuple((n - prev, tuple(q[l] / (lcm * factorial(l)) for l in reversed(range(len(q)))))
                  for (prev, _), (n, q) in zip([(0, None)] + exact, exact))
    hop = HopCDF(c00 / lcm, polys, rate, ab, Fraction(0))
    m = next((m for m in range(-16, 6) if _horner(hop, 2.0 ** m)[1] <= HOP_RTOL), 6)
    y, terms, total = 2.0 * rate * 2.0 ** m, [], 0.0  # y: the largest a x below 2X
    for k, (num, den) in enumerate(growth_taylor(table), -ab):  # g_{ab+k}
        if num < 0 or (k <= 0 and bool(num) != (k == 0)):
            raise NonzeroResidualError(f"g_{ab + k} = {Fraction(num, den)} for {table.dims}: "
                                       "not 0 below ab, > 0 at ab and >= 0 above")
        if k == 0:
            t_ab, log_t = Fraction(num, den), math.log(num) - math.log(den)
        if k >= 0:
            h = (num << m * k) / den if m >= 0 else num / (den << -m * k)
            if 0 < h < sys.float_info.min:
                break  # a subnormal coefficient would escape the error bound
            terms.append(h)
            total += h
            if log_t + _log_rest(y, k) <= _LOG_TAIL + math.log(total):
                break
    cuts, count = [], len(terms) - 1
    while not cuts or count:
        u = 2.0 ** -len(cuts)
        low = math.log(math.fsum(h * u ** k for k, h in enumerate(terms[:count + 1])))
        while count and log_t + _log_rest(y * u, count - 1) <= _LOG_TAIL + low:
            count -= 1
        cuts.append((len(terms) - 1 - count,
                     2.0 * math.exp(min(log_t + _log_rest(y * u, count), 709.0))))
    return replace(hop, t_j0=t_ab, crossover=2.0 ** m, terms=tuple(reversed(terms)),
                   cuts=tuple(cuts))


def growth_taylor(table: CoeffTable) -> Iterator[Tuple[int, int]]:
    """(j! L g_j, j! L) for j = 0, 1, ...: the exact Taylor coefficients g_j
    of G = e^{ax} F, with L the weights' common denominator: L c00 a^j plus,
    for each n, the q_0 left after j steps of q_l <- q_{l+1} + (a - n) q_l.
    For a hop's table G = t_ab x^{ab} 1F1(a; a+b; x I_a) (Herz 1955;
    Muirhead 1982, 7.4), so g_j is 0 below ab, g_ab = t_ab > 0 and g_j >= 0.
    """
    den, power, rate, polys = _integer_cdf(table)
    for j in itertools.count(1):
        yield power + sum(q[0] for _, q in polys), den
        for n, q in polys:
            q[:] = [hi + (rate - n) * lo for lo, hi in zip(q, q[1:])] + [(rate - n) * q[-1]]
        power *= rate
        den *= j


def _integer_cdf(table: CoeffTable) -> Tuple[int, int, int, list[Tuple[int, list[int]]]]:
    """(L, L c00, a, [(n, [q_0, ..., q_D])] for n ascending) with L the
    weights' common denominator, q_l = l! L c[n, l] = -L n^l sum_{m >= l} w[n, m]
    and a the larger of the table's a and its highest decay index."""
    lcm = math.lcm(*(w.denominator for w in table.entries.values()))
    scaled = {k: w.numerator * (lcm // w.denominator) for k, w in table.entries.items() if w}
    polys = []
    for n in sorted({n for n, _ in scaled}):
        top = max(m for r, m in scaled if r == n)
        tails = itertools.accumulate(scaled.get((n, l), 0) for l in range(top, -1, -1))
        polys.append((n, [-t * n ** l for l, t in enumerate(reversed(list(tails)))]))
    return lcm, sum(scaled.values()), max([table.dims.a, *(n for n, _ in polys)]), polys


def _log_rest(y: float, count: int) -> float:
    """log of a bound on sum_{k > count} y^k / k!."""
    return ((count + 1) * math.log(y) - math.lgamma(count + 2) - math.log1p(-y / (count + 2))
            if count + 2 > y else math.inf)


def _series(hop: HopCDF, x: float) -> Tuple[float, float]:
    """(F, relative error bound) from the positive series: S = sum_k h_k u^k
    at u = x / X by Horner, over the terms that u's binade needs, and then
    F = S f^ab e^{-ax} 2^(e ab) with x = f 2^e. The product before 2^(e ab)
    is normal, at least t_ab 2^-ab e^{-2aX}, so F is rounded once, at the end.

    The m terms summed are positive, so Horner's error, rounded coefficients
    and all, is at most 2 m eps of S (Higham 2002, 5.1); a step that underflows
    adds 2^-1074, and ``cuts`` bounds the rest. f^ab, a x, e^{-ax} and two
    products add eps (4 + a x).
    """
    u = x / hop.crossover
    first, rest = hop.cuts[min(1 - math.frexp(u)[1], len(hop.cuts) - 1)]
    s, m = 0.0, len(hop.terms) - first
    for h in hop.terms[first:]:
        s = s * u + h
    f, e = math.frexp(x)
    value = math.ldexp(s * f ** hop.j0 * math.exp(-hop.rate * x), e * hop.j0)
    bound = 2.0 * m * _EPS + (m * 5e-324 + rest) / s + _EPS * (4.0 + hop.rate * x)
    return value, 1.01 * bound


def _horner(hop: HopCDF, x: float) -> Tuple[float, float]:
    """(F, relative error bound) from the float polynomial: one Horner pass
    per decay index on one exp(-x) and its powers.

    The bound is Higham's running error bound for Horner's rule (Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Alg. 5.1), u (2 mu - |y_0|)
    with mu = sum |y_i| x^i over the partial sums y_i, plus 4 u mu for the
    rounded coefficients, with u = eps / 2. Each power of exp(-x) adds n + 1
    rounding errors and each product one; size = |c00| + sum e^{-nx} mu_n.
    Where e^{-nx} leaves the normal range, at x > 708 / n > 1, the terms from
    n on are dropped and their bound e^{-nx} x^D sum |c| joins the error bound.
    """
    e, en, n = math.exp(-x), 1.0, 0
    parts, size, dropped = [hop.c00], abs(hop.c00), 0.0
    for gap, coeffs in hop.polys:
        n += gap
        for _ in range(gap):
            en *= e
        if en < sys.float_info.min:
            if x < math.inf:
                deg = max(len(cs) for _, cs in hop.polys) - 1
                log_size = math.log(math.fsum(abs(c) for _, cs in hop.polys for c in cs))
                dropped = math.exp(min(deg * math.log(x) + log_size - n * x, 700.0))
            break
        h = mu = 0.0
        for c in coeffs:
            h = h * x + c
            mu = mu * x + abs(h)
        parts.append(en * h)
        size += en * mu
    f = math.fsum(parts)
    if not f > 0:
        return f, math.inf
    return f, ((hop.rate + 10) * _EPS * size + dropped) / f


def diversity_order(config: AntennaConfig) -> int:
    """High-SNR log-log slope magnitude of the end-to-end outage."""
    n_s, n_r1, n_r2, n_d = config.antennas()
    if config.mode is ZFMode.RECEIVE:
        return min(n_s * (n_r1 - 1), n_r2 * n_d)
    return min(n_d * (n_r2 - 1), n_s * n_r1)
