"""Test-side exact oracle for the Taylor coefficients of G = e^{ax} F, from
the hypergeometric function of a matrix argument, with nothing from the
Kang-Alouini determinant or from ``fdrelay``.

For an a x b complex Gaussian channel (a <= b) the largest eigenvalue has
the CDF F(x) = t_ab x^{ab} 1F1(b; a+b; -x I_a) (Constantine, Ann. Math.
Statist. 1963; Khatri 1964), and Kummer's relation (Herz, Ann. Math. 1955;
Muirhead, Aspects of Multivariate Statistical Theory, 1982, 7.4) gives

    G(x) = e^{ax} F(x) = t_ab x^{ab} 1F1(a; a+b; x I_a),
    t_ab = prod_{j<a} j! / (b+j)!  (Selberg).

At alpha = 1 the zonal polynomials are Schur functions, C_kappa / k! =
s_kappa / H_kappa, so the coefficient of x^{ab+k} in G is

    g_{ab+k} = t_ab sum_{kappa |- k, l(kappa) <= a} [(a)_kappa / (a+b)_kappa] s_kappa(1^a) / H_kappa

with (p)_kappa = prod_i (p - i + 1)_{kappa_i}, H_kappa the product of the
hook lengths and s_kappa(1^a) from the hook-content formula. Every term is
an exact positive rational.
"""

from fractions import Fraction
from math import factorial, prod


def selberg(a: int, b: int) -> Fraction:
    """t_ab = prod_{j<a} j! / (b+j)!, the leading coefficient of F and G."""
    return Fraction(prod(factorial(j) for j in range(a)), prod(factorial(b + j) for j in range(a)))


def partitions(k: int, parts: int, largest: int = None):
    """The partitions of k into at most ``parts`` parts, largest first."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, k if largest is None else largest), 0, -1):
        if parts > 1 or first == k:
            for rest in partitions(k - first, parts - 1, first):
                yield (first,) + rest


def pochhammer(p: int, kappa) -> int:
    """(p)_kappa = prod_i (p - i + 1)_{kappa_i}, rows i from 1."""
    return prod(p - i + t for i, row in enumerate(kappa) for t in range(row))


def schur_over_hooks(kappa, a: int) -> Fraction:
    """s_kappa(1^a) / H_kappa = prod over cells (a + content) / hook^2."""
    columns = [sum(1 for row in kappa if row > j) for j in range(kappa[0] if kappa else 0)]
    value = Fraction(1)
    for i, row in enumerate(kappa):
        for j in range(row):
            hook = (row - j) + (columns[j] - i) - 1
            value *= Fraction(a + j - i, hook * hook)
    return value


def growth_coefficient(a: int, b: int, k: int) -> Fraction:
    """g_{ab+k}, the coefficient of x^{ab+k} in G = e^{ax} F."""
    return selberg(a, b) * sum(Fraction(pochhammer(a, kappa), pochhammer(a + b, kappa))
                               * schur_over_hooks(kappa, a) for kappa in partitions(k, a))


def ode_order(a: int, b: int) -> int:
    """N = 1 + sum_n ((a+b-2n) n + 1): the order of the linear ODE with
    constant coefficients that an a x b CDF, and so G, solves. Two of its
    solutions with the same first N Taylor coefficients are equal."""
    return 1 + sum((a + b - 2 * n) * n + 1 for n in range(1, a + 1))
