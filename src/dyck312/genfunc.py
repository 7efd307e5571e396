"""Exact rational-series machinery for the class counts.

The counting series for height bound h is a quotient of integer polynomials:
the denominator family satisfies d(h) = d(h-1) - x*d(h-2), and the series for
bound h is d(h-1)/d(h). The seeds d(0) = 1 + x and d(1) = 1 start the family,
so height 1 is no special case: its series is (1 + x)/1. series() is the one
expansion of the quotient; the series route feeds it the recurrence's
polynomials, count_sequence those of the closed form _coeff. A polynomial is
a tuple of integer coefficients, index = power of x. Everything here is
integer arithmetic; each division happens after full multiplication and is
checked exact.
"""

from __future__ import annotations

import math
from operator import mul

from .dyck import catalan


class NonIntegralCoefficient(ArithmeticError):
    """The closed-form division left a remainder; signals a bug, never expected."""


class NonUnitConstantTerm(ValueError):
    """Series extraction needs a +-1 constant term in the denominator."""


def _binom(m: int, r: int) -> int:
    """Binomial coefficient, zero outside Pascal's triangle (m < 0, r < 0 or
    r > m). The zero convention makes out-of-degree terms vanish on their own."""
    if m < 0 or r < 0 or r > m:
        return 0
    return math.comb(m, r)


def _coeff(h: int, j: int) -> int:
    """Closed form of -[x^j] d(h) for h >= 0, j >= 1:
    ((3j - h - 2) / j) * _binom(h - j + 1, j - 1) * (-1)^j, zero for j beyond
    ceil((h+1)/2). Division by j is exact; a remainder raises
    NonIntegralCoefficient (must never happen)."""
    t = (3 * j - h - 2) * _binom(h - j + 1, j - 1) * (-1) ** j
    if t % j:
        raise NonIntegralCoefficient(f"(h={h}, j={j}): {t} not divisible by {j}")
    return t // j


def denominator_poly(h: int) -> tuple[int, ...]:
    """Denominator d(h) of the height-h counting series; degree ceil((h+1)/2)
    for h >= 2."""
    return generating_function(h)[1]


def denominator_coeff(h: int, j: int) -> int:
    """Coefficient table entry: denominator = 1 - sum_j coeff(h, j) * x^j,
    by the closed form."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return _coeff(h, j)


def generating_function(h: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Counting series for the height-h valley-restricted paths by semilength,
    as the pair (numerator, denominator) = (d(h-1), d(h)), from one sweep of
    the recurrence."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    prev, cur = (1, 1), (1,)  # d(0), d(1)
    for _ in range(h - 1):
        nxt = list(cur) + [0] * (len(prev) + 1 - len(cur))
        for i, c in enumerate(prev, start=1):
            nxt[i] -= c
        while nxt[-1] == 0:
            nxt.pop()
        prev, cur = cur, tuple(nxt)
    return prev, cur


def series(f: tuple[tuple[int, ...], tuple[int, ...]], n_max: int) -> tuple[int, ...]:
    """First n_max+1 power-series coefficients at 0 of the pair
    (numerator, denominator), by exact long division."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    p, q = f
    q0, tail = (q[0] if q else 0), q[1:]
    if q0 not in (1, -1):
        raise NonUnitConstantTerm(f"denominator constant term is {q0}")
    out: list[int] = []
    for n in range(n_max + 1):  # map stops at the shorter: q[i] * out[n-i], i = 1..min(n, deg q)
        acc = p[n] if n < len(p) else 0
        out.append((acc - sum(map(mul, tail, reversed(out)))) // q0)
    return tuple(out)


def count_sequence(h: int, n_max: int) -> tuple[int, ...]:
    """Class counts for sizes 0..n_max: the series of d(h-1)/d(h) with both
    polynomials built from the closed form _coeff, not the h-recurrence.

    A rational series is a linear recurrence, so series() runs it: the count
    at size m is the coefficient-weighted sum of earlier counts minus the
    numerator's coefficient, which vanishes once m passes its degree.
    """
    if h < 2:
        raise ValueError(f"recurrence needs h >= 2, got {h}; height 1 is the 1+x series")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")

    def d(g: int) -> tuple[int, ...]:  # through x^min(degree, n_max): no later term is read
        return (1, *(-_coeff(g, j) for j in range(1, min((g + 2) // 2, n_max) + 1)))

    return series((d(h - 1), d(h)), n_max)


def catalan_identity(n: int, alpha: int) -> bool:
    """Check the Catalan-number identity obtained by cutting the recurrence
    at bound n + alpha, where the class is all of the Catalan family.

    A non-integral coefficient falsifies the identity as stated, so it
    returns False rather than raising.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    h = n + alpha
    try:
        total = sum(_coeff(h, j) * catalan(n - j) for j in range(1, n + 1))
        return total - _coeff(h - 1, n) == catalan(n)
    except NonIntegralCoefficient:
        return False
