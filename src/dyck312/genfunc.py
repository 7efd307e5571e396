"""Exact rational-series machinery for the class counts.

The counting series for height bound h is a quotient of integer polynomials:
the denominator family satisfies d(h) = d(h-1) - x*d(h-2) with d(1) = 1 and
d(2) = 1 - x - x^2, and the series for bound h is d(h-1)/d(h). Height 1 is
the special series 1 + x. Everything here is integer arithmetic; each
division happens after full multiplication and is checked exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyck import catalan


class NonIntegralCoefficient(ArithmeticError):
    """The closed-form division left a remainder; signals a bug, never expected."""


class NonUnitConstantTerm(ValueError):
    """Series extraction needs a +-1 constant term in the denominator."""


def binom(m: int, r: int) -> int:
    """Binomial coefficient, zero outside Pascal's triangle (m < 0, r < 0 or
    r > m). The zero convention makes out-of-degree terms vanish on their own."""
    if m < 0 or r < 0 or r > m:
        return 0
    return math.comb(m, r)


@dataclass(frozen=True, slots=True)
class IntPolynomial:
    """Dense integer polynomial; index = power of x, trailing zeros stripped.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coefficients: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, j: int) -> int:
        c = self.coefficients
        return c[j] if 0 <= j < len(c) else 0

    def shifted(self, k: int = 1) -> "IntPolynomial":
        """Multiply by x**k."""
        if not self.coefficients:
            return self
        return IntPolynomial((0,) * k + self.coefficients)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, v in enumerate(b):
            merged[i] += v
        return IntPolynomial(tuple(merged))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-v for v in other.coefficients))


@dataclass(frozen=True, slots=True)
class RationalFunction:
    """Quotient of integer polynomials, read as a power series at the origin.

    generating_function() always yields a denominator with constant term 1.
    """

    numerator: IntPolynomial
    denominator: IntPolynomial


def denominator_poly(h: int) -> IntPolynomial:
    """Denominator of the height-h counting series; degree ceil((h+1)/2) for
    h >= 2."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    prev = IntPolynomial((1,))  # h = 1
    if h == 1:
        return prev
    cur = IntPolynomial((1, -1, -1))  # h = 2
    for _ in range(h - 2):
        prev, cur = cur, cur - prev.shifted()
    return cur


def denominator_coeff(h: int, j: int) -> int:
    """Coefficient table entry: denominator = 1 - sum_j coeff(h, j) * x^j.

    Closed form ((3j - h - 2) / j) * binom(h - j + 1, j - 1) * (-1)^j, zero
    for j beyond ceil((h+1)/2). Division by j is exact; a remainder raises
    NonIntegralCoefficient (must never happen).
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if j > (h + 2) // 2:  # ceil((h+1)/2)
        return 0
    t = (3 * j - h - 2) * binom(h - j + 1, j - 1) * (-1) ** j
    if t % j:
        raise NonIntegralCoefficient(f"(h={h}, j={j}): {t} not divisible by {j}")
    return t // j


def generating_function(h: int) -> RationalFunction:
    """Counting series for the height-h valley-restricted paths by semilength."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if h == 1:
        return RationalFunction(IntPolynomial((1, 1)), IntPolynomial((1,)))
    return RationalFunction(denominator_poly(h - 1), denominator_poly(h))


def series(f: RationalFunction, n_max: int) -> tuple[int, ...]:
    """First n_max+1 power-series coefficients at 0, by exact long division."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    q = f.denominator.coefficients
    q0 = q[0] if q else 0
    if q0 not in (1, -1):
        raise NonUnitConstantTerm(f"denominator constant term is {q0}")
    out: list[int] = []
    for n in range(n_max + 1):
        acc = f.numerator.coefficient(n)
        for i in range(1, min(n, len(q) - 1) + 1):
            acc -= q[i] * out[n - i]
        out.append(acc // q0)
    return tuple(out)


def count_sequence(h: int, n_max: int) -> tuple[int, ...]:
    """Class counts for sizes 0..n_max via the linear recurrence.

    The count at size 0 is 1 and counts at negative sizes are 0; for m >= 1
    the count is the coefficient-weighted sum of earlier counts minus a
    correction term that vanishes once m passes the numerator's degree.
    """
    if h < 2:
        raise ValueError(f"recurrence needs h >= 2, got {h}; height 1 is the 1+x series")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    jmax = (h + 2) // 2
    coeffs = [denominator_coeff(h, j) for j in range(1, jmax + 1)]
    counts = [1]
    for m in range(1, n_max + 1):
        acc = 0
        for j in range(1, min(jmax, m) + 1):
            acc += coeffs[j - 1] * counts[m - j]
        corr = (3 * m - h - 1) * binom(h - m, m - 1) * (-1) ** m
        if corr % m:  # numerator coefficient; always an integer
            raise NonIntegralCoefficient(f"(h={h}, m={m}): {corr} not divisible by {m}")
        counts.append(acc - corr // m)
    return tuple(counts)


def catalan_identity(n: int, alpha: int) -> bool:
    """Check the Catalan-number identity obtained by cutting the recurrence
    at bound n + alpha, where the class is all of the Catalan family.

    Exact integer arithmetic: each summand is multiplied out before its
    division. A non-integral summand falsifies the identity as stated, so it
    returns False rather than raising.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    total = 0
    for j in range(1, n + 1):
        t = (
            catalan(n - j)
            * (3 * j - n - alpha - 2)
            * binom(n + alpha - j + 1, j - 1)
            * (-1) ** j
        )
        if t % j:
            return False
        total += t // j
    corr = (2 * n - alpha - 1) * binom(alpha, n - 1) * (-1) ** n
    if corr % n:
        return False
    return total - corr // n == catalan(n)
