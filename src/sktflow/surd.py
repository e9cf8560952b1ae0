"""Exact arithmetic over quadratic surds c*sqrt(s).

Structure constants have exactly rational squares, so each N(a, b) is a
rational multiple of a single square root. Surd, the pair (coefficient,
squarefree core), is the exact value type of StructureConstants.at, value
and table; the sign recursion and the identity suite run on the integer
sign and square arrays (structure._squarefree) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ConsistencyError


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = k^2 * s with s squarefree; returns (s, k)."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, k, m, d = 1, 1, n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return s * m, k


@dataclass(frozen=True)
class Surd:
    """The real number coeff * sqrt(core), with core a positive squarefree int."""

    coeff: Fraction
    core: int = 1

    def __post_init__(self):
        coeff = self.coeff if isinstance(self.coeff, Fraction) else Fraction(self.coeff)
        core = self.core
        if core != 1:
            s, k = squarefree_split(core)
            coeff, core = coeff * k, s
        if coeff == 0:
            core = 1
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "core", core)

    @staticmethod
    def of(value) -> "Surd":
        return Surd(Fraction(value), 1)

    @staticmethod
    def sqrt(value) -> "Surd":
        """Exact square root of a nonnegative rational."""
        q = Fraction(value)
        if q < 0:
            raise ValueError(f"square root of negative rational {q}")
        if q == 0:
            return Surd(Fraction(0), 1)
        # sqrt(p/r) = sqrt(p*r)/r
        s, k = squarefree_split(q.numerator * q.denominator)
        return Surd(Fraction(k, q.denominator), s)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def squared(self) -> Fraction:
        c = self.coeff
        return Fraction(c.numerator**2 * self.core, c.denominator**2)

    def __float__(self) -> float:
        if self.core == 1:
            return float(self.coeff)
        return float(self.coeff) * self.core ** 0.5

    def __neg__(self) -> "Surd":
        return Surd(-self.coeff, self.core)

    def __abs__(self) -> "Surd":
        return Surd(abs(self.coeff), self.core)

    def __mul__(self, other) -> "Surd":
        if not isinstance(other, Surd):
            return Surd(self.coeff * Fraction(other), self.core)
        g = gcd(self.core, other.core)
        # core1*core2 = g^2 * (core1/g)(core2/g), the last factor squarefree
        return Surd(self.coeff * other.coeff * g, (self.core // g) * (other.core // g))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Surd":
        if not isinstance(other, Surd):
            return Surd(self.coeff / Fraction(other), self.core)
        if other.is_zero:
            raise ZeroDivisionError("division by zero surd")
        # 1/(c*sqrt(s)) = sqrt(s)/(c*s)
        return self * Surd(Fraction(1, 1) / (other.coeff * other.core), other.core)

    def __add__(self, other) -> "Surd":
        if not isinstance(other, Surd):
            other = Surd.of(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.core != other.core:
            raise ConsistencyError(
                f"cannot add surds with distinct cores {self.core} and {other.core}"
            )
        return Surd(self.coeff + other.coeff, self.core)

    def __sub__(self, other) -> "Surd":
        if not isinstance(other, Surd):
            other = Surd.of(other)
        return self + (-other)

    def __str__(self):
        if self.core == 1:
            return str(self.coeff)
        return f"{self.coeff}*sqrt({self.core})"
