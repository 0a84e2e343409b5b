"""Exact ground-field scalars.

The engine works over the rationals.  Coefficients are ``int`` until a
division needs a :class:`fractions.Fraction`: every division of coefficients
goes through :func:`quotient`, which keeps an integral quotient an ``int``.
Only ``renorm.LaurentPoly``, parsed user rationals and :mod:`sweedler.linalg`
hold ``Fraction`` throughout.  GF(p) elements
(:class:`Fp`, :class:`PrimeField`) implement the same arithmetic operators,
so they work as coefficients of formal sums and in dual-algebra products
(:func:`sweedler.specs.dual_algebra_product`).  The engine is not
field-agnostic: structure maps, :mod:`sweedler.linalg` and inversion are
rational.  Floating point is deliberately unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Fp:
    """An element of GF(p); ``value`` is reduced into ``range(p)``."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def __add__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value + other.value, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value - other.value, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value * other.value, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.value, self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return Fp(pow(self.value, self.p - 2, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def _check(self, other: "Fp") -> None:
        if not isinstance(other, Fp) or other.p != self.p:
            raise TypeError(f"mixed-field arithmetic: GF({self.p}) vs {other!r}")

    def __str__(self) -> str:
        return f"{self.value}"


class PrimeField:
    """GF(p) for a prime p; rejects composite moduli at configuration time."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"prime-field modulus must be prime, got {p}")
        self.p = p
        self.name = f"GF({p})"

    def zero(self) -> Fp:
        return Fp(0, self.p)

    def one(self) -> Fp:
        return Fp(1, self.p)

    def from_int(self, n: int) -> Fp:
        return Fp(n, self.p)

    def invert(self, c: Fp):
        return None if not c else c.inverse()


def quotient(a, b):
    """Exact ``a / b``: an ``int`` when the quotient is integral (``int / int``
    would give a float), a ``Fraction`` otherwise."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def render_scalar(c) -> str:
    """Canonical text for a coefficient: ``p/q`` with ``/q`` omitted when q=1."""
    if isinstance(c, float):
        raise TypeError(f"floating-point coefficient {c!r}")
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)
