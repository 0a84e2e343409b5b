"""Exact ground-field scalars.

The engine works over the rationals.  Coefficients are ``int`` until a
division needs a :class:`fractions.Fraction`: every division of coefficients,
Laurent coefficients, parsed user rationals and :mod:`sweedler.linalg`
included, goes through :func:`quotient`, which keeps an integral quotient an
``int``.  No other module imports :mod:`fractions`.  The engine is not
field-agnostic: structure maps, :mod:`sweedler.linalg` and inversion are
rational.  Floating point is deliberately unsupported.
"""

from __future__ import annotations

from fractions import Fraction


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
