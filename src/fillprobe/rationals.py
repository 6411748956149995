"""Exact rational arithmetic backend.

Uses gmpy2.mpq when available (markedly faster in solver inner loops),
falling back to fractions.Fraction.  Everything downstream treats the
chosen type as opaque: construct with Q(), serialize with qstr().
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def Q(num=0, den=1):
        return _mpq(num, den)

    RationalType = type(_mpq(0))
except ImportError:  # no gmpy2: Fraction is the backend in use
    def Q(num=0, den=1):
        return Fraction(num, den)

    RationalType = Fraction


def qstr(x) -> str:
    """Serialize a rational as 'num/den', always with an explicit denominator."""
    x = Q(x)
    return f"{x.numerator}/{x.denominator}"


def parse_q(text: str):
    """Inverse of qstr; also accepts bare integers."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Q(int(num), int(den))
    return Q(int(text))


def is_integral(x) -> bool:
    return Q(x).denominator == 1
