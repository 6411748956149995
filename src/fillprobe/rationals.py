"""Exact rational arithmetic backend.

Uses gmpy2.mpq when available (markedly faster in solver inner loops),
falling back to fractions.Fraction.  Everything downstream treats the
chosen type as opaque: ``Q`` is that type itself, so construct with
Q(num, den), and serialize with qstr().
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # no gmpy2: Fraction is the backend in use
    from fractions import Fraction as Q

RationalType = type(Q(0))


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
