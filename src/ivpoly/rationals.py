"""Exact rational scalars: parsing, canonical formatting, dyadic tests.

Rationals are plain ``fractions.Fraction`` values throughout the package;
they serialize as lowest-terms strings ("5", "-1/2").
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputTooLargeError, MalformedRationalError

#: longest numerator or denominator, in decimal digits, that parsing accepts
MAX_DIGITS = 1000
#: a decimal exponent as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into an exact rational (unicode minus accepted).

    A numerator or denominator of more than MAX_DIGITS digits raises
    InputTooLargeError.  The digits and the decimal exponent of the text are
    bounded before the value is built, so "1e100000000" costs no big power.
    """
    if not isinstance(text, str):
        raise MalformedRationalError(f"expected a rational string, got {text!r}")
    cleaned = text.strip().replace("−", "-")
    exponent = _EXPONENT.search(cleaned)
    if sum(ch.isdigit() for ch in cleaned) > MAX_DIGITS or (
        exponent and abs(int(exponent.group(1))) > MAX_DIGITS
    ):
        raise InputTooLargeError(f"rational {text[:40]!r} exceeds {MAX_DIGITS} digits")
    try:
        q = Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedRationalError(f"malformed rational {text!r}") from exc
    if max(abs(q.numerator), q.denominator) >= 10**MAX_DIGITS:
        raise InputTooLargeError(f"rational {text[:40]!r} exceeds {MAX_DIGITS} digits")
    return q


def format_rational(q: Fraction) -> str:
    """Canonical lowest-terms string: "n" for integers, else "n/d"."""
    if not isinstance(q, (Fraction, int)):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_dyadic(q: Fraction) -> bool:
    """True iff the reduced denominator of q is a power of two."""
    d = (q if isinstance(q, Fraction) else Fraction(q)).denominator
    return d & (d - 1) == 0


def dyadic_exponent(q: Fraction) -> int:
    """k such that the reduced denominator of dyadic q equals 2**k."""
    d = (q if isinstance(q, Fraction) else Fraction(q)).denominator
    if d & (d - 1) != 0:
        raise ValueError(f"{q} is not dyadic")
    return d.bit_length() - 1
