"""Monoid rings with nonnegative rational exponents over Z, Q, or F_p.

Elements are finite formal sums of terms c * y^e with exponents in a
Puiseux monoid or a rational cone, kept canonically: strictly decreasing
exponents, no zero coefficients, prime-field coefficients reduced.
Products work on integer exponents, each exponent times the lcm of the
operands' exponent denominators, and build one ``Fraction`` per output term.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import (
    CoefficientRingError,
    MalformedInputError,
    NegativeExponentError,
    NotAMemberError,
    RingMismatchError,
    ZeroElementError,
)
from .primes import is_prime
from .puiseux import PuiseuxMonoid, grams_decompose, membership
from .rationals import format_rational, parse_rational


class CoefficientRing:
    """Base class for the supported coefficient rings.

    A ring supplies ``coerce`` and ``is_unit``.  Arithmetic is plain ``+``
    and ``*`` on the coerced values, and ``coerce`` alone reduces them, so
    F_p reduces mod p only there.
    """

    tag = "?"

    def format(self, c) -> str:
        return str(c)

    def parse(self, text: str):
        return self.coerce(parse_rational(text))


@dataclass(frozen=True)
class IntegerRing(CoefficientRing):
    """Coefficients in Z, kept as Python ints; the units are 1 and -1."""

    tag = "Z"

    def coerce(self, c):
        if type(c) is int:
            return c
        q = Fraction(c)
        if q.denominator != 1:
            raise CoefficientRingError(f"{c} is not an integer")
        return q.numerator

    def is_unit(self, c):
        return c in (1, -1)


@dataclass(frozen=True)
class RationalRing(CoefficientRing):
    """Coefficients in Q, kept as Fractions; every nonzero one is a unit."""

    tag = "Q"

    def coerce(self, c):
        return Fraction(c)

    def is_unit(self, c):
        return c != 0

    def format(self, c):
        return format_rational(c)


@dataclass(frozen=True)
class PrimeField(CoefficientRing):
    """Coefficients in F_p for a prime p below 2^63, kept as ints in 0..p-1."""

    p: int

    def __post_init__(self):
        if self.p >= 2**63:
            raise CoefficientRingError("prime fields are limited to machine-word primes")
        if not is_prime(self.p):
            raise CoefficientRingError(f"{self.p} is not prime")

    @property
    def tag(self) -> str:  # type: ignore[override]
        return f"F{self.p}"

    def coerce(self, c):
        if type(c) is int:
            return c % self.p
        q = Fraction(c)
        if q.denominator % self.p == 0:
            raise CoefficientRingError(f"{c} has no image in F_{self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def is_unit(self, c):
        return c % self.p != 0


ZZ = IntegerRing()
QQ = RationalRing()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def ring_from_tag(tag: str) -> CoefficientRing:
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    # at most 19 ASCII digits: PrimeField rejects anything longer as too large
    prime = re.fullmatch(r"F([0-9]{1,19})", tag)
    if prime:
        return GF(int(prime[1]))
    raise CoefficientRingError(f"unknown coefficient ring tag {tag!r}")


@dataclass(frozen=True)
class MonoidRingElement:
    """Canonical element: terms (coeff, exponent) with exponents strictly decreasing."""

    ring: CoefficientRing
    terms: tuple[tuple[object, Fraction], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(e for _, e in self.terms)

    def __add__(self, other: "MonoidRingElement") -> "MonoidRingElement":
        return add(self, other)

    def __mul__(self, other: "MonoidRingElement") -> "MonoidRingElement":
        return mul(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, e in self.terms:
            if e == 0:
                parts.append(self.ring.format(c))
            elif c == 1:
                parts.append(f"y^{format_rational(e)}")
            else:
                parts.append(f"{self.ring.format(c)}*y^{format_rational(e)}")
        return " + ".join(parts)


def canonicalize(raw_terms: Iterable[tuple[object, Fraction]], ring: CoefficientRing) -> MonoidRingElement:
    """Merge equal exponents, drop zeros, sort by decreasing exponent."""
    acc: dict[Fraction, object] = {}
    for c, e in raw_terms:
        e = Fraction(e)
        if e < 0:
            raise NegativeExponentError("exponents must be nonnegative")
        c = ring.coerce(c)
        acc[e] = acc.get(e, 0) + c
    coerced = ((ring.coerce(c), e) for e, c in sorted(acc.items(), reverse=True))
    return MonoidRingElement(ring, tuple((c, e) for c, e in coerced if c != 0))


def element(ring: CoefficientRing, terms: Iterable[tuple[object, Fraction]]) -> MonoidRingElement:
    """Convenience constructor through canonicalize."""
    return canonicalize(terms, ring)


def zero(ring: CoefficientRing) -> MonoidRingElement:
    return MonoidRingElement(ring, ())


def one(ring: CoefficientRing) -> MonoidRingElement:
    return element(ring, [(1, Fraction(0))])


def monomial(ring: CoefficientRing, coeff, exponent) -> MonoidRingElement:
    return element(ring, [(coeff, Fraction(exponent))])


def _check_same_ring(a: MonoidRingElement, b: MonoidRingElement) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"mixed coefficient rings {a.ring.tag} and {b.ring.tag}")


def add(a: MonoidRingElement, b: MonoidRingElement) -> MonoidRingElement:
    _check_same_ring(a, b)
    return canonicalize(list(a.terms) + list(b.terms), a.ring)


def mul(a: MonoidRingElement, b: MonoidRingElement) -> MonoidRingElement:
    """Exact convolution product in canonical form.

    Each exponent e is keyed by the integer e·L, L the lcm of both operands'
    exponent denominators; each distinct sum of keys is coerced once.
    """
    _check_same_ring(a, b)
    scale = lcm(*(e.denominator for _, e in a.terms), *(e.denominator for _, e in b.terms))
    left = [(c, e.numerator * (scale // e.denominator)) for c, e in a.terms]
    acc: dict[int, object] = {}
    for cb, eb in b.terms:
        kb = eb.numerator * (scale // eb.denominator)
        for ca, ka in left:
            k = ka + kb
            acc[k] = acc.get(k, 0) + ca * cb
    coerced = ((a.ring.coerce(acc[k]), k) for k in sorted(acc, reverse=True))
    return MonoidRingElement(a.ring, tuple((c, Fraction(k, scale)) for c, k in coerced if c != 0))


def power(a: MonoidRingElement, n: int) -> MonoidRingElement:
    """a^n for an int n >= 0, by n products."""
    steps = range(n)  # TypeError for an n that is not an int
    if n < 0:
        raise NegativeExponentError("powers take a nonnegative exponent")
    out = one(a.ring)
    for _ in steps:
        out = mul(out, a)
    return out


def is_unit(a: MonoidRingElement) -> bool:
    """Units are u * y^0 with u a unit coefficient.

    Submonoids of the nonnegative rationals are reduced (no nonzero element
    is invertible), so only constant terms can be units.
    """
    if len(a.terms) != 1:
        return False
    c, e = a.terms[0]
    return e == 0 and a.ring.is_unit(c)


def nu_bar(f: MonoidRingElement) -> Fraction:
    """Minimum dyadic component over the exponents of a nonzero element.

    Exponents must be members of the Grams monoid; their unique
    decompositions supply the dyadic parts.
    """
    if f.is_zero():
        raise ZeroElementError("the zero element has no valuation")
    nus = []
    for _, e in f.terms:
        dec = grams_decompose(e)
        if dec is None:
            raise NotAMemberError(
                f"exponent {format_rational(e)} is not in the Grams monoid"
            )
        nus.append(dec.nu)
    return min(nus)


def pth_root(f: MonoidRingElement) -> MonoidRingElement:
    """g with g^p = f over F_p, for exponent monoids closed under division by p.

    Coefficient roots are trivial by Fermat (c^p = c in F_p); exponents
    divide by p, which stays in the monoid exactly when it is a rational
    cone, so callers ask only for exponent monoids that are closed.
    """
    if not isinstance(f.ring, PrimeField):
        raise CoefficientRingError("p-th roots are taken over a prime field")
    p = f.ring.p
    return MonoidRingElement(f.ring, tuple((c, e / p) for c, e in f.terms))


def monomial_divides(c: Fraction, f: MonoidRingElement, spec: PuiseuxMonoid) -> bool:
    """Does y^c divide f, i.e. is exponent - c a member for every term?"""
    c = Fraction(c)
    if c < 0:
        raise NegativeExponentError("monomial exponents are nonnegative")
    for _, e in f.terms:
        if e - c < 0 or not membership(spec, e - c).is_member:
            return False
    return True


def to_json_dict(a: MonoidRingElement) -> dict:
    return {
        "ring": a.ring.tag,
        "terms": [[a.ring.format(c), format_rational(e)] for c, e in a.terms],
    }


def from_json_dict(d: object) -> MonoidRingElement:
    """The element {"ring": tag, "terms": [[coefficient, exponent], ...]}, all strings."""
    if not (
        isinstance(d, dict)
        and d.keys() == {"ring", "terms"}
        and isinstance(d["ring"], str)
        and isinstance(d["terms"], list)
        and all(
            isinstance(t, list) and len(t) == 2 and all(isinstance(x, str) for x in t)
            for t in d["terms"]
        )
    ):
        raise MalformedInputError(
            'an element is {"ring": str, "terms": [[str, str], ...]}'
        )
    ring = ring_from_tag(d["ring"])
    return element(ring, [(ring.parse(c), parse_rational(e)) for c, e in d["terms"]])
