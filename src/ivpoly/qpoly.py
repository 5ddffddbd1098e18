"""Dense exact-rational polynomial arithmetic, with the one Z[x] layer.

Polynomials are tuples of ``Fraction`` coefficients, lowest degree first,
with trailing zeros trimmed; the zero polynomial is the empty tuple.  The
``int_*`` helpers work on tuples of Python ints in the same layout and never
build a ``Fraction``; every Z[x] computation of the package runs on them
(value tables, root tests, falling factorials, primitive parts, exact
division).  ``int_scaled`` gives a rational polynomial its one integer form
(den * cs, den), from which value tables, binomial coordinates, division in
Int(S,Z) and the content split of ``qfactor`` start.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Coeffs = tuple[Fraction, ...]
IntPoly = tuple[int, ...]


def poly(coeffs) -> Coeffs:
    """Build a trimmed coefficient tuple from any iterable of rationals.

    A ``Fraction`` is kept as it is; anything else goes through ``Fraction``.
    """
    return trim(tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))


def trim(cs) -> Coeffs:
    cs = tuple(cs)
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def degree(cs: Coeffs) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(cs) - 1


def is_zero(cs: Coeffs) -> bool:
    return len(cs) == 0


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(tuple(out))


def neg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return add(a, neg(b))


def scale(a: Coeffs, k) -> Coeffs:
    k = Fraction(k)
    if k == 0:
        return ()
    return tuple(c * k for c in a)


def mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(tuple(out))


def eval_at(cs: Coeffs, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def int_scaled(cs: Coeffs) -> tuple[IntPoly, int]:
    """(den * cs, den), den the least common denominator: the integer form of cs."""
    den = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (den // c.denominator) for c in cs), den


def int_primitive(a: IntPoly) -> IntPoly:
    """a divided by its content, with positive leading coefficient (a nonzero)."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return tuple(v // c for v in a)


def int_divexact(a: IntPoly, b: IntPoly) -> IntPoly | None:
    """a / b when b divides a in Z[x], else None (b nonzero)."""
    r = list(a)
    m, lb = len(b), b[-1]
    if len(r) < m:
        return () if not any(r) else None
    q = [0] * (len(r) - m + 1)
    for i in range(len(r) - m, -1, -1):
        c, rem = divmod(r[i + m - 1], lb)
        if rem:
            return None
        q[i] = c
        if c:
            for j in range(m - 1):
                r[i + j] -= c * b[j]
    return None if any(r[: m - 1]) else tuple(q)


def int_eval(g: IntPoly, x: int) -> int:
    """g(x) for an integer polynomial at an integer, by Horner."""
    acc = 0
    for c in reversed(g):
        acc = acc * x + c
    return acc


def int_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Product of two integer polynomials, trimmed when neither is zero."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def int_falling_factorials(n: int):
    """Yield x(x-1)...(x-j+1) for j = 0..n as integer coefficient tuples."""
    ff = [1]
    yield (1,)
    for j in range(n):
        # multiply by (x - j)
        ff = [0] + ff
        for i in range(len(ff) - 1):
            ff[i] -= j * ff[i + 1]
        yield tuple(ff)


def lagrange(points, values) -> Coeffs:
    """Interpolating polynomial through (points[i], values[i])."""
    if len(points) != len(values):
        raise ValueError("points and values must have equal length")
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    out: Coeffs = ()
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = poly([yi])
        for j, xj in enumerate(points):
            if j == i:
                continue
            term = mul(term, poly([Fraction(-xj, 1) / (xi - xj), Fraction(1, 1) / (xi - xj)]))
        out = add(out, term)
    return out


def to_str(cs: Coeffs, var: str = "x") -> str:
    """Human-readable form, highest degree first."""
    if is_zero(cs):
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
            if c < 0:
                body = "-" + body
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    return " ".join(parts)
