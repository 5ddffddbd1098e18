"""Factorization of rational-coefficient polynomials over Q.

Every nonzero f in Q[x] is written as c * g_1^e_1 * ... * g_k^e_k with c
rational and each g_i a primitive integer polynomial, irreducible over Q,
with positive leading coefficient.  Linear factors come from the rational
root theorem: each candidate p/q is tested with the integer q^n * g(p/q),
so no ``Fraction`` is built per candidate.  Higher-degree splits use
Kronecker's interpolation method, which is exact but exponential in the
degree.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import qpoly
from .primes import divisors_of
from .qpoly import IntPoly


def _strip_root_zero(g: IntPoly) -> tuple[int, IntPoly]:
    k = 0
    while g and g[0] == 0:
        g = g[1:]
        k += 1
    return k, g


def _rational_roots(g: IntPoly) -> list[Fraction]:
    """Rational roots of a primitive integer polynomial with g(0) != 0."""
    a0, an = abs(g[0]), abs(g[-1])
    roots = []
    for p in divisors_of(a0):
        for q in divisors_of(an):
            if gcd(p, q) != 1:
                continue
            for s in (p, -p):
                if qpoly.int_eval_homogeneous(g, s, q) == 0:
                    roots.append(Fraction(s, q))
    return roots


def _kronecker_split(g: IntPoly) -> tuple[IntPoly, IntPoly] | None:
    """Split a primitive integer polynomial with no rational roots.

    Returns (h, q) with g = h * q and deg h minimal >= 2, or None when g is
    irreducible over Q.
    """
    n = len(g) - 1
    gp = qpoly.poly(g)
    sample = [0]
    step = 1
    while len(sample) <= n // 2:
        sample.extend([step, -step])
        step += 1
    for d in range(2, n // 2 + 1):
        xs = sample[: d + 1]
        vals = [qpoly.int_eval(g, x) for x in xs]
        # no rational roots => no integer point is a root
        choices: list[list[int]] = []
        for i, v in enumerate(vals):
            divs = divisors_of(abs(v))
            if i == 0:
                choices.append(divs)  # fix the sign at the first point
            else:
                choices.append([s * t for t in divs for s in (1, -1)])
        stack = [(0, [])]
        while stack:
            i, picked = stack.pop()
            if i == len(xs):
                h = qpoly.lagrange(xs, [Fraction(v) for v in picked])
                if qpoly.degree(h) != d:
                    continue
                hi = qpoly.int_coeffs(h)
                if hi is None:
                    continue
                quot = qpoly.exact_div(gp, h)
                if quot is None:
                    continue
                qi = qpoly.int_coeffs(quot)
                if qi is None:
                    continue
                if hi[-1] < 0:  # normalize: g = (-h) * (-q)
                    hi = tuple(-c for c in hi)
                    qi = tuple(-c for c in qi)
                return hi, qi
            for val in choices[i]:
                stack.append((i + 1, picked + [val]))
    return None


def factor_rational(cs) -> tuple[Fraction, list[tuple[IntPoly, int]]]:
    """Factor nonzero f in Q[x] as (c, [(g_i, e_i), ...]).

    The g_i are distinct primitive integer irreducibles with positive leading
    coefficient; c * prod g_i^e_i reproduces f exactly.
    """
    cs = qpoly.poly(cs)
    if qpoly.is_zero(cs):
        raise ValueError("cannot factor the zero polynomial")
    c, prim = qpoly.content_and_primitive(cs)
    if len(prim) == 1:
        return c, []
    factors = _collect(_factor_primitive_full(prim))
    return c, factors


def _factor_primitive_full(g: IntPoly) -> list[IntPoly]:
    """All irreducible factors of primitive g with multiplicity."""
    out: list[IntPoly] = []
    k, g = _strip_root_zero(g)
    out.extend([(0, 1)] * k)
    work = [g] if len(g) > 1 else []
    while work:
        g = work.pop()
        if len(g) - 1 == 1:
            out.append(g)
            continue
        roots = _rational_roots(g)
        if roots:
            r = min(roots)
            lin = (int(-r.numerator), int(r.denominator))
            quot = qpoly.exact_div(qpoly.poly(g), qpoly.poly(lin))
            out.append(lin)
            rest = qpoly.int_coeffs(quot)
            if len(rest) > 1:
                work.append(rest)
            continue
        split = _kronecker_split(g)
        if split is None:
            out.append(g)
            continue
        h, q = split
        out.append(h)
        if len(q) > 1:
            work.append(q)
    return out


def _collect(factors: list[IntPoly]) -> list[tuple[IntPoly, int]]:
    counts: dict[IntPoly, int] = {}
    for f in factors:
        counts[f] = counts.get(f, 0) + 1
    return sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))


def is_irreducible_over_q(cs) -> bool:
    """Irreducibility over Q of a nonconstant rational polynomial."""
    cs = qpoly.poly(cs)
    if qpoly.degree(cs) < 1:
        raise ValueError("constants are not tested for irreducibility over Q")
    _, factors = factor_rational(cs)
    return len(factors) == 1 and factors[0][1] == 1
