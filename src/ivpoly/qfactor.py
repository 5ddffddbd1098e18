"""Factorization of rational-coefficient polynomials over Q.

Every nonzero f in Q[x] is written as c * g_1^e_1 * ... * g_k^e_k with c
rational and each g_i a primitive integer polynomial, irreducible over Q,
with positive leading coefficient.  f enters in its integer form
``qpoly.int_scaled(f) = (den * f, den)``, and c is the signed content of
den * f over den.  From there every step works on Python ints (integer
tuples, lowest degree first); no ``Fraction`` is built.  Primitive parts,
products and exact division over Z come from ``qpoly``'s integer layer;
this module adds the algorithms below, over Z and mod p.

1. The power of x is split off.
2. Yun's algorithm writes the rest as a_1 a_2^2 a_3^3 ... with the a_i
   square-free and pairwise coprime, which fixes every multiplicity.
3. One pass over each a_i divides out all of its linear factors: its roots
   mod one prime are Newton-lifted until lc * root is read off (Loos, *SIAM
   J. Comput.* 12 (1983)).  A remaining part of degree 2 or 3 is irreducible.
4. A remaining part g of degree 4 or more is factored by Zassenhaus's
   method (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 14-15):
   of the first few odd primes p that keep g square-free mod p, the one
   whose distinct-degree factorization has the fewest factors is taken;
   g is factored mod p (distinct-degree, then Cantor-Zassenhaus
   equal-degree splitting seeded from p); the factors are Hensel-lifted to
   p^k above twice the Mignotte bound times lc(g); and subsets of the lifted
   factors are recombined in increasing size, each candidate scaled by the
   leading coefficient and screened by its constant term before a trial
   division over Z.

Only the recombination is exponential, and only in the number of factors
mod p.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import isqrt

from . import qpoly
from .primes import odd_prime
from .qpoly import IntPoly

#: odd primes that keep g square-free mod p, compared before factoring mod p
PRIME_TRIALS = 5


def factor_rational(cs) -> tuple[Fraction, list[tuple[IntPoly, int]]]:
    """Factor nonzero f in Q[x] as (c, [(g_i, e_i), ...]).

    The g_i are distinct primitive integer irreducibles with positive leading
    coefficient, sorted by degree and then coefficients; c * prod g_i^e_i
    reproduces f exactly.
    """
    cs = qpoly.poly(cs)
    if qpoly.is_zero(cs):
        raise ValueError("cannot factor the zero polynomial")
    num, den = qpoly.int_scaled(cs)
    prim = qpoly.int_primitive(num)
    c = Fraction(num[-1] // prim[-1], den)
    if len(prim) == 1:
        return c, []
    return c, sorted(_factor_primitive(prim), key=lambda gm: (len(gm[0]), gm[0]))


def _factor_primitive(g: IntPoly) -> list[tuple[IntPoly, int]]:
    """Irreducible factors of a nonconstant primitive g with multiplicities."""
    k = 0
    while g[k] == 0:
        k += 1
    out = [((0, 1), k)] if k else []
    if len(g) - k == 1:
        return out
    for part, mult in _yun(g[k:]):
        for factor in _split_rational_roots(part):
            out.extend((h, mult) for h in _zassenhaus(factor))
    return out


# ---------------------------------------------------------------------------
# integer polynomials: lists or tuples of ints, lowest degree first


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _derivative(a) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _prem(a, b) -> list[int]:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    m, lb = len(b), b[-1]
    for i in range(len(a) - m, -1, -1):
        c = r[i + m - 1]
        r = [lb * v for v in r[: i + m - 1]]
        if c:
            for j in range(m - 1):
                r[i + j] -= c * b[j]
    return _trim(r)


def _int_gcd(a, b) -> tuple[int, ...]:
    """Primitive gcd of a nonzero a and any b in Z[x], by the primitive PRS."""
    a = qpoly.int_primitive(a)
    if not any(b):
        return a
    b = qpoly.int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, qpoly.int_primitive(r)
    return (1,)


def _yun(g: IntPoly) -> list[tuple[tuple[int, ...], int]]:
    """Square-free parts [(a_i, i), ...] of a primitive g, g = prod a_i^i.

    Yun's algorithm over Z: gcds are taken primitive, which scales b and c
    alike at every step, and each division is exact by Gauss's lemma.
    """
    dg = _derivative(g)
    a0 = _int_gcd(g, dg) if len(g) > 2 else (1,)
    if len(a0) == 1:
        return [(g, 1)]
    b, c = qpoly.int_divexact(g, a0), qpoly.int_divexact(dg, a0)
    out = []
    for i in count(1):
        if len(b) == 1:
            return out
        db = _derivative(b)
        d = _trim([x - y for x, y in zip_longest(c, db, fillvalue=0)])
        a = _int_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = qpoly.int_divexact(b, a), qpoly.int_divexact(d, a)


def _split_rational_roots(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Linear factors of a square-free primitive a with a(0) != 0, and the rest.

    A root s/q of a is a root r mod the first odd prime p not dividing lc(a) at
    which all roots are simple; Newton's iteration on a lifts r until m exceeds
    2 |lc(a) a(0)|, and then lc(a) r mod m has symmetric residue lc(a) s/q.
    """
    if len(a) <= 2:
        return [a]
    da = _derivative(a)
    for p in map(odd_prime, count()):
        if a[-1] % p == 0:
            continue
        roots = []
        for r in range(p):
            if qpoly.int_eval(a, r) % p == 0:
                if qpoly.int_eval(da, r) % p == 0:
                    break  # a multiple root mod p
                roots.append(r)
        else:
            break
    bound = 2 * abs(a[-1] * a[0])
    out, rest = [], a
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - qpoly.int_eval(a, r) * pow(qpoly.int_eval(da, r), -1, m)) % m
        v = a[-1] * r % m
        h = qpoly.int_primitive((m - v if 2 * v > m else -v, a[-1]))
        quot = qpoly.int_divexact(rest, h)
        if quot is not None:
            out.append(h)
            rest = quot
            if len(rest) <= 2:
                break
    return out + [rest]


# ---------------------------------------------------------------------------
# polynomials mod m: lists of ints in [0, m), lowest degree first


def _mod(a, m: int) -> list[int]:
    return _trim([c % m for c in a])


def _add(a, b, m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _mod([x + y for x, y in zip(a, b)] + list(a[len(b):]), m)


def _sub(a, b, m: int) -> list[int]:
    return _add(a, [-c for c in b], m)


def _mul(a, b, m: int) -> list[int]:
    return _mod(qpoly.int_mul(a, b), m)


def _divmod(a, b, m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m; the leading coefficient of b is a unit."""
    r = list(a)
    n = len(b)
    if len(r) < n:
        return [], _mod(r, m)
    inv = pow(b[-1], -1, m)
    q = [0] * (len(r) - n + 1)
    for i in range(len(r) - n, -1, -1):
        c = r[i + n - 1] * inv % m
        q[i] = c
        if c:
            for j in range(n - 1):
                r[i + j] -= c * b[j]
    return _trim(q), _mod(r[: n - 1], m)


def _rem(a, b, m: int) -> list[int]:
    return _divmod(a, b, m)[1]


def _monic(a, p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_p(a, b, p: int) -> list[int]:
    """Monic gcd in F_p[x] of a nonzero a and any b."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


def _gcdex_p(a, b, p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 in F_p[x], for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _powmod(a, e: int, f, p: int) -> list[int]:
    """a^e mod f in F_p[x]."""
    out, a = [1], _rem(a, f, p)
    while e:
        if e & 1:
            out = _rem(_mul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _rem(_mul(a, a, p), f, p)
    return out


def _ddf(f, p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of a monic square-free f in F_p[x].

    [(h_d, d), ...] with h_d the product of the irreducible factors of
    degree d; the factor count is the sum of deg h_d / d.
    """
    out = []
    xp = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        xp = _powmod(xp, p, f, p)  # x^(p^d) mod f
        h = _gcd_p(f, _sub(xp, [0, 1], p), p)
        if len(h) > 1:
            out.append((h, d))
            f = _divmod(f, h, p)[0]
            xp = _rem(xp, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f, d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: the monic irreducible factors of degree d of f mod odd p."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _gcd_p(f, a, p)
        if len(h) == 1:
            h = _gcd_p(f, _sub(_powmod(a, e, f, p), [1], p), p)
        if 1 < len(h) < len(f):
            return _edf(h, d, p, rng) + _edf(_divmod(f, h, p)[0], d, p, rng)


def _factor_mod_prime(g) -> tuple[int, list[list[int]]]:
    """(p, monic irreducible factors of g mod p) for a square-free primitive g.

    Of the first PRIME_TRIALS odd primes not dividing lc(g) that keep g
    square-free mod p, the one whose distinct-degree factorization has the
    fewest factors; a prime with one factor ends the search, since then g
    is irreducible.  The choice and the factors depend only on g.
    """
    best = None
    trials = 0
    for i in count():
        p = odd_prime(i)
        if g[-1] % p == 0:
            continue
        f = _monic(_mod(g, p), p)
        if len(_gcd_p(f, _mod(_derivative(f), p), p)) > 1:
            continue
        parts = _ddf(f, p)
        n = sum((len(h) - 1) // d for h, d in parts)
        if best is None or n < best[0]:
            best = (n, p, parts)
        trials += 1
        if n == 1 or trials == PRIME_TRIALS:
            break
    _, p, parts = best
    rng = random.Random(p)
    return p, [h for part, d in parts for h in _edf(part, d, p, rng)]


def _hensel_step(m: int, f, g, h, s, t):
    """Lift f = g h, s g + t h = 1 from mod m to mod m^2 (h monic).

    Von zur Gathen and Gerhard, Algorithm 15.10.
    """
    mm = m * m
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g2 = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h2 = _add(h, r, mm)
    b = _sub(_add(_mul(s, g2, mm), _mul(t, h2, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h2, mm)
    s2 = _sub(s, d, mm)
    t2 = _sub(t, _add(_mul(t, b, mm), _mul(c, g2, mm), mm), mm)
    return g2, h2, s2, t2


def _hensel_lift(f, factors, p: int, k: int) -> list[list[int]]:
    """Monic F_i mod p^k with f = lc(f) prod F_i mod p^k and F_i = factors[i] mod p.

    The factors are monic and pairwise coprime mod p, with
    f = lc(f) prod factors mod p; they are lifted in a binary tree.
    """
    m = p**k
    if len(factors) == 1:
        return [_mod([c * pow(f[-1], -1, m) for c in f], m)]
    half = len(factors) // 2
    g = [f[-1] % p]
    for a in factors[:half]:
        g = _mul(g, a, p)
    h = [1]
    for a in factors[half:]:
        h = _mul(h, a, p)
    s, t = _gcdex_p(g, h, p)
    mod = p
    for _ in range((k - 1).bit_length()):
        g, h, s, t = _hensel_step(mod, f, g, h, s, t)
        mod *= mod
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _zassenhaus(g: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Irreducible factors of a square-free primitive g with positive leading coefficient.

    Parts of degree 3 or less reach here only without rational roots, so
    they are irreducible as they stand.
    """
    n = len(g) - 1
    if n <= 3:
        return [g]
    p, factors = _factor_mod_prime(g)
    if len(factors) == 1:
        return [g]
    # for a factor h of g, lc(g)/lc(h) * h has 1-norm at most
    # 2^deg(h) |g|_2 (Landau-Mignotte), so below bound / 2
    bound = 2 * (isqrt(n + 1) + 1) * 2**n * max(map(abs, g)) * g[-1]
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    return _recombine(g, _hensel_lift(g, factors, p, k), m)


def _recombine(g: tuple[int, ...], lifted: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """The factors over Z of g whose reductions are products of the lifted factors.

    A true factor h gives lc(g)/lc(h) * h = lc(g) * prod of a subset, mod m,
    with every coefficient below m/2, so each subset is tried through its
    symmetric residue.  Subsets grow in size; a found factor's subset is
    dropped and the search goes on with the cofactor.
    """
    out = []
    pieces = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(pieces):
        lc, target = g[-1], g[-1] * g[0]
        for subset in combinations(pieces, size):
            c0 = lc
            for i in subset:
                c0 = c0 * lifted[i][0] % m
            if c0 > m // 2:
                c0 -= m
            if c0 == 0 or target % c0:
                continue  # the constant term must divide lc(g) * g(0)
            cand = [lc]
            for i in subset:
                cand = _mul(cand, lifted[i], m)
            h = qpoly.int_primitive([c - m if c > m // 2 else c for c in cand])
            quot = qpoly.int_divexact(g, h)
            if quot is not None:
                out.append(h)
                g = quot
                pieces = [i for i in pieces if i not in subset]
                break
        else:
            size += 1
    return out + [g]
