"""Arithmetic the benchmark checks ivpoly's answers with.

Nothing in this module imports ivpoly.  Polynomials are tuples of
``Fraction`` coefficients, lowest degree first, with trailing zeros trimmed;
monoid-ring elements are dicts from exponent to coefficient.  Every routine
is written from the definitions, so a wrong answer from the library cannot
be reproduced here by sharing its code.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# dense polynomials over Q


def trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b) -> tuple:
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def pscale(a, k) -> tuple:
    return trim(c * k for c in a)


def pmul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def peval(cs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def pdiv_exact(a, b) -> tuple | None:
    """a / b by long division in Q[x] when it is exact, else None."""
    rem = list(trim(a))
    b = trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b) and rem:
        shift = len(rem) - len(b)
        coeff = rem[-1] / b[-1]
        q[shift] = coeff
        for j, c in enumerate(b):
            rem[shift + j] -= coeff * c
        rem = list(trim(rem))
    return None if rem else trim(q)


def positive_leading(cs) -> tuple:
    return tuple(-c for c in cs) if cs and cs[-1] < 0 else tuple(cs)


def forward_differences(cs) -> list[Fraction]:
    """Forward differences at 0 of the values at 0..deg: binomial coordinates."""
    row = [peval(cs, k) for k in range(max(len(cs), 1))]
    out = []
    while row:
        out.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return out


def integer_valued(cs, points=None) -> bool:
    """Maps Z (points None) or the given points into the integers."""
    if points is not None:
        return all(peval(cs, s).denominator == 1 for s in points)
    return all(d.denominator == 1 for d in forward_differences(cs))


def binomial_poly(n: int) -> tuple:
    """x (x-1) ... (x-n+1) / n!, built as a running falling factorial."""
    cs: tuple = (Fraction(1),)
    for i in range(n):
        cs = pscale(pmul(cs, (Fraction(-i), Fraction(1))), Fraction(1, i + 1))
    return cs


def from_deltas(deltas) -> tuple:
    """sum deltas[j] * C(x, j)."""
    out: tuple = ()
    falling: tuple = (Fraction(1),)
    for j, d in enumerate(deltas):
        out = padd(out, pscale(falling, d))
        falling = pscale(pmul(falling, (Fraction(-j), Fraction(1))), Fraction(1, j + 1))
    return out


def content_primitive(cs) -> tuple[Fraction, tuple]:
    """cs = c * P with P a primitive integer polynomial of positive leading coefficient."""
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), tuple(v // g for v in ints)


def value_gcd(int_cs) -> int:
    """gcd of the values of an integer polynomial at 0..deg (its fixed divisor)."""
    g = 0
    for k in range(max(len(int_cs), 1)):
        g = gcd(g, int(peval(int_cs, k)))
    return g


def divisors_of(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def primes(count: int) -> list[int]:
    """The first ``count`` primes, by a sieve that doubles until it has enough."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\x00\x00"
        for n in range(2, int(limit**0.5) + 1):
            if sieve[n]:
                sieve[n * n::n] = bytearray(len(range(n * n, limit, n)))
        found = [n for n in range(limit) if sieve[n]]
        if len(found) >= count:
            return found[:count]
        limit *= 2


def int_poly(cs) -> tuple:
    return tuple(Fraction(c) for c in cs)


def brute_divisors(f, factors) -> set[tuple]:
    """Every divisor of f in Int(Z) up to sign, from f's factorization over Q.

    ``factors`` is (c, [(P, m), ...]) with f = c * prod P^m, computed
    outside ivpoly.  A divisor is u * G for G a product of a sub-multiset of
    the P and u = a/b > 0 in lowest terms.  u * G is integer-valued iff b
    divides the fixed divisor of G, and the cofactor (c/u) * G' is iff
    den(c) * a divides num(c) * b * (fixed divisor of G'), so those ranges
    are searched in full and each candidate is tested directly.
    """
    c, facs = factors
    cn, cd = abs(c.numerator), c.denominator
    vecs: list[tuple] = [()]
    for _, m in facs:
        vecs = [v + (e,) for v in vecs for e in range(m + 1)]
    found = set()
    for vec in vecs:
        g: tuple = (Fraction(1),)
        gc: tuple = (Fraction(1),)
        for (p, m), e in zip(facs, vec):
            for _ in range(e):
                g = pmul(g, int_poly(p))
            for _ in range(m - e):
                gc = pmul(gc, int_poly(p))
        dg, dgc = value_gcd(g), value_gcd(gc)
        for b in divisors_of(dg):
            for a in divisors_of(cn * b * dgc):
                if gcd(a, b) != 1:
                    continue
                d = pscale(g, Fraction(a, b))
                cof = pscale(gc, c * Fraction(b, a))
                if integer_valued(d) and integer_valued(cof):
                    found.add(d)
    return found


def int_factorizations(target, divisors: set[tuple]) -> set[tuple]:
    """Every factorization of target into irreducibles of Int(Z), up to sign.

    ``divisors`` is the complete set of divisors of target (brute_divisors).
    e divides d in Int(Z) when d/e is integer-valued; an irreducible is a
    non-unit divisor with no divisor in the set but 1 and itself.  Each
    factorization is a sorted tuple of positive-leading coefficient tuples.
    """
    one = (Fraction(1),)

    def quotient(g, e):
        q = pdiv_exact(g, e)
        return positive_leading(q) if q is not None and integer_valued(q) else None

    atoms = [d for d in divisors if d != one
             and not any(e not in (one, d) and quotient(d, e) is not None for e in divisors)]
    memo: dict = {one: {()}}

    def rec(g) -> set[tuple]:
        if g not in memo:
            memo[g] = {tuple(sorted(z + (a,))) for a in atoms
                       if (rest := quotient(g, a)) is not None for z in rec(rest)}
        return memo[g]

    return rec(positive_leading(trim(target)))


# ---------------------------------------------------------------------------
# additive monoids of rationals


ODD_PRIMES = primes(201)[1:]


def grams_generator(i: int) -> Fraction:
    return Fraction(1, 2**i * ODD_PRIMES[i])


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def grams_member(q: Fraction) -> bool:
    """Membership in < 1/(2^n p_n) > from the definition.

    An odd prime p = p_i dividing den(q) must occur to the first power and
    can only come from generator i, whose multiplicity is fixed mod p by the
    p-part of q; after removing the least such multiplicities what is left
    must be a sum of dyadic blocks p_j * 1/(2^j p_j) = 1/2^j, i.e. a
    nonnegative dyadic rational.
    """
    q = Fraction(q)
    if q < 0:
        return False
    rest = q
    for p, e in prime_factors(q.denominator).items():
        if p == 2:
            continue
        if e > 1:
            return False
        i = ODD_PRIMES.index(p)
        gen = Fraction(1, 2**i * p)
        # smallest k >= 0 with (q - k * gen) free of p in the denominator
        k = next(k for k in range(p) if (q - k * gen).denominator % p)
        rest -= k * gen
    den = rest.denominator
    return rest >= 0 and den & (den - 1) == 0


def monoid_reachable(gens, q: Fraction) -> bool:
    """Is q a nonnegative integer combination of the finitely many gens?"""
    q = Fraction(q)
    if q < 0:
        return False
    den = q.denominator
    for g in gens:
        den = den * g.denominator // gcd(den, g.denominator)
    target = int(q * den)
    steps = [int(g * den) for g in gens]
    reach = [False] * (target + 1)
    reach[0] = True
    for v in range(1, target + 1):
        reach[v] = any(s <= v and reach[v - s] for s in steps)
    return reach[target]


def explicit_atoms(gens) -> set[Fraction]:
    """Generators that are not a sum of two nonzero elements of < gens >."""
    atoms = set()
    for g in gens:
        if not any(h < g and monoid_reachable(gens, g - h) for h in gens):
            atoms.add(g)
    return atoms


def grams_factorizations(b: Fraction, cap: int) -> set[tuple]:
    """All multisets of Grams generators with sum b and at most cap parts.

    Generator j can occur in such a multiset only if p_j divides den(b) or
    p_j <= cap: otherwise its multiplicity must be a positive multiple of
    p_j to clear p_j from the sum.  Plain recursion over those generators.
    """
    b = Fraction(b)
    idx = [j for j, p in enumerate(ODD_PRIMES) if p <= cap or b.denominator % p == 0]
    gens = sorted((grams_generator(j) for j in idx), reverse=True)
    gens = [g for g in gens if g <= b]
    out: set[tuple] = set()

    def rec(pos: int, remaining: Fraction, acc: tuple) -> None:
        if remaining == 0:
            out.add(acc)
            return
        if pos == len(gens) or len(acc) == cap:
            return
        g = gens[pos]
        k = 0
        while k * g <= remaining and len(acc) + k <= cap:
            rec(pos + 1, remaining - k * g, acc + (g,) * k)
            k += 1

    rec(0, b, ())
    return out


def grams_length_set(b: Fraction, cap: int) -> set[int]:
    """The numbers of parts, at most cap, of the multisets of Grams generators with sum b.

    The same generators as grams_factorizations, taken in index order.  Once
    the multiplicity of generator j is chosen, p_j must be gone from the
    denominator of what is left, since no later generator has p_j in its
    own; so that multiplicity is fixed mod p_j.  A memoised recursion on
    (position, remainder) returns the set of reachable part counts.
    """
    b = Fraction(b)
    idx = [j for j, p in enumerate(ODD_PRIMES) if p <= cap or b.denominator % p == 0]
    gens = [(grams_generator(j), ODD_PRIMES[j]) for j in idx]
    memo: dict = {}

    def rec(pos: int, remaining: Fraction) -> frozenset:
        if remaining == 0:
            return frozenset([0])
        if pos == len(gens):
            return frozenset()
        key = (pos, remaining)
        if key not in memo:
            g, p = gens[pos]
            found = set()
            k = next(k for k in range(p) if (remaining - k * g).denominator % p)
            while k * g <= remaining and k <= cap:
                found.update(k + n for n in rec(pos + 1, remaining - k * g) if k + n <= cap)
                k += p
            memo[key] = frozenset(found)
        return memo[key]

    return set(rec(0, b))


# ---------------------------------------------------------------------------
# monoid rings: {exponent: coefficient}


def ring_canon(terms, p: int | None) -> dict:
    out: dict = {}
    for c, e in terms:
        out[Fraction(e)] = out.get(Fraction(e), 0) + c
    if p is not None:
        out = {e: c % p for e, c in out.items()}
    return {e: c for e, c in out.items() if c != 0}


def ring_mul(a: dict, b: dict, p: int | None) -> dict:
    return ring_canon(
        [(ca * cb, ea + eb) for ea, ca in a.items() for eb, cb in b.items()], p
    )


def ring_power(a: dict, n: int, p: int | None) -> dict:
    out = {Fraction(0): 1}
    for _ in range(n):
        out = ring_mul(out, a, p)
    return out


# ---------------------------------------------------------------------------
# the rational cone in Q[t]


def cone_generator(label: str) -> tuple:
    """t^n, a_n = 1 - t^(n+1), b_n = t - t^(n+1) from their labels."""
    if label.startswith("t^"):
        n = int(label[2:])
        return trim([0] * n + [1])
    kind, n = label.split("_")
    n = int(n)
    base = [1] if kind == "a" else [0, 1]
    out = base + [0] * (n + 1 - len(base)) + [-1]
    return trim(out)
