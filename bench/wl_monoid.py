"""Workload ``monoid``: Puiseux monoids and monoid rings.

Closed-form Grams and dyadic membership and ``grams_decompose`` set the
median latency; bounded-search membership and atoms on ``PrimeReciprocal``
and ``ExplicitMonoid``, the ACCP chain and monoid-ring arithmetic over Z, Q,
F_2 and F_3 fill the middle; Grams factorization lists and length sets at
length caps 12..30 set throughput and the 90th percentile.  No query touches
``qpoly`` or ``linprog``.
"""
from __future__ import annotations

from fractions import Fraction

import oracles as o
from harness import Query, expect

PRIMES = o.primes(40)
#: Grams members whose factorization lists are enumerated at every cap
GRAMS_TARGETS = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(2),
                 Fraction(3, 2), Fraction(11, 10), Fraction(15, 28), Fraction(7, 4))
#: above this cap the brute-force comparison of factorization lists is skipped
BRUTE_CAP = 16


def grams_member_value(rng, gens: int) -> Fraction:
    """A dyadic plus multiples of ``gens`` distinct Grams generators."""
    q = Fraction(rng.randint(0, 8), 2 ** rng.randint(0, 6))
    for i in rng.sample(range(8), gens):
        q += rng.randint(1, 6) * o.grams_generator(i)
    return q


def ring_element(rng, ring: str, terms: int) -> list[tuple[int, Fraction]]:
    lo = {"Z": -9, "Q": -9, "F2": 1, "F3": 1}[ring]
    hi = {"Z": 9, "Q": 9, "F2": 1, "F3": 2}[ring]
    out = []
    for _ in range(terms):
        c = rng.randint(lo, hi) or 1
        if ring == "Q":
            c = Fraction(c, rng.randint(1, 5))
        out.append((c, Fraction(rng.randint(0, 40), rng.randint(1, 12))))
    return out


# ---------------------------------------------------------------------------
# checks


def check_certificate(q, gen, combo) -> str | None:
    """A member's certificate, (index, multiplicity) pairs or None for a
    non-member, sums back to q with the benchmark's own generators."""
    if combo is None:
        return f"{q} reported not a member"
    if any(m <= 0 for _, m in combo):
        return "certificate has a nonpositive multiplicity"
    total = sum((m * gen(i) for i, m in combo), Fraction(0))
    return expect(total, q, "certificate sum")


def check_membership(q, gen, want: bool, result) -> str | None:
    if want:
        return check_certificate(q, gen, result.certificate.combo if result.is_member else None)
    return expect(result.is_member, False, f"membership of {q}")


def check_decompose(q, nu, coeffs) -> str | None:
    """nu plus the (index, residue) pairs of coeffs; nu None for a non-member."""
    member = o.grams_member(q)
    if nu is None:
        return None if not member else f"{q} is a member but no decomposition was given"
    if not member:
        return f"{q} is not a member but was decomposed"
    den = nu.denominator
    if nu < 0 or den & (den - 1):
        return f"nu = {nu} is not a nonnegative dyadic"
    value = nu
    for i, c in coeffs:
        if not 0 <= c < o.ODD_PRIMES[i]:
            return f"residue {c} at index {i} out of range"
        value += c * o.grams_generator(i)
    return expect(value, q, "decomposition value")


def check_atoms(want, result) -> str | None:
    return expect(list(result), sorted(want, key=lambda a: (a.denominator, a)), "atoms")


def check_chain(n_max, steps) -> str | None:
    """steps: (n, ascending and strict, certificate combo) per step of the chain."""
    if len(steps) != n_max + 1:
        return f"{len(steps)} steps, expected {n_max + 1}"
    for n, ascending_strict, combo in steps:
        if not ascending_strict:
            return f"step {n} not ascending and strict"
        problem = check_certificate(Fraction(1, 2 ** (n + 1)), o.grams_generator, combo)
        if problem:
            return f"step {n}: {problem}"
    return None


def check_factorizations(b, cap, factorizations) -> str | None:
    """Each factorization (a sequence of parts) sums to b from Grams atoms;
    the full list at small caps."""
    atoms = {o.grams_generator(i) for i in range(40)}
    listed = set()
    for parts in factorizations:
        if sum(parts, Fraction(0)) != b:
            return f"parts {parts} do not sum to {b}"
        if len(parts) > cap or any(p not in atoms for p in parts):
            return f"{parts} breaks the cap or uses a non-atom"
        listed.add(tuple(sorted(parts, reverse=True)))
    if len(listed) != len(factorizations):
        return "a factorization is listed twice"
    if cap <= BRUTE_CAP and listed != o.grams_factorizations(b, cap):
        return f"{len(listed)} factorizations listed, brute force finds a different set"
    return None


def check_length_set(b, cap, lengths, elasticity) -> str | None:
    lengths = sorted(lengths)
    want = Fraction(lengths[-1], lengths[0]) if lengths else None
    if elasticity != want:
        return "elasticity is not max/min"
    return expect(lengths, sorted(o.grams_length_set(b, cap)), "lengths")


def check_ring(want: dict, terms) -> str | None:
    """terms: (coefficient, exponent) pairs, in the order the program gave them."""
    exps = [e for _, e in terms]
    if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
        return "terms are not in strictly decreasing exponent order"
    return expect({e: c for c, e in terms}, want, "terms")


def check_monomial_divides(c, exponents, result) -> str | None:
    want = all(e >= c and o.grams_member(e - c) for e in exponents)
    return expect(result, want, f"y^{c} divides")


# ---------------------------------------------------------------------------


def build(rng) -> list[Query]:
    from ivpoly import monoid_ring as mr, puiseux as pu

    grams, dyadic = pu.GramsMonoid(), pu.DyadicValuation()
    qs: list[Query] = []

    def member_query(kind, spec, q, gen, want):
        qs.append(Query(kind, lambda: pu.membership(spec, q),
                        lambda r: check_membership(q, gen, want, r)))

    # the number of generators, which sets the cost, is stratified
    for i in range(40):
        member_query("grams_member", grams, grams_member_value(rng, 1 + i % 4), o.grams_generator, True)
    for _ in range(20):
        p = rng.choice(o.ODD_PRIMES[:5])
        q = Fraction(rng.choice([a for a in range(1, 40) if a % p]), p * p * rng.randint(1, 6))
        member_query("grams_nonmember", grams, q, o.grams_generator, False)
    for _ in range(10):
        q = Fraction(rng.randint(1, 200), rng.randint(1, 200))
        member_query("grams_random", grams, q, o.grams_generator, o.grams_member(q))
    for _ in range(20):
        q = Fraction(rng.randint(1, 99), 2 ** rng.randint(0, 8) * rng.choice([1, 1, 3, 5]))
        den = q.denominator
        member_query("dyadic_member", dyadic, q, lambda i: Fraction(1, 2**i), den & (den - 1) == 0)
    for i in range(30):
        q = grams_member_value(rng, 1 + i // 2 % 4) if i % 2 else Fraction(rng.randint(1, 300),
                                                                          rng.randint(1, 300))
        qs.append(Query("grams_decompose", lambda q=q: pu.grams_decompose(q),
                        lambda r, q=q: check_decompose(q, None, ()) if r is None
                        else check_decompose(q, r.nu, r.coeffs)))
    prime_reciprocal = pu.PrimeReciprocal(16)
    for i in range(30):
        if i % 3:
            q = sum((Fraction(rng.randint(1, 3), p) for p in rng.sample(PRIMES[:16], 1 + i // 3 % 3)),
                    Fraction(0))
            want = True
        else:
            q = Fraction(rng.randint(1, 4), rng.choice(PRIMES[16:30]))
            want = False
        member_query("prime_reciprocal_member", prime_reciprocal, q,
                     lambda i: Fraction(1, PRIMES[i]), want)
    for _ in range(20):
        gens = tuple(sorted({Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(3)}))
        spec = pu.ExplicitMonoid(gens)
        if rng.random() < 0.5:
            q = sum((rng.randint(0, 3) * g for g in gens), Fraction(0)) or gens[0]
        else:
            q = Fraction(rng.randint(1, 30), rng.randint(1, 12))
        member_query("explicit_member", spec, q, lambda i, gens=gens: gens[i],
                     o.monoid_reachable(gens, q))
    for t in range(4, 21, 2):
        spec = pu.PrimeReciprocal(t)
        bound = rng.randint(10, 1000)
        want = [Fraction(1, p) for p in PRIMES[:t] if p <= bound]
        qs.append(Query("prime_reciprocal_atoms", lambda s=spec, b=bound: pu.atoms_up_to(s, b),
                        lambda r, w=want: check_atoms(w, r)))
    for _ in range(8):
        bound = rng.randint(10**2, 10**6)
        want = [g for g in map(o.grams_generator, range(40)) if g.denominator <= bound]
        qs.append(Query("grams_atoms", lambda b=bound: pu.atoms_up_to(grams, b),
                        lambda r, w=want: check_atoms(w, r)))
    for _ in range(8):
        gens = tuple(sorted({Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(4)}))
        spec = pu.ExplicitMonoid(gens)
        want = [g for g in o.explicit_atoms(gens)]
        qs.append(Query("explicit_atoms", lambda s=spec: pu.atoms_up_to(s, 4),
                        lambda r, w=want: check_atoms(w, r)))
    for n_max in range(5, 41, 5):
        qs.append(Query("accp_chain_check", lambda n=n_max: pu.accp_chain_check(grams, n),
                        lambda r, n=n_max: check_chain(n, [
                            (s.step, s.ascending and s.strict, s.certificate and s.certificate.combo)
                            for s in r])))

    rings = {"Z": (mr.ZZ, None), "Q": (mr.QQ, None), "F2": (mr.GF(2), 2), "F3": (mr.GF(3), 3)}
    for i in range(20):
        tag = ("Z", "Q", "F2", "F3")[i % 4]
        ring, p = rings[tag]
        ta, tb = ring_element(rng, tag, rng.randint(1, 5)), ring_element(rng, tag, rng.randint(1, 5))
        a, b = mr.element(ring, ta), mr.element(ring, tb)
        want = o.ring_mul(o.ring_canon(ta, p), o.ring_canon(tb, p), p)
        qs.append(Query("ring_mul", lambda a=a, b=b: mr.mul(a, b),
                        lambda r, w=want: check_ring(w, r.terms)))
    for i in range(12):
        tag = ("Z", "Q", "F2", "F3")[i % 4]
        ring, p = rings[tag]
        ta, n = ring_element(rng, tag, rng.randint(1, 3)), rng.randint(2, 5)
        a = mr.element(ring, ta)
        want = o.ring_power(o.ring_canon(ta, p), n, p)
        qs.append(Query("ring_power", lambda a=a, n=n: mr.power(a, n),
                        lambda r, w=want: check_ring(w, r.terms)))
    for i in range(12):
        tag = ("F2", "F3")[i % 2]
        ring, p = rings[tag]
        terms = ring_element(rng, tag, rng.randint(1, 6))
        f = mr.element(ring, terms)
        want = o.ring_canon(terms, p)
        qs.append(Query("pth_root", lambda f=f: mr.pth_root(f),
                        lambda r, w=want, p=p: expect(
                            o.ring_power({e: c for c, e in r.terms}, p, p), w, "root^p")))
    for i in range(20):
        tag = ("Z", "Q", "F2", "F3")[i % 4]
        ring, p = rings[tag]
        terms = [(1, grams_member_value(rng, 1 + j % 4)) for j in range(1 + i // 4 % 4)]
        f = mr.element(ring, terms)
        exps = list(o.ring_canon(terms, p))
        c = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10),
                        min(exps), min(exps) - Fraction(1, 4)])
        c = max(c, Fraction(0))
        qs.append(Query("monomial_divides", lambda c=c, f=f: mr.monomial_divides(c, f, grams),
                        lambda r, c=c, e=exps: check_monomial_divides(c, e, r)))

    # the same ladder for every seed: its cost swings with the target far
    # more than with anything a seed varies elsewhere
    for cap in range(12, 31):
        b = GRAMS_TARGETS[cap % len(GRAMS_TARGETS)]
        qs.append(Query("grams_factorizations", lambda b=b, c=cap: pu.factorizations(grams, b, c),
                        lambda r, b=b, c=cap: check_factorizations(b, c, [z.parts for z in r])))
        b = GRAMS_TARGETS[(cap + 4) % len(GRAMS_TARGETS)]
        qs.append(Query("grams_length_set", lambda b=b, c=cap: pu.length_set(grams, b, c),
                        lambda r, b=b, c=cap: check_length_set(b, c, r.lengths, r.elasticity)))
    rng.shuffle(qs)
    return qs
