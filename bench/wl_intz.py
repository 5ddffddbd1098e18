"""Workload ``intz``: Int(Z) and Int(S,Z).

Many cheap verdict queries (membership, binomial-basis conversions,
irreducibility on finite sites and of low-degree members, irreducible
divisors, vanishing witnesses) set the median latency; fewer enumeration
queries (divisors, factorizations, length profiles, factoring over Q,
irreducibility of C(x,n)) set throughput and the 90th percentile.  Sizes are
stratified, so every seed draws the same mix of degrees and only the
coefficients change.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import oracles as o
from harness import Query, expect

_sympy = None


def _q_factorization(cs) -> tuple[Fraction, list[tuple[tuple[int, ...], int]]]:
    """(c, [(P, m)]) with cs = c * prod P^m, P primitive irreducible, from sympy."""
    global _sympy
    if _sympy is None:
        import sympy

        _sympy = sympy
    c, prim = o.content_primitive(cs)
    x = _sympy.Symbol("x")
    unit, facs = _sympy.Poly(list(reversed(prim)), x).factor_list()
    out = []
    for p, m in facs:
        coeffs = tuple(int(v) for v in reversed(p.all_coeffs()))
        if coeffs[-1] < 0:
            coeffs = tuple(-v for v in coeffs)
            unit *= (-1) ** m
        out.append((coeffs, m))
    return c * int(unit), sorted(out, key=lambda pm: (len(pm[0]), pm[0]))


@lru_cache(maxsize=None)
def brute_divisors(target: tuple) -> frozenset:
    """Every divisor of the positive-leading target, by brute force over sympy's factors."""
    return frozenset(o.brute_divisors(target, _q_factorization(target)))


def members_deg(rng, deg: int, spread: int = 4) -> tuple:
    """A member of Int(Z) of exactly the given degree, from binomial coordinates."""
    deltas = [rng.randint(-spread, spread) for _ in range(deg + 1)]
    deltas[-1] = rng.choice([v for v in range(-spread, spread + 1) if v])
    return o.from_deltas(deltas)


def _random_rational_poly(rng, deg: int, den: int) -> tuple:
    cs = [Fraction(rng.randint(-10**3, 10**3), rng.randint(1, den)) for _ in range(deg + 1)]
    if cs[-1] == 0:
        cs[-1] = Fraction(1)
    return tuple(cs)


def _site(rng, lo: int, hi: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(lo, hi + 1), size)))


# ---------------------------------------------------------------------------
# checks


def check_divisors(f, got: list[tuple], complete: bool) -> str | None:
    """Each divisor (a coefficient tuple) and its cofactor are members; the
    list is closed under d -> f/d; with ``complete`` it is every divisor."""
    target = o.positive_leading(f)
    if len(set(got)) != len(got):
        return "duplicate divisors"
    listed = set(got)
    for d in got:
        if not d or d[-1] < 0:
            return f"divisor {d} is not normalized"
        cof = o.pdiv_exact(target, d)
        if cof is None:
            return f"{d} does not divide f in Q[x]"
        if not o.integer_valued(d) or not o.integer_valued(cof):
            return f"divisor {d} or its cofactor is not integer-valued"
        if o.positive_leading(cof) not in listed:
            return f"cofactor of {d} is missing from the list"
    if complete:
        brute = brute_divisors(target)
        if brute != listed:
            return f"{len(listed)} divisors listed, brute force finds {len(brute)}"
    return None


def check_factorizations(f, factorizations: list, complete: bool) -> str | None:
    """Each factorization (a sequence of coefficient tuples) multiplies back
    to f up to sign from non-unit parts; with ``complete`` the list is every
    factorization into the irreducibles the brute-force divisors give."""
    if not factorizations:
        return "no factorization listed"
    target = o.positive_leading(f)
    seen = set()
    for parts in factorizations:
        prod: tuple = (Fraction(1),)
        for part in parts:
            if part in ((1,), (-1,)):
                return "a part is a unit"
            prod = o.pmul(prod, part)
        if o.positive_leading(prod) != target:
            return f"parts multiply to {prod}, not f"
        key = tuple(sorted(o.positive_leading(p) for p in parts))
        if key in seen:
            return "a factorization is listed twice"
        seen.add(key)
    if complete:
        want = o.int_factorizations(target, brute_divisors(target))
        if seen != want:
            return f"{len(seen)} factorizations listed, brute force finds {len(want)}"
    return None


def check_length_profile(f, lengths, elasticity, hfd_violation, complete: bool) -> str | None:
    """Elasticity is max/min; with ``complete`` the lengths are those of the
    brute-force factorizations."""
    lengths = sorted(lengths)
    if not lengths or lengths[0] < 1:
        return f"bad length set {lengths}"
    if elasticity != Fraction(lengths[-1], lengths[0]):
        return f"elasticity {elasticity} is not max/min of {lengths}"
    if complete:
        target = o.positive_leading(f)
        want = sorted({len(z) for z in o.int_factorizations(target, brute_divisors(target))})
        if lengths != want:
            return f"lengths {lengths}, brute force finds {want}"
    return expect(hfd_violation, len(lengths) > 1, "hfd_violation")


def check_factor_rational(cs, result) -> str | None:
    """Agrees with sympy's factor_list and multiplies back to f."""
    c, factors = result
    want = _q_factorization(cs)
    got = (c, sorted(((tuple(g), e) for g, e in factors), key=lambda pm: (len(pm[0]), pm[0])))
    if got != want:
        return f"factorization {got} differs from sympy's {want}"
    prod: tuple = (Fraction(c),)
    for g, e in factors:
        for _ in range(e):
            prod = o.pmul(prod, o.int_poly(g))
    return expect(prod, o.trim(cs), "product of the factors")


def check_irreducible_z(cs, result) -> str | None:
    """Irreducible iff the brute-force divisor set is {1, f}."""
    target = o.positive_leading(o.trim(cs))
    return expect(result, brute_divisors(target) == {(Fraction(1),), target}, "is_irreducible")


def check_irreducible_site(cs, points, result) -> str | None:
    """Degree <= 1 on a finite site: a prime constant, or values with gcd 1."""
    cs = o.trim(cs)
    if len(cs) == 1:
        want = o.is_prime(abs(int(cs[0])))
    else:
        g = 0
        for s in points:
            g = gcd(g, int(o.peval(cs, s)))
        want = g == 1
    return expect(result, want, "is_irreducible on the site")


def check_irreducible_divisor(cs, points, result) -> str | None:
    d = result.coeffs
    if d in ((1,), (-1,)) or not d:
        return "divisor is a unit"
    cof = o.pdiv_exact(o.trim(cs), d)
    if cof is None or not o.integer_valued(cof, points):
        return f"{d} does not divide f in the ring"
    if len(d) == 1:
        return None if o.is_prime(abs(int(d[0]))) else f"constant {d[0]} is not prime"
    if points is not None:
        return "a non-constant divisor on a finite site is not checked"
    target = o.positive_leading(d)
    return None if brute_divisors(target) == {(Fraction(1),), target} else f"divisor {d} is reducible"


def check_witness(cs, points, result) -> str | None:
    cs = o.trim(cs)
    vanishing = tuple(s for s in points if o.peval(cs, s) == 0)
    if result.vanishing_points != vanishing or result.point != vanishing[0]:
        return f"vanishing points {result.vanishing_points}, expected {vanishing}"
    if result.half.coeffs != o.pscale(cs, Fraction(1, 2)):
        return "half is not f/2"
    if not o.integer_valued(result.half.coeffs, points):
        return "f/2 is not integer-valued on the site"
    if result.complete_proof != (len(points) == 1):
        return "complete_proof flag is wrong"
    return expect(result.splits_for_all_integers, len(vanishing) == len(points),
                   "splits_for_all_integers")


# ---------------------------------------------------------------------------


def build(rng) -> list[Query]:
    from ivpoly import intpoly, qfactor

    IV, Site = intpoly.IVPoly, intpoly.FiniteSite
    qs: list[Query] = []

    # verdict queries -------------------------------------------------------
    for i in range(60):
        deg = i % 13
        cs = members_deg(rng, deg, 30) if i % 2 else _random_rational_poly(rng, deg, 5040)
        f = IV(cs)
        qs.append(Query("is_member", lambda f=f: intpoly.is_member(f),
                        lambda r, cs=cs: expect(r, o.integer_valued(cs), "is_member")))
    for i in range(20):
        pts = _site(rng, -20, 20, 1 + i % 5)
        cs = _random_rational_poly(rng, i % 5, 3)
        f = IV(cs, Site(pts))
        qs.append(Query("is_member_site", lambda f=f: intpoly.is_member(f),
                        lambda r, cs=cs, pts=pts: expect(r, o.integer_valued(cs, pts), "is_member")))
    for i in range(20):
        cs = _random_rational_poly(rng, 2 + 2 * i, 120)
        f = IV(cs)
        qs.append(Query("to_binomial_basis", lambda f=f: intpoly.to_binomial_basis(f),
                        lambda r, cs=cs: expect(list(r.deltas), o.forward_differences(cs), "deltas")))
    for i in range(20):
        deltas = tuple(Fraction(rng.randint(-50, 50)) for _ in range(3 + 2 * i))
        qs.append(Query("from_binomial_basis",
                        lambda d=deltas: intpoly.from_binomial_basis(d),
                        lambda r, d=deltas: expect(r.coeffs, o.from_deltas(d), "coefficients")))
    for i in range(30):
        pts = _site(rng, -10, 10, 1 + i % 4)
        if i % 3 == 0:
            cs = (Fraction(rng.choice([-1, 1]) * rng.randint(2, 40)),)
        else:
            cs = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(1, 12)))
        f = IV(cs, Site(pts))
        qs.append(Query("is_irreducible_site", lambda f=f: intpoly.is_irreducible(f),
                        lambda r, cs=cs, pts=pts: check_irreducible_site(cs, pts, r)))
    for i in range(30):
        cs = members_deg(rng, 1 + i % 3)
        f = IV(cs)
        qs.append(Query("is_irreducible_low", lambda f=f: intpoly.is_irreducible(f),
                        lambda r, cs=cs: check_irreducible_z(cs, r)))
    for i in range(30):
        if i % 3:
            pts = None
            cs = members_deg(rng, 1 + i % 3)
            f = IV(cs)
        else:
            pts = _site(rng, -10, 10, 1 + i % 4)
            base = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
            cs = o.pscale(base, rng.choice([2, 3, 4, 6, 9, 10]))
            f = IV(cs, Site(pts))
        qs.append(Query("find_irreducible_divisor",
                        lambda f=f: intpoly.find_irreducible_divisor(f),
                        lambda r, cs=cs, pts=pts: check_irreducible_divisor(cs, pts, r)))
    for i in range(20):
        pts = _site(rng, -10, 10, 1 + i % 4)
        root = rng.choice(pts)
        h = tuple(Fraction(rng.randint(-5, 5) or 1) for _ in range(1 + i % 3))
        cs = o.pscale(o.pmul((Fraction(-root), Fraction(1)), h), 2)
        f = IV(cs, Site(pts))
        qs.append(Query("vanishing_nonatomic_witness",
                        lambda f=f: intpoly.vanishing_nonatomic_witness(f),
                        lambda r, cs=cs, pts=pts: check_witness(cs, pts, r)))

    # enumeration queries ---------------------------------------------------
    targets = [(o.pscale(o.binomial_poly(n), n), n <= 4) for n in range(2, 8)]
    products = []
    # products of two linear members: higher degrees make the cost swing
    # with the seed far more than anything else in the round
    for _ in range(12):
        prod = o.pmul(members_deg(rng, 1), members_deg(rng, 1))
        products.append(prod)
        targets.append((prod, True))
    for cs, complete in targets:
        f = IV(cs)
        qs.append(Query("divisors", lambda f=f: intpoly.divisors(f),
                        lambda r, cs=cs, c=complete: check_divisors(
                            cs, [d.coeffs for d in r.divisors], c)))
        qs.append(Query("factorizations", lambda f=f: intpoly.factorizations(f),
                        lambda r, cs=cs, c=complete: check_factorizations(
                            cs, [[p.coeffs for p in z.parts] for z in r], c)))
        qs.append(Query("length_profile", lambda f=f: intpoly.length_profile(f),
                        lambda r, cs=cs, c=complete: check_length_profile(
                            cs, r.lengths, r.elasticity, r.hfd_violation, c)))
    for cs in products:
        f = IV(cs)
        qs.append(Query("is_irreducible_product", lambda f=f: intpoly.is_irreducible(f),
                        lambda r: expect(r, False, "a product of two non-units")))
    for n in range(2, 12):
        f = IV(o.binomial_poly(n))
        qs.append(Query("is_irreducible_binomial", lambda f=f: intpoly.is_irreducible(f),
                        lambda r: expect(r, True, "C(x,n) is irreducible")))
    polys = [o.int_poly([7] + [0] * (n - 1) + [1]) for n in range(2, 9)]
    polys += [o.content_primitive(o.binomial_poly(n))[1] for n in range(2, 13)]
    for cs in polys:
        cs = o.int_poly(cs)
        qs.append(Query("factor_rational", lambda cs=cs: qfactor.factor_rational(cs),
                        lambda r, cs=cs: check_factor_rational(cs, r)))
    rng.shuffle(qs)
    return qs
