"""Exact decision procedures in rings of integer-valued polynomials.

Int(Z) is the ring of rational polynomials mapping every integer to an
integer; Int(S,Z), for a finite set S of integers, only constrains the
values on S.  Each site names the sample points whose values decide
membership and the value gcd: 0..deg f on Z (the forward differences at 0
are integer combinations of those values), the points themselves on S.
Divisor enumeration, irreducibility, factorization sets, and elasticity
run on those values with the same code on every site.  Each divisor of f
is u * G_J for an exponent vector J over the Q[x] factors of f, and
factorizations are built on the (J, u) keys of that finite table.  With
f = (cn/cd) * G, a vector J carries a divisor iff cd | d(G_J) * d(G_Jc),
d the value gcd on the sample points.  The walk over the vectors keeps the
value tables of J and its complement as residues mod d(G) and cuts every
subtree whose bound fails that test, so C(x, n), whose only divisor
vectors are the empty and the full one, costs a few hundred nodes instead
of 2^n.
The table is finite unless f vanishes on the whole of a finite site: then
f/n divides f for every n, and divisors and factorizations raise
``UnsupportedSiteError`` while irreducibility still answers False.

Units of Int(S,Z) are +1 and -1; associates are normalized to a positive
leading coefficient throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable

from . import qpoly
from .errors import (
    DuplicatePointsError,
    NotAMemberError,
    NoWitnessError,
    SiteMismatchError,
    UnitElementError,
    UnsupportedSiteError,
    ZeroElementError,
)
from .primes import (
    divisors_from_factorization,
    factorize,
    is_prime,
    merge_factorizations,
    smallest_prime_factor,
)


@dataclass(frozen=True)
class AllIntegers:
    """Site tag for Int(Z)."""

    def sample_points(self, degree: int) -> tuple[int, ...]:
        """0..degree, whose values decide membership and the value gcd.

        The forward differences at 0 of a polynomial of this degree are
        integer combinations of its values there, and conversely.
        """
        return tuple(range(degree + 1))

    def witness_points(self) -> tuple[int, ...]:
        """No vanishing witness exists on Z: a nonzero f vanishes at finitely many integers."""
        raise UnsupportedSiteError("the vanishing witness concerns finite sites")

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class FiniteSite:
    """Site tag for Int(S,Z) with S a finite set of integers."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = tuple(int(s) for s in self.points)
        if not pts:
            raise DuplicatePointsError("a finite site needs at least one point")
        if len(set(pts)) != len(pts):
            raise DuplicatePointsError("site points must be distinct")
        object.__setattr__(self, "points", tuple(sorted(pts)))

    def sample_points(self, degree: int) -> tuple[int, ...]:
        """The site's points, whatever the degree."""
        return self.points

    def witness_points(self) -> tuple[int, ...]:
        """The points a vanishing witness may vanish at: all of the site."""
        return self.points

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.points) + "}"


Z_SITE = AllIntegers()
Site = AllIntegers | FiniteSite


@dataclass(frozen=True)
class IVPoly:
    """A rational polynomial together with its ambient site."""

    coeffs: tuple[Fraction, ...]  # lowest degree first, trimmed
    site: Site = Z_SITE

    def __post_init__(self):
        object.__setattr__(self, "coeffs", qpoly.poly(self.coeffs))

    @property
    def degree(self) -> int:
        return qpoly.degree(self.coeffs)

    def is_zero(self) -> bool:
        return qpoly.is_zero(self.coeffs)

    def is_unit(self) -> bool:
        return self.coeffs in ((Fraction(1),), (Fraction(-1),))

    def __call__(self, x) -> Fraction:
        return qpoly.eval_at(self.coeffs, x)

    def with_coeffs(self, coeffs) -> "IVPoly":
        return IVPoly(coeffs, self.site)

    def scale(self, k) -> "IVPoly":
        return self.with_coeffs(qpoly.scale(self.coeffs, k))

    def mul(self, other: "IVPoly") -> "IVPoly":
        _check_same_site(self, other)
        return self.with_coeffs(qpoly.mul(self.coeffs, other.coeffs))

    def normalized(self) -> "IVPoly":
        """The associate with positive leading coefficient."""
        if self.is_zero() or self.coeffs[-1] > 0:
            return self
        return self.with_coeffs(qpoly.neg(self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __str__(self) -> str:
        return qpoly.to_str(self.coeffs)


def ivpoly(coeffs: Iterable, site: Site = Z_SITE) -> IVPoly:
    return IVPoly(qpoly.poly(coeffs), site)


def constant(value, site: Site = Z_SITE) -> IVPoly:
    return IVPoly(qpoly.poly([value]), site)


def binomial(n: int, site: Site = Z_SITE) -> IVPoly:
    """The binomial polynomial x(x-1)...(x-n+1)/n!."""
    *_, ff = qpoly.int_falling_factorials(n)
    return IVPoly(qpoly.scale(ff, Fraction(1, factorial(n))), site)


def _check_same_site(f: IVPoly, g: IVPoly) -> None:
    if f.site != g.site:
        raise SiteMismatchError(f"sites {f.site} and {g.site} differ")


@dataclass(frozen=True)
class BinomialExpansion:
    """Forward differences at 0: coordinates in the binomial basis."""

    deltas: tuple[Fraction, ...]


def _scaled(coeffs) -> tuple[tuple[int, ...], int]:
    """(den * coeffs, den), with den the common denominator of the coefficients."""
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def _scaled_values(f: IVPoly) -> tuple[list[int], int]:
    """(den * f(s) for the site's sample points s, den), all integers."""
    num, den = _scaled(f.coeffs)
    return [qpoly.int_eval(num, s) for s in f.site.sample_points(f.degree)], den


def to_binomial_basis(f: IVPoly) -> BinomialExpansion:
    """Forward-difference table column: deltas[j] for j = 0..deg f.

    The table is built over the integers from the values of den * f, with
    den the common denominator of the coefficients, and divided by den once
    per delta at the end.
    """
    num, den = _scaled(f.coeffs)
    row = [qpoly.int_eval(num, k) for k in range(max(f.degree, 0) + 1)]
    deltas = []
    while row:
        deltas.append(Fraction(row[0], den))
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return BinomialExpansion(tuple(deltas))


def from_binomial_basis(expansion: BinomialExpansion | Iterable, site: Site = Z_SITE) -> IVPoly:
    """Rebuild the polynomial sum deltas[j] * C(x, j).

    The falling factorials x(x-1)...(x-j+1) are built one from the next with
    integer coefficients, and the sum is taken over the common denominator
    of the weights deltas[j] / j!, so the whole rebuild is O(n^2) integer
    work and one ``Fraction`` per output coefficient.
    """
    deltas = (
        expansion.deltas if isinstance(expansion, BinomialExpansion) else tuple(expansion)
    )
    weights = [Fraction(d) / factorial(j) for j, d in enumerate(deltas)]
    den = lcm(*(w.denominator for w in weights))
    out = [0] * len(deltas)
    for w, ff in zip(weights, qpoly.int_falling_factorials(len(deltas) - 1)):
        k = w.numerator * (den // w.denominator)
        if k:
            for i, c in enumerate(ff):
                out[i] += k * c
    return IVPoly(tuple(Fraction(c, den) for c in out), site)


def is_member(f: IVPoly) -> bool:
    """Does f map its site into the integers?

    Integrality of the values at the site's sample points decides it: the
    finitely many points of a finite site, and 0..deg f on Z.
    """
    values, den = _scaled_values(f)
    return all(v % den == 0 for v in values)


def fixed_divisor(f: IVPoly) -> int:
    """gcd of the values of the member f on its site; 0 when f vanishes on all of it.

    The gcd of the values at the site's sample points: on Z the values at
    0..deg f, whose integer combinations are the forward differences at 0
    and conversely, so the gcd agrees with the gcd over every integer.
    """
    if f.is_zero():
        raise ZeroElementError("the zero polynomial has no fixed divisor")
    values, den = _scaled_values(f)
    if any(v % den for v in values):
        raise NotAMemberError("f is not integer-valued on its site")
    return gcd(*values) // den


@dataclass(frozen=True)
class PullingSequence:
    """Vandermonde products d_n over prefixes of the sample points."""

    points: tuple[int, ...]
    values: tuple[int, ...]  # values[n] multiplies degree-n members into Z[x]


def pulling_sequence(points: Iterable[int]) -> PullingSequence:
    """d_n = prod_{0<=i<j<=n} (s_j - s_i) for each prefix of the points."""
    pts = tuple(int(s) for s in points)
    if not pts:
        raise DuplicatePointsError("need at least one sample point")
    if len(set(pts)) != len(pts):
        raise DuplicatePointsError("sample points must be pairwise distinct")
    values = []
    d = 1
    for n in range(len(pts)):
        for i in range(n):
            d *= pts[n] - pts[i]
        values.append(d)
    return PullingSequence(pts, tuple(values))


def divide(f: IVPoly, g: IVPoly) -> IVPoly | None:
    """f / g within the ring: exact in Q[x] and the quotient stays a member."""
    _check_same_site(f, g)
    if g.is_zero():
        raise ZeroElementError("division by the zero polynomial")
    quot = qpoly.exact_div(f.coeffs, g.coeffs)
    if quot is None:
        return None
    q = f.with_coeffs(quot)
    return q if is_member(q) else None


@dataclass(frozen=True)
class DivisorList:
    """All divisors of the target up to associates, canonically sorted."""

    target: IVPoly
    divisors: tuple[IVPoly, ...]


def _split_walk(factors, points, cd: int):
    """Yield (vec, d(G_J), d(G_Jc)) for every exponent vector J with cd | d(G_J) * d(G_Jc).

    d(.) is the gcd of the values at the points, G_J = prod g_i^vec_i and G_Jc
    the complementary product.  Every d(G_J) divides D = d(G) (``top``), so
    the walk keeps the value tables of J and Jc as residues mod D (the capped
    valuations at all primes of D at once): at a leaf gcd(D, table) is
    exactly d(G_J).  At an inner node the tables times ``rest``, the values
    of the unassigned factors at full multiplicity, bound d(G_J) and d(G_Jc)
    for every completion, so a node whose bounds have a product that cd does
    not divide is cut with its subtree.  The stack is explicit, and vectors
    come out in increasing order.
    """
    ones = [1] * len(points)
    powers = []  # powers[i][e]: the values of g_i^e
    for g, m in factors:
        row = [qpoly.int_eval(g, s) for s in points]
        pw = [ones, row]
        for _ in range(m - 1):
            pw.append([a * v for a, v in zip(pw[-1], row)])
        powers.append(pw)
    rest = [ones]  # rest[i]: the values of prod_{k >= i} g_k^m_k, built from the end
    for pw in reversed(powers):
        rest.append(list(map(mul, rest[-1], pw[-1])))
    rest.reverse()
    top = gcd(*rest[0])
    if top == 0:
        # G vanishes on the whole finite site: constants are unbounded there,
        # so no finite enumeration exists
        raise UnsupportedSiteError("divisor enumeration needs values that do not all vanish")
    stack = [((), ones, ones)]
    while stack:
        vec, tj, tjc = stack.pop()
        i = len(vec)
        if i == len(powers):
            dj, djc = gcd(top, *tj), gcd(top, *tjc)
            if dj * djc % cd == 0:
                yield vec, dj, djc
            continue
        # the root's bound is D * D, and cd divides D
        if i and gcd(top, *map(mul, tj, rest[i])) * gcd(top, *map(mul, tjc, rest[i])) % cd:
            continue
        pw = powers[i]
        m = len(pw) - 1
        for e in range(m, -1, -1):
            stack.append((
                vec + (e,),
                tj if e == 0 else [a * b % top for a, b in zip(tj, pw[e])],
                tjc if e == m else [a * b % top for a, b in zip(tjc, pw[m - e])],
            ))


def _divisor_candidates(f: IVPoly, split=None):
    """Yield every divisor of f (normalized, no associates) as (vec, u, G_J).

    ``split`` is ``factor_rational(f.coeffs)`` when the caller has it;
    ``qfactor`` is imported here, so deciding membership never loads it.

    f = c * G_J * G_Jc with c = cn/cd, the G's primitive integer polynomials,
    G_J the product of the Q[x] irreducible factors of f taken with the
    exponents in vec and G_Jc the complementary product.  A divisor is
    u * G_J with u = a/b in lowest terms; u * G_J is a member iff b | d(G_J),
    and the cofactor (c b / a) G_Jc is a member iff cd * a | cn * b * d(G_Jc),
    with d the value gcd on the site's sample points.  Both conditions follow
    from gcd-linearity of the value sets, so the enumeration is complete.

    Some (a, b) exists iff cd | d(G_J) * d(G_Jc) (take a = 1, b = d(G_J)),
    which is the condition ``_split_walk`` prunes on.  The pairs are then
    listed exactly: cd | b * d(G_Jc) makes b a multiple of
    b0 = cd / gcd(cd, d(G_Jc)) dividing d(G_J), and a runs over the divisors
    of cn * b * d(G_Jc) / cd prime to b.  G_J, an integer coefficient tuple,
    is built only for a vector that yields a divisor.  Each divisor is
    yielded once: G_J is primitive with positive leading coefficient, so
    (vec, u) determines it.
    """
    if split is None:
        from .qfactor import factor_rational

        split = factor_rational(f.coeffs)
    c, factors = split
    cn, cd = abs(c.numerator), c.denominator
    fact = lru_cache(maxsize=None)(factorize)
    cn_fact, cd_fact = fact(cn), fact(cd)

    for vec, dj, djc in _split_walk(factors, f.site.sample_points(f.degree), cd):
        b0 = cd // gcd(cd, djc)
        num = merge_factorizations(cn_fact, fact(djc))  # the primes of cn * d(G_Jc)
        gj = None
        for k in divisors_from_factorization(fact(dj // b0)):
            b = b0 * k
            afact = {p: e - cd_fact.get(p, 0) for p, e in num.items() if b % p}
            for a in divisors_from_factorization(afact):
                if gj is None:
                    gj = (1,)
                    for (g, _), e in zip(factors, vec):
                        for _ in range(e):
                            gj = qpoly.int_mul(gj, g)
                yield vec, Fraction(a, b), gj


def divisors(f: IVPoly) -> DivisorList:
    """All non-associate divisors of f in Int(S,Z), leading coefficients positive.

    Constructive finiteness: candidates are rational multiples of products of
    the Q[x] irreducible factors, with the multiplier's denominator dividing
    the fixed divisor of the product and its numerator bounded through the
    cofactor's membership constraint.  ``UnsupportedSiteError`` when f
    vanishes on the whole of its finite site, where no finite list exists.
    """
    if f.is_zero():
        raise ZeroElementError("the zero polynomial is not factored")
    if not is_member(f):
        raise NotAMemberError("f is not integer-valued")
    out = (IVPoly(qpoly.scale(gj, u), f.site) for _, u, gj in _divisor_candidates(f))
    return DivisorList(f.normalized(), tuple(sorted(out, key=IVPoly.sort_key)))


def is_irreducible(f: IVPoly) -> bool:
    """Irreducibility in Int(S,Z), with the same rules on every site.

    A constant is irreducible iff it is a prime up to sign.  A nonconstant f
    whose fixed divisor is not 1 is reducible: f = p * (f/p), or
    f = 2 * (f/2) when f vanishes on the whole site.  Otherwise no constant
    nonunit divides f, so a linear f is irreducible.  Beyond that the divisor
    candidates decide: the answer is False at the first candidate that is
    neither 1 nor the normalized f, without building or sorting the divisor
    list.  Their keys tell: with f = c * prod g_i^e_i, 1 is the key
    ((0, ..., 0), 1) and the normalized f the key ((e_1, ..., e_k), |c|).
    """
    g = _reject_trivial(f)
    if f.degree == 0:
        return is_prime(abs(int(f.coeffs[0])))
    if g != 1:
        return False
    if f.degree == 1:
        return True
    from .qfactor import factor_rational

    c, factors = split = factor_rational(f.coeffs)
    trivial = (((0,) * len(factors), Fraction(1)), (tuple(e for _, e in factors), abs(c)))
    return all((vec, u) in trivial for vec, u, _ in _divisor_candidates(f, split))


def _reject_trivial(f: IVPoly) -> int:
    """Reject zero, then non-members, then units; return the fixed divisor of f
    from the same one read of its values."""
    if f.is_zero():
        raise ZeroElementError("zero is neither reducible nor irreducible")
    values, den = _scaled_values(f)
    if any(v % den for v in values):
        raise NotAMemberError("f is not integer-valued on its site")
    if f.is_unit():
        raise UnitElementError("units are not factored")
    return gcd(*values) // den


@dataclass(frozen=True)
class PolyFactorization:
    """A multiset of irreducibles whose product is the target (up to sign)."""

    parts: tuple[IVPoly, ...]

    @property
    def length(self) -> int:
        return len(self.parts)

    def product(self) -> IVPoly:
        out = constant(1, self.parts[0].site if self.parts else Z_SITE)
        for p in self.parts:
            out = out.mul(p)
        return out

    def __str__(self) -> str:
        return " * ".join(f"({p})" for p in self.parts)


def _cofactor(table: dict, key, by):
    """The table key of key / by, or None when by does not divide key."""
    vec = tuple(a - b for a, b in zip(key[0], by[0]))
    if min(vec, default=0) < 0:
        return None
    rest = (vec, key[1] / by[1])
    return rest if rest in table else None


def _factor_keys(table: dict, irr: list, key, unit, start: int = 0) -> list[tuple[IVPoly, ...]]:
    """Factorizations of key over the (key, part) pairs irr[start:], parts decreasing.

    Not a closure: a self-referencing closure would keep the table in a
    reference cycle until the garbage collector runs.
    """
    out = []
    for idx in range(start, len(irr)):
        by, part = irr[idx]
        rest = _cofactor(table, key, by)
        if rest == unit:
            out.append((part,))
        elif rest is not None:
            out.extend(tail + (part,) for tail in _factor_keys(table, irr, rest, unit, idx))
    return out


def factorizations(f: IVPoly) -> list[PolyFactorization]:
    """The complete finite set of factorizations of f into irreducibles.

    Works on the divisor table of f, keyed by (vec, u) for u * G_J, and so
    raises ``UnsupportedSiteError`` as ``divisors`` does.  Products add
    vectors and multiply u's, and a divisor's divisors are in the table: a
    nonunit key is reducible iff some other nonunit key leaves its cofactor
    key in the table.  Irreducibles are taken in ``sort_key`` order, so each
    multiset appears once, parts in decreasing order.
    """
    _reject_trivial(f)
    table = {(vec, u): gj for vec, u, gj in _divisor_candidates(f)}
    top = max(table)  # the full vector with the largest u: f itself
    unit = ((0,) * len(top[0]), Fraction(1))
    nonunits = [k for k in table if k != unit]
    irr = [(k, IVPoly(qpoly.scale(table[k], k[1]), f.site)) for k in nonunits
           if not any(d != k and _cofactor(table, k, d) for d in nonunits)]
    irr.sort(key=lambda pair: pair[1].sort_key())
    facs = [PolyFactorization(parts) for parts in _factor_keys(table, irr, top, unit)]
    return sorted(facs, key=lambda z: (z.length, [p.sort_key() for p in z.parts]))


@dataclass(frozen=True)
class PolyLengthProfile:
    lengths: frozenset[int]
    elasticity: Fraction
    #: witnesses failure of half-factoriality when True
    hfd_violation: bool


def length_profile(f: IVPoly) -> PolyLengthProfile:
    """Factorization lengths of f with elasticity max/min."""
    return profile_of(factorizations(f))


def profile_of(facs: list[PolyFactorization]) -> PolyLengthProfile:
    """The length profile of a nonempty list of factorizations."""
    lengths = frozenset(z.length for z in facs)
    elasticity = Fraction(max(lengths), min(lengths))
    return PolyLengthProfile(lengths, elasticity, len(lengths) > 1)


def find_irreducible_divisor(f: IVPoly) -> IVPoly:
    """Some irreducible divisor of f, deterministically.

    If an integer >= 2 divides every value (gcd 0 means f vanishes on the
    whole finite site, where every integer divides), the smallest prime
    involved is an irreducible constant divisor.  Otherwise no constant
    nonunit divides f, and a nonunit divisor of minimal degree is
    automatically irreducible: a proper splitting would produce a lower
    degree nonunit divisor of f.
    """
    g = _reject_trivial(f)
    if g == 0:
        return constant(2, f.site)
    if g >= 2:
        return constant(smallest_prime_factor(g), f.site)
    best: IVPoly | None = None
    for _, u, gj in _divisor_candidates(f):
        cand = IVPoly(qpoly.scale(gj, u), f.site)
        if cand.is_unit():
            continue
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
    assert best is not None  # f itself is always a candidate
    return best


@dataclass(frozen=True)
class VanishingWitness:
    """Certificate built from a vanishing point of f on its finite site.

    Records: the smallest site point where f vanishes (every factor list of
    f must contain a factor vanishing there), and the verified sample split
    f = 2 * (f/2) with f/2 a member, so f is not irreducible.  When the site
    is a singleton the same splitting applies to every vanishing factor and
    the certificate is a complete proof that f admits no factorization into
    irreducibles; the flags record how much has been established.
    """

    point: int
    vanishing_points: tuple[int, ...]
    half: IVPoly
    #: f/n is a member for every n >= 2 (f vanishes on the whole site)
    splits_for_all_integers: bool
    #: singleton site: the non-factorization argument is complete
    complete_proof: bool


def vanishing_nonatomic_witness(f: IVPoly) -> VanishingWitness:
    """Witness that f sits atop the vanishing-divisor chain of its finite site."""
    points = f.site.witness_points()
    if f.is_zero():
        raise ZeroElementError("zero admits no witness")
    if not is_member(f):
        raise NotAMemberError("f is not integer-valued on its site")
    vanishing = tuple(s for s in points if f(s) == 0)
    if not vanishing:
        raise NoWitnessError("f does not vanish on the site")
    half = f.scale(Fraction(1, 2))
    if not is_member(half):
        raise NoWitnessError("the halved polynomial leaves the ring")
    assert half.scale(2).coeffs == f.coeffs
    all_vanish = len(vanishing) == len(points)
    return VanishingWitness(
        point=vanishing[0],
        vanishing_points=vanishing,
        half=half,
        splits_for_all_integers=all_vanish,
        complete_proof=len(points) == 1,
    )
