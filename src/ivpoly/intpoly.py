"""Exact decision procedures in rings of integer-valued polynomials.

Int(Z) is the ring of rational polynomials mapping every integer to an
integer; Int(S,Z), for a finite set S of integers, only constrains the
values on S.  Each site names the sample points whose values decide
membership and the value gcd: 0..deg f on Z (the forward differences at 0
are integer combinations of those values), the points themselves on S.
Divisor enumeration, irreducibility, factorization sets, and elasticity
run on those values with the same code on every site.  Each divisor of f
is u * G_J for an exponent vector J over the Q[x] factors of f and u = a/b
in lowest terms, so every question works on the integer keys (vec, a, b)
of that finite table.  With
f = (cn/cd) * G, a vector J carries a divisor iff cd | d(G_J) * d(G_Jc),
d the value gcd on the sample points.  The walk over the vectors computes
D = d(G) first, keeps the values of g_i^e for e >= 2 and of J and its
complement as residues mod D, and cuts every subtree whose bound fails that
test, so C(x, n), whose only divisor vectors are the empty and the full
one, costs a few hundred nodes instead of 2^n.  G_J is read once per
vector from one power table per factor.
Every question reads the keys directly: f is irreducible iff they stop
before a third key after 1 and f, and a Furstenberg divisor is the least
nonunit key.  In (sum(vec), vec, a/b) order every divisor of a key comes
before it, and the cofactor of one key by another is a vector difference
and an integer cross-multiplication reduced by a gcd.  One pass in that
order keeps the least largest irreducible index of each key, from which
f's factorizations are listed downward on a stack; ``length_profile``
runs the same pass with an int bitmask of lengths per key (the length-set
DP of Barron-O'Neill-Pelayo) and lists nothing.  A ``Fraction`` is built
only for a polynomial that is returned, coefficient c of G_J becoming
c * a / b, and once per key for the order.
The table is finite unless f vanishes on the whole of a finite site: then
f/n divides f for every n, and divisors and factorizations raise
``UnsupportedSiteError`` while irreducibility still answers False.

Units of Int(S,Z) are +1 and -1; associates are normalized to a positive
leading coefficient throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, islice, repeat
from math import factorial, gcd, lcm, prod
from operator import gt, mul, sub
from typing import Iterable

from . import qpoly
from .errors import (
    DuplicatePointsError,
    MalformedInputError,
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


def _integer_points(points) -> tuple[int, ...]:
    """The points as ints; ``MalformedInputError`` for one that is not an integer."""
    pts = tuple(map(Fraction, points))
    for s in pts:
        if s.denominator != 1:
            raise MalformedInputError(f"site point {s} is not an integer")
    return tuple(s.numerator for s in pts)


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
        pts = _integer_points(self.points)
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
    return IVPoly(coeffs, site)


def constant(value, site: Site = Z_SITE) -> IVPoly:
    return IVPoly((value,), site)


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


def _scaled_values(f: IVPoly) -> tuple[list[int], int]:
    """(den * f(s) for the site's sample points s, den), all integers."""
    num, den = qpoly.int_scaled(f.coeffs)
    return [qpoly.int_eval(num, s) for s in f.site.sample_points(f.degree)], den


def to_binomial_basis(f: IVPoly) -> BinomialExpansion:
    """Forward-difference table column: deltas[j] for j = 0..deg f.

    The table is built over the integers from the values of den * f, with
    den the common denominator of the coefficients, and divided by den once
    per delta at the end.
    """
    num, den = qpoly.int_scaled(f.coeffs)
    row = [qpoly.int_eval(num, k) for k in range(max(f.degree, 0) + 1)]
    deltas = []
    while row:
        deltas.append(Fraction(row[0], den))
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return BinomialExpansion(tuple(deltas))


def from_binomial_basis(expansion: BinomialExpansion | Iterable, site: Site = Z_SITE) -> IVPoly:
    """Rebuild the polynomial sum deltas[j] * C(x, j), by Horner's rule.

    With n = len(deltas) - 1, L the lcm of the deltas' denominators and
    deltas[j] = num_j / den_j, the weights w_j = num_j * (L / den_j) * n!/j!
    are integers and

        L * n! * f = w_0 + x (w_1 + (x - 1) (w_2 + ... + (x - n + 1) w_n)),

    so the rebuild is n multiplications by x - j on a list of ints, with no
    table of falling factorials, no ``Fraction`` division per delta, and one
    ``Fraction`` per output coefficient.  Int and ``Fraction`` deltas are
    read as they are; anything else goes through ``Fraction`` first.
    """
    deltas = [
        d if type(d) in (int, Fraction) else Fraction(d)
        for d in (expansion.deltas if isinstance(expansion, BinomialExpansion) else expansion)
    ]
    if not deltas:
        return IVPoly((), site)
    n = len(deltas) - 1
    scale = lcm(*(d.denominator for d in deltas))
    acc, fall = [], 1  # fall = n!/j!
    for j in range(n, -1, -1):
        d = deltas[j]
        acc = [a - j * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += d.numerator * (scale // d.denominator) * fall
        fall *= j
    den = scale * factorial(n)
    return IVPoly(tuple(Fraction(c, den) for c in acc), site)


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
    pts = _integer_points(points)
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
    """f / g within the ring: exact in Q[x] and the quotient stays a member.

    With F = df * f and G = dg * g the integer forms, g divides f in Q[x]
    iff the primitive part of G divides F in Z[x] (Gauss's lemma), and then
    f / g = (F / prim G) * dg lc(prim G) / (df lc(G)).
    """
    _check_same_site(f, g)
    if g.is_zero():
        raise ZeroElementError("division by the zero polynomial")
    f_int, df = qpoly.int_scaled(f.coeffs)
    g_int, dg = qpoly.int_scaled(g.coeffs)
    prim = qpoly.int_primitive(g_int)
    quot = qpoly.int_divexact(f_int, prim)
    if quot is None:
        return None
    q = f.with_coeffs(qpoly.scale(quot, Fraction(dg * prim[-1], df * g_int[-1])))
    return q if is_member(q) else None


@dataclass(frozen=True)
class DivisorList:
    """All divisors of the target up to associates, canonically sorted."""

    target: IVPoly
    divisors: tuple[IVPoly, ...]


def _split_walk(factors, points, cd: int):
    """Yield (vec, d(G_J), d(G_Jc)) for every exponent vector J with cd | d(G_J) * d(G_Jc).

    d(.) is the gcd of the values at the points, G_J = prod g_i^vec_i and G_Jc
    the complementary product.  D = d(G) (``top``) comes first, from one
    full-size value of G per point.  Every d(G_J) divides D, so the values of
    g_i^e from e = 2 on and the value tables of J and Jc are kept mod D (the
    capped valuations at all primes of D at once): at a leaf gcd(D, table)
    is exactly d(G_J).  At an inner node the tables times ``rest``, the
    values of the unassigned factors at full multiplicity, bound d(G_J) and
    d(G_Jc) for every completion, so a node whose bounds have a product that
    cd does not divide is cut with its subtree.  The stack is explicit, and
    vectors come out in increasing order.
    """
    ones = [1] * len(points)
    rows = [[qpoly.int_eval(g, s) for s in points] for g, _ in factors]
    full = [map(pow, row, repeat(m)) for row, (_, m) in zip(rows, factors)]
    top = gcd(*map(prod, zip(ones, *full)))
    if top == 0:
        # G vanishes on the whole finite site: constants are unbounded there,
        # so no finite enumeration exists
        raise UnsupportedSiteError("divisor enumeration needs values that do not all vanish")
    powers = []  # powers[i][e]: the values of g_i^e, mod D from e = 2
    for row, (_, m) in zip(rows, factors):
        powers.append([ones, row])
        for _ in range(m - 1):
            powers[-1].append([a * v % top for a, v in zip(powers[-1][-1], row)])
    rest = [ones]  # rest[i]: the values of prod_{k >= i} g_k^m_k, built from the end
    for pw in reversed(powers):
        rest.append(list(map(mul, rest[-1], pw[-1])))
    rest.reverse()
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


def _divisor_candidates(f: IVPoly):
    """Yield every divisor u * G_J of f (normalized, no associates) as (vec, a, b, G_J).

    ``qfactor`` is imported here, so deciding membership never loads it.

    f = c * G_J * G_Jc with c = cn/cd, the G's primitive integer polynomials,
    G_J the product of the Q[x] irreducible factors of f taken with the
    exponents in vec and G_Jc the complementary product.  A divisor is
    u * G_J with u = a/b in lowest terms; u * G_J is a member iff b | d(G_J),
    and the cofactor (c b / a) G_Jc is a member iff cd * a | cn * b * d(G_Jc),
    with d the value gcd on the site's sample points.  Both conditions follow
    from gcd-linearity of the value sets, so the enumeration is complete.

    Some (a, b) exists iff cd | d(G_J) * d(G_Jc) (take a = 1, b = d(G_J)),
    which is the condition ``_split_walk`` prunes on, so every vector it
    yields carries a divisor.  The pairs are listed exactly: cd | b * d(G_Jc)
    makes b a multiple of b0 = cd / gcd(cd, d(G_Jc)) dividing d(G_J), and a
    runs over the divisors of cn * b * d(G_Jc) / cd prime to b.  G_J is built
    once per vector from one power table [1, g_i, ..., g_i^m_i] per factor.
    Each divisor is yielded once: G_J is primitive with positive leading
    coefficient, so (vec, a, b) determines it, and no ``Fraction`` is built.
    """
    from .qfactor import factor_rational

    c, factors = factor_rational(f.coeffs)
    cn, cd = abs(c.numerator), c.denominator
    fact = lru_cache(maxsize=None)(factorize)
    cn_fact, cd_fact = fact(cn), fact(cd)
    tables = [[(1,), *accumulate(repeat(g, m), qpoly.int_mul)] for g, m in factors]

    for vec, dj, djc in _split_walk(factors, f.site.sample_points(f.degree), cd):
        gj = reduce(qpoly.int_mul, [t[e] for t, e in zip(tables, vec) if e] or [(1,)])
        b0 = cd // gcd(cd, djc)
        num = merge_factorizations(cn_fact, fact(djc))  # the primes of cn * d(G_Jc)
        for k in divisors_from_factorization(fact(dj // b0)):
            b = b0 * k
            afact = {p: e - cd_fact.get(p, 0) for p, e in num.items() if b % p}
            for a in divisors_from_factorization(afact):
                yield vec, a, b, gj


def _scaled(gj, a: int, b: int) -> tuple[Fraction, ...]:
    """The coefficients of (a/b) * G_J."""
    return tuple(Fraction(c * a, b) for c in gj)


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
    out = (IVPoly(_scaled(gj, a, b), f.site) for _, a, b, gj in _divisor_candidates(f))
    return DivisorList(f.normalized(), tuple(sorted(out, key=IVPoly.sort_key)))


def is_irreducible(f: IVPoly) -> bool:
    """Irreducibility in Int(S,Z), with the same rules on every site.

    A constant is irreducible iff it is a prime up to sign.  A nonconstant f
    whose fixed divisor is not 1 is reducible: f = p * (f/p), or
    f = 2 * (f/2) when f vanishes on the whole site.  Otherwise no constant
    nonunit divides f, so a linear f is irreducible.  Beyond that the divisor
    keys decide by their count: 1 and the normalized f are always two of
    them, so f is irreducible iff the walk stops before a third key.
    """
    g = _reject_trivial(f)
    if f.degree == 0:
        return is_prime(abs(int(f.coeffs[0])))
    if g != 1:
        return False
    if f.degree == 1:
        return True
    return next(islice(_divisor_candidates(f), 2, None), None) is None


def _reject_trivial(f: IVPoly) -> int:
    """Reject zero, then non-members, then units; return the fixed divisor of f."""
    if f.is_zero():
        raise ZeroElementError("zero is neither reducible nor irreducible")
    g = fixed_divisor(f)
    if f.is_unit():
        raise UnitElementError("units are not factored")
    return g


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


def _cofactor(key, by):
    """The key of key / by: (vec - vec', a b' / (b a') in lowest terms), or
    None when an exponent goes negative."""
    vec, a, b = key
    dvec, da, db = by
    if any(map(gt, dvec, vec)):
        return None
    num, den = a * db, b * da
    g = gcd(num, den)
    return tuple(map(sub, vec, dvec)), num // g, den // g


def _keys(f: IVPoly):
    """The divisor table {(vec, a, b): G_J} of f, and its keys in
    (sum(vec), vec, a/b) order: the unit first and f last."""
    table = {(vec, a, b): gj for vec, a, b, gj in _divisor_candidates(f)}
    return table, sorted(table, key=lambda k: (sum(k[0]), k[0], Fraction(k[1], k[2])))


def factorizations(f: IVPoly) -> list[PolyFactorization]:
    """The complete finite set of factorizations of f into irreducibles.

    Works on the divisor table of f, keyed by (vec, a, b) for (a/b) * G_J,
    and so raises ``UnsupportedSiteError`` as ``divisors`` does.  k / d is a
    key iff d divides k (a divisor of a divisor of f divides f), and it
    precedes k in (sum(vec), vec, a/b) order (a constant irreducible is a
    prime, so it lowers a/b).  One pass in that order numbers the
    irreducibles d_j and keeps low[k], the least largest index over k's
    factorizations: the first j with low[k / d_j] <= j (-1 for the unit),
    else k is irreducible and gets the next index.  f is then listed
    downward on a stack of (key, bound, tail) over j in low[k]..bound: each
    multiset comes once, every push ends in a factorization, and memory is
    bounded by the output.
    Parts come out in decreasing ``sort_key`` order.
    """
    _reject_trivial(f)
    table, (unit, *nonunits) = _keys(f)
    irr = []
    low = {unit: -1}
    for k in nonunits:
        low[k] = next((j for j, d in enumerate(irr) if low.get(_cofactor(k, d), j + 1) <= j), len(irr))
        if low[k] == len(irr):
            irr.append(k)
    facs, stack = [], [(nonunits[-1], len(irr) - 1, ())]
    while stack:
        k, bound, tail = stack.pop()
        for j in range(low[k], bound + 1):
            rest = _cofactor(k, irr[j])
            if rest == unit:
                facs.append((j,) + tail)
            elif low.get(rest, j + 1) <= j:
                stack.append((rest, j, (j,) + tail))
    parts = [IVPoly(_scaled(table[k], k[1], k[2]), f.site) for k in irr]
    out = [PolyFactorization(tuple(sorted((parts[j] for j in t), key=IVPoly.sort_key, reverse=True)))
           for t in facs]
    return sorted(out, key=lambda z: (z.length, [p.sort_key() for p in z.parts]))


@dataclass(frozen=True)
class PolyLengthProfile:
    lengths: frozenset[int]
    elasticity: Fraction
    #: witnesses failure of half-factoriality when True
    hfd_violation: bool


def length_profile(f: IVPoly) -> PolyLengthProfile:
    """Factorization lengths of f with elasticity max/min, with no listing.

    The keys of ``factorizations`` are walked in the same order, and each
    gets an int bitmask of the lengths of its factorizations: the unit has
    bit 0; a key k is irreducible, with mask 0b10, when no earlier
    irreducible d leaves a cofactor key k / d, and otherwise its mask is the
    OR of the masks of those cofactors, shifted left by 1.  Every
    factorization of k is a part d times a factorization of k / d, so f's
    mask holds exactly its lengths.
    """
    _reject_trivial(f)
    _, (unit, *nonunits) = _keys(f)
    irr, masks = [], {unit: 1}
    for k in nonunits:
        mask = 0
        for d in irr:
            mask |= masks.get(_cofactor(k, d), 0)
        if mask:
            masks[k] = mask << 1
        else:
            irr.append(k)
            masks[k] = 2
    mask = masks[nonunits[-1]]
    return _profile(frozenset(n for n in range(mask.bit_length()) if mask >> n & 1))


def profile_of(facs: list[PolyFactorization]) -> PolyLengthProfile:
    """The length profile of a nonempty list of factorizations."""
    return _profile(frozenset(z.length for z in facs))


def _profile(lengths: frozenset[int]) -> PolyLengthProfile:
    return PolyLengthProfile(lengths, Fraction(max(lengths), min(lengths)), len(lengths) > 1)


def find_irreducible_divisor(f: IVPoly) -> IVPoly:
    """Some irreducible divisor of f, deterministically.

    If an integer >= 2 divides every value (gcd 0 means f vanishes on the
    whole finite site, where every integer divides), the smallest prime
    involved is an irreducible constant divisor.  Otherwise no constant
    nonunit divides f, and a nonunit divisor of minimal degree is
    automatically irreducible: a proper splitting would produce a lower
    degree nonunit divisor of f.  The one returned is the least u * G_J in
    ``IVPoly.sort_key`` order over the nonunit keys of least len(G_J).
    """
    g = _reject_trivial(f)
    if g == 0:
        return constant(2, f.site)
    if g >= 2:
        return constant(smallest_prime_factor(g), f.site)
    keys = [(len(gj), a, b, gj) for _, a, b, gj in _divisor_candidates(f) if len(gj) > 1 or a != b]
    shortest = min(n for n, _, _, _ in keys)
    return IVPoly(min(_scaled(gj, a, b) for n, a, b, gj in keys if n == shortest), f.site)


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
    """Witness that f sits atop the vanishing-divisor chain of its finite site.

    One read of f's values on the site decides every check: f is a member
    iff each den * f(s) is divisible by den, vanishes at s iff den * f(s)
    is 0, and f/2 is a member iff each is divisible by 2 * den.
    """
    points = f.site.witness_points()
    if f.is_zero():
        raise ZeroElementError("zero admits no witness")
    values, den = _scaled_values(f)  # den * f(s) for s in points
    if any(v % den for v in values):
        raise NotAMemberError("f is not integer-valued on its site")
    vanishing = tuple(s for s, v in zip(points, values) if v == 0)
    if not vanishing:
        raise NoWitnessError("f does not vanish on the site")
    if any(v % (2 * den) for v in values):
        raise NoWitnessError("the halved polynomial leaves the ring")
    return VanishingWitness(
        point=vanishing[0],
        vanishing_points=vanishing,
        half=f.scale(Fraction(1, 2)),
        splits_for_all_integers=len(vanishing) == len(points),
        complete_proof=len(points) == 1,
    )
