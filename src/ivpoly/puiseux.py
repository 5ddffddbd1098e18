"""Additive submonoids of the nonnegative rationals.

Supports exact membership with certificates, atom detection within a
denominator bound, factorizations into atoms with a length cap, length
sets with elasticity, the non-stabilizing principal-ideal chain of the
classical Grams monoid (generated by 1/(2^n p_n) over the odd primes p_n),
and the unique dyadic-plus-residues decomposition of its elements.

Membership is decided in closed form where the monoid structure allows it
(the Grams monoid, the dyadic valuation monoid, and the prime-reciprocal
monoid within its truncation); explicit generator lists use bounded search,
and results carry an ``exact`` flag so callers can tell "not a member" apart
from "not representable within the truncation".
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, takewhile
from math import gcd, lcm

from .errors import (
    DuplicateGeneratorsError,
    NegativeInputError,
    NotAMemberError,
    NotDyadicError,
    SpecKindError,
    TruncationError,
)
from .primes import factorize, is_prime, nth_prime, odd_prime, odd_prime_index
from .rationals import dyadic_exponent, format_rational, is_dyadic


class PuiseuxMonoid:
    """Base class for generator families of additive submonoids of Q>=0.

    A kind supplies ``generator``.  The methods below work by bounded search
    over the kind's ``search_generators``; kinds with a closed form override
    them.
    """

    #: closed-form membership (no truncation dependence)
    exact = False

    def generators_with_denominator_up_to(self, bound: int) -> list[Fraction]:
        """The generators with reduced denominator <= bound."""
        return [g for g in self.search_generators() if g.denominator <= bound]

    def member(self, q: Fraction) -> MembershipResult:
        """Membership of q > 0 with a certificate."""
        combo = _bounded_search(self.search_generators(), q)
        if combo is None:
            return MembershipResult(None, self.exact)
        return MembershipResult(MembershipCertificate.from_dict(combo), True)

    def splits(self, g: Fraction) -> bool:
        """Does the member g split as x + y with x, y nonzero members?

        In any such split one part can be peeled down to a single generator,
        so it suffices to test g - h for membership over generators h < g.
        The answer inherits the truncation of the membership test.
        """
        for h in self.search_generators():
            rest = g - h
            if rest > 0 and membership(self, rest).is_member:
                return True
        return False

    def usable_atoms(self, b: Fraction, cap: int) -> list[Fraction]:
        """Atoms that can occur in a factorization of b with length <= cap, decreasing."""
        max_denom = max((g.denominator for g in self.search_generators()), default=1)
        atoms = atoms_up_to(self, max_denom)
        return sorted((a for a in atoms if a <= b), reverse=True)

    def length_exactness(self, b: Fraction, cap: int) -> tuple[bool, bool]:
        """(complete, provably infinite) for the length set of b > 0 found under the cap."""
        return False, False

    def factoring(self, b: Fraction, cap: int) -> tuple[list[Fraction], tuple[bool, bool]] | None:
        """(usable atoms, length exactness) for b > 0, or None when b is not a member."""
        if not membership(self, b).is_member:
            return None
        return self.usable_atoms(b, cap), self.length_exactness(b, cap)


def _leading_generators(spec: PuiseuxMonoid, bound: int) -> list[Fraction]:
    """The generators up to bound of a family whose denominators grow with the index."""
    return list(takewhile(lambda g: g.denominator <= bound, map(spec.generator, count())))


@dataclass(frozen=True)
class GramsMonoid(PuiseuxMonoid):
    """Generators 1/(2^n p_n), p_n the n-th odd prime (3, 5, 7, 11, ...)."""

    exact = True

    def generator(self, i: int) -> Fraction:
        return Fraction(1, 2**i * odd_prime(i))

    def generators_with_denominator_up_to(self, bound: int) -> list[Fraction]:
        return _leading_generators(self, bound)

    def member(self, q: Fraction) -> MembershipResult:
        dec = grams_decompose(q)
        return MembershipResult(None if dec is None else _grams_certificate(dec), True)

    def splits(self, g: Fraction) -> bool:
        """g splits unless its dyadic part vanishes and its residues sum to one."""
        dec = grams_decompose(g)
        return dec is not None and not (dec.nu == 0 and sum(c for _, c in dec.coeffs) == 1)

    def usable_atoms(self, b: Fraction, cap: int) -> list[Fraction]:
        """Generators at most b with p_i <= cap, or with p_i exactly once in
        b's denominator, decreasing."""
        once = [odd_prime_index(p) for p, e in factorize(b.denominator).items() if p != 2 and e == 1]
        return _grams_atoms(b, cap, once)

    def length_exactness(self, b: Fraction, cap: int) -> tuple[bool, bool]:
        return _grams_exactness(grams_decompose(b), cap)

    def factoring(self, b: Fraction, cap: int) -> tuple[list[Fraction], tuple[bool, bool]] | None:
        """All three from one decomposition: the odd primes dividing a
        member's denominator once are the indices of its residues."""
        dec = grams_decompose(b)
        if dec is None:
            return None
        return _grams_atoms(b, cap, [i for i, _ in dec.coeffs]), _grams_exactness(dec, cap)


def _grams_atoms(b: Fraction, cap: int, once: list[int]) -> list[Fraction]:
    """The generators 1/(2^i p_i) <= b with p_i <= cap or i in once, decreasing.

    They decrease as i grows, so the ascending indices give the order, and
    1/(2^i p_i) <= b is tested on integers.
    """
    small = list(takewhile(lambda p: p <= cap, map(odd_prime, count())))
    atoms = []
    for i in sorted(set(range(len(small))).union(once)):
        denominator = (small[i] if i < len(small) else odd_prime(i)) << i
        if b.numerator * denominator >= b.denominator:
            atoms.append(Fraction(1, denominator))
    return atoms


def _grams_exactness(dec: GramsDecomposition | None, cap: int) -> tuple[bool, bool]:
    if dec is not None and dec.nu == 0:
        # residues force the unique multiplicity vector c_i
        return sum(c for _, c in dec.coeffs) <= cap, False
    # a positive dyadic part can be filled by p_n blocks of any index
    return False, True


@dataclass(frozen=True)
class DyadicValuation(PuiseuxMonoid):
    """Generators 1/2^n: the monoid of all nonnegative dyadic rationals."""

    exact = True

    def generator(self, i: int) -> Fraction:
        return Fraction(1, 2**i)

    def generators_with_denominator_up_to(self, bound: int) -> list[Fraction]:
        return _leading_generators(self, bound)

    def member(self, q: Fraction) -> MembershipResult:
        return MembershipResult(_dyadic_certificate(q) if is_dyadic(q) else None, True)

    def splits(self, g: Fraction) -> bool:
        return g > 0  # everything halves

    def usable_atoms(self, b: Fraction, cap: int) -> list[Fraction]:
        return []  # the dyadic valuation monoid has no atoms


@dataclass(frozen=True)
class PrimeReciprocal(PuiseuxMonoid):
    """Generators 1/p over the first ``truncation`` primes p = 2, 3, 5, ...

    Membership within the truncation is a closed form (``member``); every
    non-member is flagged inexact, the verdict of the search it replaced.
    """

    truncation: int = 16

    def __post_init__(self):
        if self.truncation < 1:
            raise TruncationError("prime-reciprocal truncation must be at least 1")

    def generator(self, i: int) -> Fraction:
        return Fraction(1, nth_prime(i))

    def search_generators(self) -> tuple[Fraction, ...]:
        return tuple(self.generator(i) for i in range(self.truncation))

    def member(self, q: Fraction) -> MembershipResult:
        """Membership of q = a/b by residues.

        In any q = sum m_p / p, m_p is a·(b/p)^(-1) mod p for the primes p
        dividing b and 0 mod p for the others.  So q is a member exactly when
        b is squarefree over the first ``truncation`` primes and the rest
        R = q - sum r_p / p of the least residues r_p is a nonnegative
        integer.  The certificate adds 2R to the multiplicity of 1/2: the
        largest multiplicity vector in the order 1/2, 1/3, 1/5, ..., which is
        the first hit of the base class's search.
        """
        a, b = q.numerator, q.denominator
        combo, total, left = {}, a, b
        for i in range(self.truncation):
            if left == 1:
                break
            p = nth_prime(i)
            if left % p == 0:
                left //= p
                if left % p == 0:
                    break  # p^2 divides b
                combo[i] = a * pow(b // p, -1, p) % p
                total -= combo[i] * (b // p)
        if left != 1 or total < 0:
            return MembershipResult(None, self.exact)
        combo[0] = combo.get(0, 0) + 2 * (total // b)
        return MembershipResult(MembershipCertificate.from_dict(combo), True)

    def splits(self, g: Fraction) -> bool:
        """A nonzero member splits iff it is not a generator 1/p.

        A member other than a generator is a sum of two or more of them; 1/p
        is an atom, since a sum of 1/q with q != p has p-adic valuation >= 0.
        """
        return not (g.numerator == 1 and is_prime(g.denominator))


@dataclass(frozen=True)
class ExplicitMonoid(PuiseuxMonoid):
    """A finitely generated monoid given by an explicit list of generators."""

    generators: tuple[Fraction, ...]
    #: exact because the full (finite) generator list is searched
    exact = True

    def __post_init__(self):
        gens = tuple(Fraction(g) for g in self.generators)
        if any(g <= 0 for g in gens):
            raise NegativeInputError("explicit generators must be strictly positive")
        if len(set(gens)) != len(gens):
            raise DuplicateGeneratorsError("explicit generator lists must be duplicate-free")
        object.__setattr__(self, "generators", gens)

    def generator(self, i: int) -> Fraction:
        return self.generators[i]

    def search_generators(self) -> tuple[Fraction, ...]:
        return self.generators

    def length_exactness(self, b: Fraction, cap: int) -> tuple[bool, bool]:
        """Complete once the cap reaches b over the smallest usable atom.

        The smallest generator is always an atom, since every nonzero member
        is at least as large; it is usable exactly when it is <= b.
        """
        small = min(self.generators, default=b + 1)
        if small > b:
            return False, False
        return cap >= b / small, False


@dataclass(frozen=True)
class MembershipCertificate:
    """Multiplicities over generator indices whose weighted sum is the query."""

    combo: tuple[tuple[int, int], ...]  # (generator index, multiplicity), index-sorted

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "MembershipCertificate":
        return cls(tuple(sorted((i, m) for i, m in d.items() if m)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.combo)

    def total(self, spec: PuiseuxMonoid) -> Fraction:
        """The weighted sum, as one integer sum over the lcm of the generators' denominators."""
        gens = [(m, spec.generator(i)) for i, m in self.combo]
        scale = lcm(*(g.denominator for _, g in gens))
        return Fraction(sum(m * g.numerator * (scale // g.denominator) for m, g in gens), scale)

    def verify(self, spec: PuiseuxMonoid, q: Fraction) -> bool:
        return self.total(spec) == q


@dataclass(frozen=True)
class MembershipResult:
    """Certificate (or absence) plus whether the verdict is truncation-free."""

    certificate: MembershipCertificate | None
    exact: bool

    @property
    def is_member(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class GramsDecomposition:
    """q = nu + sum c_i / (2^i p_i) with nu a nonnegative dyadic, 0 <= c_i < p_i."""

    nu: Fraction
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.nu < 0 or not is_dyadic(self.nu):
            raise ValueError("nu must be a nonnegative dyadic rational")
        for i, c in self.coeffs:
            if not 0 <= c <= odd_prime(i) - 1:
                raise ValueError(f"coefficient {c} at index {i} out of range")

    def value(self) -> Fraction:
        return self.nu + sum(
            (Fraction(c, 2**i * odd_prime(i)) for i, c in self.coeffs), Fraction(0)
        )


@dataclass(frozen=True)
class Factorization:
    """A multiset of atoms (kept in decreasing order) summing to an element."""

    parts: tuple[Fraction, ...]

    @property
    def length(self) -> int:
        return len(self.parts)

    def total(self) -> Fraction:
        return sum(self.parts, Fraction(0))

    def __str__(self) -> str:
        return " + ".join(format_rational(p) for p in self.parts) or "0"


@dataclass(frozen=True)
class LengthProfile:
    """Factorization lengths found under the cap, with elasticity."""

    lengths: frozenset[int]
    elasticity: Fraction | None
    #: True when lengths above the cap may exist, so elasticity is a lower bound
    is_lower_bound: bool
    #: True when the element provably has unbounded factorization lengths
    infinite: bool = False


@dataclass(frozen=True)
class ChainStep:
    """One step of the principal-ideal chain (1/2^n + M)."""

    step: int
    ascending: bool
    strict: bool
    certificate: MembershipCertificate | None


def grams_decompose(q: Fraction) -> GramsDecomposition | None:
    """Unique decomposition of q in the Grams monoid, or None for non-members.

    Write q = a/b in lowest terms.  For every odd prime p_i dividing b the
    residue c_i = q·2^i·p_i (mod p_i) = a·2^i·(b/p_i)^(-1) (mod p_i) clears
    the p_i-part; q is a member exactly when no odd prime divides b twice and
    the rest q − Σ c_i/(2^i p_i) is a nonnegative dyadic rational.  Only the
    odd part of b is factored.  The rest is one integer numerator over b,
    shifted left whenever 2^i exceeds the power of 2 in the denominator so
    far, and ν is the one ``Fraction`` built.
    """
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q < 0:
        raise NegativeInputError("the monoid lives in the nonnegative rationals")
    a, b = q.numerator, q.denominator
    twos = (b & -b).bit_length() - 1
    odd = b >> twos
    coeffs = []
    rest = a  # the rest is rest / (odd · 2^twos)
    # factorize lists its primes increasing, so the indices i increase too
    for p, e in factorize(odd).items():
        if e >= 2:
            return None  # p-adic valuation below -1 is unreachable
        i = odd_prime_index(p)
        c = a * pow(2, i, p) * pow(b // p, -1, p) % p
        coeffs.append((i, c))
        if i > twos:
            rest <<= i - twos
            twos = i
        rest -= c * (odd // p) << (twos - i)
    if rest < 0 or rest % odd:
        return None
    return GramsDecomposition(nu=Fraction(rest // odd, 1 << twos), coeffs=tuple(coeffs))


def _dyadic_certificate(q: Fraction) -> MembershipCertificate:
    k = dyadic_exponent(q)
    return MembershipCertificate.from_dict({k: q.numerator})


def _grams_certificate(dec: GramsDecomposition) -> MembershipCertificate:
    combo: dict[int, int] = {i: c for i, c in dec.coeffs}
    if dec.nu > 0:
        k = dyadic_exponent(dec.nu)
        combo[k] = combo.get(k, 0) + dec.nu.numerator * odd_prime(k)
    return MembershipCertificate.from_dict(combo)


def _bounded_search(gens: tuple[Fraction, ...], q: Fraction) -> dict[int, int] | None:
    """First multiplicity vector with sum q over the given generators, if any.

    Exhaustive over multiplicities bounded by q / generator, walked by
    ``_walk`` over the generators in decreasing order with the largest
    multiplicity first, on the integer weights of ``_integer_weights``.  It
    cuts a remainder that is not a multiple of the gcd of the weights still
    available, which is sound because every sum of those weights is such a
    multiple.  Each weight g·L over the lcm M of the remaining denominators
    is a multiple of L/M, so this cut implies the lcm cut on the rationals,
    and it is strictly stronger once numerators exceed 1: 2/3 and 4/5 have
    weights 10 and 12, so an odd multiple of 1/15 is cut at the root.  The
    budget q·L cuts nothing, since every weight is at least 1.  Failed
    (position, remainder) states never succeed later, so they are kept.
    """
    order = sorted(range(len(gens)), key=lambda i: gens[i], reverse=True)
    weights, suffix, target = _integer_weights([gens[i] for i in order], q)
    if target is None:
        return None
    for stack in _walk(weights, suffix, target, target, set()):
        return {order[pos]: k for pos, (_, _, k) in enumerate(stack) if k}
    return None


def _integer_weights(gens: list[Fraction], q: Fraction) -> tuple[list[int], list[int], int | None]:
    """gens and q scaled to integers by the lcm L of the generators' denominators.

    Returns (weights, suffix, target): weights[i] = gens[i]·L, suffix[pos] the
    gcd of weights[pos:] (0 past the end), and target = q·L, or None when q·L
    is not an integer, since then no sum of the generators is q.
    """
    scale = lcm(*(g.denominator for g in gens))
    weights = [g.numerator * (scale // g.denominator) for g in gens]
    suffix = [0] * (len(weights) + 1)
    for pos in range(len(weights) - 1, -1, -1):
        suffix[pos] = gcd(weights[pos], suffix[pos + 1])
    target = q * scale
    return weights, suffix, target.numerator if target.denominator == 1 else None


def _walk(weights: list[int], suffix: list[int], target: int, budget: int, failed: set | None):
    """Yield the stack at every sum of at most budget weights equal to target.

    The weights come in decreasing order.  Depth first over the positions in
    order, the multiplicity k at each
    position counted down from min(budget, remainder // weight), on an
    explicit stack of [remainder, budget, k] frames, one per position before
    the current one: at a yield, frame i holds the multiplicity of weights[i].
    A remainder is cut when it is not a multiple of suffix[pos], the gcd of
    the weights left, or exceeds the budget times the largest of them.  When
    failed is a set, each exhausted (position, remainder) state is added to it
    and never entered again; that is sound only for a caller that stops at the
    first yield, since every state exhausted before it yielded nothing.
    """
    stack: list[list[int]] = []
    pos, rem = 0, target
    while True:
        if rem == 0:
            yield stack
        elif (
            pos < len(weights)
            and rem % suffix[pos] == 0
            and rem <= budget * weights[pos]
            and (failed is None or (pos, rem) not in failed)
        ):
            k = min(budget, rem // weights[pos])
            stack.append([rem, budget, k])
            pos, rem, budget = pos + 1, rem - k * weights[pos], budget - k
            continue
        while stack and stack[-1][2] == 0:
            rem = stack.pop()[0]
            if failed is not None:
                failed.add((len(stack), rem))
        if not stack:
            return
        frame = stack[-1]
        frame[2] -= 1
        pos = len(stack)
        rem, budget = frame[0] - frame[2] * weights[pos - 1], frame[1] - frame[2]


def membership(spec: PuiseuxMonoid, q: Fraction) -> MembershipResult:
    """Decide q in M with a certificate.

    Exact for the Grams monoid, the dyadic valuation monoid, and explicit
    generator lists; for other kinds absence only means "not representable
    within the truncation" and the result is flagged inexact.
    """
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q < 0:
        raise NegativeInputError("membership queries must be nonnegative")
    if q == 0:
        return MembershipResult(MembershipCertificate(()), True)
    return spec.member(q)


def atoms_up_to(spec: PuiseuxMonoid, denom_bound: int) -> list[Fraction]:
    """Atoms of M with reduced denominator <= denom_bound, smallest denominator first.

    Every atom of a generated monoid is a generator, so candidates are the
    generators within the bound; each is kept unless it splits as a sum of
    two nonzero members.
    """
    if denom_bound < 1:
        raise NegativeInputError("denominator bound must be at least 1")
    candidates = sorted(
        set(spec.generators_with_denominator_up_to(denom_bound)),
        key=lambda g: (g.denominator, g),
    )
    return [g for g in candidates if not spec.splits(g)]


def factorizations(spec: PuiseuxMonoid, b: Fraction, length_cap: int) -> list[Factorization]:
    """All factorizations of b into atoms with length <= length_cap.

    Complete within the cap (and the truncation, for search-based kinds);
    multisets are returned with parts in decreasing order, no duplicates.
    """
    return _factored(spec, b, length_cap)[0]


def _factored(
    spec: PuiseuxMonoid, b: Fraction, length_cap: int
) -> tuple[list[Factorization], tuple[bool, bool]]:
    """The factorizations of b under the cap, and the length exactness of b."""
    b = Fraction(b)
    if length_cap < 1:
        raise TruncationError("length cap must be at least 1")
    if b <= 0:
        membership(spec, b)  # rejects b < 0
        return [Factorization(())], (True, False)
    found = spec.factoring(b, length_cap)
    if found is None:
        raise NotAMemberError(f"{format_rational(b)} is not a member")
    atoms, exactness = found
    weights, suffix, target = _integer_weights(atoms, b)
    if target is None:
        return [], exactness
    return [
        Factorization(tuple(a for a, (_, _, k) in zip(atoms, stack) for _ in range(k)))
        for stack in _walk(weights, suffix, target, length_cap, None)
    ], exactness


def length_set(spec: PuiseuxMonoid, b: Fraction, cap: int) -> LengthProfile:
    """Lengths of factorizations found under the cap, with max/min elasticity."""
    return _profile(*_factored(spec, b, cap))


def factorizations_with_profile(
    spec: PuiseuxMonoid, b: Fraction, cap: int
) -> tuple[list[Factorization], LengthProfile]:
    """``factorizations`` and ``length_set`` of b from one listing."""
    facs, exactness = _factored(spec, b, cap)
    return facs, _profile(facs, exactness)


def _profile(facs: list[Factorization], exactness: tuple[bool, bool]) -> LengthProfile:
    lengths = frozenset(f.length for f in facs)
    if not lengths:
        return LengthProfile(lengths, None, True)
    lo, hi = min(lengths), max(lengths)
    elasticity = Fraction(hi, lo) if lo else Fraction(1)
    exact, infinite = exactness
    return LengthProfile(lengths, elasticity, not exact, infinite)


def accp_chain_check(spec: PuiseuxMonoid, n_max: int) -> list[ChainStep]:
    """Verify the ascending, never-stabilizing chain of ideals (1/2^n + M).

    Step n is ascending iff 1/2^(n+1) is a member (certificate: p_{n+1}
    copies of generator n+1) and strict because the reverse difference is
    negative, hence never a member.
    """
    if not isinstance(spec, GramsMonoid):
        raise SpecKindError("the chain witness is specific to the Grams monoid")
    if n_max < 1:
        raise TruncationError("n_max must be at least 1")
    steps = []
    for n in range(n_max + 1):
        gap = Fraction(1, 2 ** (n + 1))
        res = membership(spec, gap)
        ascending = res.is_member and res.certificate.verify(spec, gap)
        strict = gap - Fraction(1, 2**n) < 0
        steps.append(ChainStep(n, ascending, strict, res.certificate))
    return steps


def dyadic_divides(q1: Fraction, q2: Fraction) -> bool:
    """Divisibility in the valuation monoid of nonnegative dyadics: q1 <= q2."""
    q1, q2 = Fraction(q1), Fraction(q2)
    for q in (q1, q2):
        if q < 0:
            raise NegativeInputError("dyadic divisibility is for nonnegative inputs")
        if not is_dyadic(q):
            raise NotDyadicError(f"{format_rational(q)} is not dyadic")
    return q1 <= q2
