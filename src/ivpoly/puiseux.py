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

Factorizations are listed by one integer walk over the usable atoms that
each kind's ``factoring`` names.  Length sets are read off that listing,
except on the Grams monoid: there every factorization takes c_i + k_i·p_i
copies of generator i, with c_i the residues of the decomposition and
Σ k_i/2^i its dyadic part ν, so a carry DP over the levels i finds the
lengths with at most (cap/3 + 1) carries per level, each an int bitmask of
lengths, and no listing.  The chain steps of ``accp_chain_check`` are
closed forms, each certificate verified.
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

    def generator_is_atom(self, g: Fraction) -> bool:
        """Is the generator g an atom?  It is unless it splits."""
        return not self.splits(g)

    def factoring(self, b: Fraction, cap: int) -> tuple[list[Fraction], tuple[bool, bool]] | None:
        """(usable atoms, length exactness) for b > 0, or None when b is not a member.

        The usable atoms are those that can occur in a factorization of b
        with length <= cap, decreasing; the length exactness is (complete,
        provably infinite) for the length set of b found under the cap.
        """
        if not membership(self, b).is_member:
            return None
        max_denom = max((g.denominator for g in self.search_generators()), default=1)
        atoms = atoms_up_to(self, max_denom)
        return sorted((a for a in atoms if a <= b), reverse=True), (False, False)

    def lengths(self, b: Fraction, cap: int) -> tuple[list[int], tuple[bool, bool]]:
        """The lengths of b's factorizations under the cap, and the length
        exactness of b, for b > 0; read off the listing."""
        facs, exactness = _listed(self, b, cap)
        return [f.length for f in facs], exactness


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

    def generator_is_atom(self, g: Fraction) -> bool:
        """Always: 1/(2^i p_i) decomposes with no dyadic part and the one
        residue 1 at index i, so it does not split."""
        return True

    def factoring(self, b: Fraction, cap: int) -> tuple[list[Fraction], tuple[bool, bool]] | None:
        """The generators at most b with p_i <= cap or p_i once in b's
        denominator, decreasing, from one decomposition: those odd primes
        of a member are the indices of its residues."""
        dec = grams_decompose(b)
        if dec is None:
            return None
        return _grams_atoms(b, cap, [i for i, _ in dec.coeffs]), _grams_exactness(dec, cap)

    def lengths(self, b: Fraction, cap: int) -> tuple[list[int], tuple[bool, bool]]:
        """The lengths by the carry DP of ``_grams_lengths``, with no listing."""
        dec = grams_decompose(b)
        if dec is None:
            raise NotAMemberError(f"{format_rational(b)} is not a member")
        return _grams_lengths(dec, cap), _grams_exactness(dec, cap)


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


def _grams_lengths(dec: GramsDecomposition, cap: int) -> list[int]:
    """The lengths at most cap of the factorizations of ν + Σ c_i/(2^i p_i).

    A factorization has m_i = c_i + k_i·p_i copies of generator i, with
    k_i >= 0 since 0 < c_i < p_i clears p_i, and Σ k_i/2^i = ν; its length
    is C + Σ k_i·p_i with C = Σ c_i.  So the extra lengths E = Σ k_i·p_i are
    at most R = cap − C, and k_i > 0 only for the levels i with p_i <= R.
    Over the top such level N, the carry T at level i is what is left of
    ν·2^N in units of 2^-i: level N starts at ν·2^N, each level i > 0 takes a
    k_i of T's parity and passes (T − k_i)/2 down, and level 0 takes all of
    its T.  Each carry keeps an int bitmask of the extra lengths reaching
    it.  Every unit of ν left costs at least 3 more (p_0·2^0 is the least
    p_i·2^i), so a carry T at level i keeps only its bits up to
    R − ⌈3T/2^i⌉, and is dropped when that is negative.  A level below the
    top holds at most R/3 + 1 carries, since the levels above it take at
    most Σ_j (R/p_j)·2^(i−j) <= R/3 from ν·2^i; each level tries at most
    R/p_i + 1 values of k_i, on masks of R + 1 bits.
    """
    base = sum(c for _, c in dec.coeffs)
    room = cap - base
    if room < 0:
        return []
    top = len(list(takewhile(lambda p: p <= room, map(odd_prime, count())))) - 1
    nu = dec.nu
    if top < 0 or nu.denominator > 1 << top:
        # no level can carry ν, or its denominator is finer than the top level
        return [base] if nu == 0 else []
    carries = {nu.numerator << (top - nu.denominator.bit_length() + 1): 1}
    for i in range(top, -1, -1):
        p, below = odd_prime(i), {}
        for t, mask in carries.items():
            limit = room - ((3 * t + (1 << i) - 1) >> i)
            if limit < 0:
                continue
            mask &= (2 << limit) - 1
            if i == 0:
                below[0] = below.get(0, 0) | mask << t * p
                continue
            for k in range(t & 1, min(t, room // p) + 1, 2):
                below[(t - k) >> 1] = below.get((t - k) >> 1, 0) | mask << k * p
        carries = below
    mask = carries.get(0, 0)
    return [base + e for e in range(mask.bit_length()) if mask >> e & 1]


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

    def factoring(self, b: Fraction, cap: int) -> tuple[list[Fraction], tuple[bool, bool]] | None:
        # the dyadic valuation monoid has no atoms
        return ([], (False, False)) if is_dyadic(b) else None


@dataclass(frozen=True)
class PrimeReciprocal(PuiseuxMonoid):
    """Generators 1/p over the first ``truncation`` primes p = 2, 3, 5, ...

    Membership within the truncation is a closed form (``member``).  A
    non-member is flagged exact when no truncation can make it a member, and
    inexact when its denominator has a prime beyond the truncation.
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

        The residues and the rest do not depend on the truncation, so p^2
        dividing b or a negative rest rules q out of the whole monoid, an
        exact verdict; a prime of b beyond the truncation leaves it open.
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
                    return MembershipResult(None, True)  # p^2 divides b
                combo[i] = a * pow(b // p, -1, p) % p
                total -= combo[i] * (b // p)
        if left != 1:
            return MembershipResult(None, self.exact)
        if total < 0:
            return MembershipResult(None, True)
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

    def factoring(self, b: Fraction, cap: int) -> tuple[list[Fraction], tuple[bool, bool]] | None:
        """Complete once the cap reaches b over the smallest generator.

        The smallest generator is always an atom, since every nonzero member
        is at least as large, and no factorization of b is longer than b
        over it.
        """
        found = super().factoring(b, cap)
        if found is None:
            return None
        return found[0], (cap >= b / min(self.generators), False)


@dataclass(frozen=True)
class MembershipCertificate:
    """Multiplicities over generator indices whose weighted sum is the query."""

    combo: tuple[tuple[int, int], ...]  # (generator index, multiplicity), index-sorted

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "MembershipCertificate":
        return cls(tuple(sorted((i, m) for i, m in d.items() if m)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.combo)

    def _scaled_total(self, spec: PuiseuxMonoid) -> tuple[int, int]:
        """(L * the weighted sum, L), L the lcm of the generators' denominators."""
        gens = [(m, spec.generator(i)) for i, m in self.combo]
        scale = lcm(*(g.denominator for _, g in gens))
        return sum(m * g.numerator * (scale // g.denominator) for m, g in gens), scale

    def total(self, spec: PuiseuxMonoid) -> Fraction:
        """The weighted sum, as one integer sum over the lcm of the generators' denominators."""
        return Fraction(*self._scaled_total(spec))

    def verify(self, spec: PuiseuxMonoid, q: Fraction) -> bool:
        """Is the weighted sum q?  Compared by integer cross-multiplication."""
        total, scale = self._scaled_total(spec)
        return total * q.denominator == q.numerator * scale


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
    generators within the bound; the spec's ``generator_is_atom`` keeps
    each that does not split as a sum of two nonzero members.
    """
    if denom_bound < 1:
        raise NegativeInputError("denominator bound must be at least 1")
    candidates = sorted(
        set(spec.generators_with_denominator_up_to(denom_bound)),
        key=lambda g: (g.denominator, g),
    )
    return [g for g in candidates if spec.generator_is_atom(g)]


def factorizations(spec: PuiseuxMonoid, b: Fraction, length_cap: int) -> list[Factorization]:
    """All factorizations of b into atoms with length <= length_cap.

    Complete within the cap (and the truncation, for search-based kinds);
    multisets are returned with parts in decreasing order, no duplicates.
    """
    return _factored(spec, b, length_cap)[0]


def _checked(spec: PuiseuxMonoid, b: Fraction, length_cap: int) -> Fraction:
    """b as a ``Fraction``, once the cap is at least 1 and b is not negative."""
    b = Fraction(b)
    if length_cap < 1:
        raise TruncationError("length cap must be at least 1")
    if b < 0:
        membership(spec, b)  # raises
    return b


def _factored(
    spec: PuiseuxMonoid, b: Fraction, length_cap: int
) -> tuple[list[Factorization], tuple[bool, bool]]:
    """The factorizations of b under the cap, and the length exactness of b."""
    b = _checked(spec, b, length_cap)
    if b == 0:
        return [Factorization(())], (True, False)
    return _listed(spec, b, length_cap)


def _listed(
    spec: PuiseuxMonoid, b: Fraction, length_cap: int
) -> tuple[list[Factorization], tuple[bool, bool]]:
    """``_factored`` for b > 0: ``_walk`` over the spec's usable atoms."""
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
    """Lengths of factorizations found under the cap, with max/min elasticity.

    The spec's ``lengths`` gives them: the base class reads them off the
    listing of ``factorizations``, and the Grams monoid runs a carry DP over
    the levels of its generators (``_grams_lengths``), with no listing: at
    most cap/3 + 1 carries per level, each with an int bitmask of lengths.
    """
    b = _checked(spec, b, cap)
    if b == 0:
        return _profile([0], (True, False))
    return _profile(*spec.lengths(b, cap))


def factorizations_with_profile(
    spec: PuiseuxMonoid, b: Fraction, cap: int
) -> tuple[list[Factorization], LengthProfile]:
    """``factorizations`` and ``length_set`` of b from one listing."""
    facs, exactness = _factored(spec, b, cap)
    return facs, _profile([f.length for f in facs], exactness)


def _profile(found: list[int], exactness: tuple[bool, bool]) -> LengthProfile:
    lengths = frozenset(found)
    if not lengths:
        return LengthProfile(lengths, None, True)
    lo, hi = min(lengths), max(lengths)
    elasticity = Fraction(hi, lo) if lo else Fraction(1)
    exact, infinite = exactness
    return LengthProfile(lengths, elasticity, not exact, infinite)


def accp_chain_check(spec: PuiseuxMonoid, n_max: int) -> list[ChainStep]:
    """Verify the ascending, never-stabilizing chain of ideals (1/2^n + M).

    Step n is ascending iff 1/2^(n+1) is a member, and its certificate is
    the closed form {n+1: p_(n+1)}: p_(n+1) copies of 1/(2^(n+1) p_(n+1)).
    Each certificate is verified against 1/2^(n+1), so ``ascending`` is a
    checked fact, with no decomposition.  The step is strict because the
    reverse difference 1/2^(n+1) − 1/2^n is negative, that is
    2^n < 2^(n+1), so 1/2^(n+1) is not in 1/2^n + M.
    """
    if not isinstance(spec, GramsMonoid):
        raise SpecKindError("the chain witness is specific to the Grams monoid")
    if n_max < 1:
        raise TruncationError("n_max must be at least 1")
    steps = []
    for n in range(n_max + 1):
        certificate = MembershipCertificate(((n + 1, odd_prime(n + 1)),))
        ascending = certificate.verify(spec, Fraction(1, 2 << n))
        steps.append(ChainStep(n, ascending, 1 << n < 2 << n, certificate))
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
