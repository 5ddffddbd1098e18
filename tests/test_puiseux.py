import gc
import hashlib
import random
import time
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ivpoly import puiseux
from ivpoly.errors import (
    DuplicateGeneratorsError,
    InputTooLargeError,
    NegativeInputError,
    NotAMemberError,
    NotDyadicError,
    SpecKindError,
    TruncationError,
)
from ivpoly.primes import factorize, nth_prime, odd_prime, odd_prime_index
from ivpoly.puiseux import (
    DyadicValuation,
    ExplicitMonoid,
    GramsMonoid,
    PrimeReciprocal,
    PuiseuxMonoid,
    accp_chain_check,
    atoms_up_to,
    dyadic_divides,
    factorizations,
    factorizations_with_profile,
    grams_decompose,
    length_set,
    membership,
)
from ivpoly.verify import bruteforce_monoid_factorizations

GRAMS = GramsMonoid()


def _explicit_cases():
    """(spec, member b) pairs of seeded explicit monoids, numerators up to 12."""
    rng = random.Random(11)
    for _ in range(25):
        gens = tuple({F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
        combo = [rng.randint(0, 3) for _ in gens]
        b = sum((k * g for k, g in zip(combo, gens)), F(0))
        if b and b.denominator <= 60:
            yield ExplicitMonoid(gens), b


class TestGramsDecompose:
    def test_atom_decomposes_as_itself(self):
        dec = grams_decompose(F(1, 10))
        assert dec.nu == 0 and dec.coeffs == ((1, 1),)

    def test_three_fifths(self):
        dec = grams_decompose(F(3, 5))
        assert dec.nu == F(1, 2) and dec.coeffs == ((1, 1),)
        assert dec.value() == F(3, 5)

    def test_one_twentyfourth_fails(self):
        # c_0 would be 2, leaving the negative remainder -5/8
        assert grams_decompose(F(1, 24)) is None

    def test_deep_prime_power_fails(self):
        assert grams_decompose(F(1, 9)) is None

    def test_negative_rejected(self):
        with pytest.raises(NegativeInputError):
            grams_decompose(F(-1, 3))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 40)), max_size=6))
    @settings(max_examples=200)
    def test_reconstruction_roundtrip(self, combo):
        b = sum((mult * GRAMS.generator(i) for i, mult in combo), F(0))
        dec = grams_decompose(b)
        assert dec is not None
        assert dec.value() == b
        for i, c in dec.coeffs:
            assert 0 <= c <= odd_prime(i) - 1

    def test_uniqueness_on_500_random_members(self):
        rng = random.Random(99)
        for _ in range(500):
            combo = [(rng.randint(0, 9), rng.randint(1, 60)) for _ in range(rng.randint(1, 5))]
            b = sum((m * GRAMS.generator(i) for i, m in combo), F(0))
            rng.shuffle(combo)
            b_again = sum((m * GRAMS.generator(i) for i, m in combo), F(0))
            assert b == b_again
            dec, dec_again = grams_decompose(b), grams_decompose(b_again)
            assert dec == dec_again and dec.value() == b


class TestMembership:
    def test_atom_certificate(self):
        res = membership(GRAMS, F(1, 3))
        assert res.certificate.as_dict() == {0: 1}

    def test_zero_empty_certificate(self):
        assert membership(GRAMS, F(0)).certificate.as_dict() == {}

    def test_half_is_five_tenths(self):
        res = membership(GRAMS, F(1, 2))
        assert res.certificate.as_dict() == {1: 5}
        assert res.certificate.verify(GRAMS, F(1, 2))

    def test_non_member_exact(self):
        res = membership(GRAMS, F(1, 9))
        assert not res.is_member and res.exact

    def test_bounded_search_flags_truncation(self):
        res = membership(PrimeReciprocal(truncation=3), F(1, 7))
        assert not res.is_member and not res.exact

    def test_explicit_search_is_exact(self):
        spec = ExplicitMonoid((F(2), F(3)))
        assert membership(spec, F(7)).is_member
        res = membership(spec, F(1))
        assert not res.is_member and res.exact

    def test_empty_explicit_monoid_is_exact_non_member(self):
        res = membership(ExplicitMonoid(()), F(1, 2))
        assert not res.is_member and res.exact

    def test_truncation_zero_rejected(self):
        for truncation in (0, -1):
            with pytest.raises(TruncationError):
                PrimeReciprocal(truncation)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInputError):
            membership(GRAMS, F(-1))

    @given(st.fractions(min_value=0, max_value=4, max_denominator=10**4))
    @settings(max_examples=300)
    def test_certificate_soundness(self, q):
        res = membership(GRAMS, q)
        if res.is_member:
            assert res.certificate.total(GRAMS) == q


class TestGeneratorFamilies:
    def test_grams_generators_closed_form(self):
        # 1/(2^n p_n) over the odd primes 3, 5, 7, 11, ...
        assert [GRAMS.generator(n) for n in range(5)] == [
            F(1, 3), F(1, 10), F(1, 28), F(1, 88), F(1, 208)
        ]

    def test_explicit_duplicates_rejected(self):
        with pytest.raises(DuplicateGeneratorsError):
            ExplicitMonoid((F(1, 2), F(1, 2)))

    def test_explicit_nonpositive_rejected(self):
        with pytest.raises(NegativeInputError):
            ExplicitMonoid((F(0),))


class TestAtoms:
    def test_grams_denominators(self):
        assert atoms_up_to(GRAMS, 100) == [F(1, 3), F(1, 10), F(1, 28), F(1, 88)]

    def test_prime_reciprocal(self):
        assert atoms_up_to(PrimeReciprocal(), 7) == [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]

    def test_explicit_numerical(self):
        assert atoms_up_to(ExplicitMonoid((F(2), F(3))), 1) == [F(2), F(3)]

    def test_generated_sum_is_not_an_atom(self):
        assert atoms_up_to(ExplicitMonoid((F(1), F(2))), 1) == [F(1)]

    def test_dyadic_has_no_atoms(self):
        assert atoms_up_to(DyadicValuation(), 64) == []

    def test_atom_soundness_by_pair_search(self):
        denom = 2 * 3 * 10 * 28 * 88
        for atom in atoms_up_to(GRAMS, 100):
            for k in range(1, int(atom * denom / 2) + 1):
                x = F(k, denom)
                assert not (
                    membership(GRAMS, x).is_member
                    and membership(GRAMS, atom - x).is_member
                ), f"{atom} splits as {x} + {atom - x}"

    def test_bad_bound(self):
        with pytest.raises(NegativeInputError):
            atoms_up_to(GRAMS, 0)

    def test_grams_atoms_are_the_split_filter_up_to_ten_thousand(self):
        # the answer can only change at a generator's denominator
        dens = [g.denominator for g in GRAMS.generators_with_denominator_up_to(10**4)]
        for bound in sorted({1, 10**4, *dens, *(d - 1 for d in dens)}):
            candidates = GRAMS.generators_with_denominator_up_to(bound)
            assert atoms_up_to(GRAMS, bound) == [g for g in candidates if not GRAMS.splits(g)], bound

    def test_grams_atoms_decompose_nothing(self, monkeypatch):
        def refuse(q):
            raise AssertionError("atoms_up_to decomposed a generator")

        monkeypatch.setattr(puiseux, "grams_decompose", refuse)
        assert atoms_up_to(GRAMS, 10**4) == [GRAMS.generator(i) for i in range(9)]

    def test_prime_reciprocal_large_bound(self):
        spec = PrimeReciprocal(truncation=16)
        atoms = atoms_up_to(spec, 100)
        assert atoms == [F(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                           31, 37, 41, 43, 47, 53)]

    @pytest.mark.parametrize("truncation", range(1, 13))
    def test_prime_reciprocal_splits_matches_the_search(self, truncation):
        spec = PrimeReciprocal(truncation)
        gens = spec.search_generators()
        members = list(gens) + [g + h for i, g in enumerate(gens) for h in gens[i:]]
        for g in members:
            assert spec.splits(g) == PuiseuxMonoid.splits(spec, g), g

    def test_prime_reciprocal_atoms_at_truncation_200(self):
        spec = PrimeReciprocal(truncation=200)
        assert atoms_up_to(spec, 10**6) == list(spec.search_generators())

    def test_interval_rule_on_rational_points(self):
        # rational points of {0} u [1, oo): atoms are exactly those in [1, 2)
        spec = ExplicitMonoid((F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 4)))
        assert atoms_up_to(spec, 4) == [F(1), F(3, 2), F(7, 4)]


class TestFactorizations:
    def test_explicit_unit_fractions(self):
        spec = ExplicitMonoid((F(1, 2), F(1, 3), F(1, 5)))
        facs = factorizations(spec, F(1), 6)
        assert sorted(z.length for z in facs) == [2, 3, 5]
        assert all(z.total() == 1 for z in facs)

    def test_atom_has_unique_factorization(self):
        facs = factorizations(GRAMS, F(1, 3), 3)
        assert len(facs) == 1 and facs[0].parts == (F(1, 3),)

    def test_numerical_semigroup(self):
        facs = factorizations(ExplicitMonoid((F(2), F(3))), F(6), 4)
        assert sorted(z.length for z in facs) == [2, 3]

    def test_non_member_rejected(self):
        with pytest.raises(NotAMemberError):
            factorizations(ExplicitMonoid((F(2),)), F(3), 5)

    def test_matches_bruteforce_on_explicit_specs(self):
        for spec, b in _explicit_cases():
            gens = spec.generators
            cap = 8
            mine = sorted(z.parts for z in factorizations(spec, b, cap))
            atoms = atoms_up_to(spec, max(g.denominator for g in gens))
            brute = [
                tuple(sorted(ms, reverse=True))
                for ms in bruteforce_monoid_factorizations(atoms, b, cap)
            ]
            assert mine == sorted(brute)

    def test_grams_factorizations_leave_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            facs = factorizations(GRAMS, F(1), 16)
            res = membership(PrimeReciprocal(16), F(57, 301))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert facs and all(z.total() == 1 for z in facs)
        assert res.certificate.verify(PrimeReciprocal(16), F(57, 301))


def _brute(gens, b, cap):
    """The brute-force factorizations of b over gens, parts in decreasing order."""
    return sorted(tuple(sorted(ms, reverse=True))
                  for ms in bruteforce_monoid_factorizations(gens, b, cap))


def _reachable(gens, bound):
    """Every sum of gens up to bound, by a plain closure of {0} under adding a generator."""
    reach, frontier = {F(0)}, [F(0)]
    while frontier:
        frontier = [x + g for x in frontier for g in gens if x + g <= bound and x + g not in reach]
        reach.update(frontier)
    return reach


class TestAgainstPlainOracles:
    """The integer searches against the plain ``Fraction`` recursion of
    ``verify`` and a reachability set built here, on each search kind."""

    @pytest.mark.parametrize("truncation", [3, 5, 8])
    def test_prime_reciprocal_factorizations(self, truncation):
        rng = random.Random(truncation)
        spec = PrimeReciprocal(truncation)
        gens = spec.search_generators()
        for _ in range(12):
            # an integer part splits as p copies of 1/p for each p up to the cap
            b = rng.randint(0, 2) + rng.randint(1, 3) * rng.choice(gens)
            cap = rng.randint(3, 9)
            mine = sorted(z.parts for z in factorizations(spec, b, cap))
            assert mine == _brute(gens, b, cap), (b, cap)

    @pytest.mark.parametrize("b", [F(1), F(1, 2), F(3, 4), F(5, 6), F(11, 10), F(15, 28),
                                   F(1, 3) + F(2, 88), F(7, 208) + F(1, 10)])
    def test_grams_factorizations(self, b):
        # a usable atom has p_i <= cap or p_i in b's denominator: all within index 4
        gens = [GRAMS.generator(i) for i in range(6)]
        for cap in (3, 6, 10, 12):
            mine = sorted(z.parts for z in factorizations(GRAMS, b, cap))
            assert mine == _brute(gens, b, cap), cap

    def test_explicit_factorizations_with_numerators_above_one(self):
        rng = random.Random(23)
        for _ in range(40):
            gens = tuple({F(rng.randint(2, 15), rng.randint(1, 7)) for _ in range(rng.randint(1, 4))})
            spec = ExplicitMonoid(gens)
            b = sum((rng.randint(0, 3) * g for g in gens), F(0)) or gens[0]
            cap = rng.randint(4, 12)
            atoms = atoms_up_to(spec, max(g.denominator for g in gens))
            mine = sorted(z.parts for z in factorizations(spec, b, cap))
            assert mine == _brute(atoms, b, cap), (gens, b, cap)

    @pytest.mark.parametrize("seed", range(4))
    def test_membership_matches_reachability(self, seed):
        rng = random.Random(seed)
        cases = [(PrimeReciprocal(rng.randint(1, 4)), 2)]
        for _ in range(6):
            gens = {F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))}
            cases.append((ExplicitMonoid(tuple(gens)), 6))
        for spec, bound in cases:
            gens = spec.search_generators()
            den = lcm(*(g.denominator for g in gens))
            reach = _reachable(gens, bound)
            for n in range(1, bound * den + 1):
                q = F(n, den)
                res = membership(spec, q)
                assert res.is_member == (q in reach), (spec, q)
                assert not res.is_member or res.certificate.verify(spec, q)


class TestLengthSets:
    def test_numerical_semigroup_elasticity(self):
        profile = length_set(ExplicitMonoid((F(2), F(3))), F(6), 10)
        assert profile.lengths == {2, 3}
        assert profile.elasticity == F(3, 2)
        assert not profile.is_lower_bound

    def test_atom_profile(self):
        profile = length_set(GRAMS, F(1, 10), 5)
        assert profile.lengths == {1} and profile.elasticity == 1
        assert not profile.is_lower_bound and not profile.infinite

    def test_unit_fraction_spec(self):
        profile = length_set(ExplicitMonoid((F(1, 2), F(1, 3), F(1, 5))), F(1), 10)
        assert profile.lengths == {2, 3, 5} and profile.elasticity == F(5, 2)

    def test_positive_dyadic_part_is_infinite(self):
        profile = length_set(GRAMS, F(1, 2), 5)
        assert profile.lengths == {5}
        assert profile.infinite and profile.is_lower_bound

    @pytest.mark.parametrize(
        "spec",
        [GRAMS, DyadicValuation(), PrimeReciprocal(4), ExplicitMonoid((F(2), F(3))), ExplicitMonoid(())],
        ids=["grams", "dyadic", "prime-reciprocal", "explicit", "explicit-empty"],
    )
    def test_zero_is_exact(self, spec):
        profile = length_set(spec, F(0), 3)
        assert profile.lengths == {0} and profile.elasticity == 1
        assert not profile.is_lower_bound and not profile.infinite

    def test_prime_reciprocal_is_lower_bound(self):
        profile = length_set(PrimeReciprocal(4), F(5, 6), 4)
        assert profile.lengths == {2}
        assert profile.is_lower_bound and not profile.infinite

    def test_prime_reciprocal_atoms_need_no_membership_search(self, monkeypatch):
        calls = []
        real = puiseux.membership
        monkeypatch.setattr(puiseux, "membership", lambda *a: calls.append(a) or real(*a))
        profile = length_set(PrimeReciprocal(16), F(5, 6), 6)
        assert profile.lengths == {2} and profile.is_lower_bound
        assert len(calls) == 1  # the membership of b itself

    @pytest.mark.parametrize("truncation", [1, 4, 9])
    def test_prime_reciprocal_atoms_match_the_search(self, truncation):
        spec = PrimeReciprocal(truncation)
        primes = [nth_prime(i) for i in range(truncation)]
        for b in (F(0), F(1, 7), F(5, 6), F(3), F(1, 4), F(1, 30), F(1, 29 * 31)):
            found = spec.factoring(b, 4)
            if not membership(spec, b).is_member:
                assert found is None, b
                continue
            assert found == ([F(1, p) for p in primes if F(1, p) <= b], (False, False)), b

    def test_explicit_length_set_finds_atoms_once(self, monkeypatch):
        calls = []
        real = puiseux.atoms_up_to
        monkeypatch.setattr(puiseux, "atoms_up_to", lambda *a: calls.append(a) or real(*a))
        profile = length_set(ExplicitMonoid((F(1, 2), F(1, 3), F(1, 5))), F(1), 10)
        assert profile.lengths == {2, 3, 5} and not profile.is_lower_bound
        assert len(calls) == 1

    def test_explicit_exactness_matches_the_smallest_usable_atom(self):
        rng = random.Random(13)
        for _ in range(60):
            gens = tuple({F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
            spec = ExplicitMonoid(gens)
            b, cap = F(rng.randint(1, 12), rng.randint(1, 4)), rng.randint(1, 9)
            found = spec.factoring(b, cap)
            if not membership(spec, b).is_member:
                assert found is None, (spec, b)
                continue
            atoms, exactness = found
            assert exactness == (cap >= b / min(atoms), False)

    @pytest.mark.parametrize("spec, b", [(GRAMS, F(3, 4)), (GRAMS, F(1)), (GRAMS, F(0)),
                                         (DyadicValuation(), F(1, 2)), (PrimeReciprocal(4), F(5, 6)),
                                         (ExplicitMonoid((F(1, 2), F(1, 3), F(1, 5))), F(1))])
    def test_factorizations_with_profile_is_both_calls(self, spec, b):
        assert factorizations_with_profile(spec, b, 12) == (
            factorizations(spec, b, 12), length_set(spec, b, 12))

    def test_factorizations_with_profile_decomposes_grams_once(self, monkeypatch):
        calls = []
        real = puiseux.grams_decompose
        monkeypatch.setattr(puiseux, "grams_decompose", lambda q: calls.append(q) or real(q))
        factorizations_with_profile(GRAMS, F(3, 4), 12)
        assert calls == [F(3, 4)]

    def test_dyadic_has_no_factorizations(self):
        assert factorizations(DyadicValuation(), F(1, 2), 5) == []
        profile = length_set(DyadicValuation(), F(1, 2), 5)
        assert profile.lengths == frozenset() and profile.elasticity is None
        assert profile.is_lower_bound and not profile.infinite


def _pin_lines(spec, b, cap, queries):
    """The ordered factorization list and length profile of b under the cap,
    and the membership result of each query, one ``repr`` line each."""
    lines = [repr((spec, b, cap, [z.parts for z in factorizations(spec, b, cap)]))]
    profile = length_set(spec, b, cap)
    lines.append(repr((sorted(profile.lengths), profile.elasticity,
                       profile.is_lower_bound, profile.infinite)))
    for q in queries:
        res = membership(spec, q)
        lines.append(repr((q, res.exact, res.certificate and res.certificate.combo)))
    return lines


def _ladder_pin():
    """The ``monoid`` benchmark's Grams targets at every cap of its ladder."""
    targets = (F(1), F(1, 2), F(3, 4), F(5, 6), F(2), F(3, 2), F(11, 10), F(15, 28), F(7, 4))
    return [line for cap in range(12, 31) for b in targets
            for line in _pin_lines(GRAMS, b, cap, [b])]


def _explicit_pin():
    """The explicit cases, with the multiples of 1/D up to 30/D for D the lcm
    of the denominators, members or not."""
    out = []
    for spec, b in _explicit_cases():
        den = lcm(*(g.denominator for g in spec.generators))
        out += _pin_lines(spec, b, 8, [b, *(F(n, den) for n in range(1, 31))])
    return out


def _prime_reciprocal_pin():
    """Seeded members of PrimeReciprocal(16), each with a non-member beside it."""
    rng = random.Random(16)
    spec, primes = PrimeReciprocal(16), [nth_prime(i) for i in range(30)]
    out = []
    for i in range(30):
        b = sum((F(rng.randint(1, 3), p) for p in rng.sample(primes[:16], 1 + i % 3)), F(0))
        outside = F(rng.randint(1, 4), rng.choice(primes[16:]))
        out += _pin_lines(spec, b, 6 + i % 3, [b, outside])
    return out


class TestOrderPin:
    """Every factorization list, length profile and membership certificate of
    three corpora, in the order the searches produce them, pinned as the
    number of lines and the sha256 of their text: a faster search must list
    the same results in the same order, where the brute-force comparisons
    see only sorted sets."""

    RUNS = {"ladder": _ladder_pin, "explicit": _explicit_pin,
            "prime_reciprocal": _prime_reciprocal_pin}
    PINS = {
        "ladder": (513, "53445da334585fa7ac6dd4adeed8e8ff59e181ca5c5c6b0b68bbbcaab45e5b7b"),
        "explicit": (693, "cf14858eef094fc9ff11ae994ee2136f9f9dabd7c51413e61a05e50a61c823fe"),
        "prime_reciprocal": (120, "e3a99e5cdd1d8b0c0f401a861927bba0cb86869ec4535ab82d53dd075b9257b2"),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_output(self, name):
        lines = self.RUNS[name]()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.PINS[name]


def _reference_decompose(q):
    """``grams_decompose`` as a plain ``Fraction`` loop: the residue of each odd
    prime of the denominator, subtracted one generator at a time."""
    coeffs, rest = [], q
    for p, e in sorted(factorize(q.denominator).items()):
        if p == 2:
            continue
        if e >= 2:
            return None
        i = odd_prime_index(p)
        t = q * 2**i * p
        c = t.numerator * pow(t.denominator, -1, p) % p
        coeffs.append((i, c))
        rest -= F(c, 2**i * p)
    if rest < 0 or rest.denominator & (rest.denominator - 1):
        return None
    return rest, tuple(coeffs)


def _decompose_corpus():
    """Zero, dyadics, p^2 and p^3 denominators, products of up to six odd
    primes, and primes next to MAX_INDEXED_PRIME, each over a random power of 2."""
    rng = random.Random(24)
    small = [odd_prime(i) for i in range(60)]
    edge = [99961, 99971, 99989, 99991, 100003]
    out = [F(0), *(F(rng.randint(0, 99), 2**k) for k in range(12))]
    for _ in range(300):
        p = rng.choice(small[:10])
        out.append(F(rng.randint(1, 500), p ** rng.choice((2, 3)) * 2 ** rng.randint(0, 6)))
    for _ in range(1500):
        den = 2 ** rng.randint(0, 40)
        for p in rng.sample(small, rng.randint(1, 6)):
            den *= p
        # values up to 4, and values below 1/64, which the residues often overshoot
        out.append(F(rng.randint(0, rng.choice((4 * den, den // 64))), den))
    for p in edge:
        for _ in range(4):
            out.append(F(rng.randint(1, 40 * p), p * 2 ** rng.randint(0, 9) * rng.choice((1, 3, 15))))
    return out


class TestIntegerGramsPath:
    """The integer Grams code against the plain ``Fraction`` code it replaced."""

    def test_decompose_matches_the_fraction_loop(self):
        outcomes = Counter()
        for q in _decompose_corpus():
            try:
                want = _reference_decompose(q)
            except InputTooLargeError:
                with pytest.raises(InputTooLargeError):
                    grams_decompose(q)
                outcomes["too large"] += 1
                continue
            dec = grams_decompose(q)
            assert (dec and (dec.nu, dec.coeffs)) == want, q
            outcomes["member" if dec else "non-member"] += 1
        assert outcomes == {"member": 1286, "non-member": 543, "too large": 4}

    def test_usable_atoms_match_the_sorted_filter(self):
        targets = (F(1), F(1, 2), F(3, 4), F(5, 6), F(2), F(3, 2), F(11, 10), F(15, 28),
                   F(7, 4), F(1, 3), F(7, 30), F(1, 88), F(1, 89), F(1, 3 * 5 * 7 * 11 * 13),
                   F(1, 9), F(1, 30), F(1, 6))
        outcomes = Counter()
        for b in targets:
            odd_once = {odd_prime_index(p) for p, e in factorize(b.denominator).items()
                        if p != 2 and e == 1}
            member = grams_decompose(b) is not None
            outcomes[member] += 1
            for cap in range(1, 61):
                found = GRAMS.factoring(b, cap)
                if not member:
                    assert found is None, (b, cap)
                    continue
                idx = odd_once | {i for i in range(cap) if odd_prime(i) <= cap}
                want = sorted((g for g in map(GRAMS.generator, idx) if g <= b), reverse=True)
                assert found[0] == want, (b, cap)
        assert outcomes == {True: 12, False: 5}

    @pytest.mark.parametrize("spec", [GRAMS, DyadicValuation(), PrimeReciprocal(16),
                                      ExplicitMonoid((F(2, 3), F(4, 5), F(7, 12), F(3)))],
                             ids=["grams", "dyadic", "prime_reciprocal", "explicit"])
    def test_certificate_total_matches_the_fraction_sum(self, spec):
        rng = random.Random(7)
        size = len(spec.generators) if isinstance(spec, ExplicitMonoid) else 16
        for _ in range(300):
            combo = {i: rng.randint(0, 9) for i in rng.sample(range(size), rng.randint(0, 4))}
            cert = puiseux.MembershipCertificate.from_dict(combo)
            want = sum((m * spec.generator(i) for i, m in cert.combo), F(0))
            assert cert.total(spec) == want
            assert cert.verify(spec, want) and not cert.verify(spec, want + F(1, 7))
            assert cert.verify(spec, want.numerator) == (want.denominator == 1)

    def test_verify_builds_no_total(self, monkeypatch):
        def refuse(self, spec):
            raise AssertionError("verify built the Fraction total")

        monkeypatch.setattr(puiseux.MembershipCertificate, "total", refuse)
        assert all(step.ascending for step in accp_chain_check(GRAMS, 40))


def _prime_reciprocal_corpus(t, rng):
    """Rationals for PrimeReciprocal(t): squarefree denominators over the first
    t primes and with a prime beyond them, p^2 denominators, numerators small
    enough that the least residues overshoot, and integers and 0."""
    inside, beyond = [nth_prime(i) for i in range(t)], [nth_prime(t + i) for i in range(8)]
    out = [F(0), F(1), F(rng.randint(2, 9))]
    for _ in range(24):
        den = 1
        for p in rng.sample(inside, rng.randint(1, min(t, 5))):
            den *= p
        kind = rng.randrange(4)
        if kind == 1:
            den *= rng.choice(beyond)
        elif kind == 2:
            den *= rng.choice(inside)
        out.append(F(rng.randint(1, rng.choice((3, den, 3 * den))), den))
    return out


class TestPrimeReciprocalClosedForm:
    """``PrimeReciprocal.member`` against the bounded search of the base class."""

    def test_matches_the_search(self):
        rng = random.Random(25)
        outcomes = Counter()
        for t in range(1, 21):
            spec = PrimeReciprocal(t)
            for q in _prime_reciprocal_corpus(t, rng):
                got, want = spec.member(q), PuiseuxMonoid.member(spec, q)
                fact = factorize(q.denominator)
                kind = ("p^2" if max(fact.values(), default=1) > 1 else
                        "beyond" if max(fact, default=2) > nth_prime(t - 1) else
                        "member" if got.is_member else "negative rest")
                # the search cannot tell a non-member of the whole monoid apart
                assert got.certificate == want.certificate, (t, q)
                assert got.exact == (kind != "beyond"), (t, q)
                outcomes[kind] += 1
        assert outcomes == {"member": 220, "negative rest": 180, "beyond": 98, "p^2": 42}

    def test_negative_rest(self):
        spec = PrimeReciprocal(3)
        q = F(1, 3) + F(1, 5) - F(1, 2)  # 1/30: its residues sum to 31/30
        assert spec.member(q) == puiseux.MembershipResult(None, True)
        assert PuiseuxMonoid.member(spec, q) == puiseux.MembershipResult(None, False)
        assert spec.member(q + 1).certificate.as_dict() == {0: 1, 1: 1, 2: 1}

    def test_integer_rest_goes_to_one_half(self):
        res = PrimeReciprocal(16).member(F(7, 3))
        assert res.exact and res.certificate.as_dict() == {0: 4, 1: 1}
        assert PrimeReciprocal(1).member(F(0)).certificate.as_dict() == {}


#: the ``monoid`` benchmark's Grams targets
GRAMS_TARGETS = (F(1), F(1, 2), F(3, 4), F(5, 6), F(2), F(3, 2), F(11, 10), F(15, 28), F(7, 4))


class TestGramsLengthDP:
    """The carry DP of ``length_set`` against the listing's profile."""

    @staticmethod
    def _listed(b, cap):
        return factorizations_with_profile(GRAMS, b, cap)[1]

    @pytest.mark.parametrize("b", [*GRAMS_TARGETS, F(3), F(7, 3), F(0)], ids=str)
    def test_matches_the_listing_at_caps_up_to_60(self, b):
        for cap in range(1, 61):
            assert length_set(GRAMS, b, cap) == self._listed(b, cap), cap

    @pytest.mark.parametrize("b", [F(1), F(3, 4), F(15, 28), F(3)], ids=str)
    def test_matches_the_listing_at_caps_120_and_200(self, b):
        for cap in (120, 200):
            assert length_set(GRAMS, b, cap) == self._listed(b, cap), cap

    def test_cap_below_the_residues_is_empty(self):
        b = F(2, 3) + F(3, 10) + F(1, 1)  # residues 2 and 3, so every length is >= 5
        for cap in range(1, 5):
            profile = length_set(GRAMS, b, cap)
            assert profile == puiseux.LengthProfile(frozenset(), None, True) == self._listed(b, cap)
        assert min(length_set(GRAMS, b, 5 + 3).lengths) == 5 + 3

    @pytest.mark.parametrize("b", [F(1, 9), F(7, 30), F(1, 6)], ids=str)
    def test_non_member_raises(self, b):
        with pytest.raises(NotAMemberError):
            length_set(GRAMS, b, 12)

    def test_cap_400_in_well_under_a_second(self):
        start = time.perf_counter()
        profile = length_set(GRAMS, F(3), 400)
        assert time.perf_counter() - start < 1.0
        assert {n for n in profile.lengths if n <= 250} == length_set(GRAMS, F(3), 250).lengths
        assert max(profile.lengths) <= 400 and profile.infinite and profile.is_lower_bound


def _reference_chain(spec, n_max):
    """``accp_chain_check`` as a plain loop: each step's certificate from
    ``membership`` of 1/2^(n+1), strictness from a ``Fraction`` difference."""
    steps = []
    for n in range(n_max + 1):
        gap = F(1, 2 ** (n + 1))
        res = membership(spec, gap)
        ascending = res.is_member and res.certificate.verify(spec, gap)
        strict = gap - F(1, 2**n) < 0
        steps.append(puiseux.ChainStep(n, ascending, strict, res.certificate))
    return steps


class TestAccpChain:
    def test_matches_the_membership_loop(self):
        for n_max in range(1, 61):
            assert accp_chain_check(GRAMS, n_max) == _reference_chain(GRAMS, n_max), n_max

    def test_chain_through_ten(self):
        steps = accp_chain_check(GRAMS, 10)
        assert len(steps) == 11
        for step in steps:
            assert step.ascending and step.strict
            assert step.certificate.as_dict() == {step.step + 1: odd_prime(step.step + 1)}

    def test_other_kinds_rejected(self):
        with pytest.raises(SpecKindError):
            accp_chain_check(DyadicValuation(), 5)


class TestDyadicDivides:
    def test_order_is_divisibility(self):
        assert dyadic_divides(F(1, 4), F(1, 2))
        assert dyadic_divides(F(3, 8), F(3, 8))
        assert not dyadic_divides(F(1, 2), F(1, 4))

    def test_non_dyadic_rejected(self):
        with pytest.raises(NotDyadicError):
            dyadic_divides(F(1, 3), F(1, 2))

    @given(
        st.fractions(min_value=0, max_value=8, max_denominator=64),
        st.fractions(min_value=0, max_value=8, max_denominator=64),
    )
    def test_agrees_with_membership_difference(self, q1, q2):
        if q1.denominator & (q1.denominator - 1) or q2.denominator & (q2.denominator - 1):
            return
        divides = dyadic_divides(q1, q2)
        diff_member = q2 - q1 >= 0 and membership(DyadicValuation(), q2 - q1).is_member
        assert divides == diff_member
