import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from ivpoly import intpoly, qpoly
from ivpoly.errors import (
    DuplicatePointsError,
    NotAMemberError,
    NoWitnessError,
    SiteMismatchError,
    UnitElementError,
    UnsupportedSiteError,
    ZeroElementError,
)
from ivpoly.intpoly import (
    Z_SITE,
    FiniteSite,
    IVPoly,
    _divisor_candidates,
    binomial,
    constant,
    divide,
    divisors,
    factorizations,
    find_irreducible_divisor,
    fixed_divisor,
    from_binomial_basis,
    is_irreducible,
    is_member,
    ivpoly,
    length_profile,
    pulling_sequence,
    to_binomial_basis,
    vanishing_nonatomic_witness,
)
from ivpoly.qfactor import factor_rational
from ivpoly.verify import (
    _product as _factor_product,
    _replay_factorizations,
    bruteforce_divisors,
)

X_ON_0 = ivpoly([0, 1], FiniteSite((0,)))
#: rationals with denominators in {1, 2, 3, 6}, so that members and
#: non-members both turn up often
SMALL_DENOMINATOR_COEFFS = st.lists(
    st.builds(F, st.integers(-20, 20), st.sampled_from([1, 1, 1, 2, 3, 6])),
    min_size=1,
    max_size=8,
)


class TestMembership:
    def test_binomial_is_member(self):
        assert is_member(ivpoly([0, F(-1, 2), F(1, 2)]))

    def test_half_x_not_member_on_z(self):
        assert not is_member(ivpoly([0, F(1, 2)]))

    def test_half_x_member_on_even_site(self):
        assert is_member(ivpoly([0, F(1, 2)], FiniteSite((0, 2))))

    def test_all_binomials(self):
        assert all(is_member(binomial(n)) for n in range(12))

    @given(SMALL_DENOMINATOR_COEFFS)
    @settings(max_examples=200)
    def test_matches_integral_deltas_on_z(self, coeffs):
        f = from_binomial_basis(coeffs)
        assert is_member(f) == all(d.denominator == 1 for d in to_binomial_basis(f).deltas)

    @given(SMALL_DENOMINATOR_COEFFS, st.sets(st.integers(-12, 12), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_matches_fraction_values_on_finite_sites(self, coeffs, points):
        f = ivpoly(coeffs, FiniteSite(tuple(points)))
        assert is_member(f) == all(f(F(s)).denominator == 1 for s in f.site.points)


class TestBinomialBasis:
    def test_x_squared(self):
        assert to_binomial_basis(ivpoly([0, 0, 1])).deltas == (F(0), F(1), F(2))

    def test_constant(self):
        assert to_binomial_basis(constant(F(7, 3))).deltas == (F(7, 3),)

    def test_basis_vector(self):
        assert to_binomial_basis(binomial(6)).deltas == tuple(F(int(j == 6)) for j in range(7))

    def test_inverse_bijections(self):
        f = ivpoly([F(1, 3), F(-2, 7), F(5)])
        assert from_binomial_basis(to_binomial_basis(f)).coeffs == f.coeffs
        deltas = [F(3), F(-1, 2), F(9)]
        assert to_binomial_basis(from_binomial_basis(deltas)).deltas == tuple(deltas)

    @given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=720), min_size=1, max_size=13))
    @settings(max_examples=150)
    def test_roundtrip_random(self, coeffs):
        f = ivpoly(coeffs)
        assert from_binomial_basis(to_binomial_basis(f)).coeffs == f.coeffs


class TestFixedDivisor:
    def test_x_squared_minus_x(self):
        assert fixed_divisor(ivpoly([0, -1, 1])) == 2

    def test_falling_factorial(self):
        f = binomial(6).scale(720)
        assert fixed_divisor(f) == 720

    def test_constant(self):
        assert fixed_divisor(constant(7)) == 7

    def test_zero_rejected(self):
        with pytest.raises(ZeroElementError):
            fixed_divisor(ivpoly([]))

    def test_rational_coefficients(self):
        assert fixed_divisor(binomial(2)) == 1
        assert fixed_divisor(ivpoly([0, F(3, 2), F(3, 2)])) == 3  # 3 * C(x+1, 2)

    def test_finite_site_value_gcd(self):
        # 4x + 2 takes the values 6 and 14 on {1, 3}
        assert fixed_divisor(ivpoly([2, 4], FiniteSite((1, 3)))) == 2
        assert fixed_divisor(ivpoly([0, F(1, 2), F(1, 2)], FiniteSite((1, 3)))) == 1

    def test_vanishing_member_gives_zero(self):
        assert fixed_divisor(X_ON_0) == 0
        assert fixed_divisor(ivpoly([0, -1, 1], FiniteSite((0, 1)))) == 0

    def test_non_member_rejected(self):
        with pytest.raises(NotAMemberError):
            fixed_divisor(ivpoly([0, F(1, 2)]))
        with pytest.raises(NotAMemberError):
            fixed_divisor(ivpoly([0, F(1, 2)], FiniteSite((0, 1))))

    def test_agrees_with_value_sampling(self):
        rng = random.Random(5)
        from math import gcd

        for _ in range(50):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            if not any(coeffs):
                continue
            f = ivpoly(coeffs)
            sampled = gcd(*(int(f(k)) for k in range(-25, 26)))
            assert fixed_divisor(f) == sampled


class TestPullingSequence:
    def test_small_products(self):
        assert pulling_sequence([0, 1, 2]).values == (1, 1, 2)
        assert pulling_sequence([0, 1]).values == (1, 1)
        assert pulling_sequence([0, 1, 2, 3]).values == (1, 1, 2, 12)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointsError):
            pulling_sequence([1, 1])

    def test_pulls_members_into_integer_coefficients(self):
        rng = random.Random(17)
        for _ in range(100):
            size = rng.randint(1, 6)
            points = rng.sample(range(-20, 21), size)
            values = [rng.randint(-40, 40) for _ in range(size)]
            coeffs = qpoly.lagrange(points, [F(v) for v in values])
            if qpoly.is_zero(coeffs):
                continue
            f = IVPoly(coeffs, FiniteSite(tuple(points)))
            d = pulling_sequence(points).values[f.degree]
            assert qpoly.int_coeffs(qpoly.scale(f.coeffs, d)) is not None


class TestDivide:
    def test_hf_identity_quotient(self):
        six_c6 = binomial(6).scale(6)
        q = divide(six_c6, ivpoly([-5, 1]))
        assert q is not None and q.coeffs == binomial(5).coeffs

    def test_divide_by_unit(self):
        f = ivpoly([3, 1])
        assert divide(f, constant(1)).coeffs == f.coeffs

    def test_halving_needs_membership(self):
        assert divide(ivpoly([0, -1, 1]), constant(2)).coeffs == binomial(2).coeffs
        assert divide(ivpoly([0, 1]), constant(2)) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroElementError):
            divide(ivpoly([1]), ivpoly([]))

    def test_site_mismatch_rejected(self):
        with pytest.raises(SiteMismatchError):
            divide(ivpoly([0, 1]), X_ON_0)


class TestDivisors:
    def test_x_squared_minus_x_classes(self):
        dl = divisors(ivpoly([0, -1, 1]))
        expected = {
            (F(1),),
            (F(2),),
            (F(0), F(1)),
            (F(-1), F(1)),
            (F(0), F(-1, 2), F(1, 2)),
            (F(0), F(-1), F(1)),
        }
        assert {d.coeffs for d in dl.divisors} == expected

    def test_unit_has_one_class(self):
        assert [d.coeffs for d in divisors(constant(1)).divisors] == [(F(1),)]

    def test_hf_example_contains_named_divisors(self):
        six_c6 = binomial(6).scale(6)
        coeffs = {d.coeffs for d in divisors(six_c6).divisors}
        for named in (constant(2), constant(3), ivpoly([-5, 1]), binomial(5), binomial(6)):
            assert named.coeffs in coeffs

    def test_every_divisor_divides(self):
        f = ivpoly([0, -2, 0, 2])
        for d in divisors(f).divisors:
            assert divide(f.normalized(), d) is not None

    def test_no_associate_pairs(self):
        f = ivpoly([0, -1, 1])
        ds = [d.coeffs for d in divisors(f).divisors]
        assert len(ds) == len({tuple(abs(c) for c in cs) for cs in ds})

    def test_vanishing_finite_site_rejected(self):
        # x vanishes on all of {0}: x / n divides x for every n
        with pytest.raises(UnsupportedSiteError):
            divisors(X_ON_0)
        with pytest.raises(UnsupportedSiteError):
            factorizations(ivpoly([0, -1, 1], FiniteSite((0, 1))))

    def test_finite_site(self):
        # x^2 - x is 0, 0, 2 on {0, 1, 2}: x / 2 is not a member, (x^2 - x) / 2 is
        dl = divisors(ivpoly([0, -1, 1], FiniteSite((0, 1, 2))))
        assert [d.coeffs for d in dl.divisors] == [
            (F(1),), (F(2),), (F(-1), F(1)), (F(0), F(1)),
            (F(0), F(-1), F(1)), (F(0), F(-1, 2), F(1, 2)),
        ]

    def test_non_member_rejected(self):
        with pytest.raises(NotAMemberError):
            divisors(ivpoly([0, F(1, 2)]))

    def test_rational_coefficient_members_match_bruteforce(self):
        from ivpoly.verify import bruteforce_divisors

        cases = [
            binomial(2).scale(3),
            binomial(3).scale(2),
            binomial(2).mul(ivpoly([-2, 1])),
            binomial(2).mul(binomial(2)),
        ]
        for f in cases:
            mine = tuple(d.coeffs for d in divisors(f).divisors)
            assert mine == tuple(d.coeffs for d in bruteforce_divisors(f))

    def test_binomial_square_has_three_classes(self):
        # x/2 fails membership, so only 1, C(x,2), C(x,2)^2 divide C(x,2)^2
        dl = divisors(binomial(2).mul(binomial(2)))
        assert len(dl.divisors) == 3


class TestIrreducibility:
    def test_binomials(self):
        assert all(is_irreducible(binomial(n)) for n in range(1, 7))

    def test_x_squared_reducible(self):
        assert not is_irreducible(ivpoly([0, 0, 1]))

    def test_ckd_linear(self):
        assert is_irreducible(ivpoly([1, 6], FiniteSite((0, 1))))

    def test_units_rejected(self):
        with pytest.raises(UnitElementError):
            is_irreducible(constant(1))

    def test_finite_site_degree_two(self):
        assert not is_irreducible(ivpoly([0, 0, 1], FiniteSite((0, 1))))  # x * x
        assert is_irreducible(ivpoly([1, 0, 1], FiniteSite((0, 1, 2))))  # values 1, 2, 5

    def test_constant_primes_on_finite_site(self):
        site = FiniteSite((0, 3))
        assert is_irreducible(constant(5, site))
        assert not is_irreducible(constant(6, site))

    def test_vanishing_linear_reducible(self):
        assert not is_irreducible(X_ON_0)

    def test_composite_beyond_the_rho_budget(self):
        # (10^14 + 31)(2 * 10^14 + 27): Miller-Rabin finds it composite, and
        # no factoring of it is needed to see that N and N x are reducible
        n = 20000000000008900000000000837
        assert not is_irreducible(constant(n))
        assert not is_irreducible(ivpoly([0, n]))


@st.composite
def _members(draw):
    """k * prod g_i / den of degree <= 5, g_i small integer polynomials and
    den a divisor of the fixed divisor: a member of Int(Z), often with a
    content denominator and repeated factors."""
    part = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(lambda cs: cs[-1])
    h = (draw(st.integers(1, 12)),)
    for cs in draw(st.lists(part, min_size=1, max_size=3)):
        if qpoly.degree(h) + len(cs) - 1 <= 5:
            h = qpoly.int_mul(h, tuple(cs))
    f = ivpoly(h)
    d = fixed_divisor(f)
    den = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]))
    return f.scale(F(1, den))


def _irreducible_by_scaling(f):
    """The former test: build u * G_J for every candidate and compare it with
    1 and the normalized f."""
    trivial = ((F(1),), f.normalized().coeffs)
    return all(qpoly.scale(gj, u) in trivial for _, u, gj in _divisor_candidates(f))


class TestIrreducibleKeys:
    @given(_members())
    @settings(max_examples=150, deadline=None)
    def test_keys_decide_as_the_built_candidates_do(self, f):
        assume(not f.is_unit())
        assert is_irreducible(f) == _irreducible_by_scaling(f)

    def test_negative_content_and_repeated_factors(self):
        for coeffs in ([0, 0, -2], [0, F(1, 2), F(-1, 2)], [-3], [0, 0, 1, -2, 1], [0, 1]):
            f = ivpoly(coeffs)
            assert is_irreducible(f) == _irreducible_by_scaling(f), coeffs


class TestFactorizations:
    def test_x_squared_minus_x(self):
        facs = factorizations(ivpoly([0, -1, 1]))
        assert len(facs) == 2
        assert all(z.length == 2 for z in facs)
        part_sets = {tuple(p.coeffs for p in z.parts) for z in facs}
        assert ((F(0), F(-1, 2), F(1, 2)), (F(2),)) in part_sets  # 2 * C(x,2)

    def test_products_reproduce_target(self):
        f = ivpoly([0, -1, 1])
        for z in factorizations(f):
            assert z.product().coeffs == f.normalized().coeffs

    def test_parts_are_irreducible(self):
        for z in factorizations(binomial(2).scale(4)):
            assert all(is_irreducible(p) for p in z.parts)

    def test_irreducible_has_single_factorization(self):
        facs = factorizations(binomial(3))
        assert len(facs) == 1 and facs[0].parts[0].coeffs == binomial(3).coeffs

    def test_constant_semigroup(self):
        facs = factorizations(constant(12))
        assert [sorted(int(p.coeffs[0]) for p in z.parts) for z in facs] == [[2, 2, 3]]

    def test_hf_lengths(self):
        profile = length_profile(binomial(6).scale(6))
        assert {2, 3} <= set(profile.lengths)
        assert profile.elasticity >= F(3, 2)
        assert profile.hfd_violation

    def test_prime_profile(self):
        profile = length_profile(constant(7))
        assert profile.lengths == {1} and profile.elasticity == 1

    def test_degree_four_falling_factorial_lattice(self):
        f = constant(1)
        for i in range(4):
            f = f.mul(ivpoly([-i, 1]))
        assert len(divisors(f).divisors) == 54
        facs = factorizations(f)
        assert len(facs) == 10
        assert {z.length for z in facs} == {4, 5}
        assert all(z.product().coeffs == f.coeffs for z in facs)
        assert all(is_irreducible(p) for z in facs for p in z.parts)


def _product(k, roots, m=0, extra=(1,)):
    """k * C(x, m) * extra * prod (x - a) over the roots: many divisors."""
    f = binomial(m).scale(k).mul(ivpoly(extra))
    for a in roots:
        f = f.mul(ivpoly([-a, 1]))
    return f


class TestFactorizationReplay:
    """``factorizations`` on divisor keys against verify's polynomial replay."""

    @given(
        st.integers(1, 12),
        st.lists(st.integers(-3, 3), max_size=2),
        st.integers(0, 2),
        # 1, x^2 + 1, 2x + 1, x^2 - x + 2 (fixed divisor 2), C(x, 2) + 1
        st.sampled_from([(1,), (1, 0, 1), (1, 2), (2, -1, 1), (1, F(-1, 2), F(1, 2))]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_replay_over_divisors(self, k, roots, m, extra):
        f = _product(k, roots, m, extra)
        if f.is_unit():
            return
        assert factorizations(f) == _replay_factorizations(f, divisors(f).divisors)

    @given(st.integers(1, 6), st.lists(st.integers(-2, 2), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_replay_over_brute_force_divisors(self, k, roots):
        f = _product(k, roots)
        if f.is_unit():
            return
        assert factorizations(f) == _replay_factorizations(f, bruteforce_divisors(f))

    def test_seven_factorial_binomial_seven(self):
        # counted at the commit before divisor keys, by the recursion over
        # polynomial products (26 s there)
        facs = factorizations(binomial(7).scale(5040))
        assert len(facs) == 205
        lengths = [z.length for z in facs]
        assert sorted(set(lengths)) == [5, 6, 7, 8, 9]
        assert [lengths.count(n) for n in range(5, 10)] == [2, 12, 169, 19, 3]

    def test_replay_is_independent_of_the_library(self, monkeypatch):
        from ivpoly import intpoly, verify

        f = ivpoly([0, -4, 0, 4])
        want = factorizations(f)

        def refuse(*args, **kwargs):
            raise AssertionError("the replay called intpoly.factorizations")

        monkeypatch.setattr(intpoly, "factorizations", refuse)
        monkeypatch.setattr(verify, "factorizations", refuse)
        assert _replay_factorizations(f, bruteforce_divisors(f)) == want
        assert len(want) > 1


class TestOneValueRead:
    """Each verdict reads f's site values once, and checks zero, then
    membership, then units, as before."""

    @pytest.mark.parametrize("decide", [is_irreducible, find_irreducible_divisor])
    @pytest.mark.parametrize("f", [
        binomial(4).scale(2), ivpoly([0, 6], FiniteSite((0, 1))), ivpoly([1, 0, 1]), constant(6),
    ], ids=str)
    def test_values_are_read_once(self, monkeypatch, decide, f):
        reads = []
        scaled_values = intpoly._scaled_values
        monkeypatch.setattr(intpoly, "_scaled_values", lambda g: reads.append(g) or scaled_values(g))
        decide(f)
        assert reads == [f]

    @pytest.mark.parametrize("decide", [is_irreducible, find_irreducible_divisor, factorizations])
    @pytest.mark.parametrize("f, error, message", [
        (constant(0), ZeroElementError, "zero is neither reducible nor irreducible"),
        (ivpoly([0, F(1, 2)]), NotAMemberError, "f is not integer-valued on its site"),
        (constant(-1), UnitElementError, "units are not factored"),
    ], ids=["zero", "non-member", "unit"])
    def test_rejections(self, decide, f, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            decide(f)


class TestFindIrreducibleDivisor:
    def test_x_on_singleton_site(self):
        assert find_irreducible_divisor(X_ON_0).coeffs == (F(2),)

    def test_hf_example_smallest_prime(self):
        assert find_irreducible_divisor(binomial(6).scale(6)).coeffs == (F(2),)

    def test_prime_constant(self):
        assert find_irreducible_divisor(constant(13)).coeffs == (F(13),)

    def test_primitive_linear_over_z(self):
        d = find_irreducible_divisor(ivpoly([0, 1]))
        assert d.coeffs == (F(0), F(1))

    def test_returned_divisor_divides_and_is_irreducible(self):
        for f in (ivpoly([0, -1, 1]), binomial(4).scale(2), ivpoly([3, 4], FiniteSite((0, 2)))):
            d = find_irreducible_divisor(f)
            assert divide(f.normalized(), d) is not None
            assert is_irreducible(d)


class TestVanishingWitness:
    def test_x_on_singleton(self):
        w = vanishing_nonatomic_witness(X_ON_0)
        assert w.point == 0
        assert w.half.coeffs == (F(0), F(1, 2))
        assert is_member(w.half)
        assert w.complete_proof and w.splits_for_all_integers

    def test_two_point_site(self):
        w = vanishing_nonatomic_witness(ivpoly([0, -1, 1], FiniteSite((0, 1))))
        assert w.point == 0 and w.vanishing_points == (0, 1)
        assert w.splits_for_all_integers and not w.complete_proof

    def test_nonvanishing_rejected(self):
        with pytest.raises(NoWitnessError):
            vanishing_nonatomic_witness(ivpoly([-1, 1], FiniteSite((0,))))

    def test_witness_points_are_the_sites_decision(self):
        assert FiniteSite((2, 0)).witness_points() == (0, 2)
        with pytest.raises(UnsupportedSiteError):
            Z_SITE.witness_points()

    @pytest.mark.parametrize("f", [ivpoly([0, 2]), constant(0), ivpoly([0, F(1, 2)])],
                             ids=["member", "zero", "non-member"])
    def test_z_is_refused_before_any_other_check(self, f):
        with pytest.raises(UnsupportedSiteError, match="^the vanishing witness concerns finite sites$"):
            vanishing_nonatomic_witness(f)

    def test_odd_value_blocks_the_split(self):
        with pytest.raises(NoWitnessError):
            vanishing_nonatomic_witness(ivpoly([0, 1], FiniteSite((0, 1))))


def _binomial_reference(j):
    """C(x, j) from Fraction products, independent of the integer layer."""
    cs = qpoly.poly([1])
    fact = 1
    for i in range(j):
        cs = qpoly.mul(cs, qpoly.poly([-i, 1]))
        fact *= i + 1
    return qpoly.scale(cs, F(1, fact))


class TestValueTableCore:
    def test_repeated_and_non_monic_factors_match_bruteforce(self):
        from ivpoly.verify import bruteforce_divisors

        cases = [
            binomial(2).mul(binomial(2)).scale(6),  # 6 * C(x,2)^2
            ivpoly([-1, 2]).mul(ivpoly([2, 3])).mul(binomial(2)),  # (2x-1)(3x+2) C(x,2)
            ivpoly([1, 0, 1]).mul(binomial(3)),  # (x^2+1) C(x,3)
        ]
        for f in cases:
            mine = tuple(d.coeffs for d in divisors(f).divisors)
            assert mine == tuple(d.coeffs for d in bruteforce_divisors(f))
            assert len(mine) > 2

    def test_irreducible_agrees_with_divisor_count(self):
        rng = random.Random(11)
        corpus = [binomial(n) for n in range(1, 8)]
        corpus += [
            ivpoly([0, -1, 1]),
            ivpoly([0, 2]),
            constant(6),
            constant(7),
            ivpoly([1, 0, 1]),
            ivpoly([2, 1, 1]).scale(F(1, 2)),
            binomial(3).scale(2),
            binomial(2).mul(binomial(2)),
            ivpoly([-1, 2]).mul(binomial(2)),
        ]
        while len(corpus) < 40:
            deltas = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            f = from_binomial_basis(deltas)
            if not f.is_zero() and not f.is_unit():
                corpus.append(f)
        verdicts = set()
        for f in corpus:
            verdict = is_irreducible(f)
            assert verdict == (len(divisors(f).divisors) == 2), str(f)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_find_irreducible_divisor_on_finite_sites(self):
        cases = [
            # values 1, 6: no constant divisor, two linear ones
            (ivpoly([1, 3, 2], FiniteSite((0, 1))), (F(1), F(1))),
            # x (x+1) / 2 on {1, 3}: divisors x and (x+1)/2
            (ivpoly([0, F(1, 2), F(1, 2)], FiniteSite((1, 3))), (F(0), F(1))),
            # x^2 + 1 on {0, 1, 2}: irreducible over Q with value gcd 1
            (ivpoly([1, 0, 1], FiniteSite((0, 1, 2))), (F(1), F(0), F(1))),
        ]
        for f, want in cases:
            d = find_irreducible_divisor(f)
            assert d.coeffs == want
            assert divide(f, d) is not None
            assert is_irreducible(d)

    @pytest.mark.parametrize("degree", range(41))
    def test_from_binomial_basis_matches_binomial_sum(self, degree):
        rng = random.Random(degree)
        deltas = [F(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(degree + 1)]
        want = ()
        for j, d in enumerate(deltas):
            want = qpoly.add(want, qpoly.scale(_binomial_reference(j), d))
        assert from_binomial_basis(deltas).coeffs == want

    def test_binomial_matches_reference(self):
        for n in range(15):
            assert binomial(n).coeffs == _binomial_reference(n)


def _values_gcd(coeffs, points):
    """gcd of the values at the points, by Fraction evaluation."""
    return gcd(*(int(qpoly.eval_at(coeffs, s)) for s in points))


@st.composite
def _content_denominator_products(draw):
    """k * C(x, m) * extra * prod (x - a) of degree <= 4 whose content has a denominator."""
    m = draw(st.integers(2, 3))
    k = draw(st.integers(1, 6).filter(lambda k: k % factorial(m)))
    # 1, 2x + 1, and for m = 2: x^2 + 1, x^2 - x + 2 (fixed divisor 2), C(x, 2) + 1
    extras = [(1,), (1, 2)] + ([(1, 0, 1), (2, -1, 1), (1, F(-1, 2), F(1, 2))] if m == 2 else [])
    extra = draw(st.sampled_from(extras))
    roots = draw(st.lists(st.integers(-3, 3), max_size=4 - m - (len(extra) - 1)))
    return _product(k, roots, m, extra)


@st.composite
def _site_members(draw):
    """h / den on a finite site, h a product of degree 1..3, den | the value gcd of h."""
    site = FiniteSite(tuple(draw(st.sets(st.integers(-5, 5), min_size=1, max_size=4))))
    extra = draw(st.sampled_from([(1,), (1,), (1, 0, 1), (2, -1, 1), (1, 1, 1)]))
    linears = st.tuples(st.integers(-3, 3), st.integers(1, 3))
    parts = draw(st.lists(linears, min_size=1 if extra == (1,) else 0, max_size=4 - len(extra)))
    h = qpoly.poly(extra)
    for part in parts:
        h = qpoly.mul(h, qpoly.poly(part))
    g = _values_gcd(h, site.points)
    assume(g != 0)
    # most often den = g: the values of f are then coprime, so the walk runs,
    # and the content has a denominator it prunes against
    dens = [g // d for d in range(1, abs(g) + 1) if g % d == 0]
    return ivpoly(qpoly.scale(h, F(1, dens[draw(st.integers(0, 3)) % len(dens)])), site)


class TestSplitWalk:
    """The pruned J walk against brute force, on Z and on finite sites."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_binomial_is_irreducible(self, n):
        assert is_irreducible(binomial(n))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_binomial_candidates_are_the_two_trivial_keys(self, n):
        keys = {(vec, u) for vec, u, _ in _divisor_candidates(binomial(n))}
        assert keys == {((0,) * n, F(1)), ((1,) * n, F(1, factorial(n)))}

    @given(_content_denominator_products())
    @settings(max_examples=60, deadline=None)
    def test_divisors_match_bruteforce_with_a_content_denominator(self, f):
        brute = bruteforce_divisors(f)
        assert tuple(d.coeffs for d in divisors(f).divisors) == tuple(d.coeffs for d in brute)
        assert is_irreducible(f) == (len(brute) == 2)

    @given(_site_members())
    @settings(max_examples=80, deadline=None)
    def test_finite_site_irreducible_divisor_has_least_degree(self, f):
        site = f.site
        d = find_irreducible_divisor(f)
        assert not d.is_unit()
        assert divide(f, d) is not None
        assert is_irreducible(d)
        # brute force over u * G_J with deg G_J < deg d: every b | d(G_J) and
        # every a | cn * b * d(G_Jc), each candidate tested directly
        c, factors = factor_rational(f.coeffs)
        cn = abs(c.numerator)
        full = tuple(m for _, m in factors)
        vecs = [()]
        for m in full:
            vecs = [v + (e,) for v in vecs for e in range(m + 1)]
        for vec in vecs:
            gj = _factor_product(factors, vec)
            if qpoly.degree(gj) >= d.degree:
                continue
            dj = _values_gcd(gj, site.points)
            gjc = _factor_product(factors, tuple(m - e for m, e in zip(full, vec)))
            djc = _values_gcd(gjc, site.points)
            for b in range(1, dj + 1):
                if dj % b:
                    continue
                top = cn * b * djc
                for a in range(1, top + 1):
                    if top % a or gcd(a, b) != 1:
                        continue
                    cand = IVPoly(qpoly.scale(gj, F(a, b)), site)
                    if cand.is_unit() or not all(cand(s).denominator == 1 for s in site.points):
                        continue
                    assert divide(f, cand) is None, (str(f), str(cand))

    @given(_site_members())
    @settings(max_examples=80, deadline=None)
    def test_finite_site_irreducible_iff_two_divisors(self, f):
        assert is_irreducible(f) == (len(divisors(f).divisors) == 2)
