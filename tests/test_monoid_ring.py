import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ivpoly.errors import (
    CoefficientRingError,
    NegativeExponentError,
    NotAMemberError,
    RingMismatchError,
    ZeroElementError,
)
from ivpoly.monoid_ring import (
    GF,
    QQ,
    ZZ,
    MonoidRingElement,
    add,
    canonicalize,
    element,
    from_json_dict,
    is_unit,
    monomial,
    monomial_divides,
    mul,
    nu_bar,
    power,
    pth_root,
    to_json_dict,
    zero,
)
from ivpoly.puiseux import GramsMonoid

exponents = st.fractions(min_value=0, max_value=8, max_denominator=24)


def elements(ring):
    return st.lists(
        st.tuples(st.integers(-9, 9), exponents), min_size=0, max_size=6
    ).map(lambda terms: element(ring, terms))


class TestCanonicalForm:
    def test_characteristic_two_cancellation(self):
        assert canonicalize([(1, F(1, 2)), (1, F(1, 2))], GF(2)).is_zero()

    def test_reordering(self):
        el = canonicalize([(2, F(1, 3)), (3, F(1))], ZZ)
        assert el.terms == ((3, F(1)), (2, F(1, 3)))

    def test_rational_cancellation(self):
        assert canonicalize([(1, F(1, 2)), (-1, F(1, 2))], QQ).is_zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponentError):
            canonicalize([(1, F(-1, 2))], QQ)

    def test_exponents_strictly_decreasing(self):
        el = element(GF(5), [(2, 1), (7, F(1, 2)), (3, 1)])
        exps = el.exponents()
        assert all(a > b for a, b in zip(exps, exps[1:]))


class TestArithmetic:
    def test_difference_of_square_roots(self):
        a = element(QQ, [(1, F(1, 2)), (1, 0)])
        b = element(QQ, [(1, F(1, 2)), (-1, 0)])
        assert mul(a, b) == element(QQ, [(1, 1), (-1, 0)])

    def test_multiplicative_identity(self):
        a = element(ZZ, [(5, F(7, 3)), (-2, 0)])
        assert mul(a, element(ZZ, [(1, 0)])) == a

    def test_frobenius_square(self):
        a = element(GF(2), [(1, F(3, 2)), (1, F(1, 4))])
        assert power(a, 2) == element(GF(2), [(1, 3), (1, F(1, 2))])

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            mul(element(QQ, [(1, 0)]), element(ZZ, [(1, 0)]))

    @given(elements(GF(5)), elements(GF(5)), elements(GF(5)))
    @settings(max_examples=60)
    def test_associativity_and_distributivity(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(elements(QQ), elements(QQ), elements(QQ))
    @settings(max_examples=40)
    def test_rational_ring_axioms(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(elements(GF(3)), elements(GF(3)))
    @settings(max_examples=60)
    def test_frobenius_identity(self, a, b):
        assert power(add(a, b), 3) == add(power(a, 3), power(b, 3))


#: the largest prime below 2^63, a 19-digit prime field
BIG_P = 2**63 - 25


def _reference_mul(ring, a, b):
    """a·b from plain ``Fraction`` exponent sums merged in a dict."""
    acc = {}
    for ca, ea in a.terms:
        for cb, eb in b.terms:
            acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
    terms = [(ring.coerce(c), e) for e, c in sorted(acc.items(), reverse=True)]
    return tuple((c, e) for c, e in terms if c != 0)


def _product_corpus(ring, rng):
    """Pairs of elements over ring, exponent denominators from a coprime pool
    or from one sharing factors, each pair (a, b) followed by (a + b, a - b),
    whose product a^2 - b^2 cancels the cross terms."""
    pools = ([F(n, d) for n in range(5) for d in (1, 5, 7, 11)],
             [F(n, d) for n in range(5) for d in (2, 4, 6, 12)])
    coeffs = {"Z": [-3, -1, 1, 2], "Q": [-3, F(-1, 3), F(1, 3), 1, 2]}.get(ring.tag)
    coeffs = coeffs or [1, 2, ring.p - 1]
    for _ in range(40):
        pool = rng.choice(pools)
        a, b = [element(ring, [(rng.choice(coeffs), rng.choice(pool)) for _ in range(rng.randint(0, 4))])
                for _ in range(2)]
        yield a, b
        yield add(a, b), add(a, element(ring, [(-c, e) for c, e in b.terms]))


class TestIntegerExponentProducts:
    """``mul`` and ``power`` against a plain reference on ``Fraction`` exponents."""

    RINGS = [ZZ, QQ, GF(2), GF(3), GF(BIG_P)]

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
    def test_mul_matches_the_reference(self, ring):
        rng = random.Random(ring.tag)
        cancelled = 0
        for a, b in _product_corpus(ring, rng):
            got = mul(a, b)
            assert got.terms == _reference_mul(ring, a, b), (a, b)
            sums = {ea + eb for _, ea in a.terms for _, eb in b.terms}
            cancelled += len(sums) - len(got.terms)
            if ring != QQ:
                assert all(type(c) is int for c, _ in got.terms)
        assert cancelled > 0  # some exponent sums cancelled to zero

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
    def test_power_matches_the_reference(self, ring):
        rng = random.Random(ring.tag)
        for a, _ in _product_corpus(ring, rng):
            want = element(ring, [(1, 0)])
            for n in range(5):
                assert power(a, n) == want, (a, n)
                want = MonoidRingElement(ring, _reference_mul(ring, want, a))

    def test_zero_element(self):
        a = element(GF(3), [(1, F(1, 2))])
        assert mul(zero(GF(3)), a) == mul(a, zero(GF(3))) == zero(GF(3))
        assert power(zero(QQ), 0) == element(QQ, [(1, 0)]) and power(zero(QQ), 3) == zero(QQ)

    def test_prime_field_sum_cancels(self):
        a = element(GF(3), [(1, F(1, 2)), (1, F(1, 3))])
        b = element(GF(3), [(1, F(1, 3)), (2, F(1, 2))])
        assert mul(a, b) == element(GF(3), [(2, 1), (1, F(2, 3))])

    def test_negative_power_rejected(self):
        a = element(ZZ, [(2, F(1, 2))])
        with pytest.raises(NegativeExponentError) as err:
            power(a, -1)
        assert err.value.code == "negative-exponent"
        for n in (2.0, F(2), "2", None):
            with pytest.raises(TypeError):
                power(a, n)


class TestUnits:
    def test_rational_constants(self):
        assert is_unit(element(QQ, [(3, 0)]))
        assert not is_unit(element(ZZ, [(3, 0)]))

    def test_monomial_not_unit_in_reduced_monoid(self):
        assert not is_unit(monomial(GF(7), 1, F(1, 2)))

    def test_prime_field_constant(self):
        assert is_unit(element(GF(5), [(2, 0)]))

    def test_zero_not_unit(self):
        assert not is_unit(zero(QQ))


class TestNuBar:
    def test_minimum_over_terms(self):
        f = element(QQ, [(1, F(1, 3)), (1, F(3, 5))])
        assert nu_bar(f) == 0

    def test_pure_dyadic_exponent(self):
        assert nu_bar(monomial(QQ, 1, F(1, 2))) == F(1, 2)

    def test_constant(self):
        assert nu_bar(element(QQ, [(1, 0)])) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroElementError):
            nu_bar(zero(QQ))

    def test_non_member_exponent_rejected(self):
        with pytest.raises(NotAMemberError):
            nu_bar(monomial(QQ, 1, F(1, 9)))


class TestPthRoot:
    def test_square_root_over_f2(self):
        f = element(GF(2), [(1, 3), (1, F(1, 2))])
        root = pth_root(f)
        assert root == element(GF(2), [(1, F(3, 2)), (1, F(1, 4))])
        assert power(root, 2) == f

    def test_identity(self):
        one = element(GF(3), [(1, 0)])
        assert pth_root(one) == one

    def test_cube_root(self):
        f = element(GF(3), [(1, F(2, 3))])
        assert pth_root(f) == element(GF(3), [(1, F(2, 9))])

    def test_wrong_ring_rejected(self):
        with pytest.raises(CoefficientRingError):
            pth_root(element(QQ, [(1, 1)]))

    @given(elements(GF(2)))
    @settings(max_examples=100)
    def test_root_soundness_f2(self, f):
        assert power(pth_root(f), 2) == f

    @given(elements(GF(3)))
    @settings(max_examples=100)
    def test_antimatter_witness_f3(self, f):
        # every nonzero element is a p-th power, so none is irreducible
        root = pth_root(f)
        assert power(root, 3) == f
        if not f.is_zero() and not is_unit(f):
            assert not is_unit(root) and not root.is_zero()


class TestMonomialDivisibility:
    def test_zero_exponent_divides_everything(self):
        f = element(QQ, [(1, F(1, 3)), (2, F(1, 2))])
        assert monomial_divides(F(0), f, GramsMonoid())

    def test_grams_difference(self):
        assert monomial_divides(F(1, 10), monomial(QQ, 1, F(3, 5)), GramsMonoid())

    def test_negative_difference(self):
        assert not monomial_divides(F(1, 3), monomial(QQ, 1, F(1, 10)), GramsMonoid())


class TestSerialization:
    def test_roundtrip(self):
        f = element(GF(5), [(3, F(7, 2)), (1, 0)])
        assert from_json_dict(to_json_dict(f)) == f

    def test_rational_tags(self):
        f = element(QQ, [(F(-1, 2), F(5, 3))])
        d = to_json_dict(f)
        assert d == {"ring": "Q", "terms": [["-1/2", "5/3"]]}
