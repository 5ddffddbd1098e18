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
