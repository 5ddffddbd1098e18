from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import assume, given, strategies as st

from ivpoly import qpoly
from ivpoly.qfactor import factor_rational


def coeff_lists(max_len=6, max_denom=12):
    return st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=max_denom),
        max_size=max_len,
    )


def test_trim_and_degree():
    assert qpoly.poly([1, 2, 0, 0]) == (F(1), F(2))
    assert qpoly.degree(()) == -1
    assert qpoly.degree(qpoly.poly([0, 0, 5])) == 2


def test_poly_gives_fractions_for_int_str_and_fraction_input():
    half = F(1, 2)
    cs = qpoly.poly([3, "2/6", half, True, 0])
    assert cs == (F(3), F(1, 3), F(1, 2), F(1))
    assert all(type(c) is F for c in cs) and cs[2] is half


def test_int_divexact():
    b = (1, 1)
    assert qpoly.int_divexact(qpoly.int_mul(b, (-2, 3)), b) == (-2, 3)
    assert qpoly.int_divexact((1, 0, 1), b) is None  # remainder 2
    assert qpoly.int_divexact((1, 2), (2,)) is None  # exact over Q only
    assert qpoly.int_divexact((3,), b) is None  # lower degree, nonzero
    assert qpoly.int_divexact((), b) == () and qpoly.int_divexact((), (5,)) == ()


def test_int_primitive():
    assert qpoly.int_primitive((0, -2, -4)) == (0, 1, 2)
    assert qpoly.int_primitive((6, 9)) == (2, 3)
    assert qpoly.int_primitive((-7,)) == (1,)


def test_eval_horner():
    f = qpoly.poly([F(1, 2), 0, 1])
    assert qpoly.eval_at(f, 3) == F(19, 2)


def test_content_and_primitive():
    assert qpoly.int_scaled(qpoly.poly([F(2, 3), F(4, 3)])) == ((2, 4), 3)
    assert qpoly.int_scaled(qpoly.poly([0, -2, -4])) == ((0, -2, -4), 1)
    assert qpoly.int_scaled(qpoly.poly([F(1, 2), F(-1, 3)])) == ((3, -2), 6)
    assert qpoly.int_scaled(()) == ((), 1)
    # the content and primitive part, through factor_rational
    assert factor_rational(qpoly.poly([F(2, 3), F(4, 3)])) == (F(2, 3), [((1, 2), 1)])
    assert factor_rational(qpoly.poly([0, -2, -4])) == (-2, [((0, 1), 1), ((1, 2), 1)])


def test_lagrange_interpolation():
    pts, vals = [0, 1, 2], [F(0), F(1), F(4)]
    assert qpoly.lagrange(pts, vals) == qpoly.poly([0, 0, 1])
    with pytest.raises(ValueError):
        qpoly.lagrange([0, 0], [F(1), F(2)])


@given(coeff_lists(), coeff_lists())
def test_mul_commutes(a, b):
    pa, pb = qpoly.poly(a), qpoly.poly(b)
    assert qpoly.mul(pa, pb) == qpoly.mul(pb, pa)


int_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7)


@given(int_lists, st.integers(min_value=-20, max_value=20))
def test_int_eval_matches_fraction_eval(g, x):
    assert qpoly.int_eval(tuple(g), x) == qpoly.eval_at(qpoly.poly(g), x)


@given(int_lists, int_lists)
def test_int_mul_matches_fraction_mul(a, b):
    a, b = tuple(a) + (1,), tuple(b) + (-3,)  # nonzero leading coefficients
    assert qpoly.poly(qpoly.int_mul(a, b)) == qpoly.mul(qpoly.poly(a), qpoly.poly(b))


@given(int_lists, int_lists)
def test_int_divexact_inverts_int_mul(q, b):
    q, b = tuple(q) + (2,), tuple(b) + (-3,)  # nonzero leading coefficients
    assert qpoly.int_divexact(qpoly.int_mul(q, b), b) == q


@given(int_lists, int_lists, int_lists)
def test_int_divexact_refuses_a_remainder(q, b, r):
    q, b = tuple(q) + (2,), tuple(b) + (-3,)
    r = tuple(r[: len(b) - 1])  # degree below deg b, so b does not divide a
    assume(any(r))
    a = tuple(x + y for x, y in zip_longest(qpoly.int_mul(q, b), r, fillvalue=0))
    assert qpoly.int_divexact(a, b) is None


def test_int_falling_factorials():
    want = qpoly.poly([1])
    for j, ff in enumerate(qpoly.int_falling_factorials(12)):
        assert qpoly.poly(ff) == want
        want = qpoly.mul(want, qpoly.poly([-j, 1]))
    assert j == 12
