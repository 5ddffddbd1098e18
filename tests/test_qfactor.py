import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly
from sympy.polys.specialpolys import swinnerton_dyer_poly

from ivpoly import primes, qpoly
from ivpoly.qfactor import (
    _factor_mod_prime,
    _hensel_lift,
    _mul,
    factor_rational,
)


def reconstruct(c, factors):
    out = qpoly.poly([c])
    for g, mult in factors:
        for _ in range(mult):
            out = qpoly.mul(out, qpoly.poly(g))
    return out


def test_linear_split():
    c, factors = factor_rational([F(-1), F(0), F(1)])
    assert c == 1 and factors == [((-1, 1), 1), ((1, 1), 1)]


def test_repeated_factor():
    f = qpoly.mul(qpoly.poly([3, 2]), qpoly.poly([3, 2]))
    c, factors = factor_rational(f)
    assert factors == [((3, 2), 2)] and c == 1


def test_content_pulled_out():
    c, factors = factor_rational([F(0), F(-1, 2), F(1, 2)])
    assert c == F(1, 2) and factors == [((-1, 1), 1), ((0, 1), 1)]


def test_kronecker_quadratics():
    f = qpoly.mul(qpoly.poly([1, 0, 1]), qpoly.poly([1, 1, 1]))
    _, factors = factor_rational(f)
    assert sorted(g for g, _ in factors) == [(1, 0, 1), (1, 1, 1)]


def test_irreducibles_stay_whole():
    assert factor_rational([1, 0, 0, 0, 1]) == (1, [((1, 0, 0, 0, 1), 1)])  # x^4 + 1
    assert factor_rational([7, 1]) == (1, [((7, 1), 1)])
    assert factor_rational([0, 0, 1]) == (1, [((0, 1), 2)])


def test_constant():
    c, factors = factor_rational([F(7)])
    assert c == 7 and factors == []
    with pytest.raises(ValueError):
        factor_rational([])


def _to_sympy(coeffs):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))


def test_matches_sympy_on_random_polynomials():
    rng = random.Random(7)
    x = sympy.Symbol("x")
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [F(rng.randint(-8, 8)) for _ in range(deg)] + [F(rng.choice([1, 2, 3, -2]))]
        mine_c, mine = factor_rational(coeffs)
        assert reconstruct(mine_c, mine) == qpoly.poly(coeffs)
        sym_c, sym = sympy.factor_list(_to_sympy(qpoly.poly(coeffs)))
        sym_factors = sorted(
            (tuple(int(v) for v in reversed(sympy.Poly(g, x).all_coeffs())), int(m))
            for g, m in sym
        )
        span = sorted((g, m) for g, m in mine)
        assert span == sym_factors


def _sympy_factor_list(coeffs):
    x = sympy.Symbol("x")
    _, sym = sympy.factor_list(_to_sympy(qpoly.poly(coeffs)))
    return sorted(
        (tuple(int(v) for v in reversed(sympy.Poly(g, x).all_coeffs())), int(m))
        for g, m in sym
    )


@pytest.mark.parametrize(
    "linears",
    [
        [(-1, 2), (2, 3), (3, 5)],  # roots 1/2, -2/3, -3/5
        [(5, 4), (5, 4), (-7, 3)],  # -5/4 twice, 7/3
        [(1, 6), (-1, 6), (-9, 2), (1, 1)],
    ],
)
def test_rational_roots_with_denominators_match_sympy(linears):
    f = qpoly.poly([1, 0, 1])  # x^2 + 1 keeps a nonlinear factor alongside
    for lin in linears:
        f = qpoly.mul(f, qpoly.poly(lin))
    c, factors = factor_rational(f)
    assert reconstruct(c, factors) == f
    assert sorted(factors) == _sympy_factor_list(f)
    found = {g: m for g, m in factors if len(g) == 2}
    for lin in linears:
        assert found[lin] == linears.count(lin)


def _int_coeffs_of(expr):
    x = sympy.Symbol("x")
    return [int(v) for v in reversed(sympy.Poly(expr, x).all_coeffs())]


def _assert_matches_sympy(coeffs):
    c, factors = factor_rational(coeffs)
    assert reconstruct(c, factors) == qpoly.poly(coeffs)
    assert sorted(factors) == _sympy_factor_list(coeffs)
    assert factors == sorted(factors, key=lambda gm: (len(gm[0]), gm[0]))


@pytest.mark.parametrize("n", range(4, 17))
def test_x_to_the_n_plus_7_matches_sympy(n):
    _assert_matches_sympy([7] + [0] * (n - 1) + [1])


@pytest.mark.parametrize("k", [3, 4], ids=["degree-8", "degree-16"])
def test_swinnerton_dyer_matches_sympy(k):
    # irreducible over Q, but split into factors of degree <= 2 mod every prime
    _assert_matches_sympy(_int_coeffs_of(swinnerton_dyer_poly(k, sympy.Symbol("x"))))


@pytest.mark.parametrize("n", [12, 15])
def test_cyclotomic_splits_match_sympy(n):
    _assert_matches_sympy([-1] + [0] * (n - 1) + [1])


def test_non_monic_repeated_factor_matches_sympy():
    f = qpoly.mul(qpoly.poly([3, 0, 0, 0, 2]), qpoly.poly([-5, 0, 0, 0, 3]))
    f = qpoly.mul(f, qpoly.poly([-5, 0, 0, 0, 3]))
    c, factors = factor_rational(f)
    assert c == 1 and factors == [((-5, 0, 0, 0, 3), 2), ((3, 0, 0, 0, 2), 1)]
    _assert_matches_sympy(f)


_primitive_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=6).filter(
    lambda cs: cs[-1] != 0 and math.gcd(*cs) == 1
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_primitive_polys, min_size=1, max_size=3))
def test_products_of_primitive_polynomials_match_sympy(parts):
    f = qpoly.poly([1])
    for g in parts:
        f = qpoly.mul(f, qpoly.poly(g))
    _assert_matches_sympy(f)


#: irreducible over Q: x^2 + 1, x^4 + 2, 3x^3 - 2 and 5x^2 + 3x + 7
_IRREDUCIBLES = [(1, 0, 1), (2, 0, 0, 0, 1), (-2, 0, 0, 3), (7, 3, 5)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(2, 10**30)),
             min_size=1, max_size=6),
    st.sampled_from([None] + _IRREDUCIBLES),
)
def test_products_of_non_monic_linear_factors_match_sympy(linears, extra):
    f = qpoly.poly([1] if extra is None else extra)
    for lin in linears:
        f = qpoly.mul(f, qpoly.poly(lin))
    _assert_matches_sympy(f)


@pytest.mark.parametrize(
    "linears",
    [
        [(-1, 1), (-4, 1), (-16, 1)],  # roots 1, 4, 16 collide mod 3 and mod 5
        [(-1, 2), (1, 1), (1, 2)],  # (2x - 1)(x + 1)(2x + 1)
    ],
)
def test_roots_that_collide_mod_small_primes(linears):
    f = qpoly.poly([1])
    for lin in linears:
        f = qpoly.mul(f, qpoly.poly(lin))
    assert factor_rational(f) == (1, [(g, 1) for g in sorted(linears)])


def test_rational_roots_factor_no_integer(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(primes, "factorize", refuse)
    *_, numerator = qpoly.int_falling_factorials(30)  # 30! * C(x, 30)
    assert factor_rational(numerator) == (1, [((-j, 1), 1) for j in range(29, -1, -1)])
    quartic = (1000000000100000000002379, 0, 0, 0, 1)  # x^4 + (10^12+39)(10^12+61)
    assert factor_rational(quartic) == (1, [(quartic, 1)])


STAGE_CASES = [
    (7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^10 + 7
    (-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^12 - 1, linear factors included
    (-15, 0, 0, 0, -1, 0, 0, 0, 6),  # (2x^4 + 3)(3x^4 - 5)
    tuple(_int_coeffs_of(swinnerton_dyer_poly(3, sympy.Symbol("x")))),
]


@pytest.mark.parametrize("g", STAGE_CASES)
def test_factors_mod_p_multiply_back_and_are_irreducible(g):
    p, factors = _factor_mod_prime(g)
    prod = [g[-1] % p]
    for h in factors:
        assert h[-1] == 1
        prod = _mul(prod, h, p)
    assert prod == [c % p for c in g]
    _, sym = gf_factor_sqf(gf_from_int_poly(list(reversed(g)), p), p, ZZ)
    assert sorted(tuple(h) for h in factors) == sorted(tuple(reversed(h)) for h in sym)


@pytest.mark.parametrize("g", STAGE_CASES)
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_hensel_lift_multiplies_back_mod_p_to_the_k(g, k):
    p, factors = _factor_mod_prime(g)
    lifted = _hensel_lift(g, factors, p, k)
    m = p**k
    prod = [g[-1] % m]
    for low, high in zip(factors, lifted):
        assert high[-1] == 1 and [c % p for c in high] == low
        prod = _mul(prod, high, m)
    assert prod == [c % m for c in g]
