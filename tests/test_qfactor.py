import random
from fractions import Fraction as F

import pytest
import sympy

from ivpoly import qpoly
from ivpoly.qfactor import factor_rational, is_irreducible_over_q


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
    assert is_irreducible_over_q([1, 0, 0, 0, 1])  # x^4 + 1
    assert is_irreducible_over_q([7, 1])
    assert not is_irreducible_over_q([0, 0, 1])


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
