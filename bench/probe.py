"""Set-up probe: import ivpoly and run one warm-up query of each kind.

Run as ``python3 bench/probe.py <workload>`` it prints ``ready`` once set up,
so the parent can time a fresh process from its start to its first query.
It imports nothing of the benchmark, so the time is ivpoly's alone.  run.py
calls the same warm-ups in its own process before the timed phase.
"""
from __future__ import annotations

import os
import sys
from fractions import Fraction


def warm_intz() -> None:
    from ivpoly import intpoly, qfactor

    f = intpoly.binomial(2).scale(2)
    intpoly.is_member(f)
    intpoly.from_binomial_basis(intpoly.to_binomial_basis(f))
    intpoly.is_irreducible(intpoly.ivpoly([1, 2], intpoly.FiniteSite((0, 1))))
    intpoly.is_irreducible(intpoly.binomial(2))
    intpoly.find_irreducible_divisor(f)
    intpoly.vanishing_nonatomic_witness(intpoly.ivpoly([0, 2], intpoly.FiniteSite((0,))))
    intpoly.divisors(f)
    intpoly.factorizations(f)
    intpoly.length_profile(f)
    qfactor.factor_rational(f.coeffs)


def warm_monoid() -> None:
    from ivpoly import monoid_ring as mr, puiseux as pu

    grams = pu.GramsMonoid()
    explicit = pu.ExplicitMonoid((Fraction(2, 3), Fraction(1, 2)))
    pu.membership(grams, Fraction(1, 2))
    pu.membership(pu.DyadicValuation(), Fraction(3, 4))
    pu.grams_decompose(Fraction(3, 5))
    pu.membership(pu.PrimeReciprocal(4), Fraction(5, 6))
    pu.membership(explicit, Fraction(7, 6))
    pu.atoms_up_to(pu.PrimeReciprocal(4), 10)
    pu.atoms_up_to(explicit, 10)
    pu.atoms_up_to(grams, 100)
    pu.accp_chain_check(grams, 2)
    pu.factorizations(grams, Fraction(1), 8)
    pu.length_set(grams, Fraction(1), 8)
    f = mr.element(mr.GF(2), [(1, Fraction(1, 2)), (1, Fraction(3))])
    mr.mul(f, f)
    mr.power(f, 2)
    mr.pth_root(f)
    mr.monomial_divides(Fraction(1, 2), f, grams)


def warm_cone() -> None:
    from ivpoly import cone

    spec = cone.ConeSpec(4)
    cone.cone_member(cone.tpoly([1]), spec)
    cone.common_divisor_mass(1, spec)
    cone.idf_family_check(1, spec)
    cone.membership_system_agreement(cone.tpoly([1]), spec)
    cone.mass_system_agreement(1, spec)


def warm_cli() -> None:
    import ivpoly.cli  # noqa: F401  the cli's set-up is its import


WARMUPS = {"intz": warm_intz, "monoid": warm_monoid, "cone": warm_cone, "cli": warm_cli}

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    WARMUPS[sys.argv[1]]()
    print("ready", flush=True)
