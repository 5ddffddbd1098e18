"""Exact factorization and divisibility toolkit.

Covers integer-valued polynomial rings Int(Z) and Int(S,Z) (membership,
binomial basis, divisor enumeration, irreducibility, factorization sets,
elasticity), additive submonoids of the nonnegative rationals (membership
certificates, atoms, length sets, ascending-chain witnesses), monoid rings
with rational exponents over Z, Q, and F_p, and rational cones in Q[t]
decided by exact linear programming.  Everything is exact: the scalars are
exact ``Fraction``s and Python ``int``s; no floats.

``import ivpoly`` imports no submodule.  Each public name below, and each
submodule, is imported from its home module on first use (PEP 562) and then
kept in the package namespace, so ``from ivpoly import membership`` loads
``puiseux`` and what it needs, but not the Int(Z), LP or factoring code.
"""

import sys as _sys

_EXPORTS = {
    "errors": ("IvpolyError",),
    "intpoly": (
        "AllIntegers",
        "BinomialExpansion",
        "DivisorList",
        "FiniteSite",
        "IVPoly",
        "PolyFactorization",
        "PullingSequence",
        "Z_SITE",
        "binomial",
        "constant",
        "divide",
        "divisors",
        "factorizations",
        "find_irreducible_divisor",
        "fixed_divisor",
        "from_binomial_basis",
        "is_irreducible",
        "is_member",
        "ivpoly",
        "length_profile",
        "pulling_sequence",
        "to_binomial_basis",
        "vanishing_nonatomic_witness",
    ),
    "monoid_ring": (
        "GF",
        "MonoidRingElement",
        "QQ",
        "ZZ",
        "canonicalize",
        "is_unit",
        "monomial_divides",
        "nu_bar",
        "pth_root",
    ),
    "puiseux": (
        "DyadicValuation",
        "ExplicitMonoid",
        "Factorization",
        "GramsDecomposition",
        "GramsMonoid",
        "MembershipCertificate",
        "MembershipResult",
        "PrimeReciprocal",
        "accp_chain_check",
        "atoms_up_to",
        "dyadic_divides",
        "grams_decompose",
        "length_set",
        "membership",
    ),
    "cone": (
        "ConeCertificate",
        "ConeSpec",
        "TPoly",
        "cone_member",
        "common_divisor_mass",
        "idf_family_check",
        "tpoly",
    ),
}
#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cone", "errors", "intpoly", "linprog", "monoid_ring", "primes",
               "puiseux", "qfactor", "qpoly", "rationals")

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def _submodule(name: str):
    # __import__ rather than importlib.import_module: -X importtime reports
    # only modules loaded through the import statement's own path
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
