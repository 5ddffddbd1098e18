"""Exact factorization and divisibility toolkit.

Covers integer-valued polynomial rings Int(Z) and Int(S,Z) (membership,
binomial basis, divisor enumeration, irreducibility, factorization sets,
elasticity), additive submonoids of the nonnegative rationals (membership
certificates, atoms, length sets, ascending-chain witnesses), monoid rings
with rational exponents over Z, Q, and F_p, and rational cones in Q[t]
decided by exact linear programming.  Everything is exact: the scalars are
exact ``Fraction``s and Python ``int``s; no floats.
"""

from .errors import IvpolyError
from .intpoly import (
    AllIntegers,
    BinomialExpansion,
    DivisorList,
    FiniteSite,
    IVPoly,
    PolyFactorization,
    PullingSequence,
    Z_SITE,
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
from .monoid_ring import (
    GF,
    MonoidRingElement,
    QQ,
    ZZ,
    canonicalize,
    is_unit,
    monomial_divides,
    nu_bar,
    pth_root,
)
from .puiseux import (
    DyadicValuation,
    ExplicitMonoid,
    Factorization,
    GramsDecomposition,
    GramsMonoid,
    MembershipCertificate,
    MembershipResult,
    PrimeReciprocal,
    accp_chain_check,
    atoms_up_to,
    dyadic_divides,
    grams_decompose,
    length_set,
    membership,
)
from .cone import (
    ConeCertificate,
    ConeSpec,
    TPoly,
    cone_member,
    common_divisor_mass,
    idf_family_check,
    tpoly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
