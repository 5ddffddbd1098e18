"""Exact rational-cone computations in Q[t], t a symbolic transcendental in (0,1).

The cone is generated, up to a truncation index N, by the polynomials
t^n, a_n = 1 - t^(n+1), and b_n = t - t^(n+1) for 1 <= n <= N.  Because t
is transcendental, cone elements are compared coefficientwise in Q[t], so
membership of a target is a finite system of exact linear equations over
the generator weights -- decided here by exact rational LP, with
Fourier-Motzkin elimination available as an independent feasibility oracle.

The systems are sparse from the start: row d maps a generator's column to
its nonzero coefficient of t^d, filled from the two or three nonzero
coefficients of each generator, and goes to ``linprog`` as it is.

Truncation semantics: a certificate proves membership outright (it survives
any larger truncation), while infeasibility only certifies nonexistence
within the truncated generator set; results carry the truncation used.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import qpoly
from .errors import DegreeBoundError, IndexRangeError, TruncationError
from .linprog import fm_feasible_eq, simplex_feasible, simplex_solve
from .rationals import format_rational


@dataclass(frozen=True)
class TPoly:
    """A polynomial in t with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", qpoly.poly(self.coeffs))

    @property
    def degree(self) -> int:
        return qpoly.degree(self.coeffs)

    def __add__(self, other: "TPoly") -> "TPoly":
        return TPoly(qpoly.add(self.coeffs, other.coeffs))

    def __sub__(self, other: "TPoly") -> "TPoly":
        return TPoly(qpoly.sub(self.coeffs, other.coeffs))

    def __str__(self) -> str:
        return qpoly.to_str(self.coeffs, var="t")


def tpoly(coeffs) -> TPoly:
    return TPoly(coeffs)


def t_power(n: int) -> TPoly:
    return TPoly([0] * n + [1])


def a_gen(n: int) -> TPoly:
    """a_n = 1 - t^(n+1)."""
    return TPoly([1] + [0] * n + [-1])


def b_gen(n: int) -> TPoly:
    """b_n = t - t^(n+1)."""
    return TPoly([0, 1] + [0] * (n - 1) + [-1])


@dataclass(frozen=True)
class ConeGenerator:
    label: str
    poly: TPoly

    @cached_property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """(d, coefficient of t^d) for each nonzero coefficient."""
        return tuple((d, c) for d, c in enumerate(self.poly.coeffs) if c)


@dataclass(frozen=True)
class ConeSpec:
    """Generators {t^n, a_n, b_n : 1 <= n <= truncation}."""

    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise TruncationError("cone truncation must be at least 1")

    @property
    def degree_bound(self) -> int:
        return self.truncation + 1

    def generators(self) -> tuple[ConeGenerator, ...]:
        return _generators(self.truncation)


@lru_cache(maxsize=None)
def _generators(n_max: int) -> tuple[ConeGenerator, ...]:
    """t^1..t^N, a_1..a_N, b_1..b_N; every truncation shares the same objects."""
    return tuple(_generator(kind, n) for kind in ("t^", "a_", "b_") for n in range(1, n_max + 1))


@lru_cache(maxsize=None)
def _generator(kind: str, n: int) -> ConeGenerator:
    make = {"t^": t_power, "a_": a_gen, "b_": b_gen}[kind]
    return ConeGenerator(f"{kind}{n}", make(n))


@dataclass(frozen=True)
class ConeCertificate:
    """Nonnegative weights over generator labels reproducing the target."""

    weights: tuple[tuple[str, Fraction], ...]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.weights)

    def total(self, spec: ConeSpec) -> TPoly:
        table = {g.label: g.poly for g in spec.generators()}
        acc: qpoly.Coeffs = ()
        for label, w in self.weights:
            acc = qpoly.add(acc, qpoly.scale(table[label].coeffs, w))
        return TPoly(acc)

    def verify(self, spec: ConeSpec, target: TPoly) -> bool:
        return all(w >= 0 for _, w in self.weights) and self.total(spec) == target

    def __str__(self) -> str:
        if not self.weights:
            return "0"
        return " + ".join(
            f"{label}" if w == 1 else f"{format_rational(w)}*{label}"
            for label, w in self.weights
        )


#: a coefficient-matching row: column of a generator -> its coefficient of t^d
ConeRow = dict[int, Fraction]


def _rows(spec: ConeSpec, gens: tuple[ConeGenerator, ...]) -> list[ConeRow]:
    """Row d, for 0 <= d <= the degree bound, holds the t^d coefficients."""
    rows: list[ConeRow] = [{} for _ in range(spec.degree_bound + 1)]
    for j, g in enumerate(gens):
        for d, c in g.terms:
            rows[d][j] = c
    return rows


def _rhs(spec: ConeSpec, target: TPoly) -> list[Fraction]:
    """The target's coefficients of t^0 .. t^(degree bound)."""
    if target.degree > spec.degree_bound:
        raise DegreeBoundError(
            f"target degree {target.degree} exceeds the truncation bound "
            f"{spec.degree_bound}"
        )
    return list(target.coeffs) + [Fraction(0)] * (spec.degree_bound + 1 - len(target.coeffs))


def _membership_system(
    target: TPoly, spec: ConeSpec, exclude: frozenset[str] | set[str]
) -> tuple[tuple[ConeGenerator, ...], list[ConeRow], list[Fraction]]:
    """The generators kept, and the rows and right side of target = sum w_g * g."""
    gens = tuple(g for g in spec.generators() if g.label not in exclude)
    return gens, _rows(spec, gens), _rhs(spec, target)


def cone_member(
    target: TPoly, spec: ConeSpec, exclude: frozenset[str] | set[str] = frozenset()
) -> ConeCertificate | None:
    """Exact feasibility of target = sum w_g * g, w_g >= 0, within the truncation.

    ``exclude`` removes generators by label, e.g. to decide whether t lies in
    the cone of the remaining generators.
    """
    gens, rows, rhs = _membership_system(target, spec, exclude)
    sol = simplex_feasible(rows, rhs, len(gens))
    if sol is None:
        return None
    weights = tuple((g.label, w) for g, w in zip(gens, sol) if w != 0)
    return ConeCertificate(weights)


def _pair_system(spec: ConeSpec, first: TPoly, second: TPoly):
    """Equality system for: c, first - c, second - c all in the cone.

    Variables are three weight blocks u, v, w (the representations of c,
    first - c, and second - c); eliminating c leaves u+v summing to first
    and u+w summing to second, coefficientwise.  Returns the rows, the
    right side, the column count 3k and the objective, the total weight of u.
    """
    gens = spec.generators()
    k = len(gens)
    base = _rows(spec, gens)
    system = [{**row, **{j + k: v for j, v in row.items()}} for row in base]
    system += [{**row, **{j + 2 * k: v for j, v in row.items()}} for row in base]
    rhs = _rhs(spec, first) + _rhs(spec, second)
    return system, rhs, 3 * k, {j: 1 for j in range(k)}


def common_divisor_mass(i: int, spec: ConeSpec) -> Fraction:
    """Largest total weight of a cone element c with a_i - c and b_i - c in the cone.

    A maximum of 0 certifies that, within the truncation, only c = 0 yields a
    common monomial divisor of y^{a_i} and y^{b_i}.
    """
    if not 1 <= i <= spec.truncation:
        raise IndexRangeError(f"index {i} outside 1..{spec.truncation}")
    res = simplex_solve(*_pair_system(spec, a_gen(i), b_gen(i)))
    if res.status != "optimal":
        raise ArithmeticError(f"mass LP unexpectedly {res.status}")
    return res.value


@dataclass(frozen=True)
class IdfReport:
    """Aggregated verification for one index of the irreducible family."""

    index: int
    truncation: int
    identity_one: bool  # 1 = t^(i+1) + a_i in Q[t]
    identity_t: bool  # t = t^(i+1) + b_i in Q[t]
    mass: Fraction
    only_trivial_common_divisor: bool
    distinct_from_other_indices: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.identity_one
            and self.identity_t
            and self.only_trivial_common_divisor
            and self.distinct_from_other_indices
        )


def idf_family_check(i: int, spec: ConeSpec) -> IdfReport:
    """Verify the three ingredients that make index i of the family irreducible.

    (i) the exponent identities 1 = t^(i+1) + a_i and t = t^(i+1) + b_i hold
    in Q[t]; (ii) the common-divisor mass vanishes within the truncation;
    (iii) the pair (a_i, b_i) differs from every other index's pair.
    """
    if not 1 <= i <= spec.truncation:
        raise IndexRangeError(f"index {i} outside 1..{spec.truncation}")
    top = t_power(i + 1)
    pair = (a_gen(i), b_gen(i))
    identity_one = top + pair[0] == tpoly([1])
    identity_t = top + pair[1] == t_power(1)
    mass = common_divisor_mass(i, spec)
    # the cached generators list a_1..a_N, then b_1..b_N, after t^1..t^N; each
    # polynomial is compared by its nonzero terms
    n, gens = spec.truncation, spec.generators()
    pairs = [(a.terms, b.terms) for a, b in zip(gens[n:2 * n], gens[2 * n:])]
    distinct = all(p != pairs[i - 1] for j, p in enumerate(pairs, 1) if j != i)
    return IdfReport(
        index=i,
        truncation=spec.truncation,
        identity_one=identity_one,
        identity_t=identity_t,
        mass=mass,
        only_trivial_common_divisor=(mass == 0),
        distinct_from_other_indices=distinct,
    )


def membership_system_agreement(
    target: TPoly, spec: ConeSpec, exclude: frozenset[str] | set[str] = frozenset()
) -> tuple[bool, bool]:
    """(simplex verdict, Fourier-Motzkin verdict) for one membership system."""
    gens, rows, rhs = _membership_system(target, spec, exclude)
    simplex = simplex_feasible(rows, rhs, len(gens)) is not None
    fm = fm_feasible_eq(rows, rhs, len(gens))
    return simplex, fm


def mass_system_agreement(i: int, spec: ConeSpec) -> tuple[bool, bool]:
    """(simplex verdict, Fourier-Motzkin verdict) for one mass-LP base system."""
    system, rhs, n, _ = _pair_system(spec, a_gen(i), b_gen(i))
    simplex = simplex_feasible(system, rhs, n) is not None
    fm = fm_feasible_eq(system, rhs, n)
    return simplex, fm
