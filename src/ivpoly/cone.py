"""Exact rational-cone computations in Q[t], t a symbolic transcendental in (0,1).

The cone is generated, up to a truncation index N, by the polynomials
t^n, a_n = 1 - t^(n+1), and b_n = t - t^(n+1) for 1 <= n <= N.  Because t
is transcendental, cone elements are compared coefficientwise in Q[t], so
membership of a target is a finite system of exact linear equations over
the generator weights.

Membership is decided in closed form.  With x_n, alpha_n, beta_n the weights
of t^n, a_n, b_n and s_n = alpha_n + beta_n, the target's coefficients are
c_0 = sum alpha, c_1 = x_1 + sum beta, c_k = x_k - s_(k-1) for 2 <= k <= N and
c_(N+1) = -s_N.  So each s_n ranges over [max(0, -c_(n+1)), oo), or is the
point -c_(n+1) when n = N or t^(n+1) is excluded, and only the sums of the
s_n over three groups of indices matter: both a_n and b_n kept (F), a_n only
(A), b_n only (B).  ``cone_member`` works on Python ints, the coefficients
times the lcm of their denominators, in O(N) and without an LP.

The simplex and Fourier-Motzkin stay as the oracles: ``_membership_system``
builds the same equations as a sparse system, row d mapping a generator's
column to its nonzero coefficient of t^d, and ``membership_system_agreement``
hands it to both engines.  The common-divisor mass is the value of an LP on
such rows (``_pair_system``), decided by a fixed dual certificate; the simplex
on ``_pair_system`` is its oracle.  Only the two agreement functions import
``linprog``, when they first run, so membership and the family check load
no LP code.

Truncation semantics: a certificate proves membership outright (it survives
any larger truncation), while infeasibility only certifies nonexistence
within the truncated generator set; results carry the truncation used.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import qpoly
from .errors import DegreeBoundError, IndexRangeError, TruncationError
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
        """Whether the weights are >= 0, name generators of spec, and sum to target."""
        labels = {g.label for g in spec.generators()}
        return all(w >= 0 and label in labels for label, w in self.weights) and (
            self.total(spec) == target
        )

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


#: the group of an index n by the generators kept: a_n and b_n (F), a_n only (A), b_n only (B)
_GROUPS = {(True, True): "F", (True, False): "A", (False, True): "B"}


def cone_member(
    target: TPoly, spec: ConeSpec, exclude: frozenset[str] | set[str] = frozenset()
) -> ConeCertificate | None:
    """Exact feasibility of target = sum w_g * g, w_g >= 0, within the truncation.

    ``exclude`` removes generators by label, e.g. to decide whether t lies in
    the cone of the remaining generators: an excluded t^(n+1) pins s_n to
    -c_(n+1), an excluded t^1 makes sum beta = c_1, and a_n or b_n excluded
    moves n out of F (both excluded: s_n = 0).  With [L_G, H_G] the range of
    the sum of s_n over group G and S_A = max(L_A, c_0 - H_F), the target is a
    member iff every pinned s_n is >= 0, S_A <= min(H_A, c_0),
    max(S_A + L_F, c_0) + L_B <= c_0 + c_1, and, with t^1 excluded,
    min(H_A, c_0) + H_F + H_B >= c_0 + c_1.

    The certificate takes every s_n at its least value and the group sums at
    S_A, max(L_F, c_0 - S_A) and L_B; with t^1 excluded the first group of F,
    B, A that may rise takes up c_0 + c_1 minus their total.  A group's rise
    goes to its first index whose s_n may rise.  alpha_n = s_n on A and
    beta_n = s_n on B; on F, alpha takes c_0 - S_A greedily in index order and
    beta_n = s_n - alpha_n.  The x_n then follow from the equations.
    """
    n = spec.truncation
    gens = spec.generators()
    c = _rhs(spec, target)
    den = lcm(*(v.denominator for v in c))
    c = [v.numerator * (den // v.denominator) for v in c]
    kept = [g.label not in exclude for g in gens] if exclude else [True] * (3 * n)
    has_t, has_a, has_b = kept[:n], kept[n:2 * n], kept[2 * n:]
    # s[i] at its least value; per group the sum of the least values, and the
    # first index whose s may rise (None: each s of the group is a point)
    s = [0] * (n + 1)
    group: list[str | None] = [None] * (n + 1)
    low = {"F": 0, "A": 0, "B": 0}
    rise: dict[str, int | None] = {"F": None, "A": None, "B": None}
    for i in range(1, n + 1):
        least = -c[i + 1]
        free = i < n and has_t[i]  # x_(i+1) = c_(i+1) + s_i, kept or pinned to 0
        if free:
            least = max(0, least)
        elif least < 0:
            return None
        g = _GROUPS.get((has_a[i - 1], has_b[i - 1]))
        if g is None:
            if least:
                return None
            continue
        s[i], group[i] = least, g
        low[g] += least
        if free and rise[g] is None:
            rise[g] = i
    c0, c1 = c[0], c[1]
    sums = {"A": low["A"] if rise["F"] else max(low["A"], c0 - low["F"])}
    if sums["A"] > (c0 if rise["A"] else min(low["A"], c0)):
        return None
    sums["F"] = max(low["F"], c0 - sums["A"])
    sums["B"] = low["B"]
    spare = c0 + c1 - sum(sums.values())  # x_1
    if spare < 0:
        return None
    if spare and not has_t[0]:
        g = next((g for g in "FBA" if rise[g]), None)
        if g is None or g == "A" and spare > c0 - sums["A"]:
            return None
        sums[g] += spare
    for g, i in rise.items():
        if i:
            s[i] += sums[g] - low[g]
    alpha, beta = [0] * n, [0] * n
    budget = c0 - sums["A"]
    for i in range(1, n + 1):
        if group[i] == "A":
            alpha[i - 1] = s[i]
        elif group[i] == "B":
            beta[i - 1] = s[i]
        elif group[i] == "F":
            alpha[i - 1] = min(s[i], budget)
            budget -= alpha[i - 1]
            beta[i - 1] = s[i] - alpha[i - 1]
    x = [c1 - sum(beta)] + [c[k] + s[k - 1] for k in range(2, n + 1)]
    return ConeCertificate(tuple(
        (g.label, Fraction(w, den)) for g, w in zip(gens, x + alpha + beta) if w
    ))


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


def _mass_dual(i: int, n: int) -> tuple[list[int], list[int]]:
    """The dual pair (y, z) over degrees 0..n+1 that caps the mass of index i at 0."""
    y = [1, 2] + [1] * n
    z = [2, 1] + [0] * n
    z[i + 1] = 1
    return y, z


def _mass_dual_holds(i: int, spec: ConeSpec, y: list[int], z: list[int]) -> bool:
    """Whether (y, z) is feasible for the dual of the mass LP of index i with value 0.

    Every generator g needs y.g >= 0, z.g >= 0 and (y+z).g >= 1, and the
    objective is y.a_i + z.b_i.  The sums run over the generators' terms on
    Python ints; a term that is not an integer fails the check.
    """
    for g in spec.generators():
        p = q = 0
        for d, c in g.terms:
            if c.denominator != 1:
                return False
            v = c.numerator
            p += y[d] * v
            q += z[d] * v
        if p < 0 or q < 0 or p + q < 1:
            return False
    objective = sum(y[d] * c for d, c in _generator("a_", i).terms)
    return objective + sum(z[d] * c for d, c in _generator("b_", i).terms) == 0


def common_divisor_mass(i: int, spec: ConeSpec) -> Fraction:
    """Largest total weight of a cone element c with a_i - c and b_i - c in the cone.

    The mass LP maximizes 1.u subject to G(u+v) = a_i, G(u+w) = b_i and
    u, v, w >= 0, G the generator columns.  Its dual asks for (y, z) over
    degrees 0..N+1 with G^T y >= 0, G^T z >= 0, G^T(y+z) >= 1, and minimizes
    y.a_i + z.b_i.  The pair y = (1, 2, 1, ..., 1), z = (2, 1, 0, ..., 0) with
    z_(i+1) = 1 is feasible: t^n gives (y_n, z_n), a_n gives
    (y_0 - y_(n+1), z_0 - z_(n+1)) and b_n gives (y_1 - y_(n+1), z_1 - z_(n+1)),
    each >= 0 with a sum >= 1, and its objective is
    (y_0 - y_(i+1)) + (z_1 - z_(i+1)) = 0.  By weak duality every feasible u
    has 1.u <= 0, and u = 0, v = e_(a_i), w = e_(b_i) is feasible, so the mass
    is 0 at every truncation N >= i: within the truncation only c = 0 yields a
    common monomial divisor of y^{a_i} and y^{b_i}.  The pair is checked
    against every generator in O(N) int sums; no LP runs.
    """
    if not 1 <= i <= spec.truncation:
        raise IndexRangeError(f"index {i} outside 1..{spec.truncation}")
    if not _mass_dual_holds(i, spec, *_mass_dual(i, spec.truncation)):
        raise ArithmeticError(f"mass dual certificate failed at index {i}")
    return Fraction(0)


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
    # the cached generators list a_1..a_N, then b_1..b_N, after t^1..t^N;
    # t^(i+1) + g = 1 (or t) iff the terms of g are those of 1 - t^(i+1) (or t - t^(i+1))
    n, gens = spec.truncation, spec.generators()
    identity_one = gens[n + i - 1].terms == ((0, 1), (i + 1, -1))
    identity_t = gens[2 * n + i - 1].terms == ((1, 1), (i + 1, -1))
    mass = common_divisor_mass(i, spec)
    # each pair is compared by its top degrees, which differ for any two indices
    # of the family, and only then by its nonzero terms
    pairs = [(a.terms[-1][0], b.terms[-1][0], a.terms, b.terms)
             for a, b in zip(gens[n:2 * n], gens[2 * n:])]
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


@lru_cache(maxsize=None)
def _linprog():
    """The ``linprog`` module, imported on the first call so that only the
    agreement oracles load it; the cache keeps the import statement out of
    every later call."""
    from . import linprog

    return linprog


def _agreement(rows, rhs, n: int) -> tuple[bool, bool]:
    """(simplex verdict, Fourier-Motzkin verdict) for rows x = rhs, x >= 0.

    Both engines are looked up on ``linprog`` at each call, so a patched
    engine, such as a tracer's wrapper, is the one that runs.
    """
    linprog = _linprog()
    return linprog.simplex_feasible(rows, rhs, n) is not None, linprog.fm_feasible_eq(rows, rhs, n)


def membership_system_agreement(
    target: TPoly, spec: ConeSpec, exclude: frozenset[str] | set[str] = frozenset()
) -> tuple[bool, bool]:
    """(simplex verdict, Fourier-Motzkin verdict) for one membership system."""
    gens, rows, rhs = _membership_system(target, spec, exclude)
    return _agreement(rows, rhs, len(gens))


def mass_system_agreement(i: int, spec: ConeSpec) -> tuple[bool, bool]:
    """(simplex verdict, Fourier-Motzkin verdict) for one mass-LP base system."""
    system, rhs, n, _ = _pair_system(spec, a_gen(i), b_gen(i))
    return _agreement(system, rhs, n)
