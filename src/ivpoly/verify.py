"""Built-in verification suite.

Replays every identity, witness, and oracle equivalence the library is
built around, as a deterministic list of facts with pass/fail verdicts.
The CLI exposes the suite as ``verify-paper``; the acceptance tests assert
each fact individually together with its runtime budget.

Where a fact involves randomness the generator is seeded, so reruns are
byte-for-byte reproducible.  Each fact and oracle imports what it reads
when it runs, so ``verify-paper --facts`` loads only its facts' subsystems.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import MalformedInputError

@dataclass(frozen=True)
class FactResult:
    fact_id: str
    claim: str
    passed: bool
    elapsed: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[FactResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# independent oracles


def bruteforce_divisors(f: IVPoly, bound_scale: int = 1) -> tuple[IVPoly, ...]:
    """Divisor list of f in Int(S,Z) by raw constant search.

    For every sub-multiset product G of the irreducible factors of f over Q,
    every fraction a/b with both parts bounded by bound_scale times the
    product of the relevant fixed divisors (and numerator data of f) is
    tried directly: the candidate's values at the site's points (0..deg on
    Z) decide membership, and the cofactor is checked through exact division.
    Independent of the divisor-enumeration shortcuts.
    """
    from . import qpoly
    from .intpoly import FiniteSite, IVPoly, divide
    from .qfactor import factor_rational

    target = f.normalized()
    c, factors = factor_rational(target.coeffs)
    cn, cd = abs(c.numerator), c.denominator
    vecs = [()]
    for _, mult in factors:
        vecs = [v + (e,) for v in vecs for e in range(mult + 1)]
    full = tuple(m for _, m in factors)
    # read from the site itself, not from its sample_points, which the code under test uses
    site_points = target.site.points if isinstance(target.site, FiniteSite) else None

    def values(g):
        return [int(qpoly.eval_at(g, k)) for k in site_points or range(qpoly.degree(g) + 1)]

    found: dict[tuple, IVPoly] = {}
    for vec in vecs:
        gj = _product(factors, vec)
        gjc = _product(factors, tuple(m - e for m, e in zip(full, vec)))
        vals = values(gj)
        dj = gcd(*vals)
        djc = gcd(*values(gjc))
        bound = bound_scale * max(cn, 1) * cd * max(dj, 1) * max(djc, 1)
        for b in range(1, bound + 1):
            for a in range(1, bound + 1):
                if gcd(a, b) != 1:
                    continue
                if any((a * v) % b for v in vals):
                    continue  # candidate itself is not integer-valued
                cand = IVPoly(qpoly.scale(gj, Fraction(a, b)), target.site)
                if divide(target, cand) is not None:
                    found[cand.coeffs] = cand
    return tuple(sorted(found.values(), key=IVPoly.sort_key))


def _product(factors, vec) -> qpoly.Coeffs:
    from . import qpoly

    out = qpoly.poly([1])
    for (g, _), e in zip(factors, vec):
        for _ in range(e):
            out = qpoly.mul(out, qpoly.poly(g))
    return out


def _replay_factorizations(target: IVPoly, divs) -> list[PolyFactorization]:
    """Factorizations of target by the generic recursion over a divisor list.

    The irreducibles are the nonunit divisors that are no product of two
    nonunit divisors, found by multiplying polynomials; the recursion divides
    by them in ``sort_key`` order.  Independent of ``intpoly.factorizations``
    and its divisor-key arithmetic.
    """
    from .intpoly import IVPoly, PolyFactorization

    nonunits = [d for d in divs if not d.is_unit()]
    products = {
        d1.mul(d2).normalized().coeffs
        for i, d1 in enumerate(nonunits)
        for d2 in nonunits[i:]
    }
    irr = sorted((d for d in nonunits if d.coeffs not in products), key=IVPoly.sort_key)
    facs = [
        PolyFactorization(tuple(sorted(parts, key=IVPoly.sort_key, reverse=True)))
        for parts in _replay_from(irr, target, 0)
    ]
    return sorted(facs, key=lambda z: (z.length, [p.sort_key() for p in z.parts]))


def _replay_from(irr: list[IVPoly], g: IVPoly, start: int) -> list[tuple[IVPoly, ...]]:
    """Factorizations of g over irr[start:], parts in increasing order."""
    from .intpoly import divide

    out = []
    for idx in range(start, len(irr)):
        q = divide(g, irr[idx])
        if q is None:
            continue
        if q.is_unit():
            out.append((irr[idx],))
        else:
            out.extend((irr[idx],) + tail for tail in _replay_from(irr, q, idx))
    return out


def bruteforce_monoid_factorizations(gens, b: Fraction, cap: int):
    """All multisets over gens summing to b with size <= cap, by plain recursion."""
    out: list[tuple[Fraction, ...]] = []
    _monoid_from(sorted(gens, reverse=True), cap, 0, Fraction(b), [], out)
    return sorted(set(out))


def _monoid_from(gens, cap: int, i: int, remaining: Fraction, acc: list[Fraction], out) -> None:
    """Append to out every acc extended over gens[i:] to sum remaining, size <= cap."""
    if remaining == 0:
        out.append(tuple(acc))
        return
    if i == len(gens) or len(acc) >= cap:
        return
    g = gens[i]
    k = 0
    while k * g <= remaining and len(acc) + k <= cap:
        _monoid_from(gens, cap, i + 1, remaining - k * g, acc + [g] * k, out)
        k += 1


# ---------------------------------------------------------------------------
# corpus builders (fixed seeds: the suite is deterministic)

CORPUS_SEED = 20260808


def divisor_corpus() -> list[IVPoly]:
    """50 integer polynomials, degree <= 4, coefficients in [-6, 6].

    Five crafted many-divisor instances plus seeded random ones.
    """
    from .intpoly import ivpoly

    crafted = [
        ivpoly([0, -1, 1]),  # x^2 - x
        ivpoly([0, -2, 2]),  # 2x^2 - 2x
        ivpoly([0, -1, 0, 1]),  # x^3 - x
        ivpoly([0, 6]),  # 6x
        ivpoly([0, -4, 0, 4]),  # 4x^3 - 4x
    ]
    rng = random.Random(CORPUS_SEED)
    corpus = list(crafted)
    while len(corpus) < 50:
        deg = rng.randint(0, 4)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if not any(coeffs):
            continue
        corpus.append(ivpoly(coeffs))
    return corpus


def finite_site_corpus() -> list[IVPoly]:
    """60 members of Int(S,Z), S of 1-4 points in [-3, 3], degree <= 3.

    Five crafted instances plus seeded random h / den with integer
    coefficients in [-3, 3] and den a divisor of the value gcd of h on S;
    members vanishing on the whole site, which have no finite divisor list,
    are skipped.
    """
    from . import qpoly
    from .intpoly import FiniteSite, IVPoly, ivpoly

    crafted = [
        ivpoly([0, 0, 1], FiniteSite((0, 1))),  # x^2 = x * x
        ivpoly([1, 0, 1], FiniteSite((0, 1, 2))),  # x^2 + 1, values 1, 2, 5
        ivpoly([0, Fraction(1, 2), Fraction(1, 2)], FiniteSite((1, 3))),  # x (x+1) / 2
        ivpoly([1, 6], FiniteSite((0, 1))),  # 6x + 1
        ivpoly([0, -1, 0, 1], FiniteSite((-2, 2))),  # x^3 - x, values -6, 6
    ]
    rng = random.Random(CORPUS_SEED + 4)
    corpus = list(crafted)
    while len(corpus) < 60:
        points = tuple(rng.sample(range(-3, 4), rng.randint(1, 4)))
        h = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
        g = gcd(*(qpoly.int_eval(h, s) for s in points))
        if g == 0:
            continue
        den = rng.choice([d for d in range(1, g + 1) if g % d == 0])
        corpus.append(IVPoly(tuple(Fraction(c, den) for c in h), FiniteSite(points)))
    return corpus


# ---------------------------------------------------------------------------
# the facts


def _fact_grams_atoms():
    from .puiseux import GramsMonoid, atoms_up_to

    expected = [Fraction(1, d) for d in (3, 10, 28, 88)]
    got = atoms_up_to(GramsMonoid(), 100)
    return got == expected, f"atoms {[str(a) for a in got]}"


def _fact_grams_accp():
    """Each step's certificate is {n+1: p_(n+1)}, sums to 1/2^(n+1) over
    generators built here, and is the one ``membership`` finds through the
    Grams decomposition."""
    from .primes import odd_prime
    from .puiseux import GramsMonoid, accp_chain_check, membership

    spec = GramsMonoid()
    steps = accp_chain_check(spec, 10)
    ok = len(steps) == 11
    for step in steps:
        gap = Fraction(1, 2 ** (step.step + 1))
        cert_ok = (
            step.certificate is not None
            and step.certificate.as_dict() == {step.step + 1: odd_prime(step.step + 1)}
            and sum(
                (m * Fraction(1, 2**i * odd_prime(i)) for i, m in step.certificate.combo),
                Fraction(0),
            ) == gap
            and membership(spec, gap).certificate == step.certificate
        )
        ok = ok and step.ascending and step.strict and cert_ok
    return ok, f"{len(steps)} steps, all ascending and strict"


def _fact_newton_roundtrip():
    from .intpoly import from_binomial_basis, is_member, ivpoly, to_binomial_basis

    rng = random.Random(CORPUS_SEED + 1)
    checked = 0
    for _ in range(1000):
        deg = rng.randint(0, 12)
        if rng.random() < 0.5:
            f = from_binomial_basis([rng.randint(-50, 50) for _ in range(deg + 1)])
        else:
            f = ivpoly(
                [
                    Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 3628800))
                    for _ in range(deg + 1)
                ]
            )
        back = from_binomial_basis(to_binomial_basis(f))
        if back.coeffs != f.coeffs:
            return False, f"roundtrip failed for {f}"
        # deg+1 consecutive integer values decide membership (shifted basis)
        start = rng.randint(-20, 8)
        window_ok = all(
            f(start + k).denominator == 1 for k in range(max(f.degree + 1, 1))
        )
        if is_member(f) != window_ok:
            return False, f"membership criterion mismatch for {f}"
        checked += 1
    return True, f"{checked} polynomials"


def _fact_hfd_witness():
    from .intpoly import binomial, constant, ivpoly, length_profile

    lhs = constant(6).mul(binomial(6))
    rhs = ivpoly([-5, 1]).mul(binomial(5))
    if lhs.coeffs != rhs.coeffs:
        return False, "identity 2*3*C(x,6) = (x-5)*C(x,5) failed"
    profile = length_profile(lhs)
    ok = (
        {2, 3} <= set(profile.lengths)
        and profile.elasticity >= Fraction(3, 2)
        and profile.hfd_violation
    )
    return ok, f"lengths {sorted(profile.lengths)}, elasticity {profile.elasticity}"


def _fact_binomial_irreducible():
    from .intpoly import binomial, is_irreducible

    bad = [n for n in range(1, 9) if not is_irreducible(binomial(n))]
    return not bad, "C(x,n) irreducible for n in 1..8" if not bad else f"failed at {bad}"


def _fact_divisor_oracle():
    from .intpoly import divisors

    for f in divisor_corpus():
        mine = tuple(d.coeffs for d in divisors(f).divisors)
        brute = tuple(d.coeffs for d in bruteforce_divisors(f))
        if mine != brute:
            return False, f"divisor mismatch for {f}"
    return True, "50/50 corpus instances agree with brute force"


def _fact_pulling():
    from . import qpoly
    from .intpoly import FiniteSite, IVPoly, is_member, pulling_sequence

    rng = random.Random(CORPUS_SEED + 2)
    done = 0
    while done < 200:
        size = rng.randint(1, 6)
        points = rng.sample(range(-30, 31), size)
        values = [rng.randint(-50, 50) for _ in range(size)]
        coeffs = qpoly.lagrange(points, [Fraction(v) for v in values])
        if qpoly.is_zero(coeffs):
            continue
        f = IVPoly(coeffs, FiniteSite(tuple(points)))
        if not is_member(f):
            return False, "interpolated polynomial left the ring"
        seq = pulling_sequence(points)
        d = seq.values[f.degree]
        if not all(c.denominator == 1 for c in qpoly.scale(f.coeffs, d)):
            return False, f"d_n * f not integral for S={points}"
        done += 1
    return True, "200 interpolated members cleared"


def _fact_ckd_family():
    from .intpoly import FiniteSite, is_irreducible, ivpoly

    site = FiniteSite((0, 1))
    bad = [r for r in range(2, 21) if not is_irreducible(ivpoly([1, r], site))]
    return not bad, "r*x + 1 irreducible on {0,1} for r in 2..20" if not bad else str(bad)


def _fact_furstenberg():
    from .intpoly import (FiniteSite, find_irreducible_divisor, is_member, ivpoly,
                          vanishing_nonatomic_witness)

    x0 = ivpoly([0, 1], FiniteSite((0,)))
    div = find_irreducible_divisor(x0)
    if div.coeffs != (Fraction(2),):
        return False, f"expected the constant 2, got {div}"
    w = vanishing_nonatomic_witness(x0)
    half_ok = is_member(w.half) and w.half.scale(2).coeffs == x0.coeffs
    ok = w.point == 0 and half_ok and w.complete_proof
    return ok, "divisor 2 and witness split x = 2*(x/2) verified"


def _fact_cone():
    from .cone import (ConeCertificate, ConeSpec, _pair_system, a_gen, b_gen,
                       common_divisor_mass, cone_member, idf_family_check,
                       mass_system_agreement, membership_system_agreement, tpoly)
    from .linprog import simplex_solve

    spec6 = ConeSpec(6)
    one, t = tpoly([1]), tpoly([0, 1])
    c1 = cone_member(one, spec6)
    ct = cone_member(t, spec6, exclude={"t^1"})
    if c1 is None or not c1.verify(spec6, one):
        return False, "membership certificate for 1 missing"
    if ct is None or not ct.verify(spec6, t):
        return False, "membership certificate for t missing"
    if c1.as_dict() != {"a_1": 1, "t^2": 1}:
        return False, f"expected the certificate a_1 + t^2, got {c1}"
    if ct.as_dict() != {"b_1": 1, "t^2": 1}:
        return False, f"expected the certificate b_1 + t^2, got {ct}"
    named = [
        ConeCertificate((("a_1", Fraction(1)), ("t^2", Fraction(1)))).verify(spec6, one),
        ConeCertificate((("b_1", Fraction(1)), ("t^2", Fraction(1)))).verify(spec6, t),
    ]
    if not all(named):
        return False, "the combinations a_1 + t^2 and b_1 + t^2 failed"
    if cone_member(tpoly([1, -1]), spec6) is not None:
        return False, "1 - t unexpectedly entered the cone"
    spec8 = ConeSpec(8)
    for i in range(1, 5):
        # all_ok includes a common-divisor mass of 0
        if not idf_family_check(i, spec8).all_ok:
            return False, f"family check failed at i={i}"
        # the simplex on the mass LP is the oracle of the dual certificate
        res = simplex_solve(*_pair_system(spec8, a_gen(i), b_gen(i)))
        if res.status != "optimal" or res.value != common_divisor_mass(i, spec8):
            return False, f"the simplex and the dual certificate disagreed on the mass at i={i}"
    agreements = [
        membership_system_agreement(one, spec6),
        membership_system_agreement(t, spec6, {"t^1"}),
        membership_system_agreement(tpoly([1, -1]), spec6),
    ] + [mass_system_agreement(i, spec8) for i in range(1, 5)]
    if any(s != f for s, f in agreements):
        return False, "simplex and Fourier-Motzkin disagreed"
    return True, "certificates, masses, family checks, and LP agreement all hold"


def _fact_frobenius_roots():
    from .monoid_ring import GF, element, power, pth_root

    rng = random.Random(CORPUS_SEED + 3)
    for p in (2, 3):
        field = GF(p)
        for _ in range(100):
            nterms = rng.randint(1, 6)
            terms = [
                (
                    rng.randint(1, p - 1) if p > 2 else 1,
                    Fraction(rng.randint(0, 96), rng.randint(1, 24)),
                )
                for _ in range(nterms)
            ]
            f = element(field, terms)
            if f.is_zero():
                continue
            root = pth_root(f)
            if power(root, p) != f:
                return False, f"root failed over F_{p} for {f}"
    return True, "200 p-th roots reproduce their inputs exactly"


def _fact_ffd_stability():
    from .intpoly import factorizations

    for f in divisor_corpus():
        base = bruteforce_divisors(f, bound_scale=1)
        doubled = bruteforce_divisors(f, bound_scale=2)
        if tuple(d.coeffs for d in base) != tuple(d.coeffs for d in doubled):
            return False, f"divisor set changed under doubled bounds for {f}"
        if f.is_unit():
            continue
        target = f.normalized()
        if _replay_factorizations(target, base) != factorizations(target):
            return False, f"factorizations over brute-force divisors differ for {f}"
    return True, "divisor lists stable under doubled bounds; factorizations match brute force"


def _fact_finite_site_divisors():
    from .intpoly import divisors, factorizations, is_irreducible

    corpus = finite_site_corpus()
    for f in corpus:
        brute = bruteforce_divisors(f)
        if tuple(d.coeffs for d in divisors(f).divisors) != tuple(d.coeffs for d in brute):
            return False, f"divisor mismatch for {f} on {f.site}"
        if f.is_unit():
            continue
        if is_irreducible(f) != (len(brute) == 2):
            return False, f"irreducibility mismatch for {f} on {f.site}"
        target = f.normalized()
        if _replay_factorizations(target, brute) != factorizations(target):
            return False, f"factorizations over brute-force divisors differ for {f} on {f.site}"
    return True, f"{len(corpus)}/{len(corpus)} finite-site members agree with brute force"


FACTS: tuple[tuple[str, str, object], ...] = (
    ("grams-atoms", "atoms of the Grams monoid up to denominator 100 are 1/3, 1/10, 1/28, 1/88", _fact_grams_atoms),
    ("grams-accp", "the chain (1/2^n + M) ascends strictly through n = 10 with explicit certificates", _fact_grams_accp),
    ("newton-roundtrip", "1000 random polynomials of degree <= 12 roundtrip the binomial basis; difference membership matches window evaluation", _fact_newton_roundtrip),
    ("hfd-witness", "2*3*C(x,6) = (x-5)*C(x,5); lengths {2,3} occur, elasticity >= 3/2", _fact_hfd_witness),
    ("binomial-irreducible", "C(x,n) is irreducible in Int(Z) for n in 1..8", _fact_binomial_irreducible),
    ("divisor-oracle", "divisor enumeration matches brute-force constant search on the 50-instance corpus", _fact_divisor_oracle),
    ("pulling-sequence", "Vandermonde pulling constants clear denominators on 200 interpolated members", _fact_pulling),
    ("ckd-family", "r*x + 1 is irreducible in Int({0,1},Z) for r in 2..20", _fact_ckd_family),
    ("furstenberg", "x in Int({0},Z) has irreducible divisor 2 and a vanishing non-atomicity witness", _fact_furstenberg),
    ("cone-idf", "cone certificates for 1 and t, zero common-divisor mass, family checks, FM/simplex agreement", _fact_cone),
    ("frobenius-roots", "p-th roots over F_2 and F_3 invert Frobenius on 200 random elements", _fact_frobenius_roots),
    ("ffd-stability", "brute-force divisor lists are unchanged under doubled search bounds, and factorizations over them equal those over ivpoly's own divisor enumeration", _fact_ffd_stability),
    ("finite-site-divisors", "on 60 members of Int(S,Z) for finite S, divisors, irreducibility and factorizations match brute-force constant search", _fact_finite_site_divisors),
)


def run_facts(fact_ids: list[str] | None = None) -> VerifyReport:
    """Run the suite (or a subset) in declaration order.

    ``MalformedInputError`` names every unknown id before any fact runs; an
    empty list is one too, since it would pass after running nothing.
    """
    if fact_ids is not None and not fact_ids:
        raise MalformedInputError("no fact ids")
    wanted = None if fact_ids is None else set(fact_ids)
    known = {fact_id for fact_id, _, _ in FACTS}
    unknown = [i for i in fact_ids or () if i not in known]
    if unknown:
        raise MalformedInputError(f"unknown fact ids: {', '.join(map(repr, unknown))}")
    results = []
    for fact_id, claim, runner in FACTS:
        if wanted is not None and fact_id not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = runner()
        except Exception as exc:  # a crash is a failed fact, not a crashed report
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(FactResult(fact_id, claim, passed, elapsed, detail))
    return VerifyReport(tuple(results))
