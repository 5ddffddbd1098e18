"""Workload ``cone``: the rational cone generated by t^n, 1 - t^(n+1), t - t^(n+1).

Feasibility-only (phase 1) membership queries at truncations 6..40 set the
median latency; the common-divisor mass LP, the irreducible-family check and
the simplex-versus-Fourier-Motzkin cross-checks at truncations <= 8 set
throughput and the 90th percentile.  ``linprog`` and ``cone`` do the work on
``Fraction`` tableaus.
"""
from __future__ import annotations

from fractions import Fraction

import oracles as o
from harness import Query, expect

#: (index, truncation) of the mass LP and of the family check; fixed, since
#: their cost depends on the index far more than on anything a seed varies
MASS_CASES = ((1, 8), (6, 12), (8, 16), (20, 20), (12, 24), (20, 40))
IDF_CASES = ((8, 8), (1, 10), (7, 14), (18, 18), (11, 22), (2, 40))


def _labels(n_max: int) -> list[str]:
    return [f"{k}{n}" for k in ("t^", "a_", "b_") for n in range(1, n_max + 1)]


def member_target(rng, n_max: int) -> tuple:
    """A positive rational combination of three generators."""
    target: tuple = ()
    for label in rng.sample(_labels(n_max), 3):
        w = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        target = o.padd(target, o.pscale(o.cone_generator(label), w))
    return target


def _outside_target(rng, n_max: int) -> tuple:
    """A polynomial whose constant or t coefficient is negative: never in the cone."""
    cs = [Fraction(0)] * (n_max + 2)
    for d in rng.sample(range(n_max + 2), 4):
        cs[d] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    cs[rng.randint(0, 1)] = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return o.trim(cs)


def check_certificate(target, n_max: int, weights) -> str | None:
    """(label, weight) pairs, None for a non-member: weights are nonnegative
    and sum the generators to the target in Q[t]."""
    if weights is None:
        return "a nonnegative combination was reported outside the cone"
    total: tuple = ()
    for label, w in weights:
        if w < 0:
            return f"negative weight {w} on {label}"
        if label not in _labels(n_max):
            return f"unknown generator {label}"
        total = o.padd(total, o.pscale(o.cone_generator(label), w))
    return expect(total, o.trim(target), "certificate total")


def check_idf(i: int, n_max: int, index, truncation, mass, all_ok) -> str | None:
    """The family report is for index i at truncation n_max, with mass 0."""
    if (index, truncation, mass) != (i, n_max, 0):
        return f"report for index {index}, truncation {truncation}, mass {mass}"
    return expect(all_ok, True, "family check")


def build(rng) -> list[Query]:
    from ivpoly import cone

    qs: list[Query] = []
    for i in range(160):
        n_max = 6 + (34 * i) // 159
        spec = cone.ConeSpec(n_max)
        if i % 2:
            target = member_target(rng, n_max)
            check = (lambda r, t=target, n=n_max:
                     check_certificate(t, n, None if r is None else r.weights))
        else:
            target = _outside_target(rng, n_max)
            check = (lambda r: expect(r, None, "a target with a negative low coefficient"))
        t = cone.tpoly(target)
        qs.append(Query("cone_member", lambda t=t, s=spec: cone.cone_member(t, s), check))
    for i, n_max in MASS_CASES:
        spec = cone.ConeSpec(n_max)
        qs.append(Query("common_divisor_mass", lambda i=i, s=spec: cone.common_divisor_mass(i, s),
                        lambda r: expect(r, 0, "common divisor mass")))
    for i, n_max in IDF_CASES:
        spec = cone.ConeSpec(n_max)
        qs.append(Query("idf_family_check", lambda i=i, s=spec: cone.idf_family_check(i, s),
                        lambda r, i=i, n=n_max: check_idf(i, n, r.index, r.truncation, r.mass,
                                                          r.all_ok)))
    for i in range(12):
        n_max = 4 + i % 5
        spec = cone.ConeSpec(n_max)
        member = bool(i % 2)
        target = member_target(rng, n_max) if member else _outside_target(rng, n_max)
        t = cone.tpoly(target)
        qs.append(Query("membership_system_agreement",
                        lambda t=t, s=spec: cone.membership_system_agreement(t, s),
                        lambda r, m=member: expect(r, (m, m), "(simplex, Fourier-Motzkin)")))
    for i in range(10):
        n_max = 4 + i % 5
        spec = cone.ConeSpec(n_max)
        idx = rng.randint(1, n_max)
        qs.append(Query("mass_system_agreement",
                        lambda i=idx, s=spec: cone.mass_system_agreement(i, s),
                        lambda r: expect(r, (True, True), "(simplex, Fourier-Motzkin)")))
    rng.shuffle(qs)
    return qs
