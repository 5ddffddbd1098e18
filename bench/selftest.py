"""Show that every answer check in the benchmark rejects a wrong answer.

    python3 bench/selftest.py

For each kind of query in each workload this runs one query, confirms that
its check accepts the real answer, then alters the answer the way a bug
would (a divisor dropped, a certificate weight changed, one part of a
factorization replaced, a verdict flipped, ...) and confirms that the check
reports a failure.  Prints one line per case; exits 1 if any altered answer
got through or any real answer was rejected.
"""
from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction

import harness
import oracles
import probe
import wl_cli
import wl_cone
import wl_intz
import wl_monoid


def _flip(r):
    return not r


def _drop_middle_divisor(r):
    divs = r.divisors
    return dataclasses.replace(r, divisors=divs[:len(divs) // 2] + divs[len(divs) // 2 + 1:])


def _drop_divisor_pair(r):
    """Drop some d and f/d together, so that only the completeness check can notice."""
    target = oracles.positive_leading(r.target.coeffs)
    for d in r.divisors[1:-1]:
        cof = oracles.positive_leading(oracles.pdiv_exact(target, d.coeffs))
        rest = tuple(e for e in r.divisors if e.coeffs not in (d.coeffs, cof))
        if len(rest) == len(r.divisors) - 2:
            return dataclasses.replace(r, divisors=rest)
    return _drop_middle_divisor(r)


def _drop_length(r):
    """Drop the second-smallest length and keep the rest consistent with it,
    so that only the comparison with the benchmark's own lengths can notice."""
    lengths = sorted(r.lengths)
    kept = frozenset(lengths[:1] + lengths[2:])
    changes = {"lengths": kept, "elasticity": Fraction(max(kept), min(kept))}
    if hasattr(r, "hfd_violation"):
        changes["hfd_violation"] = len(kept) > 1
    return dataclasses.replace(r, **changes)


def _drop_factorization(r):
    return list(r[1:])


def _replace_factor_part(r):
    from ivpoly import intpoly

    z = r[0]
    part = z.parts[0].with_coeffs((Fraction(1), Fraction(1)))
    if part == z.parts[0]:
        part = z.parts[0].with_coeffs((Fraction(2), Fraction(1)))
    return [intpoly.PolyFactorization((part,) + z.parts[1:])] + list(r[1:])


def _bump_last(values):
    return tuple(values[:-1]) + (values[-1] + 1,)


def _bump_combo(cert):
    from ivpoly import puiseux

    (i, m), *rest = cert.combo
    return puiseux.MembershipCertificate(((i, m + 1), *rest))


def _bump_certificate(r):
    from ivpoly import puiseux

    if r.certificate is None:
        return puiseux.MembershipResult(puiseux.MembershipCertificate(((0, 1),)), True)
    return dataclasses.replace(r, certificate=_bump_combo(r.certificate))


def _bump_decomposition(r):
    from ivpoly import puiseux

    if r is None:
        return puiseux.GramsDecomposition(Fraction(1), ())
    return dataclasses.replace(r, nu=r.nu + 1)


def _drop_atom(r):
    return list(r[:-1]) if r else [Fraction(1, 2)]


def _bump_chain(r):
    return list(r[:-1]) + [dataclasses.replace(r[-1], certificate=_bump_combo(r[-1].certificate))]


def _shift_exponent(r):
    (c, e), *rest = r.terms
    return dataclasses.replace(r, terms=((c, e + 1), *rest))


def _replace_grams_part(r):
    from ivpoly import puiseux

    if not r:
        return [puiseux.Factorization((Fraction(1, 3),))]
    z = r[0]
    part = Fraction(1, 3) if z.parts[0] != Fraction(1, 3) else Fraction(1, 10)
    return [puiseux.Factorization((part,) + z.parts[1:])] + list(r[1:])


def _bump_weight(r):
    from ivpoly import cone

    if r is None:
        return cone.ConeCertificate((("t^1", Fraction(1)),))
    (label, w), *rest = r.weights
    return cone.ConeCertificate(((label, w + 1), *rest))


IN_PROCESS = {
    "is_member": _flip, "is_member_site": _flip, "is_irreducible_site": _flip,
    "is_irreducible_low": _flip, "is_irreducible_product": _flip,
    "is_irreducible_binomial": _flip,
    "to_binomial_basis": lambda r: dataclasses.replace(r, deltas=_bump_last(r.deltas)),
    "from_binomial_basis": lambda r: r.with_coeffs(_bump_last(r.coeffs)),
    "find_irreducible_divisor": lambda r: r.scale(2),
    "vanishing_nonatomic_witness": lambda r: dataclasses.replace(r, half=r.half.scale(3)),
    "divisors": _drop_middle_divisor,
    "factorizations": _replace_factor_part,
    "length_profile": lambda r: dataclasses.replace(r, elasticity=r.elasticity + 1),
    "factor_rational": lambda r: (r[0], [(g, e + 1) for g, e in r[1][:1]] + r[1][1:]),
    "grams_member": _bump_certificate, "grams_nonmember": _bump_certificate,
    "grams_random": _bump_certificate, "dyadic_member": _bump_certificate,
    "prime_reciprocal_member": _bump_certificate, "explicit_member": _bump_certificate,
    "grams_decompose": _bump_decomposition,
    "prime_reciprocal_atoms": _drop_atom, "grams_atoms": _drop_atom, "explicit_atoms": _drop_atom,
    "accp_chain_check": _bump_chain,
    "ring_mul": _shift_exponent, "ring_power": _shift_exponent, "pth_root": _shift_exponent,
    "monomial_divides": _flip,
    "grams_factorizations": _replace_grams_part,
    "grams_length_set": lambda r: dataclasses.replace(r, elasticity=(r.elasticity or 0) + 1),
    "cone_member": _bump_weight,
    "common_divisor_mass": lambda r: r + 1,
    "idf_family_check": lambda r: dataclasses.replace(r, mass=Fraction(1)),
    "membership_system_agreement": lambda r: (r[0], not r[1]),
    "mass_system_agreement": lambda r: (r[0], not r[1]),
}
#: extra alterations: (label, kind, mutation)
EXTRA = [("divisors: a pair d, f/d dropped", "divisors", _drop_divisor_pair)]


def standalone_cases():
    """(label, query, mutation) on inputs chosen to have more than one length."""
    from ivpoly import intpoly, puiseux

    cs = oracles.pscale(oracles.binomial_poly(4), 4)  # lengths {2, 3}
    f = intpoly.IVPoly(cs)
    b, cap = Fraction(1), 24  # lengths {3, 10, 19}, above the brute-force cap
    return [
        ("intz/length_profile of 4*C(x,4): a length dropped",
         harness.Query("length_profile", lambda: intpoly.length_profile(f),
                       lambda r: wl_intz.check_length_profile(
                           cs, r.lengths, r.elasticity, r.hfd_violation, True)),
         _drop_length),
        ("intz/factorizations of 4*C(x,4): one dropped",
         harness.Query("factorizations", lambda: intpoly.factorizations(f),
                       lambda r: wl_intz.check_factorizations(
                           cs, [[p.coeffs for p in z.parts] for z in r], True)),
         _drop_factorization),
        (f"monoid/grams_length_set at cap {cap}: a length dropped",
         harness.Query("grams_length_set", lambda: puiseux.length_set(puiseux.GramsMonoid(), b, cap),
                       lambda r: wl_monoid.check_length_set(b, cap, r.lengths, r.elasticity)),
         _drop_length),
    ]


def _bump_rational(s: str) -> str:
    return str(Fraction(s) + 1)


def _cli_mutation(op: str, res: dict) -> None:
    if op == "verify-paper":
        res["facts"][0]["passed"] = res["all_passed"] = False
    elif op == "monoid-member":
        key = next(iter(res["certificate"]))
        res["certificate"][key] += 1
    elif op == "monoid-atoms":
        res["atoms"] = res["atoms"][:-1] if res["atoms"] else ["1/2"]
    elif op in ("monoid-factor", "ivp-factor"):
        if res["factorizations"]:
            z = res["factorizations"][0]
            if op == "ivp-factor":
                z[0] = ["1", "1"]
            else:
                z[0] = "1/10" if z[0] == "1/3" else "1/3"
        else:
            res["factorizations"] = [["1"]]
    elif op == "grams-decompose":
        res["nu"] = _bump_rational(res["nu"])
    elif op == "accp-chain":
        cert = res["steps"][-1]["certificate"]
        cert[next(iter(cert))] += 1
    elif op in ("ring-mul", "ring-root"):
        terms = res["product" if op == "ring-mul" else "root"]["terms"]
        terms[0][1] = _bump_rational(terms[0][1])
    elif op in ("ivp-member", "ivp-irreducible"):
        key = "member" if op == "ivp-member" else "irreducible"
        res[key] = not res[key]
    elif op == "ivp-basis":
        res["deltas"][-1] = _bump_rational(res["deltas"][-1])
    elif op == "ivp-divisors":
        del res["divisors"][len(res["divisors"]) // 2]
        res["count"] -= 1
    elif op == "ivp-furstenberg":
        res["divisor"] = [str(4 * Fraction(res["divisor"][0]))]
    elif op == "ivp-nonatomic":
        res["half"] = [_bump_rational(c) for c in res["half"]]
    elif op == "cone-idf":
        res["mass"] = "1"
    elif op == "cone-member":
        label = next(iter(res["certificate"]))
        res["certificate"][label] = _bump_rational(res["certificate"][label])
    else:
        raise KeyError(op)


def _mutate_cli(op: str):
    def mutate(r):
        code, stdout = r
        env = json.loads(stdout)
        _cli_mutation(op, env["result"])
        return code, json.dumps(env)
    return mutate


def _garble(r):
    return r[0], r[1][: len(r[1]) // 2]


def cases():
    """(label, query, mutation) for the first query of every kind."""
    out = []
    for name, module in (("intz", wl_intz), ("monoid", wl_monoid), ("cone", wl_cone)):
        probe.WARMUPS[name]()
        seen = set()
        for q in module.build(random.Random(f"selftest:{name}")):
            if q.kind not in seen:
                seen.add(q.kind)
                out.append((f"{name}/{q.kind}", q, IN_PROCESS[q.kind]))
                out += [(f"{name}/{label}", q, m) for label, kind, m in EXTRA if kind == q.kind]
    out += standalone_cases()
    seen = {wl_cli.CRASH_KIND}  # the known crash has no answer to alter
    for q in wl_cli.build(random.Random("selftest:cli"), in_process=True):
        if q.kind not in seen:
            seen.add(q.kind)
            out.append((f"cli/{q.kind}", q, _mutate_cli(q.kind)))
            if len(seen) == 2:
                out.append(("cli/output that is not JSON", q, _garble))
    return out


def main() -> int:
    harness.import_ivpoly()
    missed = 0
    for label, q, mutate in cases():
        answer = q.call()
        real = q.check(answer)
        try:
            caught = q.check(mutate(answer))
        except Exception as exc:  # the harness counts a raising check as a rejection
            caught = f"check raised {type(exc).__name__}"
        ok = real is None and caught is not None
        missed += not ok
        verdict = "caught" if ok else ("REAL ANSWER REJECTED" if real else "MISSED")
        print(f"{verdict:8s} {label:45s} {caught or real or ''}"[:160])
    print(f"{missed} problem(s)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
