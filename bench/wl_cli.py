"""Workload ``cli``: a seeded session of ``python -m ivpoly.cli ... --format json``.

Each command runs in a fresh interpreter, one at a time, so interpreter and
import cold start set the median latency and handler work plus the golden
fact suite set the 90th percentile and throughput.  A round is 100 commands:
every subcommand at desk scale in turn, one ``verify-paper --facts <id>``
per golden fact, and the known crash ``monoid-member --spec grams --q
1e100000``, which prints a traceback instead of an envelope and so fails
once per round.  Sizes follow a fixed ladder per subcommand and the seed
sets the coefficients.  The heaviest handlers, the golden facts and
``cone-idf`` at truncation 12, make up the top tenth of a round.  The traced run replays the
same commands in process through ``ivpoly.cli.run``.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import oracles as o
import wl_cone
import wl_intz
import wl_monoid
from harness import QUERY_CAP_S, ROOT, Query, QueryFailed, child_env, expect

ROUND = 100
FACTS = ("grams-atoms", "grams-accp", "newton-roundtrip", "hfd-witness",
         "binomial-irreducible", "divisor-oracle", "pulling-sequence", "ckd-family",
         "furstenberg", "cone-idf", "frobenius-roots", "ffd-stability")
CRASH = ["monoid-member", "--spec", "grams", "--q", "1e100000"]
CRASH_KIND = "monoid-member-1e100000"
PRIMES = o.primes(40)
#: truncation of every cone-idf command, at indices 2, 4, ..., 12
IDF_TRUNCATION = 12


def run_subprocess(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "ivpoly.cli", *argv, "--format", "json"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=QUERY_CAP_S + 5)
    if not proc.stdout.strip():
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise QueryFailed(f"exit {proc.returncode} without an envelope: {last[:200]}")
    return proc.returncode, proc.stdout


def run_in_process(argv: list[str]) -> tuple[int, str]:
    from ivpoly import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([*argv, "--format", "json"])
    return code, out.getvalue()


def check_envelope(op: str, semantic, result, coded_error_ok: bool = False) -> str | None:
    code, stdout = result
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(env, dict) or set(env) != {"error", "op", "result"}:
        return f"not an envelope: {stdout[:120]!r}"
    if coded_error_ok and env["error"] is not None and env["op"] == op and code == 1:
        return None if env["error"].get("code") else "error without a code"
    if env["op"] != op or env["error"] is not None or code != 0:
        return f"op {env['op']!r}, error {env['error']!r}, exit {code}"
    return semantic(env["result"])


def _poly_arg(cs) -> str:
    return ",".join(str(c) for c in cs)


def _poly(json_cs) -> tuple:
    return tuple(map(Fraction, json_cs))


def _combo(cert) -> list | None:
    """A JSON Puiseux certificate as (index, multiplicity) pairs."""
    return None if cert is None else [(int(i), m) for i, m in cert.items()]


def _ring_arg(tag: str, terms) -> str:
    return json.dumps({"ring": tag, "terms": [[str(c), str(e)] for c, e in terms]})


def _ring_terms(element) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(c), Fraction(e)) for c, e in element["terms"]]


# one generator per subcommand: (rng, k) -> (argv, check of the "result"
# member), where k counts the subcommand's earlier commands in the round.
# Sizes follow k, so that every seed draws the same mix of sizes and only
# the coefficients change.


def cmd_monoid_member(rng, k):
    kind = ("grams", "dyadic", "prime-reciprocal", "explicit")[k % 4]
    if kind == "grams":
        q, gen, extra = wl_monoid.grams_member_value(rng, 1 + k % 3), o.grams_generator, []
    elif kind == "dyadic":
        q, gen, extra = Fraction(rng.randint(1, 99), 2 ** rng.randint(0, 8)), lambda i: Fraction(1, 2**i), []
    elif kind == "prime-reciprocal":
        q = sum((Fraction(rng.randint(1, 3), p) for p in rng.sample(PRIMES[:8], 2)), Fraction(0))
        gen, extra = (lambda i: Fraction(1, PRIMES[i])), ["--truncation", "8"]
    else:
        gens = (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7))
        q = sum((rng.randint(0, 3) * g for g in gens), Fraction(0)) or gens[0]
        gen, extra = (lambda i: gens[i]), ["--gens", "2/3,3/5,5/7"]
    argv = ["monoid-member", "--spec", kind, "--q", str(q), *extra]
    return argv, lambda r: wl_monoid.check_certificate(
        q, gen, _combo(r["certificate"]) if r["member"] else None)


def cmd_monoid_atoms(rng, k):
    if k % 2:
        bound = rng.randint(100, 10**5)
        want = [g for g in map(o.grams_generator, range(30)) if g.denominator <= bound]
        argv = ["monoid-atoms", "--spec", "grams", "--denom-bound", str(bound)]
    else:
        t, bound = 3 + k, rng.randint(5, 40)
        want = [Fraction(1, p) for p in PRIMES[:t] if p <= bound]
        argv = ["monoid-atoms", "--spec", "prime-reciprocal", "--truncation", str(t),
                "--denom-bound", str(bound)]
    return argv, lambda r: expect([Fraction(a) for a in r["atoms"]], want, "atoms")


def cmd_monoid_factor(rng, k):
    b = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(2))[k % 5]
    cap = 8 + k
    argv = ["monoid-factor", "--spec", "grams", "--b", str(b), "--length-cap", str(cap)]
    return argv, lambda r: wl_monoid.check_factorizations(
        b, cap, [_poly(z) for z in r["factorizations"]]) or expect(
        r["lengths"], sorted(o.grams_length_set(b, cap)), "lengths")


def cmd_grams_decompose(rng, k):
    q = wl_monoid.grams_member_value(rng, 1 + k % 4)
    argv = ["grams-decompose", "--q", str(q)]

    def check(r):
        if not r["member"]:
            return wl_monoid.check_decompose(q, None, ())
        return wl_monoid.check_decompose(q, Fraction(r["nu"]), _combo(r["coefficients"]))

    return argv, check


def cmd_accp_chain(rng, k):
    n = 3 + 2 * k
    return ["accp-chain", "--n-max", str(n)], lambda r: wl_monoid.check_chain(
        n, [(s["n"], s["ascending"] and s["strict"], _combo(s["certificate"])) for s in r["steps"]]
    ) or expect(r["all_ascending_strict"], True, "all_ascending_strict")


def cmd_ring_mul(rng, k):
    tag = ("Z", "Q", "F2", "F3")[k % 4]
    p = int(tag[1:]) if tag[0] == "F" else None
    ta = wl_monoid.ring_element(rng, tag, 1 + k % 4)
    tb = wl_monoid.ring_element(rng, tag, 1 + (k + 2) % 4)
    want = o.ring_mul(o.ring_canon(ta, p), o.ring_canon(tb, p), p)
    return (["ring-mul", "--a", _ring_arg(tag, ta), "--b", _ring_arg(tag, tb)],
            lambda r: wl_monoid.check_ring(want, _ring_terms(r["product"])))


def cmd_ring_root(rng, k):
    tag = ("F2", "F3")[k % 2]
    p = int(tag[1:])
    terms = wl_monoid.ring_element(rng, tag, 1 + k // 2 % 4)
    want = o.ring_canon(terms, p)
    return ["ring-root", "--f", _ring_arg(tag, terms)], lambda r: (
        None if r["verified"] else "not verified") or expect(
        o.ring_power({e: c for c, e in _ring_terms(r["root"])}, p, p), want, "root^p")


def cmd_ivp_member(rng, k):
    cs = tuple(Fraction(rng.randint(-50, 50), rng.choice([1, 2, 6, 24])) for _ in range(1 + k))
    return ["ivp-member", "--poly=" + _poly_arg(cs)], lambda r: expect(
        r["member"], o.integer_valued(o.trim(cs)), "member")


def cmd_ivp_basis(rng, k):
    cs = wl_intz.members_deg(rng, 1 + k)
    return ["ivp-basis", "--poly=" + _poly_arg(cs)], lambda r: expect(
        [Fraction(d) for d in r["deltas"]], o.forward_differences(cs), "deltas")


def cmd_ivp_divisors(rng, k):
    # degree at most 4, so the list is compared with the brute force
    cs = wl_intz.members_deg(rng, 1 + k % 3)
    return ["ivp-divisors", "--poly=" + _poly_arg(cs)], lambda r: wl_intz.check_divisors(
        cs, [_poly(d) for d in r["divisors"]], True) or expect(r["count"], len(r["divisors"]), "count")


def cmd_ivp_factor(rng, k):
    cs = o.pmul(wl_intz.members_deg(rng, 1), wl_intz.members_deg(rng, 1 + k % 2))

    def check(r):
        listed = [[_poly(p) for p in z] for z in r["factorizations"]]
        return wl_intz.check_factorizations(cs, listed, True) or wl_intz.check_length_profile(
            cs, r["lengths"], Fraction(r["elasticity"]), r["hfd_violation"], True)

    return ["ivp-factor", "--poly=" + _poly_arg(cs)], check


def cmd_ivp_irreducible(rng, k):
    if k % 2 == 0:
        n = 2 + k
        argv = ["ivp-irreducible", "--binomial", "--poly=" + ",".join(["0"] * n + ["1"])]
        return argv, lambda r: expect(r["irreducible"], True, f"C(x,{n}) irreducible")
    cs = o.pmul(wl_intz.members_deg(rng, 1), wl_intz.members_deg(rng, 1))
    return ["ivp-irreducible", "--poly=" + _poly_arg(cs)], lambda r: expect(
        r["irreducible"], False, "a product of two non-units")


def cmd_ivp_furstenberg(rng, k):
    site = sorted(rng.sample(range(-6, 7), 1 + k % 3))
    m = rng.choice([2, 3, 5, 6])
    cs = (Fraction(m * rng.randint(-5, 5)), Fraction(m * rng.randint(1, 5)))

    def check(r):
        d = _poly(r["divisor"])
        cof = o.pdiv_exact(cs, d)
        if len(d) != 1 or not o.is_prime(abs(int(d[0]))):
            return f"{d} is not a prime constant"
        return None if cof is not None and o.integer_valued(cof, site) else f"{d} does not divide f"

    return ["ivp-furstenberg", "--poly=" + _poly_arg(cs), "--site=" + _poly_arg(site)], check


def cmd_ivp_nonatomic(rng, k):
    site = sorted(rng.sample(range(-6, 7), 1 + k % 3))
    root = rng.choice(site)
    cs = o.pscale(o.pmul((Fraction(-root), Fraction(1)), (Fraction(rng.randint(1, 5)),)), 2)

    def check(r):
        if r["point"] not in site or o.peval(cs, r["point"]) != 0:
            return f"{r['point']} is not a vanishing point on the site"
        return expect(_poly(r["half"]), o.pscale(cs, Fraction(1, 2)), "half")

    return ["ivp-nonatomic", "--poly=" + _poly_arg(cs), "--site=" + _poly_arg(site)], check


def cmd_cone_member(rng, k):
    n = 6 + k
    target = wl_cone.member_target(rng, n)

    def check(r):
        weights = [(label, Fraction(w)) for label, w in r["certificate"].items()] if r["member"] else None
        return wl_cone.check_certificate(target, n, weights)

    return ["cone-member", "--target=" + _poly_arg(target), "--truncation", str(n)], check


def cmd_cone_idf(rng, k):
    i, n = 2 + 2 * k, IDF_TRUNCATION
    return ["cone-idf", "--index", str(i), "--truncation", str(n)], lambda r: wl_cone.check_idf(
        i, n, r["index"], r["verified_up_to"], Fraction(r["mass"]), r["all_ok"])


# cone-idf comes first, so it is one of the subcommands that get a sixth
# command: with five, the lightest of them was the 90th percentile, just
# above the lighter golden facts, and that percentile jumped by 15 % from
# run to run with the noise of a single command
COMMANDS = (cmd_cone_idf, cmd_monoid_member, cmd_monoid_atoms, cmd_monoid_factor,
            cmd_grams_decompose, cmd_accp_chain, cmd_ring_mul, cmd_ring_root, cmd_ivp_member,
            cmd_ivp_basis, cmd_ivp_divisors, cmd_ivp_factor, cmd_ivp_irreducible,
            cmd_ivp_furstenberg, cmd_ivp_nonatomic, cmd_cone_member)


def _fact_check(fact):
    def check(r):
        facts = r["facts"]
        if [f["id"] for f in facts] != [fact] or not r["all_passed"]:
            return f"fact {fact} did not pass"
        return None
    return check


def build(rng, in_process: bool) -> list[Query]:
    run = run_in_process if in_process else run_subprocess
    session = [(["verify-paper", "--facts", fact], _fact_check(fact)) for fact in FACTS]
    # once the command answers, a member verdict or a coded error both pass
    session.append((CRASH, lambda r: None if r["member"] else "1e100000 is a member"))
    i = 0
    while len(session) < ROUND:
        session.append(COMMANDS[i % len(COMMANDS)](rng, i // len(COMMANDS)))
        i += 1
    rng.shuffle(session)
    return [Query(CRASH_KIND if argv is CRASH else argv[0], lambda a=argv: run(a),
                  lambda r, op=argv[0], c=check, e=argv is CRASH: check_envelope(op, c, r, e))
            for argv, check in session]
