"""Command-line front end.

Every library operation is reachable as a subcommand; results print as
human-readable text or as a canonical JSON envelope

    {"error": null, "op": "<subcommand>", "result": ...}

with rationals as lowest-terms strings.  Exit status: 0 on success, 1 on a
domain error (the envelope carries a machine-readable error code) or on an
error inside a handler (code ``internal-error``), 2 on usage errors.

Every command runs in a fresh process, so its cold start is most of its
time.  ``run`` builds the parser of the command named first alone, from the
``COMMANDS`` table.  Only the standard library, ``errors`` and ``rationals``
load with this module; each handler and parse helper imports its own
subsystem where it runs (``intpoly`` for ``ivp-*``, ``puiseux`` for
``monoid-*``, ``grams-*`` and ``accp-chain``, ``monoid_ring`` for
``ring-*``, ``cone`` for ``cone-*``), and ``verify-paper`` loads ``verify``
and the subsystems of the facts it runs: all of them without ``--facts``.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import groupby

from .errors import (
    InputTooLargeError,
    IvpolyError,
    MalformedInputError,
    SpecKindError,
)
from .rationals import format_rational, parse_rational


#: largest --truncation accepted by cone-member, cone-idf and the
#: prime-reciprocal spec.  The cone does not need it: ``cone_member`` and the
#: common-divisor mass behind cone-idf are closed forms, linear in the
#: truncation.  It caps the prime-reciprocal monoid-* searches, which have no
#: work bound.
MAX_TRUNCATION = 100

#: most term products ring-root spends on the root check, p products that grow with p
MAX_ROOT_CHECK_PRODUCTS = 200_000

#: largest --n-max accepted by accp-chain: each step certifies a Grams
#: membership, and the chain's time grows faster than n
MAX_CHAIN_STEPS = 10_000


#: a token that starts like a negative number: "-1", "-.5", and also "-1/3"
#: and "-1,5", which argparse before Python 3.13 takes for unknown options
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_coeff_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",")]


def _parse_site(text: str):
    from .intpoly import Z_SITE, FiniteSite

    if text.strip() in ("Z", "z"):
        return Z_SITE
    points = []
    for part in text.split(","):
        cleaned = part.strip().replace("−", "-")
        try:
            points.append(int(cleaned))
        except ValueError as exc:
            raise MalformedInputError(f"bad site point {part!r}") from exc
    return FiniteSite(tuple(points))


def _truncation(args) -> int:
    if args.truncation > MAX_TRUNCATION:
        raise InputTooLargeError(
            f"truncation {args.truncation} exceeds the cap of {MAX_TRUNCATION}"
        )
    return args.truncation


def _parse_poly(args):
    from .intpoly import IVPoly, from_binomial_basis

    site = _parse_site(args.site)
    coeffs = _parse_coeff_list(args.poly)
    if args.binomial:
        return from_binomial_basis(coeffs, site)
    return IVPoly(tuple(coeffs), site)


def _parse_spec(args):
    from .puiseux import DyadicValuation, ExplicitMonoid, GramsMonoid, PrimeReciprocal

    kind = args.spec
    if kind == "grams":
        return GramsMonoid()
    if kind == "dyadic":
        return DyadicValuation()
    if kind == "prime-reciprocal":
        return PrimeReciprocal(truncation=_truncation(args))
    if kind == "explicit":
        if not args.gens:
            raise SpecKindError("explicit monoids need --gens")
        return ExplicitMonoid(tuple(_parse_coeff_list(args.gens)))
    raise SpecKindError(f"unknown monoid kind {kind!r}")


def _parse_element(text: str):
    """A monoid-ring element from its JSON text.

    Nesting too deep for the decoder, an integer too long to convert and
    invalid JSON are all malformed input.
    """
    from .monoid_ring import from_json_dict

    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise MalformedInputError(f"unreadable element JSON: {exc}") from exc
    return from_json_dict(data)


def _certificate_json(cert) -> dict | None:
    if cert is None:
        return None
    return {str(i): m for i, m in cert.combo}


# ---------------------------------------------------------------------------
# handlers: each returns (json_result, text_lines)


def _cmd_monoid_member(args):
    from .puiseux import membership

    spec = _parse_spec(args)
    res = membership(spec, parse_rational(args.q))
    result = {
        "member": res.is_member,
        "exact": res.exact,
        "certificate": _certificate_json(res.certificate),
    }
    if res.is_member:
        text = [f"member: combination {_certificate_json(res.certificate)}"]
    else:
        scope = "" if res.exact else " (within truncation)"
        text = [f"not a member{scope}"]
    return result, text


def _cmd_monoid_atoms(args):
    from .puiseux import atoms_up_to

    spec = _parse_spec(args)
    atoms = atoms_up_to(spec, args.denom_bound)
    return {"atoms": [format_rational(a) for a in atoms]}, [
        "atoms: " + ", ".join(format_rational(a) for a in atoms)
    ]


def _cmd_monoid_factor(args):
    from .puiseux import factorizations_with_profile

    spec = _parse_spec(args)
    facs, profile = factorizations_with_profile(spec, parse_rational(args.b), args.length_cap)
    # each distinct atom is formatted once, for both outputs; the parts come in
    # runs of equal atoms, so each run costs one lookup (a Fraction hash)
    names: dict[Fraction, str] = {}
    parts = []
    for z in facs:
        row: list[str] = []
        for p, same in groupby(z.parts):
            name = names.get(p)
            if name is None:
                name = names[p] = format_rational(p)
            row += [name] * len(list(same))
        parts.append(row)
    elasticity = None if profile.elasticity is None else format_rational(profile.elasticity)
    result = {
        "factorizations": parts,
        "lengths": sorted(profile.lengths),
        "elasticity": elasticity,
        "elasticity_is_lower_bound": profile.is_lower_bound,
        "provably_infinite": profile.infinite,
    }
    text = [f"{len(facs)} factorization(s), lengths {sorted(profile.lengths)}"]
    # as Factorization.__str__ prints them
    text += [f"  {' + '.join(z) or '0'}" for z in parts]
    if elasticity is not None:
        bound = " (lower bound)" if profile.is_lower_bound else ""
        text.append(f"elasticity: {elasticity}{bound}")
    return result, text


def _cmd_grams_decompose(args):
    from .puiseux import grams_decompose

    dec = grams_decompose(parse_rational(args.q))
    if dec is None:
        return {"member": False, "nu": None, "coefficients": None}, ["not a member"]
    coeffs = {str(i): c for i, c in dec.coeffs}
    return (
        {"member": True, "nu": format_rational(dec.nu), "coefficients": coeffs},
        [f"nu = {format_rational(dec.nu)}, residue coefficients {coeffs}"],
    )


def _cmd_accp_chain(args):
    from .puiseux import GramsMonoid, accp_chain_check

    if args.n_max > MAX_CHAIN_STEPS:
        raise InputTooLargeError(f"n-max {args.n_max} exceeds the cap of {MAX_CHAIN_STEPS}")
    steps = accp_chain_check(GramsMonoid(), args.n_max)
    all_ok = all(s.ascending and s.strict for s in steps)
    result = {
        "steps": [
            {
                "n": s.step,
                "ascending": s.ascending,
                "strict": s.strict,
                "certificate": _certificate_json(s.certificate),
            }
            for s in steps
        ],
        "all_ascending_strict": all_ok,
    }
    text = [
        f"n={s.step}: ascending={s.ascending} strict={s.strict} "
        f"certificate={_certificate_json(s.certificate)}"
        for s in steps
    ] + [f"chain strictly ascending through n={args.n_max}: {all_ok}"]
    return result, text


def _cmd_ring_mul(args):
    from .monoid_ring import mul, to_json_dict

    a = _parse_element(args.a)
    b = _parse_element(args.b)
    prod = mul(a, b)
    return {"product": to_json_dict(prod)}, [f"product: {prod}"]


def _cmd_ring_root(args):
    from .monoid_ring import mul, one, pth_root, to_json_dict

    f = _parse_element(args.f)
    root = pth_root(f)  # rejects a ring that is not a prime field, flag or not
    if args.not_cone_closed:
        return {"root": None, "verified": False}, ["no root (exponent monoid not closed)"]
    # root^p by p products, independent of the Frobenius identity pth_root uses
    acc, products = one(f.ring), 0
    for _ in range(f.ring.p):
        products += len(acc.terms) * len(root.terms)
        if products > MAX_ROOT_CHECK_PRODUCTS:
            raise InputTooLargeError(
                f"checking the root needs more than {MAX_ROOT_CHECK_PRODUCTS} term products")
        acc = mul(acc, root)
    ok = acc == f
    return {"root": to_json_dict(root), "verified": ok}, [f"root: {root} (verified: {ok})"]


def _cmd_ivp_member(args):
    from .intpoly import is_member

    f = _parse_poly(args)
    member = is_member(f)
    return {"member": member}, [f"member of Int({f.site}, Z): {member}"]


def _cmd_ivp_basis(args):
    from .intpoly import is_member, to_binomial_basis

    f = _parse_poly(args)
    deltas = to_binomial_basis(f).deltas
    result = {
        "coeffs": list(map(format_rational, f.coeffs)),
        "deltas": list(map(format_rational, deltas)),
        "member": is_member(f),
    }
    return result, [
        f"power coefficients: {', '.join(result['coeffs']) or '0'}",
        f"binomial coordinates: {', '.join(result['deltas'])}",
    ]


def _cmd_ivp_divisors(args):
    from .intpoly import divisors

    f = _parse_poly(args)
    dl = divisors(f)
    divs = [list(map(format_rational, d.coeffs)) for d in dl.divisors]
    result = {"divisors": divs, "count": len(divs)}
    return result, [f"{len(dl.divisors)} divisor classes:"] + [f"  {d}" for d in dl.divisors]


def _cmd_ivp_factor(args):
    from .intpoly import factorizations, profile_of

    f = _parse_poly(args)
    facs = factorizations(f)
    profile = profile_of(facs)
    result = {
        "factorizations": [
            [list(map(format_rational, p.coeffs)) for p in z.parts] for z in facs
        ],
        "lengths": sorted(profile.lengths),
        "elasticity": format_rational(profile.elasticity),
        "hfd_violation": profile.hfd_violation,
    }
    text = [f"{len(facs)} factorization(s), lengths {sorted(profile.lengths)}, "
            f"elasticity {format_rational(profile.elasticity)}"]
    text += [f"  {z}" for z in facs]
    return result, text


def _cmd_ivp_irreducible(args):
    from .intpoly import is_irreducible

    f = _parse_poly(args)
    irreducible = is_irreducible(f)
    return {"irreducible": irreducible}, [f"irreducible: {irreducible}"]


def _cmd_ivp_furstenberg(args):
    from .intpoly import find_irreducible_divisor

    f = _parse_poly(args)
    d = find_irreducible_divisor(f)
    return {"divisor": list(map(format_rational, d.coeffs))}, [f"irreducible divisor: {d}"]


def _cmd_ivp_nonatomic(args):
    from .intpoly import vanishing_nonatomic_witness

    f = _parse_poly(args)
    w = vanishing_nonatomic_witness(f)
    result = {
        "point": w.point,
        "vanishing_points": list(w.vanishing_points),
        "half": list(map(format_rational, w.half.coeffs)),
        "splits_for_all_integers": w.splits_for_all_integers,
        "complete_proof": w.complete_proof,
    }
    text = [
        f"vanishing point s = {w.point}; split f = 2 * ({w.half})",
        f"splits for every integer: {w.splits_for_all_integers}; "
        f"complete singleton-site proof: {w.complete_proof}",
    ]
    return result, text


def _cmd_cone_member(args):
    from .cone import ConeSpec, cone_member, tpoly

    spec = ConeSpec(_truncation(args))
    target = tpoly(_parse_coeff_list(args.target))
    exclude = set(args.exclude.split(",")) if args.exclude else set()
    unknown = sorted(exclude - {g.label for g in spec.generators()})
    if unknown:
        raise MalformedInputError(f"--exclude names no generator: {', '.join(map(repr, unknown))}")
    cert = cone_member(target, spec, exclude=exclude)
    result = {
        "member": cert is not None,
        "certificate": None
        if cert is None
        else {label: format_rational(w) for label, w in cert.weights},
        "verified_up_to": spec.truncation,
    }
    if cert is None:
        text = [f"not in the cone within truncation N={spec.truncation}"]
    else:
        text = [f"certificate: {cert}"]
    return result, text


def _cmd_cone_idf(args):
    from .cone import ConeSpec, idf_family_check

    spec = ConeSpec(_truncation(args))
    report = idf_family_check(args.index, spec)
    result = {
        "index": report.index,
        "identity_one": report.identity_one,
        "identity_t": report.identity_t,
        "mass": format_rational(report.mass),
        "only_trivial_common_divisor": report.only_trivial_common_divisor,
        "distinct_from_other_indices": report.distinct_from_other_indices,
        "all_ok": report.all_ok,
        "verified_up_to": report.truncation,
    }
    text = [
        f"1 = t^{report.index + 1} + a_{report.index}: {report.identity_one}",
        f"t = t^{report.index + 1} + b_{report.index}: {report.identity_t}",
        f"common divisor mass: {format_rational(report.mass)}",
        f"pairwise distinct from other indices: {report.distinct_from_other_indices}",
        f"all checks (up to N={report.truncation}): {report.all_ok}",
    ]
    return result, text


def _cmd_verify_paper(args):
    from . import verify

    ids = args.facts.split(",") if args.facts else None
    report = verify.run_facts(ids)
    result = {
        "facts": [
            {
                "id": r.fact_id,
                "claim": r.claim,
                "passed": r.passed,
                "elapsed_seconds": round(r.elapsed, 3),
                "detail": r.detail,
            }
            for r in report.results
        ],
        "all_passed": report.all_passed,
    }
    text = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.fact_id:22s} {r.elapsed:7.2f}s  {r.claim}"
        for r in report.results
    ] + [f"overall: {'PASS' if report.all_passed else 'FAIL'}"]
    return result, text, 0 if report.all_passed else 1


#: the arguments of every monoid-* command, then of every ivp-* command, as (flag, keywords)
_SPEC_ARGS = (
    ("--spec", dict(required=True, choices=("grams", "dyadic", "prime-reciprocal", "explicit"))),
    ("--gens", dict(help="comma-separated generators for explicit monoids")),
    ("--truncation", dict(type=int, default=16)),
)
_POLY_ARGS = (
    ("--poly", dict(required=True,
                    help="comma-separated rational coefficients, lowest degree first")),
    ("--binomial", dict(action="store_true",
                        help="interpret the list as binomial-basis coordinates")),
    ("--site", dict(default="Z", help='"Z" (default) or a comma-separated list of integers')),
)

#: name -> (help, handler, arguments after --format), in the order of ``ivpoly --help``
COMMANDS = {
    "monoid-member": ("membership with certificate", _cmd_monoid_member,
                      (*_SPEC_ARGS, ("--q", dict(required=True)))),
    "monoid-atoms": ("atoms within a denominator bound", _cmd_monoid_atoms,
                     (*_SPEC_ARGS, ("--denom-bound", dict(type=int, required=True)))),
    "monoid-factor": ("factorizations into atoms", _cmd_monoid_factor,
                      (*_SPEC_ARGS, ("--b", dict(required=True)),
                       ("--length-cap", dict(type=int, default=10)))),
    "grams-decompose": ("dyadic-plus-residues decomposition", _cmd_grams_decompose,
                        (("--q", dict(required=True)),)),
    "accp-chain": ("strictly ascending ideal chain witness", _cmd_accp_chain,
                   (("--n-max", dict(type=int, default=10)),)),
    "ring-mul": ("monoid-ring product", _cmd_ring_mul,
                 (("--a", dict(required=True, help='element JSON {"ring": ..., "terms": ...}')),
                  ("--b", dict(required=True)))),
    "ring-root": ("p-th root over a prime field", _cmd_ring_root,
                  (("--f", dict(required=True, help="element JSON over a prime field")),
                   ("--not-cone-closed", dict(action="store_true")))),
    "ivp-member": ("integer-valuedness", _cmd_ivp_member, _POLY_ARGS),
    "ivp-basis": ("binomial-basis coordinates", _cmd_ivp_basis, _POLY_ARGS),
    "ivp-divisors": ("all divisors up to associates", _cmd_ivp_divisors, _POLY_ARGS),
    "ivp-factor": ("all factorizations into irreducibles", _cmd_ivp_factor, _POLY_ARGS),
    "ivp-irreducible": ("irreducibility", _cmd_ivp_irreducible, _POLY_ARGS),
    "ivp-furstenberg": ("an irreducible divisor", _cmd_ivp_furstenberg, _POLY_ARGS),
    "ivp-nonatomic": ("vanishing non-atomicity witness", _cmd_ivp_nonatomic, _POLY_ARGS),
    "cone-member": ("rational-cone membership certificate", _cmd_cone_member,
                    (("--target", dict(required=True, help="comma-separated coefficients "
                                       "in t, lowest degree first")),
                     ("--truncation", dict(type=int, default=6)),
                     ("--exclude", dict(default="", help="comma-separated generator labels")))),
    "cone-idf": ("irreducible-family verification at one index", _cmd_cone_idf,
                 (("--index", dict(type=int, required=True)),
                  ("--truncation", dict(type=int, default=8)))),
    "verify-paper": ("replay the built-in golden fact suite", _cmd_verify_paper,
                     (("--facts", dict(default="",
                                       help="comma-separated fact ids (default: all)")),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or one that knows only the named command.

    The one-command parser prints the same usage line as the full parser, so
    an error that argparse reports against it reads the same.
    """
    parser = argparse.ArgumentParser(
        prog="ivpoly",
        description="Exact factorization toolkit for integer-valued polynomials, "
        "Puiseux monoids, monoid rings, and rational cones.",
    )
    every = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (help_text, func, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=func)
            p.add_argument("--format", choices=("text", "json"), default="text")
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative-number token joined by "=" to the long option before it."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if _NEGATIVE_VALUE.match(arg) and prev.startswith("--") and prev != "--" and "=" not in prev:
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    """Run one command and return its exit status.

    argv is rewritten before parsing: ``--q -1/3`` becomes ``--q=-1/3``.
    argparse before Python 3.13 reads a token that starts with "-" as an
    option unless it looks like "-1" or "-1.5", so "-1/3", "-1,1" and "-1,5"
    would end in "expected one argument".  Its public API has no setting for
    this, and the "=" form is the one it reads as a value.
    """
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    # a command named first builds its own parser alone; anything else, the full one
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    op = args.command
    try:
        # by name, so that a handler replaced on this module is the one that runs
        out = globals()[args.func.__name__](args)
    except Exception as exc:
        # a domain error carries its own code; anything else is a handler bug
        if isinstance(exc, IvpolyError):
            code, message = exc.code, str(exc)
        else:
            code, message = "internal-error", f"{type(exc).__name__}: {exc}"
        if args.format == "json":
            print(_dump({"op": op, "result": None,
                         "error": {"code": code, "message": message}}))
        else:
            print(f"error[{code}]: {message}", file=sys.stderr)
        return 1
    if len(out) == 3:
        result, text, status = out
    else:
        result, text = out
        status = 0
    if args.format == "json":
        print(_dump({"op": op, "result": result, "error": None}))
    else:
        for line in text:
            print(line)
    return status


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
