"""The lazy ``ivpoly`` package: its public names, and what each entry point imports.

The names are those the package exported when it imported every subsystem
eagerly; the import sets are read from ``sys.modules`` in fresh interpreters,
since the test process has long since imported everything.
"""
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ivpoly

#: home module -> the names the package re-exports from it
HOMES = {
    "errors": ["IvpolyError"],
    "intpoly": [
        "AllIntegers", "BinomialExpansion", "DivisorList", "FiniteSite", "IVPoly",
        "PolyFactorization", "PullingSequence", "Z_SITE", "binomial", "constant", "divide",
        "divisors", "factorizations", "find_irreducible_divisor", "fixed_divisor",
        "from_binomial_basis", "is_irreducible", "is_member", "ivpoly", "length_profile",
        "pulling_sequence", "to_binomial_basis", "vanishing_nonatomic_witness",
    ],
    "monoid_ring": [
        "GF", "MonoidRingElement", "QQ", "ZZ", "canonicalize", "is_unit", "monomial_divides",
        "nu_bar", "pth_root",
    ],
    "puiseux": [
        "DyadicValuation", "ExplicitMonoid", "Factorization", "GramsDecomposition",
        "GramsMonoid", "MembershipCertificate", "MembershipResult", "PrimeReciprocal",
        "accp_chain_check", "atoms_up_to", "dyadic_divides", "grams_decompose", "length_set",
        "membership",
    ],
    "cone": [
        "ConeCertificate", "ConeSpec", "TPoly", "cone_member", "common_divisor_mass",
        "idf_family_check", "tpoly",
    ],
}
SUBMODULES = ["cone", "errors", "intpoly", "linprog", "monoid_ring", "primes", "puiseux",
              "qfactor", "qpoly", "rationals"]
PUBLIC = sorted([name for names in HOMES.values() for name in names] + SUBMODULES)
HOME_OF = {name: module for module, names in HOMES.items() for name in names}


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60)


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert len(PUBLIC) == 64
        assert ivpoly.__all__ == PUBLIC

    def test_dir_lists_every_name_before_use(self):
        proc = _fresh("import ivpoly; print(' '.join(dir(ivpoly)))")
        assert proc.returncode == 0, proc.stderr
        assert set(PUBLIC) <= set(proc.stdout.split())

    def test_each_name_resolves_to_its_home_object(self):
        for name in PUBLIC:
            value = getattr(ivpoly, name)
            if name in SUBMODULES:
                assert value is sys.modules[f"ivpoly.{name}"], name
            else:
                assert value is getattr(sys.modules[f"ivpoly.{HOME_OF[name]}"], name), name
        assert set(PUBLIC) <= set(dir(ivpoly))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from ivpoly import *", namespace)
        assert set(PUBLIC) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match=r"^module 'ivpoly' has no attribute 'nope'$"):
            ivpoly.nope
        with pytest.raises(ImportError):
            exec("from ivpoly import nope", {})

    def test_readme_example_runs(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S)
                    if "from ivpoly import" in b]
        checks = (
            "\nassert membership(GramsMonoid(), F(1, 2)).certificate.as_dict() == {1: 5}"
            "\nassert length_profile(binomial(6).scale(6)).lengths == {2, 3}"
            "\nassert [str(d) for d in divisors(binomial(2).scale(2)).divisors][:2] == ['1', '2']"
        )
        proc = _fresh(block + checks)
        assert proc.returncode == 0, proc.stderr


#: prints the ivpoly modules loaded when the interpreter exits; the command
#: itself runs as ``python -m ivpoly.cli`` would run it
_CLI_PROBE = """\
import atexit, runpy, sys
atexit.register(lambda: print("MODULES", *sorted(m for m in sys.modules if m.startswith("ivpoly")),
                              file=sys.stderr))
runpy.run_module("ivpoly.cli", run_name="__main__", alter_sys=True)
"""


#: puiseux and intpoly with the modules they import
_PUISEUX = {"puiseux", "primes"}
_INTPOLY = {"intpoly", "qpoly", "primes"}
#: golden fact -> the modules it loads besides the package, ``verify`` and what ``cli`` loads
FACT_MODULES = {
    "grams-atoms": _PUISEUX,
    "grams-accp": _PUISEUX,
    "newton-roundtrip": _INTPOLY,
    "hfd-witness": _INTPOLY | {"qfactor"},
    "binomial-irreducible": _INTPOLY | {"qfactor"},
    "divisor-oracle": _INTPOLY | {"qfactor"},
    "pulling-sequence": _INTPOLY,
    "ckd-family": _INTPOLY,
    "furstenberg": _INTPOLY,
    "cone-idf": {"cone", "linprog", "qpoly"},
    "frobenius-roots": _PUISEUX | {"monoid_ring"},
    "ffd-stability": _INTPOLY | {"qfactor"},
    "finite-site-divisors": _INTPOLY | {"qfactor"},
}


def _loaded_by(*argv: str) -> set[str]:
    proc = _fresh(_CLI_PROBE, *argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    (line,) = [ln for ln in proc.stderr.splitlines() if ln.startswith("MODULES")]
    return {m.removeprefix("ivpoly.") for m in line.split()[1:]}


class TestImportSets:
    def test_import_ivpoly_loads_no_subsystem(self):
        proc = _fresh("import sys, ivpoly; "
                      "print(*sorted(m for m in sys.modules if m.startswith('ivpoly.')))")
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) <= {"ivpoly.errors"}

    def test_from_import_loads_only_the_home_subsystem(self):
        proc = _fresh("import sys; from ivpoly import membership; "
                      "print(*sorted(m for m in sys.modules if m.startswith('ivpoly.')))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "ivpoly.puiseux" in loaded
        assert not loaded & {"ivpoly.intpoly", "ivpoly.qfactor", "ivpoly.cone", "ivpoly.linprog"}

    @pytest.mark.parametrize("argv, needed, unwanted", [
        (["monoid-member", "--spec", "grams", "--q", "1/3"], {"puiseux"},
         {"intpoly", "qfactor", "cone", "linprog", "verify"}),
        (["ivp-member", "--poly", "0,1/2,1/2"], {"intpoly"},
         {"qfactor", "puiseux", "cone", "linprog", "verify"}),
        (["cone-member", "--target", "1"], {"cone"},
         {"intpoly", "puiseux", "linprog", "verify"}),
        (["cone-idf", "--index", "2", "--truncation", "12"], {"cone"},
         {"intpoly", "qfactor", "puiseux", "linprog", "verify"}),
        (["ring-mul", "--a", '{"ring":"Z","terms":[]}', "--b", '{"ring":"Z","terms":[]}'],
         {"monoid_ring"}, {"intpoly", "qfactor", "cone", "linprog", "verify"}),
    ], ids=["monoid-member", "ivp-member", "cone-member", "cone-idf", "ring-mul"])
    def test_command_loads_only_its_subsystem(self, argv, needed, unwanted):
        loaded = _loaded_by(*argv)
        assert needed <= loaded
        assert not loaded & unwanted

    @pytest.mark.parametrize("fact", list(FACT_MODULES))
    def test_verify_paper_loads_only_the_subsystems_of_its_facts(self, fact):
        loaded = _loaded_by("verify-paper", "--facts", fact)
        assert loaded == FACT_MODULES[fact] | {"ivpoly", "errors", "rationals", "verify"}

    def test_verify_paper_loads_everything(self):
        from ivpoly.verify import FACTS

        assert [fact_id for fact_id, _, _ in FACTS] == list(FACT_MODULES)
        assert set(SUBMODULES) | {"verify"} <= _loaded_by("verify-paper")
