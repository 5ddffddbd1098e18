"""Checks on the source tree and the README that need only the standard library.

No module under ``src/ivpoly`` keeps a top-level import it does not use,
reads a global name that no statement binds and no builtin provides, or
defines a function, class or method that nothing reads, no function there
calls itself unless ``SELF_CALLS`` says why its depth stays small, no
float literal or ``float(...)`` call appears there unless ``FLOATS`` says
why, the simplex and Fourier-Motzkin engines of ``linprog`` share no helper
unless ``SHARED_LP`` says why, Fourier-Motzkin and ``puiseux.grams_decompose``
read no ``Fraction`` below their input coercion (but for the Grams ν),
``cone.cone_member``, ``cone.common_divisor_mass`` and
``cone.idf_family_check`` reach no ``linprog`` name or attribute while each
agreement oracle of ``cone`` reaches both engines,
``puiseux.PrimeReciprocal.member`` reaches neither Puiseux search,
every ``ivpoly ...`` line of the README names a command of ``cli.COMMANDS``,
and every such line of the README's CLI block runs as printed.
Spies on ``puiseux`` check at run time that ``accp_chain_check`` verifies
one certificate per step with no decomposition, and that the Grams
``length_set`` does not list while ``factorizations`` does.
"""
import ast
import builtins
import re
import shlex
import symtable
from fractions import Fraction
from pathlib import Path

import pytest

from ivpoly import puiseux
from ivpoly.cli import COMMANDS, run

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ivpoly").glob("*.py"))
READERS = [*MODULES, *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
README = (ROOT / "README.md").read_text()
(CLI_BLOCK,) = [b for b in re.findall(r"```sh\n(.*?)```", README, re.S) if "monoid-atoms" in b]
CLI_LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("ivpoly ")]
#: the command of every line of the README that starts with ``ivpoly ``
README_COMMANDS = re.findall(r"^ivpoly (\S+)", README, re.M)

#: every function of ``src/ivpoly`` that calls itself, with the reason its depth stays small
SELF_CALLS = {
    "qfactor._hensel_lift": "its depth is log2 of the number of factors",
    "qfactor._edf": "its random splits have expected logarithmic depth",
    "verify._replay_from": "an oracle run over bounded corpora",
    "verify._monoid_from": "an oracle run over bounded corpora",
}

#: every function of ``src/ivpoly`` that holds a float literal or a ``float(...)`` call, and why
FLOATS = {
    "verify._fact_newton_roundtrip": "rng.random() < 0.5 is a coin flip that picks a test input",
}

#: every function of ``linprog`` that both the simplex and Fourier-Motzkin reach, and why
SHARED_LP = {
    "_sparse": "it only coerces input rows",
}
#: the integer row helpers of the simplex, which Fourier-Motzkin keeps its own of
SIMPLEX_ROW_HELPERS = {"_combine_rows", "_over_gcd", "_int_scaled"}


def _listed(tree: ast.Module, lists: tuple[str, ...]) -> set[str]:
    """The strings in the top-level assignments to the names in lists."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in lists for t in node.targets
        ):
            out |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return out


def _unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports (``__future__`` aside) that nothing reads.

    A name counts as read when it appears as a name anywhere in the module
    or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _listed(tree, ("__all__",))
    return [name for name in bound if name not in read]


def _unbound_globals(source: str) -> set[str]:
    """Global names that a function or class body of source reads but that
    no statement binds at module level, and that are no builtins.

    A binding counts at the top level, or through a ``global`` statement
    inside a function.  Under ``from __future__ import annotations`` the
    symbol table holds no annotation, so annotations are not read.
    """
    top = symtable.symtable(source, "<module>", "exec")
    bound = {sym.get_name() for sym in top.get_symbols() if sym.is_assigned() or sym.is_imported()}
    read, todo = set(), list(top.get_children())
    while todo:
        table = todo.pop()
        todo += table.get_children()
        for sym in table.get_symbols():
            if sym.is_global() and sym.is_referenced():
                read.add(sym.get_name())
            if sym.is_declared_global() and sym.is_assigned():
                bound.add(sym.get_name())
    return read - bound - set(dir(builtins))


def _definitions(source: str) -> list[str]:
    """Top-level functions and classes, and the methods of those classes, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _reads(source: str) -> set[str]:
    """Names and attributes read anywhere in the source, and the strings of ``_EXPORTS``/``__all__``."""
    tree = ast.parse(source)
    read = _listed(tree, ("_EXPORTS", "__all__"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _self_calls(source: str) -> set[str]:
    """Functions, methods and nested functions that call themselves.

    A call counts when it names the function, or ``self.<name>`` for a method.
    """
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            for func in (c.func for c in ast.walk(node) if isinstance(c, ast.Call)):
                if isinstance(func, ast.Name) and func.id == node.name or (
                    isinstance(func, ast.Attribute) and func.attr == node.name
                    and isinstance(func.value, ast.Name) and func.value.id == "self"
                ):
                    out.add(node.name)
    return out


def _floats(source: str) -> set[str]:
    """Functions holding a float literal or a ``float(...)`` call, ``<module>`` for top-level code.

    A literal counts for the innermost function around it.
    """
    out = set()
    stack: list[tuple[ast.AST, str]] = [(ast.parse(source), "<module>")]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        ):
            out.add(owner)
        stack += [(child, owner) for child in ast.iter_child_nodes(node)]
    return out


def _top_level_defs(source: str) -> dict[str, ast.AST]:
    """The top-level functions and classes of source by name."""
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _reachable(source: str, roots: set[str], walk=ast.walk) -> set[str]:
    """The top-level functions and classes of source that roots name, directly
    or through each other, reading each definition's nodes through walk."""
    defs = _top_level_defs(source)
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in defs and name not in seen:
            seen.add(name)
            stack += [n.id for n in walk(defs[name]) if isinstance(n, ast.Name)]
    return seen


def _walk_code(node: ast.AST):
    """``ast.walk`` without annotations, which never run: every module of
    ``src/ivpoly`` has ``from __future__ import annotations``."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list) else [value])
                         if isinstance(v, ast.AST)]


def _shared_lp(source: str) -> set[str]:
    """Functions reached both from ``simplex_solve`` and from ``fm_feasible_eq``."""
    return _reachable(source, {"simplex_solve"}) & _reachable(source, {"fm_feasible_eq"})


def _fraction_readers(source: str, names: set[str]) -> set[str]:
    """The functions and classes among names whose bodies (not their
    signatures) read the name ``Fraction``."""
    defs = _top_level_defs(source)
    return {name for name in names
            if any(isinstance(n, ast.Name) and n.id == "Fraction"
                   for stmt in defs[name].body for n in ast.walk(stmt))}


def _fm_fraction_readers(source: str) -> set[str]:
    """Functions that ``fm_feasible_eq`` reaches, ``_sparse`` aside, that read ``Fraction``."""
    return _fraction_readers(source, _reachable(source, {"fm_feasible_eq"}) - {"_sparse"})


def _fraction_roles(source: str, name: str) -> set[str]:
    """What each read of ``Fraction`` in the body of the top-level function
    name does: "input" where it coerces the first parameter, as in
    ``if not isinstance(q, Fraction): q = Fraction(q)``, "nu" where it builds
    the value of a keyword argument ``nu``, and "line <n>" otherwise."""
    func = _top_level_defs(source)[name]
    param = func.args.args[0].arg
    parent = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
    roles = set()
    for stmt in func.body:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Name) and node.id == "Fraction"):
                continue
            call = parent[node]
            if ast.unparse(call) == f"isinstance({param}, Fraction)" or (
                ast.unparse(parent[call]) == f"{param} = Fraction({param})"
            ):
                roles.add("input")
            elif isinstance(parent[call], ast.keyword) and parent[call].arg == "nu":
                roles.add("nu")
            else:
                roles.add(f"line {node.lineno}")
    return roles


def _linprog_names(source: str) -> set[str]:
    """The names that the imports of source, at the top or inside a function,
    bind to ``linprog`` or to its contents."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            from_linprog = (node.module or "").split(".")[-1] == "linprog"
            out |= {alias.asname or alias.name for alias in node.names
                    if from_linprog or alias.name == "linprog"}
    return out


def _linprog_reached(source: str, root: str) -> set[str]:
    """The ``linprog`` names read by the functions and classes that root
    reaches, and the attributes they read off ``linprog``: off such a name,
    or off a call of a top-level function that returns one."""
    defs = _top_level_defs(source)
    names = _linprog_names(source)
    getters = {name for name, node in defs.items() for n in ast.walk(node)
               if isinstance(n, ast.Return) and isinstance(n.value, ast.Name) and n.value.id in names}
    read = set()
    for name in _reachable(source, {root}):
        for n in ast.walk(defs[name]):
            if isinstance(n, ast.Name) and n.id in names:
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and (
                isinstance(n.value, ast.Name) and n.value.id in names
                or isinstance(n.value, ast.Call) and ast.unparse(n.value.func) in getters
            ):
                read.add(n.attr)
    return read


def test_the_check_sees_an_unused_import():
    assert _unused_imports("from math import gcd, lcm\nx = gcd(4, 6)\n") == ["lcm"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unbound_name():
    source = "from __future__ import annotations\nimport os\n"
    source += "def f(x: Missing) -> Absent:\n    y: Gone = os.sep\n    return len(y), g(), CACHE\n"
    source += "def g():\n    global CACHE\n    CACHE = [n for n in names]\n    return lambda: home\n"
    source += "class A:\n    size = width\n    def m(self): return A, divisors\n"
    assert _unbound_globals(source) == {"names", "home", "width", "divisors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_global_name_a_function_reads_is_bound(path):
    assert _unbound_globals(path.read_text()) == set()


def test_the_check_sees_an_unused_definition():
    source = "class A:\n    def used(self): ...\n    def unused(self): ...\n    def __str__(self): ...\n"
    source += "def f(): return A().used()\ndef g(): ...\n__all__ = ['f']\n"
    assert [name for name in _definitions(source) if name not in _reads(source)] == ["unused", "g"]


def test_no_unused_definition():
    read = set().union(*(_reads(path.read_text()) for path in READERS))
    unused = [f"{path.name}: {name}" for path in MODULES
              for name in _definitions(path.read_text()) if name not in read]
    assert unused == []


def test_the_check_sees_a_self_call():
    source = "def f(n): return f(n - 1) if n else g()\ndef g(): return f(0)\n"
    source += "class A:\n    def h(self): return self.h()\n    def k(self): return A.k(self) or g()\n"
    assert _self_calls(source) == {"f", "h"}


def test_no_self_call_outside_the_allowlist():
    found = {f"{path.stem}.{name}" for path in MODULES for name in _self_calls(path.read_text())}
    assert found == set(SELF_CALLS)


def test_readme_block_has_every_example():
    assert len(CLI_LINES) == 13


def test_every_readme_example_names_a_table_command():
    assert len(README_COMMANDS) == len(CLI_LINES) + 3  # and the three verify-paper lines
    assert set(README_COMMANDS) <= set(COMMANDS)


@pytest.mark.parametrize("line", CLI_LINES, ids=lambda line: shlex.split(line)[1])
def test_readme_cli_line_runs(capsys, line):
    assert run(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_atoms_are_printed(capsys):
    command = "ivpoly monoid-atoms --spec grams --denom-bound 100"
    lines = CLI_BLOCK.splitlines()
    printed = lines[lines.index(command) + 1].lstrip("#").strip()
    assert printed == "atoms: 1/3, 1/10, 1/28, 1/88"
    assert run(shlex.split(command)[1:]) == 0
    assert printed in capsys.readouterr().out.splitlines()


def test_the_check_sees_a_float():
    source = "def f():\n    def g():\n        return -0.5\n    return g\n"
    source += "def h(x: float) -> float:\n    return float(x)\nRATE = 1e3\n"
    source += "def k():\n    return 3, '0.5', time.perf_counter() - 1\n"
    assert _floats(source) == {"g", "h", "<module>"}


def test_no_float_outside_the_allowlist():
    found = {f"{path.stem}.{name}" for path in MODULES for name in _floats(path.read_text())}
    assert found == set(FLOATS)


LINPROG = (ROOT / "src" / "ivpoly" / "linprog.py").read_text()


def test_the_check_sees_a_shared_lp_helper():
    source = "def simplex_solve(): return _pivot(_sparse())\ndef _pivot(r): return _gcd(r)\n"
    source += "def fm_feasible_eq(): return _eliminate(_sparse()) or map(_gcd, [])\n"
    source += "def _eliminate(r): return r\ndef _gcd(r): return r\ndef _sparse(): ...\n"
    assert _shared_lp(source) == {"_gcd", "_sparse"}


def test_simplex_and_fourier_motzkin_share_only_the_allowlist():
    assert _shared_lp(LINPROG) == set(SHARED_LP)


def test_the_check_sees_a_fraction_below_the_coercion():
    source = "def fm_feasible_eq(a: Fraction) -> bool: return _eliminate(_sparse(a))\n"
    source += "def _eliminate(r: list[Fraction]): return _scale(r)\ndef _scale(r): return Fraction(r)\n"
    source += "def _sparse(r): return Fraction(r)\n"
    assert _fm_fraction_readers(source) == {"_scale"}


def test_fourier_motzkin_works_on_ints_below_its_input_coercion():
    assert _fm_fraction_readers(LINPROG) == set()
    assert not _reachable(LINPROG, {"fm_feasible_eq"}) & SIMPLEX_ROW_HELPERS
    assert SIMPLEX_ROW_HELPERS <= _reachable(LINPROG, {"simplex_solve"})


PUISEUX = (ROOT / "src" / "ivpoly" / "puiseux.py").read_text()
PRIMES = (ROOT / "src" / "ivpoly" / "primes.py").read_text()


def _grams_fraction_use(puiseux: str, primes: str) -> tuple[set[str], set[str]]:
    """How ``grams_decompose`` reads ``Fraction`` (see ``_fraction_roles``),
    and which of the functions it reaches in ``puiseux`` and in ``primes``
    (``factorize`` and ``odd_prime_index`` and theirs) read it at all.  Its
    result record ``GramsDecomposition`` is left out: its ``value`` sums
    ``Fraction``s for callers."""
    helpers = _reachable(puiseux, {"grams_decompose"}) - {"grams_decompose", "GramsDecomposition"}
    callees = _reachable(primes, {"factorize", "odd_prime_index"})
    return (_fraction_roles(puiseux, "grams_decompose"),
            _fraction_readers(puiseux, helpers) | _fraction_readers(primes, callees))


def test_the_check_sees_a_fraction_in_the_grams_path():
    for planted in ("    rest = a  #", "        rest -= c"):
        assert PUISEUX.count(planted) == 1
    source = PUISEUX.replace("    rest = a  #", "    rest = Fraction(a)  #")
    roles, readers = _grams_fraction_use(source, PRIMES)
    assert roles - {"input", "nu"} and not readers
    source = PUISEUX.replace("        rest -= c", "        rest = _step(rest)\n        rest -= c")
    source += "\ndef _step(rest):\n    return Fraction(rest)\n"
    assert _grams_fraction_use(source, PRIMES)[1] == {"_step"}
    source = PRIMES.replace("    i = bisect_left(_PRIMES, p)\n", "    i = bisect_left(_PRIMES, Fraction(p))\n")
    assert source != PRIMES
    assert _grams_fraction_use(PUISEUX, source)[1] == {"odd_prime_index"}


def test_grams_decompose_works_on_ints_below_its_input_coercion():
    assert _grams_fraction_use(PUISEUX, PRIMES) == ({"input", "nu"}, set())


CONE = (ROOT / "src" / "ivpoly" / "cone.py").read_text()
#: the first line of ``cone._rhs``'s body, after which a test plants a simplex call
RHS_DOC = '    """The target\'s coefficients of t^0 .. t^(degree bound)."""\n'


def test_the_check_sees_a_planted_linprog_call():
    source = "from .linprog import simplex_feasible as feasible, fm_feasible_eq\nfrom . import linprog\n"
    source += "def member(t): return _rhs(t)\ndef _rhs(t): return Spec().check(t)\n"
    source += "class Spec:\n    def check(self, t): return feasible(t)\n"
    source += "def agreement(t): return linprog.simplex_solve(t), fm_feasible_eq(t)\n"
    assert _linprog_reached(source, "member") == {"feasible"}
    assert _linprog_reached(source, "agreement") == {"linprog", "simplex_solve", "fm_feasible_eq"}
    source += "def oracle(t):\n    from .linprog import fm_feasible_eq as fm\n    return fm(t)\n"
    assert _linprog_reached(source, "oracle") == {"fm"}
    assert CONE.count(RHS_DOC) == 1
    planted = CONE.replace(RHS_DOC, RHS_DOC + "    _linprog().simplex_feasible([], [], 0)\n")
    assert _linprog_reached(planted, "cone_member") == {"linprog", "simplex_feasible"}


def test_cone_member_does_not_reach_its_oracles():
    assert _linprog_reached(CONE, "cone_member") == set()
    assert {"simplex_feasible", "fm_feasible_eq"} <= _linprog_reached(CONE, "membership_system_agreement")


def test_the_common_divisor_mass_does_not_reach_its_oracles():
    assert _linprog_reached(CONE, "common_divisor_mass") == set()
    assert _linprog_reached(CONE, "idf_family_check") == set()
    assert {"simplex_feasible", "fm_feasible_eq"} <= _linprog_reached(CONE, "mass_system_agreement")


def _method_reached(source: str, cls: str, method: str) -> set[str]:
    """The top-level functions and classes of source that the method of the
    top-level class cls reaches: the names it reads, the methods it calls as
    ``self.<m>`` or ``super().<m>`` (looked up along the first top-level base
    class), and what those reach in turn, annotations aside."""
    defs = _top_level_defs(source)

    def lookup(owner, name):
        while owner in defs:
            for node in defs[owner].body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return owner, node
            owner = defs[owner].bases[0].id if defs[owner].bases else None
        return None

    names, todo, seen = set(), [lookup(cls, method)], set()
    while todo:
        found = todo.pop()
        if found is None or found in seen:
            continue
        seen.add(found)
        owner, func = found
        for n in _walk_code(func):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and ast.unparse(n.value) == "self":
                todo.append(lookup(cls, n.attr))
            elif isinstance(n, ast.Attribute) and ast.unparse(n.value) == "super()":
                todo.append(lookup(defs[owner].bases[0].id, n.attr))
    return _reachable(source, names, _walk_code)


#: the first line of ``PrimeReciprocal.member``'s body after its docstring
PR_MEMBER_LINE = "        combo, total, left = {}, a, b\n"
PR_MEMBER_DEF = "    def member(self, q: Fraction) -> MembershipResult:\n        \"\"\"Membership of q = a/b by residues."
SEARCHES = {"_walk", "_bounded_search"}


def test_the_check_sees_a_search_in_a_method():
    assert SEARCHES <= _method_reached(PUISEUX, "PuiseuxMonoid", "member")
    assert PUISEUX.count(PR_MEMBER_LINE) == 1 and PUISEUX.count(PR_MEMBER_DEF) == 1
    fallback = "    def fallback(self, q):\n        return _bounded_search(self.search_generators(), q)\n\n"
    for call in ("PuiseuxMonoid.member(self, q)", "super().member(q)", "self.fallback(q)"):
        planted = PUISEUX.replace(PR_MEMBER_LINE, f"        return {call}\n" + PR_MEMBER_LINE)
        planted = planted.replace(PR_MEMBER_DEF, fallback + PR_MEMBER_DEF)
        assert SEARCHES <= _method_reached(planted, "PrimeReciprocal", "member"), call


def test_prime_reciprocal_member_does_not_reach_the_search():
    assert not _method_reached(PUISEUX, "PrimeReciprocal", "member") & SEARCHES


def _spy(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_accp_chain_verifies_each_step_without_a_decomposition(monkeypatch):
    members = _spy(monkeypatch, puiseux, "membership")
    decompositions = _spy(monkeypatch, puiseux, "grams_decompose")
    verified = _spy(monkeypatch, puiseux.MembershipCertificate, "verify")
    steps = puiseux.accp_chain_check(puiseux.GramsMonoid(), 12)
    assert all(s.ascending and s.strict for s in steps) and len(steps) == 13
    assert members == [] and decompositions == []
    assert [q for _, _, q in verified] == [Fraction(1, 2 ** (n + 1)) for n in range(13)]


def test_grams_length_set_does_not_list(monkeypatch):
    walks = _spy(monkeypatch, puiseux, "_walk")
    grams = puiseux.GramsMonoid()
    for b in (Fraction(3), Fraction(15, 28), Fraction(1, 10)):
        assert puiseux.length_set(grams, b, 30).lengths
    assert walks == []
    assert puiseux.factorizations(grams, Fraction(3), 30) and len(walks) == 1
