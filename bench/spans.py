"""Spans around the calls into each ivpoly module, recorded from outside.

``install`` replaces every public function of each layer module, in every
ivpoly namespace that binds it (``intpoly.factor_rational`` is
``qfactor.factor_rational`` seen from ``intpoly``), with a wrapper that opens
a span: name, start time and parent, kept on a stack while the call runs.
When a span ends its duration, minus the time its child spans cover, is its
self time; the span is then folded into per-function totals, so memory stays
constant however many calls a run makes.  A layer's self time is the sum
over the functions defined in it.  ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import importlib
import time
from types import FunctionType

LAYERS = ("qpoly", "qfactor", "primes", "intpoly", "puiseux", "monoid_ring",
          "linprog", "cone", "cli", "verify")
#: layers whose calls the repeated-call count considers; qpoly and primes are
#: arithmetic helpers that decision procedures call many times by design
DECISION_LAYERS = frozenset(LAYERS) - {"qpoly", "primes"}
#: functions whose outermost calls are timed as a group
GROUPS = {
    "intpoly.divisors": "divisors",
    "intpoly.is_irreducible": "is_irreducible",
    "intpoly.from_binomial_basis": "from_binomial_basis",
    "puiseux.factorizations": "puiseux_factorizations",
    "puiseux.length_set": "length_set",
    "linprog.simplex_solve": "simplex",
    "linprog.simplex_feasible": "simplex",
    "linprog.fm_feasible_eq": "fm",
    "linprog.fm_feasible": "fm",
}


class Tracer:
    def __init__(self):
        #: open spans: [name, start, child time, parent index]
        self.stack: list[list] = []
        #: name -> [calls, self seconds]
        self.totals: dict[str, list] = {}
        #: group -> [outermost calls, outermost seconds, open depth]
        self.groups = {g: [0, 0.0, 0] for g in set(GROUPS.values())}
        self.counts = {"mul_coeff_products": 0, "tableau_cells": 0, "irreducible_verdicts": 0,
                       "divisors_built": 0, "lengths_found": 0, "factorizations_listed": 0,
                       "redundant_calls": 0}
        #: stack depth of the running cli command, or None
        self.command_depth: int | None = None
        self.command_calls: set = set()
        #: stack depth of a repeated call whose children are not counted again
        self.repeat_depth: int | None = None
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _plain(self, fn, name: str):
        stack, totals, perf = self.stack, self.totals, time.perf_counter
        rec = totals.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            span = [name, perf(), 0.0, len(stack) - 1]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - span[1]
                stack.pop()
                rec[0] += 1
                rec[1] += dt - span[2]
                if stack:
                    stack[-1][2] += dt

        return traced

    def _full(self, fn, name: str, layer: str):
        stack, perf = self.stack, time.perf_counter
        rec = self.totals.setdefault(name, [0, 0.0])
        group = self.groups.get(GROUPS.get(name, ""))
        watch_repeats = layer in DECISION_LAYERS

        def traced(*args, **kwargs):
            span = [name, perf(), 0.0, len(stack) - 1]
            stack.append(span)
            depth = len(stack)
            if watch_repeats and self.command_depth is not None:
                self._note_call(name, depth, args, kwargs)
            if group is not None:
                group[2] += 1
            if name == "cli.run":
                self.command_depth, self.command_calls = depth, set()
            try:
                result = fn(*args, **kwargs)
                self._count(name, args, result)
                return result
            finally:
                dt = perf() - span[1]
                stack.pop()
                rec[0] += 1
                rec[1] += dt - span[2]
                if stack:
                    stack[-1][2] += dt
                if group is not None:
                    group[2] -= 1
                    if group[2] == 0:
                        group[0] += 1
                        group[1] += dt
                if self.repeat_depth == depth:
                    self.repeat_depth = None
                if name == "cli.run":
                    self.command_depth = None

        return traced

    def _note_call(self, name, depth, args, kwargs) -> None:
        """Count library calls repeated with equal arguments inside one command.

        Only the command's own calls and the calls those make are compared;
        nothing inside a repeated call is counted again.
        """
        if self.repeat_depth is not None or depth - self.command_depth > 2:
            return
        key = (name, repr(args), repr(sorted(kwargs.items())))
        if key in self.command_calls:
            self.counts["redundant_calls"] += 1
            self.repeat_depth = depth
        else:
            self.command_calls.add(key)

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "qpoly.mul":
            c["mul_coeff_products"] += len(args[0]) * len(args[1])
        elif name.startswith("linprog.") and name in GROUPS and self._outermost_linprog():
            if name == "linprog.fm_feasible":
                c["tableau_cells"] += len(args[0]) * (args[1] + 1)
            elif args[0]:
                c["tableau_cells"] += len(args[0]) * len(args[0][0])
        elif name == "intpoly.is_irreducible":
            if type(args[0].site).__name__ == "AllIntegers":
                c["irreducible_verdicts"] += 1
        elif name == "intpoly.divisors" and self.groups["is_irreducible"][2]:
            c["divisors_built"] += len(result.divisors)
        elif name == "puiseux.length_set":
            c["lengths_found"] += len(result.lengths)
        elif name == "puiseux.factorizations" and self.groups["length_set"][2]:
            c["factorizations_listed"] += len(result)

    def _outermost_linprog(self) -> bool:
        return self.groups["simplex"][2] + self.groups["fm"][2] == 1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ivpoly.{layer}") for layer in LAYERS}
        owner = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    owner[obj] = (layer, attr)
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in owner:
                    if obj not in wrapped:
                        layer, fname = owner[obj]
                        name = f"{layer}.{fname}"
                        plain = layer in ("qpoly", "primes") and name not in ("qpoly.mul",)
                        wrapped[obj] = self._plain(obj, name) if plain else self._full(obj, name, layer)
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by a query that was interrupted by its cap."""
        self.stack.clear()
        for g in self.groups.values():
            g[2] = 0
        self.command_depth = self.repeat_depth = None

    # -- metrics ------------------------------------------------------------

    def layer(self, layer: str) -> tuple[int, float]:
        calls = self_s = 0
        for name, (n, s) in self.totals.items():
            if name.split(".", 1)[0] == layer:
                calls += n
                self_s += s
        return calls, self_s

    def metrics(self, import_ms: float, overhead_ratio: float) -> dict:
        g, c = self.groups, self.counts
        out = {}
        for layer in ("qpoly", "qfactor", "primes", "puiseux"):
            calls, self_s = self.layer(layer)
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
        out["qpoly.mul_coeff_products"] = (c["mul_coeff_products"], "count")
        out["intpoly.self_s"] = (self.layer("intpoly")[1], "s")
        out["intpoly.divisors_s"] = (g["divisors"][1], "s")
        out["intpoly.is_irreducible_s"] = (g["is_irreducible"][1], "s")
        out["intpoly.from_binomial_basis_s"] = (g["from_binomial_basis"][1], "s")
        # a version that decides without building divisors divides by one
        out["intpoly.irreducible_yield"] = (
            c["irreducible_verdicts"] / max(c["divisors_built"], 1), "ratio")
        out["puiseux.factorizations_s"] = (g["puiseux_factorizations"][1], "s")
        out["puiseux.length_yield"] = (c["lengths_found"] / max(c["factorizations_listed"], 1), "ratio")
        out["monoid_ring.self_s"] = (self.layer("monoid_ring")[1], "s")
        out["linprog.simplex_calls"] = (g["simplex"][0], "count")
        out["linprog.simplex_s"] = (g["simplex"][1], "s")
        out["linprog.tableau_cells"] = (c["tableau_cells"], "count")
        out["linprog.fm_calls"] = (g["fm"][0], "count")
        out["linprog.fm_s"] = (g["fm"][1], "s")
        out["cone.self_s"] = (self.layer("cone")[1], "s")
        out["cli.import_ms"] = (import_ms, "ms")
        out["cli.self_s"] = (self.layer("cli")[1], "s")
        out["cli.redundant_calls"] = (c["redundant_calls"], "count")
        out["verify.self_s"] = (self.layer("verify")[1], "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
