"""Reference ladder: ivpoly's known cliffs, each under the per-query cap.

    python3 bench/reference.py

Each case runs in a fresh interpreter that imports ivpoly from the
checkout's src/, builds its input, then times one call.  A case that does
not finish within the cap the workloads use (harness.QUERY_CAP_S) is killed
and reported as ``timeout``.  Every case runs REPEAT times and the median is
printed, with every single time after it.  Separate from the workloads:
nothing here is part of a benchmark run.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

from harness import QUERY_CAP_S, ROOT, child_env

#: runs per case; the median is reported
REPEAT = 3
IMPORTS = ("from fractions import Fraction\n"
           "from ivpoly import cone, intpoly, puiseux, qfactor\n")

#: (name, input set-up, timed call)
CASES = [
    ("factor_rational x^8+3", "f = [3] + [0] * 7 + [1]", "qfactor.factor_rational(f)"),
    ("factor_rational x^10+7", "f = [7] + [0] * 9 + [1]", "qfactor.factor_rational(f)"),
    *[(f"is_irreducible C(x,{n})", f"f = intpoly.binomial({n})", "intpoly.is_irreducible(f)")
      for n in (10, 12, 13, 14)],
    ("to_binomial_basis degree 40", "f = intpoly.from_binomial_basis(range(1, 42))",
     "intpoly.to_binomial_basis(f)"),
    ("from_binomial_basis degree 40", "d = list(range(1, 42))", "intpoly.from_binomial_basis(d)"),
    *[(f"grams factorizations b=1 cap {cap}", "g = puiseux.GramsMonoid()",
       f"puiseux.factorizations(g, Fraction(1), {cap})") for cap in (12, 30, 32, 34, 36, 38, 40)],
    ("simplex vs FM, membership of 1, truncation 9", "s = cone.ConeSpec(9)",
     "cone.membership_system_agreement(cone.tpoly([1]), s)"),
    ("simplex vs FM, mass system i=1, truncation 9", "s = cone.ConeSpec(9)",
     "cone.mass_system_agreement(1, s)"),
]
#: whole CLI commands, timed from process start to exit
COMMANDS = [
    ("cli verify-paper (all facts)", ["verify-paper", "--format", "json"]),
    ("cli monoid-factor grams b=1 cap 12", ["monoid-factor", "--spec", "grams", "--b", "1",
                                            "--length-cap", "12"]),
]


def _run(argv: list[str]) -> tuple[float | None, str]:
    """(seconds or None on timeout, stdout) for one child process."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=QUERY_CAP_S)
    except subprocess.TimeoutExpired:
        return None, ""
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[-1][:60]!r} failed: {proc.stderr.strip()[-300:]}")
    return time.perf_counter() - t0, proc.stdout


def time_case(setup: str, call: str) -> float | None:
    code = f"{IMPORTS}{setup}\nimport time\nt = time.perf_counter()\n{call}\nprint(time.perf_counter() - t)\n"
    wall, out = _run([sys.executable, "-c", code])
    return None if wall is None else float(out)


def time_command(args: list[str]) -> float | None:
    return _run([sys.executable, "-m", "ivpoly.cli", *args])[0]


def main() -> int:
    print(f"cap {QUERY_CAP_S:g} s, {REPEAT} runs per case, median first")
    jobs = [(name, lambda s=setup, c=call: time_case(s, c)) for name, setup, call in CASES]
    jobs += [(name, lambda a=argv: time_command(a)) for name, argv in COMMANDS]
    for name, job in jobs:
        times = [job() for _ in range(REPEAT)]
        if any(t is None for t in times):
            shown = "timeout"
        else:
            shown = f"{statistics.median(times):8.3f} s  (" + ", ".join(f"{t:.3f}" for t in times) + ")"
        print(f"  {name:48s} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
