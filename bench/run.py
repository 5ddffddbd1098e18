"""Benchmark for ivpoly: seeded closed-loop workloads, checked answers.

    python3 bench/run.py --workload {intz,monoid,cone,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ivpoly is imported from its ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced replay.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import statistics
import sys
import time

import harness
import probe
from spans import Tracer

WORKLOADS = ("intz", "monoid", "cone", "cli")
#: fresh processes timed per run; setup_s is their median
SETUP_PROBES = 7


def setup_seconds(workload: str, reference: harness.Reference) -> float:
    argv = [sys.executable, os.path.abspath(probe.__file__), workload]
    return statistics.median(harness.setup_time(argv, reference) for _ in range(SETUP_PROBES))


def build(workload: str, seed: int, in_process: bool) -> list[harness.Query]:
    rng = random.Random(f"{workload}:{seed}")
    module = importlib.import_module(f"wl_{workload}")
    if workload == "cli":
        return module.build(rng, in_process)
    return module.build(rng)


def untraced(workload: str, seed: int, seconds: float):
    in_process = workload != "cli"
    # a command's cold start is scaled by a fresh interpreter's, work in
    # process by the Fraction loop
    reference = harness.LOOP if in_process else harness.COMMAND
    setup_s = setup_seconds(workload, reference)
    if in_process:
        harness.import_ivpoly()
        probe.WARMUPS[workload]()
    queries = build(workload, seed, in_process)
    phase = harness.run_phase(queries, seconds, reference=reference)
    # read before any check imports sympy
    rss = harness.peak_rss_mib(children=not in_process)
    problems = harness.check_phase(queries, phase)
    return [phase], problems, harness.end_to_end(phase, setup_s, rss)


def traced(workload: str, seed: int, seconds: float):
    """Untraced rounds for half the time, to warm every cache, then exactly
    one traced round and one untraced round to compare it with."""
    t0 = time.perf_counter()
    harness.import_ivpoly()
    importlib.import_module("ivpoly.cli")
    import_ms = 1000 * (time.perf_counter() - t0)
    probe.WARMUPS[workload]()
    queries = build(workload, seed, in_process=True)
    warm = harness.run_phase(queries, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        spans = harness.run_phase(queries, 0, rounds=1, on_timeout=tracer.reset_stack)
    finally:
        tracer.uninstall()
    plain = harness.run_phase(queries, 0, rounds=1)
    phases = [warm, spans, plain]
    problems = [p for phase in phases for p in harness.check_phase(queries, phase)]
    ratio = (sum(spans.rounds[0].scaled_latencies_s())
             / sum(plain.rounds[0].scaled_latencies_s()))
    return phases, problems, tracer.metrics(import_ms, ratio)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "ivpoly", "__init__.py")):
        print(f"error: no ivpoly package under {harness.SRC}", file=sys.stderr)
        return 2

    # one CPU for this process and every process it starts, so the reference
    # loop runs where the queries run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = traced if args.trace else untraced
    phases, problems, metrics = run(args.workload, args.seed, args.seconds)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(problems)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{sum(len(p.rounds) for p in phases)} round(s) in "
          f"{sum(p.elapsed_s for p in phases):.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    reference = phases[-1].rounds[0].reference
    ref = statistics.median(t for p in phases for r in p.rounds for t in r.reference_s)
    print(f"  reference {reference.name} {1000 * ref:.3f} ms (times above are scaled to "
          f"{1000 * reference.unit_s:g} ms)")
    reasons = sorted({why for p in phases for r in p.rounds for s, why in r.outcomes if s != "ok"})
    for line in reasons[:10] + problems[:10]:
        print(f"  failed: {line}")
    print(f"  attempted {attempted}, failed {failed}, wrong answers {len(problems)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
