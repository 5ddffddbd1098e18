"""Closed-loop query runner: per-query wall-clock cap, whole rounds, checks.

One client in one thread issues a query, waits for it to return, and only
then issues the next.  A run repeats the workload's query list in whole
rounds until the requested time has passed and at least ``MIN_QUERIES``
queries were issued, so the share of failed queries is the same in every run.
"""
from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

#: wall-clock cap per query; a query that reaches it fails as a timeout
QUERY_CAP_S = 10.0
#: at least ten samples lie beyond the 90th percentile
MIN_QUERIES = 100
#: past this much timed work the rest of a round is failed without running it,
#: so the run still ends well inside its time limit
HARD_LIMIT_S = 100.0
#: reference times taken after this many queries on either side of a query
#: are pooled to estimate the machine's speed while it ran
SPEED_WINDOW = 10
#: runs of the reference timed after each set-up probe
SETUP_REFERENCE_RUNS = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class QueryTimeout(BaseException):
    """Raised inside a query when it reaches the cap.

    A BaseException, so that library code catching ``Exception`` cannot
    swallow it.
    """


class QueryFailed(Exception):
    """The program gave no answer at all (for example a crashed command)."""


def expect(got, want, what: str) -> str | None:
    """None when got == want, else a description of the mismatch."""
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    #: returns a description of what is wrong with the result, or None
    check: Callable[[object], str | None]


def reference_loop() -> None:
    """Fixed exact arithmetic, timed after every query to track the machine's speed.

    It imports nothing of ivpoly, so no change to the program moves it.
    """
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(1, i)


def reference_command() -> None:
    """A fresh interpreter that imports standard modules a CLI command also
    imports, and nothing of ivpoly.

    Timed after every command of the cli workload: when the host is busy,
    process start-up slows less than Fraction arithmetic does, so
    reference_loop would misjudge the speed at which a cold start ran.
    """
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json, typing"],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)


@dataclass(frozen=True)
class Reference:
    """Fixed work, timed after every query to track the machine's speed."""

    name: str
    run: Callable[[], None]
    #: the unit of the scaled times: a query's time at the reference speed
    #: is what it would take on a machine that runs ``run`` in this time
    unit_s: float


LOOP = Reference("loop", reference_loop, 0.0006)
COMMAND = Reference("command", reference_command, 0.055)


@dataclass
class Round:
    reference: Reference
    elapsed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: time of the reference right after each query that ran
    reference_s: list[float] = field(default_factory=list)
    #: per query: ("ok", result) or ("failed", reason)
    outcomes: list[tuple[str, object]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for status, _ in self.outcomes if status == "ok")

    def scaled_latencies_s(self) -> list[float]:
        """Latencies at the reference speed.

        Each latency is multiplied by the reference's unit over the median
        time of the reference run after the queries around it.
        """
        ref, w, unit = self.reference_s, SPEED_WINDOW, self.reference.unit_s
        return [lat * unit / statistics.median(ref[max(i - w, 0):i + w + 1])
                for i, lat in enumerate(self.latencies_s)]


@dataclass
class Phase:
    rounds: list[Round] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return sum(r.elapsed_s for r in self.rounds)

    @property
    def attempted(self) -> int:
        return sum(len(r.outcomes) for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(len(r.outcomes) - r.completed for r in self.rounds)


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_phase(queries: list[Query], seconds: float, rounds: int | None = None,
              on_timeout: Callable[[], None] | None = None, reference: Reference = LOOP) -> Phase:
    """Issue whole rounds of ``queries`` for ``seconds`` (or exactly ``rounds``),
    timing ``reference`` after each query."""
    phase = Phase()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    perf = time.perf_counter
    start = perf()
    try:
        while True:
            rnd = Round(reference)
            round_start = perf()
            for q in queries:
                if perf() - start > HARD_LIMIT_S:
                    rnd.outcomes.append(("failed", "skipped: run over its time limit"))
                    continue
                try:
                    signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
                    try:
                        t0 = perf()
                        value = q.call()
                    finally:
                        # the timer calls stay outside the measured interval
                        t1 = perf()
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    if phase.rounds:
                        # an answer equal to the first round's is kept once,
                        # so memory does not grow with the number of rounds
                        first = phase.rounds[0].outcomes[len(rnd.outcomes)]
                        if first[0] == "ok" and first[1] == value:
                            value = first[1]
                    rnd.outcomes.append(("ok", value))
                except QueryTimeout:
                    rnd.outcomes.append(("failed", f"timeout after {QUERY_CAP_S:g} s"))
                    if on_timeout is not None:
                        on_timeout()
                except Exception as exc:  # a crashed query is a failed query
                    rnd.outcomes.append(("failed", f"{type(exc).__name__}: {exc}"[:300]))
                rnd.latencies_s.append(t1 - t0)
                t0 = perf()
                reference.run()
                rnd.reference_s.append(perf() - t0)
            rnd.elapsed_s = perf() - round_start
            phase.rounds.append(rnd)
            if rounds is not None:
                if len(phase.rounds) >= rounds:
                    break
            elif perf() - start >= seconds and phase.attempted >= MIN_QUERIES:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return phase


_UNCHECKED = object()


def check_phase(queries: list[Query], phase: Phase) -> list[str]:
    """Check every answer; returns one message per wrong answer.

    An answer equal to one already checked for the same query reuses that
    verdict, so repeated rounds cost no extra checking.
    """
    problems = []
    checked: dict[int, list[tuple[object, str | None]]] = {}
    for rnd in phase.rounds:
        for i, (status, value) in enumerate(rnd.outcomes):
            if status != "ok":
                continue
            seen = checked.setdefault(i, [])
            verdict = next((v for old, v in seen if old == value), _UNCHECKED)
            if verdict is _UNCHECKED:
                try:
                    verdict = queries[i].check(value)
                except Exception as exc:  # a check that cannot read the answer rejects it
                    verdict = f"check raised {type(exc).__name__}: {exc}"
                seen.append((value, verdict))
            if verdict is not None:
                problems.append(f"{queries[i].kind}#{i}: {verdict}")
    return problems


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    k = max(math.ceil(p / 100 * len(ordered)) - 1, 0)
    return ordered[k]


def end_to_end(phase: Phase, setup_s: float, peak_rss_mib: float) -> dict:
    """The end-to-end metrics, with every time at the reference speed.

    Throughput and the two percentiles are taken per round and the median
    over the rounds is reported.  Throughput is completed queries over the
    summed latencies, the rate of the single closed-loop client.
    """
    def per_round(f) -> float:
        return statistics.median(f(r, r.scaled_latencies_s()) for r in phase.rounds)

    return {
        "setup_s": (setup_s, "s"),
        "throughput_qps": (per_round(lambda r, s: r.completed / sum(s)), "queries/s"),
        "latency_p50_ms": (per_round(lambda r, s: 1000 * percentile(s, 50)), "ms"),
        "latency_p90_ms": (per_round(lambda r, s: 1000 * percentile(s, 90)), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(argv: list[str], reference: Reference, timeout: float = 60.0) -> float:
    """Seconds, at the reference speed, from starting ``argv`` until it prints ``ready``.

    The median time of the reference, run right after the child has exited,
    sets the scale.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {argv[1:]} failed with exit code {code}")
    times = []
    for _ in range(SETUP_REFERENCE_RUNS):
        t0 = time.perf_counter()
        reference.run()
        times.append(time.perf_counter() - t0)
    return ready * reference.unit_s / statistics.median(times)


def import_ivpoly():
    """Import ivpoly from the checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "ivpoly", "__init__.py")):
        raise SystemExit(f"error: no ivpoly package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ivpoly

    if not os.path.abspath(ivpoly.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported ivpoly from {ivpoly.__file__}, not {SRC}")
    return ivpoly
