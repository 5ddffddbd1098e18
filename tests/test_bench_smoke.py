"""The benchmark still runs against the library: one short round per workload.

``bench/`` imports ivpoly's public functions, so a change of the library's
API that breaks the benchmark shows up here.  The ``cli`` workload is left
out: a single round of it starts a process per subcommand and takes longer
than the rest of this file together.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(script, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / script), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("workload", ["intz", "monoid", "cone"])
def test_one_round_is_correct(workload):
    out = _bench("run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0")
    summary = json.loads(out.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, out[-2000:]


def test_selftest_finds_no_problem():
    out = _bench("selftest.py")
    assert out.splitlines()[-1] == "0 problem(s)", out[-2000:]
