"""Let interpreters started by the tests import ivpoly from src/ too.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
entry-point test runs ``python -m ivpoly.cli`` in a child process, which
reads ``PYTHONPATH`` instead.
"""
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def pivots(monkeypatch):
    """The (row, column) of every simplex pivot taken while the test runs."""
    from ivpoly import linprog

    taken = []
    pivot = linprog._pivot

    def spy(tab, basis, r, c):
        taken.append((r, c))
        pivot(tab, basis, r, c)

    monkeypatch.setattr(linprog, "_pivot", spy)
    return taken
