"""Let interpreters started by the tests import ivpoly from src/ too.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
entry-point test runs ``python -m ivpoly.cli`` in a child process, which
reads ``PYTHONPATH`` instead.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
