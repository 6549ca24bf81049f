"""Smoke tests for the runnable examples.

The quickstart runs end-to-end (it is fast and self-validating); the
heavier examples are compile-checked and import-checked so that a broken
API surface fails the suite immediately without multi-minute runs.
"""

from __future__ import annotations

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert {"quickstart.py", "semantic_path_search.py", "scaling_study.py",
            "partition_tradeoff.py", "graph500_style.py", "machine_planner.py",
            "distributed_generation.py"} <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_examples_compile(path):
    py_compile.compile(str(path), doraise=True)


def test_quickstart_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verified against serial BFS: OK" in proc.stdout
