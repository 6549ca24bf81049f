"""Smoke tests for the runnable examples.

The quickstart, the distributed-generation example and the Graph500-style
run (at small specs) run end-to-end; the heavier examples are compile-checked and
import-checked so that a broken API surface fails the suite immediately
without multi-minute runs.
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


def test_distributed_generation_runs(capsys):
    """The distributed-generation example end to end on a small spec: its
    rank-by-rank partition searches like serial BFS on the same graph."""
    import importlib.util

    from repro.bfs.serial import serial_bfs
    from repro.graph.distributed_gen import DistributedGraphBuilder
    from repro.types import GraphSpec, GridShape

    path = EXAMPLES_DIR / "distributed_generation.py"
    module_spec = importlib.util.spec_from_file_location("distributed_generation", path)
    example = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(example)
    spec, grid = GraphSpec(n=2_000, k=8, seed=33), GridShape(2, 2)
    result = example.main(spec, grid)
    graph = DistributedGraphBuilder(spec, grid).reference_graph()
    assert (result.levels == serial_bfs(graph, 0)).all()
    assert "adjacency entries" in capsys.readouterr().out


def test_graph500_style_runs(capsys):
    """The Graph500-style pipeline end to end at scale 9 on 2 x 2: every
    root's levels pass the structural checks, and the SPMD backend (one
    process per rank) reproduces the simulated engine's levels exactly."""
    import importlib.util

    from repro.types import GridShape

    path = EXAMPLES_DIR / "graph500_style.py"
    module_spec = importlib.util.spec_from_file_location("graph500_style", path)
    example = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(example)
    reports = example.main(9, GridShape(2, 2), 2)
    assert len(reports) == 2 and all(report.ok for report in reports)
    out = capsys.readouterr().out
    assert out.count("OK + spmd-match") == 2
