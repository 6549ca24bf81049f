"""The benchmark's layer trace still finds every callable it wraps.

``bench/tracing.py`` wraps ``src/`` callables by name, and its
``wrap_method`` returns silently when a name is gone — so a refactor that
renames or moves one would zero that layer's metric while the benchmark
smoke run still passed.  This test installs the tracer, drives a tiny
session through a bottom-up search and a batch, and asserts that every
layer the benchmark reports recorded at least one span.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bfs.options import BfsOptions
from repro.graph import generators
from repro.session import BfsSession
from repro.types import GraphSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: span names the benchmark's per-layer metrics are built from
EXPECTED = (
    "bfs.start", "bfs.step", "bfs.rebind", "bfs.assemble_levels",
    "bfs.run_bfs", "bfs.run_ms_bfs", "collectives.fold",
    "runtime.exchange_arrays", "runtime.exchange_summaries",
    "runtime.charge_compute", "runtime.allreduce", "graph.build_graph",
    "partition.build", "session.init", "session.traverse",
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def test_every_traced_layer_records_spans(tracing):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        graph = generators.build_graph(GraphSpec(n=500, k=6, seed=2))
        session = BfsSession(graph, (2, 2), opts=BfsOptions(direction="bottom-up"))
        result = session.bfs(0)
        batch = session.bfs_many([0, 1, 2])
    finally:
        tracer.uninstall()
    assert result.num_levels > 1 and batch.levels.shape[0] == 3
    recorded = {span[tracing.NAME] for span in tracer.spans}
    missing = [name for name in EXPECTED if name not in recorded]
    assert not missing, f"no spans recorded for {missing}"
