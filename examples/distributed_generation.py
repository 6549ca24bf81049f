#!/usr/bin/env python3
"""Distributed graph generation: each rank builds only its own blocks.

At the paper's scale (3.2 billion vertices) no node can hold the global
graph — each of the 32,768 nodes must generate exactly the part of the
adjacency matrix it stores.  This example demonstrates the library's
deterministic cell-based construction at half a million vertices:

1. every rank independently samples its ~2P pair-space cells,
2. the per-rank entries are pooled into one 2D partition
   (the global edge list is never materialised),
3. a distributed BFS runs on it, and
4. the measured per-rank memory matches the Section 2.4 analytic model.

Run:  python examples/distributed_generation.py
"""

from __future__ import annotations

import time

from repro.analysis.memory import MemoryModel
from repro.api import build_communicator
from repro.bfs.level_sync import LevelSyncEngine, run_bfs
from repro.graph.distributed_gen import DistributedGraphBuilder
from repro.types import GraphSpec, GridShape

SPEC = GraphSpec(n=500_000, k=8, seed=33)
GRID = GridShape(8, 8)


def main(spec: GraphSpec, grid: GridShape):
    """Build ``spec`` rank by rank over ``grid`` and search it from vertex 0."""
    builder = DistributedGraphBuilder(spec, grid)
    print(
        f"building n={spec.n:,} (k={spec.k:g}) across {grid.size} ranks, "
        f"~{2 * grid.size} cells each; no global graph is ever assembled"
    )

    t0 = time.perf_counter()
    partition = builder.build_partition()
    build_seconds = time.perf_counter() - t0
    entries = partition.memory_footprints()["edge_entries"]
    print(
        f"generated {entries.sum():,} adjacency entries in {build_seconds:.2f}s host time "
        f"(per-rank min {entries.min():,} / max {entries.max():,})"
    )

    model = MemoryModel(n=spec.n, k=spec.k, grid=grid)
    print(
        f"Section 2.4 model: {model.expected_edge_entries:,.0f} entries/rank expected "
        f"-> measured mean {entries.mean():,.0f}"
    )

    comm = build_communicator(grid)
    result = run_bfs(LevelSyncEngine(partition, comm), source=0)
    print(result.summary())
    print(
        f"simulated {result.elapsed * 1e3:.1f} ms "
        f"(comm {result.comm_time * 1e3:.1f} ms) over {result.num_levels} levels"
    )
    return result


if __name__ == "__main__":
    main(SPEC, GRID)
