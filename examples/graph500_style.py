#!/usr/bin/env python3
"""A Graph500-style benchmark run — the paper's direct legacy.

This paper's 2D-partitioned BFS became the blueprint for the Graph500
benchmark.  This example runs the full Graph500-shaped pipeline on the
library:

1. generate a Kronecker/R-MAT graph (scale, edge factor),
2. apply a random vertex relabeling (skewed hubs break block partitions),
3. run the distributed 2D BFS from several random roots, on BOTH
   backends: the simulated BlueGene/L runtime (for modelled timing and
   message statistics) and the real-parallel SPMD multiprocessing backend
   (one OS process per rank),
4. validate every result with Graph500-style structural checks, and
5. report modelled TEPS (traversed edges per second).

Run:  python examples/graph500_style.py
"""

from __future__ import annotations

import numpy as np

from repro.api import distributed_bfs
from repro.backends.spmd import spmd_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.tree import ValidationReport, build_parent_tree, validate_bfs_result
from repro.graph.csr import CsrGraph
from repro.graph.generators import rmat_edges
from repro.partition.balance import balance_report
from repro.partition.permutation import relabel_graph
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape, UNREACHED
from repro.utils.rng import RngFactory

SCALE = 13          # 8192 vertices
EDGE_FACTOR = 16
GRID = GridShape(4, 4)
NUM_ROOTS = 4


def main(
    scale: int = SCALE, grid: GridShape = GRID, num_roots: int = NUM_ROOTS
) -> list[ValidationReport]:
    """Run the pipeline at R-MAT ``scale`` on ``grid`` from ``num_roots``
    random roots; returns each root's validation report."""
    rng = RngFactory(21).named("graph500")
    edges = rmat_edges(scale, EDGE_FACTOR, rng)
    raw = CsrGraph.from_edges(1 << scale, edges)
    print(f"R-MAT scale={scale} ef={EDGE_FACTOR}: n={raw.n}, m={raw.num_edges}")

    # Load balance: blocks of an R-MAT graph are badly skewed; relabel.
    before = balance_report(TwoDPartition(raw, grid), "edge_entries")
    graph, relabeling = relabel_graph(raw, seed=22)
    after = balance_report(TwoDPartition(graph, grid), "edge_entries")
    print(f"edge imbalance: raw {before.imbalance:.2f} -> relabeled {after.imbalance:.2f}")

    opts = BfsOptions(expand_collective="two-phase", fold_collective="two-phase")
    degrees = graph.degree()
    candidates = np.where(degrees > 0)[0]
    roots = [int(candidates[rng.integers(candidates.size)]) for _ in range(num_roots)]
    reports = []

    print(f"\n{'root':>6}  {'reached':>8}  {'levels':>6}  {'time':>10}  {'TEPS':>10}  checks")
    for root in roots:
        result = distributed_bfs(graph, grid, root, opts=opts)

        # Graph500-style validation (structural, oracle-free).
        parents = build_parent_tree(graph, result.levels)
        report = validate_bfs_result(graph, root, result.levels, parents)
        reports.append(report)

        # Real-parallel backend must agree exactly.
        spmd_levels = spmd_bfs(graph, grid, root, timeout=120)
        assert np.array_equal(spmd_levels, result.levels), "SPMD backend deviates"

        # TEPS against the modelled machine time: edges in the traversed
        # component / simulated seconds.
        reached = result.levels != UNREACHED
        traversed_edges = int(graph.degree()[reached].sum()) // 2
        teps = traversed_edges / result.elapsed if result.elapsed else float("inf")
        print(
            f"{root:>6}  {int(reached.sum()):>8}  {result.num_levels:>6}  "
            f"{result.elapsed:>9.5f}s  {teps:>9.2e}  "
            f"{'OK' if report.ok else 'FAILED'} + spmd-match"
        )

    print(
        "\n(The TEPS figures are against *modelled* BlueGene/L time; the "
        "paper's machine would report its own — shapes, not seconds.)"
    )
    return reports


if __name__ == "__main__":
    main()
