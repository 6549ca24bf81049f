"""Byte-identity of the O(active-ranks) scheduler against the dense baseline.

``tests/data/schedule_digests.json`` was captured from the pre-rework
*dense* scheduler (P-length per-rank frontier lists, eager rank
iteration) by ``tests/golden_capture.py``.  Every test here re-runs one
configuration on the current scheduler and asserts the result digests —
levels, stats (message/byte/duplicate counters and per-level simulated
times), clock, trace, and fault-report counters — are byte-identical.

The matrix spans 1D/2D/bidirectional/hybrid scheduling on Poisson and
R-MAT graphs, wire codecs, buffered chunking, ring collectives, crash
recovery (spare and shrink), rollback-heavy wire faults, and the
paper-scale 64x64 grid on the reference n=20k/k=8 workload.  The
``msbfs-*`` keys pin the *batched* schedule the same way (widths 1 to
64, targets, filter off, codecs x chunking, rollbacks, crash recovery);
like every key, they were captured on the commit before the change they
guard (``golden_capture.py`` only ever appends).  Twelve keys pin the
non-default collectives (ring, two-phase, bruck / recursive doubling,
direct fold, the unfiltered direct expand) in both layouts, under faults,
chunking with a content-dependent codec, and an explicit subgrid shape.
The last one runs a long union ring (15 rounds a fold) with every knob on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import bidirectional_bfs, build_engine, distributed_bfs
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.faults import FaultSpec
from repro.graph.generators import build_graph
from repro.observability.digest import (
    levels_digest,
    result_digests,
    stats_digest,
    trace_digest,
)
from repro.session import BfsSession
from repro.types import GraphSpec, resolve_system

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "schedule_digests.json"

POISSON = GraphSpec(n=600, k=6.0, seed=3)
RMAT = GraphSpec.rmat(9, edge_factor=8, seed=5)
REFERENCE = GraphSpec(n=20_000, k=8.0, seed=7)

_GRAPH_CACHE: dict[GraphSpec, object] = {}


def _graph(spec: GraphSpec):
    cached = _GRAPH_CACHE.get(spec)
    if cached is None:
        cached = _GRAPH_CACHE[spec] = build_graph(spec)
    return cached


def _report_counters(report) -> dict:
    if report is None:
        return {}
    return {
        "injected": report.injected,
        "retries": report.retries,
        "recovered": report.recovered,
        "unrecovered": report.unrecovered,
        "rollbacks": report.rollbacks,
        "crashes": report.crashes,
        "spare_failovers": report.spare_failovers,
        "shrink_failovers": report.shrink_failovers,
        "replayed_levels": report.replayed_levels,
        "checkpoint_bytes": report.checkpoint_bytes,
    }


def _run(
    graph_spec: GraphSpec,
    grid: tuple[int, int],
    *,
    system: str = "bluegene-2d",
    wire: str = "raw",
    faults: str | FaultSpec | None = None,
    observe: str = "off",
    opts: BfsOptions | None = None,
    source: int = 0,
    target: int | None = None,
) -> dict:
    result = distributed_bfs(
        _graph(graph_spec), grid, source, target=target, opts=opts,
        system=resolve_system(system, wire=wire, faults=faults, observe=observe),
    )
    row = dict(result_digests(result))
    row["num_levels"] = result.num_levels
    if target is not None:
        row["target_level"] = result.target_level
    row.update(_report_counters(result.faults))
    return row


def _run_bidirectional(graph_spec: GraphSpec, grid: tuple[int, int]) -> dict:
    graph = _graph(graph_spec)
    result = bidirectional_bfs(graph, grid, 0, graph.n - 1)
    return {
        "path_length": result.path_length,
        "forward_levels": result.forward_levels,
        "backward_levels": result.backward_levels,
        "elapsed": result.elapsed.hex(),
        "comm_time": result.comm_time.hex(),
        "compute_time": result.compute_time.hex(),
    }


def _run_msbfs(
    graph_spec: GraphSpec,
    grid: tuple[int, int],
    batch: int,
    *,
    system: str = "bluegene-2d",
    wire: str = "raw",
    faults: str | FaultSpec | None = None,
    observe: str = "off",
    opts: BfsOptions | None = None,
    targets: bool = False,
) -> dict:
    """One batched traversal, digested.

    The row pins the ``(B, n)`` level matrix, the per-source level
    counts and target levels, every per-level ``LevelStats`` field
    (``stats_digest``: floats as hex), the three clocks, the message
    trace when one was captured, and the fault-report counters.
    """
    graph = _graph(graph_spec)
    session = BfsSession(
        graph, grid, opts=opts,
        system=resolve_system(system, wire=wire, faults=faults, observe=observe),
    )
    sources = [(i * 37) % graph.n for i in range(batch)]
    # mixed None / target, so retirement runs while other bits stay live
    wanted = (
        [None if i % 3 == 0 else (s * 7 + 11) % graph.n
         for i, s in enumerate(sources)]
        if targets
        else None
    )
    result = session.bfs_many(sources, wanted)
    row = {
        "levels": levels_digest(result.levels),
        # one line each in the JSON, not one line per source
        "num_levels": " ".join(map(str, result.num_levels.tolist())),
        "target_levels": " ".join(
            "-" if t is None else str(t) for t in result.target_levels
        ),
        "batch_levels": result.batch_levels,
        "stats": stats_digest(result.stats),
        "elapsed": result.elapsed.hex(),
        "comm_time": result.comm_time.hex(),
        "compute_time": result.compute_time.hex(),
    }
    trace = session._engine.comm.obs_trace
    if trace is not None:
        row["trace"] = trace_digest(trace.events)
    row.update(_report_counters(result.faults))
    return row


_ROLLBACK_HEAVY = FaultSpec(seed=0, drop_rate=0.3, max_retries=3)

CONFIGS = {
    "poisson-1d": lambda: _run(POISSON, (1, 8), system="bluegene-1d"),
    "poisson-2d": lambda: _run(POISSON, (4, 4)),
    "poisson-2d-target": lambda: _run(POISSON, (4, 4), target=POISSON.n - 1),
    "poisson-2d-observed": lambda: _run(POISSON, (4, 4), observe="full"),
    "poisson-2d-varint": lambda: _run(POISSON, (4, 4), wire="delta-varint"),
    "poisson-2d-buffered": lambda: _run(
        POISSON, (4, 4), opts=BfsOptions(buffer_capacity=64)
    ),
    "poisson-2d-ring": lambda: _run(
        POISSON, (4, 4),
        opts=BfsOptions(expand_collective="ring", fold_collective="ring"),
    ),
    "poisson-2d-two-phase": lambda: _run(
        POISSON, (4, 4),
        opts=BfsOptions(expand_collective="two-phase", fold_collective="two-phase"),
    ),
    "poisson-2d-no-cache": lambda: _run(
        POISSON, (4, 4), opts=BfsOptions(use_sent_cache=False)
    ),
    # captured on the commit before discovery moved to slot space: the
    # kernel without its sent filter is the old per-rank unique, 1D too
    "poisson-1d-no-cache": lambda: _run(
        POISSON, (1, 8), system="bluegene-1d", opts=BfsOptions(use_sent_cache=False)
    ),
    "rmat-1d": lambda: _run(RMAT, (8, 1), system="bluegene-1d"),
    "rmat-2d": lambda: _run(RMAT, (4, 4)),
    "rmat-2d-hybrid": lambda: _run(
        RMAT, (4, 4), opts=BfsOptions(direction="hybrid")
    ),
    "rmat-1d-hybrid": lambda: _run(
        RMAT, (8, 1), system="bluegene-1d", opts=BfsOptions(direction="hybrid")
    ),
    "poisson-2d-sieve": lambda: _run(
        POISSON, (4, 4), opts=BfsOptions(use_sieve=True)
    ),
    "poisson-1d-sieve": lambda: _run(
        POISSON, (1, 8), system="bluegene-1d", opts=BfsOptions(use_sieve=True)
    ),
    "poisson-2d-sieve-adaptive": lambda: _run(
        POISSON, (4, 4), wire="adaptive", opts=BfsOptions(use_sieve=True)
    ),
    "rmat-2d-sieve-hybrid": lambda: _run(
        RMAT, (4, 4), opts=BfsOptions(direction="hybrid", use_sieve=True)
    ),
    "poisson-2d-bidirectional": lambda: _run_bidirectional(POISSON, (4, 4)),
    "poisson-2d-mild-faults": lambda: _run(POISSON, (4, 4), faults="mild"),
    "poisson-2d-crash-spare": lambda: _run(POISSON, (4, 4), faults="crash-spare"),
    "poisson-2d-crash-shrink": lambda: _run(POISSON, (4, 4), faults="crash-shrink"),
    # sieve x faults: shadows roll back with the sent cache, summary
    # broadcasts replay deterministically (rollback-heavy drops pinned)
    "poisson-2d-sieve-mild-faults": lambda: _run(
        POISSON, (4, 4), faults="mild", opts=BfsOptions(use_sieve=True)
    ),
    "poisson-2d-sieve-rollback-heavy": lambda: _run(
        POISSON, (4, 4), faults=_ROLLBACK_HEAVY, opts=BfsOptions(use_sieve=True)
    ),
    "poisson-1d-sieve-rollback-heavy": lambda: _run(
        POISSON, (1, 8), system="bluegene-1d", faults=_ROLLBACK_HEAVY,
        opts=BfsOptions(use_sieve=True),
    ),
    "poisson-2d-sieve-crash-spare": lambda: _run(
        POISSON, (4, 4), faults="crash-spare", opts=BfsOptions(use_sieve=True)
    ),
    "reference-64x64": lambda: _run(REFERENCE, (64, 64)),
    # the batched (MS-BFS) schedule, captured on the commit before the
    # batch level moved onto the engines' pooled arrays
    "msbfs-2d-64": lambda: _run_msbfs(POISSON, (4, 4), 64),
    "msbfs-2d-1": lambda: _run_msbfs(POISSON, (4, 4), 1),
    "msbfs-1d-64": lambda: _run_msbfs(POISSON, (1, 8), 64, system="bluegene-1d"),
    "msbfs-2d-targets": lambda: _run_msbfs(POISSON, (4, 4), 32, targets=True),
    "msbfs-1d-targets": lambda: _run_msbfs(
        POISSON, (1, 8), 32, system="bluegene-1d", targets=True
    ),
    "msbfs-2d-no-filter": lambda: _run_msbfs(
        POISSON, (4, 4), 32, opts=BfsOptions(use_expand_filter=False)
    ),
    "msbfs-2d-adaptive-buffered": lambda: _run_msbfs(
        POISSON, (4, 4), 32, wire="adaptive", opts=BfsOptions(buffer_capacity=16)
    ),
    "msbfs-2d-observed": lambda: _run_msbfs(POISSON, (4, 4), 32, observe="full"),
    "msbfs-2d-rollback-heavy": lambda: _run_msbfs(
        POISSON, (4, 4), 32, faults=_ROLLBACK_HEAVY
    ),
    "msbfs-1d-rollback-heavy": lambda: _run_msbfs(
        POISSON, (1, 8), 32, system="bluegene-1d", faults=_ROLLBACK_HEAVY
    ),
    "msbfs-2d-harsh-buffered-observed": lambda: _run_msbfs(
        POISSON, (4, 4), 32, faults="harsh", observe="messages",
        opts=BfsOptions(buffer_capacity=8),
    ),
    # withheld chunks of split messages: survivors keep their own mask words
    "msbfs-2d-lossy-buffered-observed": lambda: _run_msbfs(
        POISSON, (4, 4), 32,
        faults=FaultSpec(seed=0, drop_rate=0.2, max_retries=3),
        observe="messages", opts=BfsOptions(buffer_capacity=8),
    ),
    "msbfs-2d-crash-spare": lambda: _run_msbfs(
        POISSON, (4, 4), 32, faults="crash-spare"
    ),
    "msbfs-2d-crash-shrink": lambda: _run_msbfs(
        POISSON, (4, 4), 32, faults="crash-shrink"
    ),
    "msbfs-2d-crash-harsh-targets": lambda: _run_msbfs(
        POISSON, (4, 4), 32, faults="crash-harsh", targets=True
    ),
    "msbfs-rmat-2x8": lambda: _run_msbfs(RMAT, (2, 8), 64),
    "msbfs-rmat-8x1": lambda: _run_msbfs(RMAT, (8, 1), 64, system="bluegene-1d"),
    # the non-default collectives, captured on the commit before every
    # fold and expand became a routing program run by one array driver
    "poisson-1d-ring": lambda: _run(
        POISSON, (1, 8), system="bluegene-1d", opts=BfsOptions(fold_collective="ring")
    ),
    "poisson-1d-two-phase": lambda: _run(
        POISSON, (1, 8), system="bluegene-1d", opts=BfsOptions(fold_collective="two-phase")
    ),
    "poisson-1d-direct-fold": lambda: _run(
        POISSON, (1, 8), system="bluegene-1d", opts=BfsOptions(fold_collective="direct")
    ),
    "poisson-2d-direct-fold": lambda: _run(
        POISSON, (4, 4), opts=BfsOptions(fold_collective="direct")
    ),
    "poisson-2d-bruck": lambda: _run(
        POISSON, (4, 4),
        opts=BfsOptions(
            expand_collective="recursive-doubling", fold_collective="bruck"
        ),
    ),
    "poisson-2d-no-filter": lambda: _run(
        POISSON, (4, 4), opts=BfsOptions(use_expand_filter=False)
    ),
    "poisson-2d-two-phase-mild-faults": lambda: _run(
        POISSON, (4, 4), faults="mild",
        opts=BfsOptions(expand_collective="two-phase", fold_collective="two-phase"),
    ),
    "poisson-2d-ring-rollback-heavy": lambda: _run(
        POISSON, (4, 4), faults=_ROLLBACK_HEAVY,
        opts=BfsOptions(expand_collective="ring", fold_collective="ring"),
    ),
    "poisson-2d-direct-fold-crash-spare": lambda: _run(
        POISSON, (4, 4), faults="crash-spare",
        opts=BfsOptions(fold_collective="direct"),
    ),
    # chunking x a content-dependent codec: pins the payload order
    # *within* a forwarded message, not just its size
    "poisson-2d-ring-adaptive-buffered": lambda: _run(
        POISSON, (4, 4), wire="adaptive",
        opts=BfsOptions(
            expand_collective="ring", fold_collective="ring", buffer_capacity=16
        ),
    ),
    "rmat-2d-two-phase-observed": lambda: _run(
        RMAT, (4, 4), observe="full",
        opts=BfsOptions(expand_collective="two-phase", fold_collective="two-phase"),
    ),
    "poisson-2d-two-phase-shape": lambda: _run(
        POISSON, (6, 6),
        opts=BfsOptions(
            expand_collective="two-phase", fold_collective="two-phase",
            collective_shape=(3, 2),
        ),
    ),
    # a long union ring (15 rounds a fold) with every knob on: codec
    # pricing, drop fates, buffer splits and the message trace, captured
    # on the commit before a fold's rounds became one stacked exchange
    "reference-16x16-knobs": lambda: _run(
        REFERENCE, (16, 16), wire="adaptive", faults="mild", observe="messages",
        opts=BfsOptions(buffer_capacity=64),
    ),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - capture-time guard
        pytest.skip("no golden digests; run tests/golden_capture.py")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_byte_identical_to_dense_baseline(name: str, golden: dict) -> None:
    assert name in golden, f"golden file lacks {name}; re-run golden_capture.py"
    assert CONFIGS[name]() == golden[name]
