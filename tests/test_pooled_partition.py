"""The 2D partition's pooled tables: its only storage, shared by the engine."""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.api import build_engine
from repro.errors import PartitionError
from repro.partition.balance import balance_report
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape

MESHES = [GridShape(1, 6), GridShape(6, 1), GridShape(2, 3), GridShape(3, 4)]


# One rank's part of the pooled tables, cut the way the engine and the SPMD
# worker read it.
def owned(part: TwoDPartition, rank: int) -> np.ndarray:
    """The vertices ``rank`` owns."""
    return np.arange(part.owned_lo[rank], part.owned_hi[rank])


def column_chunk(part: TwoDPartition, mesh_col: int) -> tuple[int, int]:
    """The vertex range whose edge lists live on processor-column ``mesh_col``."""
    R = part.grid.rows
    return int(part.dist.offsets[mesh_col * R]), int(part.dist.offsets[(mesh_col + 1) * R])


def stored_rows(part: TwoDPartition, rank: int) -> np.ndarray:
    """Row ids of ``rank``'s stored entries, in (column, row) order."""
    return part.rows[part.entry_bounds[rank] : part.entry_bounds[rank + 1]]


def stored_columns(part: TwoDPartition, rank: int) -> np.ndarray:
    """The vertices ``rank`` stores a non-empty partial edge list of, ascending."""
    return part.col_keys[part.col_bounds[rank] : part.col_bounds[rank + 1]] - rank * part.n


def partial_neighbors(part: TwoDPartition, rank: int, vertices) -> np.ndarray:
    """``rank``'s partial edge lists of ``vertices`` merged, duplicates
    included, read through the direct index; vertices outside the rank's
    column chunk are skipped."""
    lo, hi = column_chunk(part, rank % part.grid.cols)
    vertices = np.asarray(vertices, dtype=np.int64)
    slots = vertices[(vertices >= lo) & (vertices < hi)] + part.slot_shift[rank]
    lists = [np.arange(part.slot_indptr[s], part.slot_indptr[s + 1]) for s in slots]
    return part.rows[np.concatenate([np.empty(0, np.int64), *lists])]


def mesh_id(grid: GridShape) -> str:
    return f"{grid.rows}x{grid.cols}"


def recount(graph, grid: GridShape) -> dict[str, list[int]]:
    """Section 2.4.1's per-rank counts, from the graph's entries with Python sets.

    Block rows are the balanced contiguous split of the vertices over
    ``R * C`` parts; entry ``A[u, v]`` is stored on rank ``(i, j)`` when
    ``block(u) % R == i`` and ``block(v) // R == j``.
    """
    n, R, C, P = graph.n, grid.rows, grid.cols, grid.size
    starts = [b * (n // P) + min(b, n % P) for b in range(P + 1)]
    block = [bisect.bisect_right(starts, u) - 1 for u in range(n)]
    entries: list[list[tuple[int, int]]] = [[] for _ in range(P)]
    for u in range(n):
        for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist():
            entries[(block[u] % R) * C + block[v] // R].append((u, v))
    return {
        "owned_vertices": [
            starts[(r % C) * R + r // C + 1] - starts[(r % C) * R + r // C] for r in range(P)
        ],
        "edge_entries": [len(e) for e in entries],
        "nonempty_columns": [len({v for _, v in e}) for e in entries],
        "unique_row_vertices": [len({u for u, _ in e}) for e in entries],
    }


@pytest.mark.parametrize("grid", MESHES, ids=mesh_id)
def test_footprints_recount_from_the_graph(small_graph, grid):
    part = TwoDPartition(small_graph, grid)
    want = recount(small_graph, grid)
    got = part.memory_footprints()
    assert {name: counts.tolist() for name, counts in got.items()} == want
    report = balance_report(part, "edge_entries")
    assert report.maximum == max(want["edge_entries"])
    assert report.minimum == min(want["edge_entries"])


@pytest.mark.parametrize("grid", MESHES, ids=mesh_id)
def test_row_slots_follow_rank_then_vertex(small_graph, grid):
    """Each rank's row universe is its sorted distinct stored rows, ranks in
    order, and every entry's slot points at its own row there."""
    part = TwoDPartition(small_graph, grid)
    for rank in range(grid.size):
        lo, hi = part.entry_bounds[rank], part.entry_bounds[rank + 1]
        universe = part.row_ids[part.row_bounds[rank] : part.row_bounds[rank + 1]]
        assert universe.tolist() == sorted(set(part.rows[lo:hi].tolist()))
        slots = part.row_slots[lo:hi]
        assert ((slots >= part.row_bounds[rank]) & (slots < part.row_bounds[rank + 1])).all()
    assert np.array_equal(part.row_ids[part.row_slots], part.rows)


@pytest.mark.parametrize(
    "grid", [GridShape(1, 4), GridShape(2, 2), GridShape(3, 2)], ids=mesh_id
)
def test_engine_keeps_no_copy(small_graph, grid):
    """The engine reads the partition's tables in place: every stored entry
    is held once."""
    engine = build_engine(small_graph, grid)
    part = engine.partition
    assert engine._rows_cat is part.rows
    assert engine._col_keys is part.col_keys
    assert engine._slot_indptr is part.slot_indptr
    assert engine._row_slots is part.row_slots
    assert engine._sent_pool.vertex is part.row_ids


def test_entry_key_overflow_is_refused():
    with pytest.raises(PartitionError, match="overflows"):
        TwoDPartition.from_entries(2**32, GridShape(1, 1), [], [])
