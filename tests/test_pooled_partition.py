"""The 2D partition's pooled tables: its only storage, shared by the engine."""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_engine
from repro.bfs.bottom_up import _scan_stored_columns
from repro.graph.csr import CsrGraph
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
    return part.row_ids[part.row_slots[part.entry_bounds[rank] : part.entry_bounds[rank + 1]]]


def stored_columns(part: TwoDPartition, rank: int) -> np.ndarray:
    """The vertices ``rank`` stores a non-empty partial edge list of, ascending."""
    return part.col_ids[part.col_bounds[rank] : part.col_bounds[rank + 1]]


def partial_neighbors(part: TwoDPartition, rank: int, vertices) -> np.ndarray:
    """``rank``'s partial edge lists of ``vertices`` merged, duplicates
    included, read through ``stored_lists``; vertices outside the rank's
    column chunk are skipped."""
    lo, hi = column_chunk(part, rank % part.grid.cols)
    vertices = np.asarray(vertices, dtype=np.int64)
    starts, lengths = part.stored_lists(vertices[(vertices >= lo) & (vertices < hi)], rank)
    lists = [np.arange(s, s + k) for s, k in zip(starts.tolist(), lengths.tolist())]
    return part.row_ids[part.row_slots[np.concatenate([np.empty(0, np.int64), *lists])]]


def mesh_id(grid: GridShape) -> str:
    return f"{grid.rows}x{grid.cols}"


def block_starts(n: int, parts: int) -> list[int]:
    """The balanced contiguous split of ``n`` vertices over ``parts`` block rows."""
    return [b * (n // parts) + min(b, n % parts) for b in range(parts + 1)]


def recount_entries(graph, grid: GridShape) -> list[list[tuple[int, int]]]:
    """Each rank's stored entries ``(u, v)``, from the graph's edge lists."""
    pairs = [
        (u, v)
        for u in range(graph.n)
        for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist()
    ]
    return entries_by_rank(graph.n, grid, pairs)


def entries_by_rank(n: int, grid: GridShape, pairs) -> list[list[tuple[int, int]]]:
    """Each rank's share of the entries ``(u, v)``, in the order given.

    Entry ``A[u, v]`` is stored on rank ``(i, j)`` when ``block(u) % R == i``
    and ``block(v) // R == j``.
    """
    R, C, P = grid.rows, grid.cols, grid.size
    starts = block_starts(n, P)
    block = [bisect.bisect_right(starts, u) - 1 for u in range(n)]
    entries: list[list[tuple[int, int]]] = [[] for _ in range(P)]
    for u, v in pairs:
        entries[(block[u] % R) * C + block[v] // R].append((u, v))
    return entries


def recount(graph, grid: GridShape) -> dict[str, list[int]]:
    """Section 2.4.1's per-rank counts, from the graph's entries with Python sets."""
    R, C, P = grid.rows, grid.cols, grid.size
    starts = block_starts(graph.n, P)
    entries = recount_entries(graph, grid)
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


def assert_slots_match(part: TwoDPartition, entries: list[list[tuple[int, int]]]) -> None:
    """Each rank's ``row_ids`` are its sorted distinct rows, its slots index
    them, and read back through ``stored_lists`` its entries are the given
    ones (duplicates included) in (column, row) order."""
    P = part.grid.size
    assert part.row_bounds[0] == 0 and part.row_bounds[-1] == part.row_ids.size
    assert part.entry_bounds[-1] == part.row_slots.size == sum(map(len, entries))
    for rank in range(P):
        universe = part.row_ids[part.row_bounds[rank] : part.row_bounds[rank + 1]]
        assert universe.tolist() == sorted({u for u, _ in entries[rank]})
        slots = part.row_slots[part.entry_bounds[rank] : part.entry_bounds[rank + 1]]
        assert ((slots >= part.row_bounds[rank]) & (slots < part.row_bounds[rank + 1])).all()
        columns = stored_columns(part, rank)
        assert columns.tolist() == sorted({v for _, v in entries[rank]})
        starts, lengths = part.stored_lists(columns, rank)
        # the rank's lists lie back to back over its entries
        assert np.array_equal(starts, part.entry_bounds[rank] + np.cumsum(lengths) - lengths)
        assert lengths.sum() == part.entry_bounds[rank + 1] - part.entry_bounds[rank]
        got = list(zip(np.repeat(columns, lengths).tolist(), stored_rows(part, rank).tolist()))
        assert got == sorted((v, u) for u, v in entries[rank])


@pytest.mark.parametrize("grid", MESHES, ids=mesh_id)
def test_row_slots_follow_rank_then_vertex(small_graph, grid):
    """Each rank's row universe is its sorted distinct stored rows, ranks in
    order, and every entry's slot points at its own row there: read back
    as ``row_ids[row_slots]`` with the columns of ``stored_lists``, a
    rank's entries are its entries of the graph in (column, row) order."""
    assert_slots_match(TwoDPartition(small_graph, grid), recount_entries(small_graph, grid))


@pytest.mark.parametrize(
    "grid", [GridShape(1, 4), GridShape(2, 2), GridShape(3, 2)], ids=mesh_id
)
def test_engine_keeps_no_copy(small_graph, grid):
    """The engine reads the partition's tables in place through
    ``engine.partition``: every stored entry is held once, as its slot."""
    engine = build_engine(small_graph, grid)
    part = engine.partition
    for name in ("rows", "col_keys", "slot_shift", "slot_indptr"):
        assert not hasattr(part, name)
    tables = [value for value in vars(part).values() if isinstance(value, np.ndarray)]
    for name, value in vars(engine).items():
        if isinstance(value, np.ndarray):
            assert not any(np.shares_memory(value, t) for t in tables), name
    assert engine._sent_pool.vertex is part.row_ids
def scan_reference(graph, grid: GridShape, frontier: set, visited: set) -> list[tuple]:
    """Bottom-up's scan from Python sets: ``(vertex, rank, found, edges)`` of
    every unvisited stored column, ranks ascending, vertices within; a
    column's rows are scanned ascending and the scan stops at the first
    frontier row."""
    out = []
    for rank, entries in enumerate(recount_entries(graph, grid)):
        lists: dict[int, list[int]] = {}
        for u, v in entries:
            lists.setdefault(v, []).append(u)
        for v in sorted(set(lists) - visited):
            rows = sorted(lists[v])
            hit = next((k for k, u in enumerate(rows) if u in frontier), None)
            out.append((v, rank, hit is not None, len(rows) if hit is None else hit + 1))
    return out


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from(
        [GridShape(1, 4), GridShape(4, 1), GridShape(1, 1), GridShape(2, 3), GridShape(3, 2)]
    ),
    n=st.integers(1, 30),
    data=st.data(),
)
def test_slot_space_scan_matches_a_set_reference(grid, n, data):
    """The bottom-up kernel tests stored slots against the frontier gathered
    onto the row universe; per unvisited stored column it finds what a scan
    of the graph's edge lists over Python sets finds, at the same edge —
    over all ranks at once (the engine) and one rank at a time (the SPMD
    worker)."""
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    )
    graph = CsrGraph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    visited = data.draw(st.sets(st.integers(0, n - 1)))
    frontier = data.draw(st.sets(st.sampled_from(sorted(visited)))) if visited else set()
    part = TwoDPartition(graph, grid)
    frontier_mask = np.isin(np.arange(n), list(frontier))
    unvisited_mask = ~np.isin(np.arange(n), list(visited))
    want = scan_reference(graph, grid, frontier, visited)

    def scanned(lo: int, hi: int) -> list[tuple]:
        rows = part.row_ids[part.row_bounds[lo] : part.row_bounds[hi]]
        cols = part.col_ids[part.col_bounds[lo] : part.col_bounds[hi]]
        v, rank, found, edges = _scan_stored_columns(
            part, lo, hi, frontier_mask[rows], unvisited_mask[cols]
        )
        return list(zip(v.tolist(), rank.tolist(), found.tolist(), edges.tolist()))

    assert scanned(0, grid.size) == want
    assert [row for r in range(grid.size) for row in scanned(r, r + 1)] == want


def test_entry_key_overflow_is_refused():
    with pytest.raises(PartitionError, match="overflows"):
        TwoDPartition.from_entries(2**32, GridShape(1, 1), [], [])


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 5), (5, 1), (7, 7), (2, 3), (3, 2), (1, 1)]),
    n=st.integers(1, 40),
    data=st.data(),
)
def test_slot_numbering_matches_a_set_reference(shape, n, data):
    """Slots numbered by the (row, chunk) runs of the CSR order are the
    slots of each rank's sorted distinct rows: from a graph, from its
    entries shuffled, from arbitrary entries with duplicates, and from a
    graph whose rows hold their neighbours out of order.  A 7 x 7 mesh
    on a few vertices leaves block rows, and whole ranks, empty."""
    grid = GridShape(*shape)
    n = data.draw(st.sampled_from([n, 9])) if shape == (7, 7) else n
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    graph = CsrGraph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    entries = recount_entries(graph, grid)
    assert_slots_match(TwoDPartition(graph, grid), entries)
    stored = [(u, v) for rank in entries for u, v in rank]
    shuffled = data.draw(st.permutations(stored))
    rows, cols = np.array(shuffled, dtype=np.int64).reshape(-1, 2).T
    assert_slots_match(TwoDPartition.from_entries(n, grid, rows, cols), entries)
    raw = data.draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    rows, cols = np.array(raw, dtype=np.int64).reshape(-1, 2).T
    part = TwoDPartition.from_entries(n, grid, rows, cols)
    assert_slots_match(part, entries_by_rank(n, grid, raw))
    rows_permuted = [
        np.array(data.draw(st.permutations(range(lo, hi))), dtype=np.int64)
        for lo, hi in zip(graph.indptr[:-1].tolist(), graph.indptr[1:].tolist())
    ]
    order = np.concatenate([np.empty(0, np.int64), *rows_permuted])
    unsorted = CsrGraph(n, graph.indptr, graph.indices[order])
    assert_slots_match(TwoDPartition(unsorted, grid), entries)
