"""Distributed graph generation: build per-rank structures without the
global graph.

The paper's largest instances (3.2 billion vertices, 32 billion edges)
cannot be materialised centrally — each node must generate exactly the
part of the adjacency matrix it stores.  The construction here makes that
possible *deterministically*:

The strict-upper-triangle pair space {u < v} is tiled by **cells**
``(bu, bv)`` with ``bu <= bv``, where ``bu``/``bv`` are the 2D layout's
block-row indices.  Every unordered pair lives in exactly one cell, and
each cell is sampled with its own seeded geometric-skipping G(n, p) stream
(seed derived from ``(seed, bu, bv)``) — so any rank can regenerate any
cell independently and all ranks agree on the global edge set without
communicating.

Rank ``(i, j)`` of an ``R x C`` mesh stores entry ``A[u, v]`` iff
``block(u) % R == i`` and ``block(v) // R == j``; it therefore needs the
cells ``(bu, bv)`` with ``bu % R == i`` and ``bv`` in column chunk ``j``
(for entries in that orientation) plus the mirrored cells — 2·P cells of
the (R·C)² total, so per-rank generation work is proportional to the
edges the rank stores: the scalable O(n k / P).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.generators import dedup_undirected_edges, rmat_edges
from repro.partition.base import BlockDistribution
from repro.partition.two_d import TwoDPartition
from repro.types import VERTEX_DTYPE, GraphSpec, GridShape
from repro.utils.rng import RngFactory


def _cell_rng(spec: GraphSpec, bu: int, bv: int) -> np.random.Generator:
    return RngFactory(spec.seed).for_rank("dist-gen-cell", bu * (1 << 21) + bv)


def _sample_cell(
    spec: GraphSpec, dist: BlockDistribution, bu: int, bv: int
) -> np.ndarray:
    """Edges {u < v} of one cell: u in block bu, v in block bv (bu <= bv).

    Sampled with geometric skipping over the cell's pair space, so the
    cost is proportional to the expected number of edges in the cell.
    """
    if bu > bv:
        raise ValueError("cells are canonical: bu <= bv")
    p = spec.k / (spec.n - 1) if spec.n > 1 else 0.0
    if p <= 0:
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    u_lo, u_hi = dist.range_of(bu)
    v_lo, v_hi = dist.range_of(bv)
    nu, nv = u_hi - u_lo, v_hi - v_lo
    if nu == 0 or nv == 0:
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    rng = _cell_rng(spec, bu, bv)

    if bu == bv:
        # Triangular cell: pairs {u < v} within one block.
        total = nu * (nu - 1) // 2
        ids = _geometric_ids(rng, p, total)
        if ids.size == 0:
            return np.empty((0, 2), dtype=VERTEX_DTYPE)
        # invert triangular enumeration (row-major over u)
        u_local = np.floor(
            (2 * nu - 1 - np.sqrt((2 * nu - 1) ** 2 - 8 * ids.astype(np.float64))) / 2
        ).astype(np.int64)
        row_start = u_local * nu - u_local * (u_local + 1) // 2
        fix = row_start > ids
        u_local[fix] -= 1
        row_start = u_local * nu - u_local * (u_local + 1) // 2
        fix = ids - row_start >= (nu - 1 - u_local)
        u_local[fix] += 1
        row_start = u_local * nu - u_local * (u_local + 1) // 2
        v_local = u_local + 1 + (ids - row_start)
    else:
        # Rectangular cell: all nu * nv pairs, u strictly below v already.
        total = nu * nv
        ids = _geometric_ids(rng, p, total)
        if ids.size == 0:
            return np.empty((0, 2), dtype=VERTEX_DTYPE)
        u_local, v_local = np.divmod(ids, nv)
    return np.column_stack([u_local + u_lo, v_local + v_lo]).astype(VERTEX_DTYPE)


def _geometric_ids(rng: np.random.Generator, p: float, total: int) -> np.ndarray:
    """Indices of selected items among ``total``, via geometric gap skipping."""
    if total <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    expected = max(8, int(total * p * 1.2) + 4)
    chosen: list[np.ndarray] = []
    position = -1
    while position < total - 1:
        gaps = rng.geometric(p, size=expected)
        ids = position + np.cumsum(gaps)
        inside = ids < total
        chosen.append(ids[inside])
        if not inside.all():
            break
        position = int(ids[-1])
    return np.concatenate(chosen).astype(np.int64) if chosen else np.empty(0, np.int64)


class DistributedGraphBuilder:
    """Per-rank 2D-layout construction, no global state for Poisson graphs.

    Poisson specs (``kind='poisson'``) are sampled cell by cell with
    independent seeded streams — the scalable path described above.
    R-MAT specs (``kind='rmat'``) have no per-cell decomposition (every
    recursive bit of an edge touches the whole adjacency matrix), so the
    generator materialises the canonical undirected edge list once per
    builder — deterministically, identical to
    :func:`repro.graph.generators.build_graph` — and buckets it into the
    same cell structure.  That keeps the per-rank interface and all
    downstream plumbing identical, at the cost of central generation; a
    truly distributed R-MAT would regenerate the shared stream on every
    rank, which costs the same total work per rank and is left out.
    """

    def __init__(self, spec: GraphSpec, grid: GridShape) -> None:
        self.spec = spec
        self.grid = grid
        self.dist = BlockDistribution(spec.n, grid.size)
        self._rmat_cells: dict[tuple[int, int], np.ndarray] | None = None
        if spec.kind == "rmat":
            self._rmat_cells = self._bucket_rmat_cells(spec)

    def _bucket_rmat_cells(self, spec: GraphSpec) -> dict[tuple[int, int], np.ndarray]:
        """Canonical undirected R-MAT edges, grouped by (bu, bv) cell."""
        rng = RngFactory(spec.seed).named("rmat-graph")
        edges = dedup_undirected_edges(
            rmat_edges(spec.scale, spec.edge_factor, rng, a=spec.a, b=spec.b, c=spec.c)
        )
        # edges ascend in (u, v) order, which a stable sort by cell keeps
        # within each cell
        cell = self.dist.part_of(edges[:, 0]) * self.grid.size + self.dist.part_of(edges[:, 1])
        order = np.argsort(cell, kind="stable")
        edges, cell = edges[order], cell[order]
        cuts = np.flatnonzero(np.diff(cell)) + 1
        bounds = np.concatenate(([0], cuts, [edges.shape[0]]))
        return {
            divmod(int(cell[lo]), self.grid.size): edges[lo:hi]
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
            if hi > lo
        }

    def _cell_edges(self, bu: int, bv: int) -> np.ndarray:
        """Edges {u < v} of one canonical cell, for either graph kind."""
        if self._rmat_cells is not None:
            return self._rmat_cells.get(
                (bu, bv), np.empty((0, 2), dtype=VERTEX_DTYPE)
            )
        return _sample_cell(self.spec, self.dist, bu, bv)

    def cells_for_rank(self, rank: int) -> list[tuple[int, int]]:
        """Canonical cells rank ``(i, j)`` must sample (2P of them at most)."""
        R, C = self.grid.rows, self.grid.cols
        i, j = self.grid.coords_of(rank)
        my_rows = {s * R + i for s in range(C)}  # block rows stored here
        my_cols = set(range(j * R, (j + 1) * R))  # block rows of column chunk j
        cells: set[tuple[int, int]] = set()
        for bu in my_rows:
            for bv in my_cols:
                cells.add((min(bu, bv), max(bu, bv)))
        return sorted(cells)

    def build_rank(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate rank ``(i, j)``'s stored entries ``(rows, cols)`` from its cells."""
        R = self.grid.rows
        i, j = self.grid.coords_of(rank)
        rows_parts = [np.empty(0, dtype=VERTEX_DTYPE)]
        cols_parts = [np.empty(0, dtype=VERTEX_DTYPE)]
        for bu, bv in self.cells_for_rank(rank):
            edges = self._cell_edges(bu, bv)
            u, v = edges[:, 0], edges[:, 1]
            if bu % R == i and bv // R == j:  # orientation (u, v): row u, col v
                rows_parts.append(u)
                cols_parts.append(v)
            if bv % R == i and bu // R == j:  # orientation (v, u): row v, col u
                rows_parts.append(v)
                cols_parts.append(u)
        return np.concatenate(rows_parts), np.concatenate(cols_parts)

    def build_partition(self) -> TwoDPartition:
        """A ready :class:`~repro.partition.two_d.TwoDPartition` built rank
        by rank — the global adjacency is never materialised."""
        rows, cols = zip(*(self.build_rank(rank) for rank in range(self.grid.size)))
        return TwoDPartition.from_entries(
            self.spec.n, self.grid, np.concatenate(rows), np.concatenate(cols)
        )

    def reference_graph(self) -> CsrGraph:
        """The same global graph, assembled centrally from all cells.

        Only feasible at test scale; used to verify that the distributed
        construction reproduces one consistent global edge set.
        """
        blocks = self.grid.size
        parts = [
            self._cell_edges(bu, bv)
            for bu in range(blocks)
            for bv in range(bu, blocks)
        ]
        parts = [p for p in parts if p.size]
        edges = (
            np.concatenate(parts) if parts else np.empty((0, 2), dtype=VERTEX_DTYPE)
        )
        return CsrGraph.from_edges(self.spec.n, edges)
