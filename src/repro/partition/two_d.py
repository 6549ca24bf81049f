"""2D (edge) partitioning — the paper's contribution (Section 2.2).

The ``P = R * C`` ranks form an ``R x C`` logical mesh.  The adjacency
matrix is divided into ``R * C`` block rows and ``C`` block columns; rank
``(i, j)`` owns the ``C`` blocks ``A^(s)_{i,j}`` — the matrix entries whose
row falls in block row ``s*R + i`` (any ``s``) and whose column falls in
column chunk ``j``.  Rank ``(i, j)`` *owns* the vertices of block row
``j*R + i``.

A vertex's edge list is a *column* of the adjacency matrix, so the partial
edge lists of a vertex owned by rank ``(i, j)`` live on the ranks of
processor-column ``j`` — which is why the *expand* runs down processor
columns.  The neighbours a rank discovers fall in its stored block rows,
whose owners all sit in processor-row ``i`` — which is why the *fold* runs
across processor rows.

Every rank's storage lives in one set of pooled tables, built once from
one sort of the stored entries by (rank, column, row); a rank's
:class:`RankLocal2D` is a view sliced from them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CsrGraph
from repro.partition.base import BlockDistribution, Partition
from repro.partition.indexing import VertexIndexMap
from repro.types import VERTEX_DTYPE, GridShape, as_vertex_array


@dataclass(frozen=True, slots=True)
class RankLocal2D:
    """One rank's view of the pooled 2D storage.

    The stored blocks are kept as *column edge lists* in CSR-of-columns
    form: ``col_map.ids[c]`` is a global vertex id with a non-empty partial
    edge list on this rank, and ``rows[col_indptr[c]:col_indptr[c+1]]`` are
    the (global) row ids adjacent to it here.  Only non-empty columns are
    indexed — the Section 2.4.1 memory optimisation that keeps storage
    O(n/P) in expectation.  ``rows`` and ``row_map.ids`` are slices of the
    partition's pooled arrays; ``col_map`` and ``col_indptr`` are read off
    its column keys and direct index.
    """

    rank: int
    mesh_row: int
    mesh_col: int
    vertex_lo: int
    vertex_hi: int
    col_map: VertexIndexMap
    col_indptr: np.ndarray
    rows: np.ndarray
    row_map: VertexIndexMap

    @property
    def num_owned(self) -> int:
        """Number of vertices owned by this rank."""
        return self.vertex_hi - self.vertex_lo

    @property
    def num_stored_entries(self) -> int:
        """Number of adjacency-matrix entries stored on this rank."""
        return int(self.rows.shape[0])

    def partial_neighbors(self, frontier_global: np.ndarray) -> np.ndarray:
        """Merge the stored partial edge lists of the given frontier vertices.

        ``frontier_global`` is the column-expanded frontier ``F-bar``
        (Algorithm 2, step 12); vertices without a partial list here are
        skipped.  Returns global row ids, duplicates included.
        """
        frontier_global = as_vertex_array(frontier_global)
        if frontier_global.size == 0:
            return np.empty(0, dtype=VERTEX_DTYPE)
        _, local_cols = self.col_map.to_local_partial(frontier_global)
        if local_cols.size == 0:
            return np.empty(0, dtype=VERTEX_DTYPE)
        starts = self.col_indptr[local_cols]
        stops = self.col_indptr[local_cols + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=VERTEX_DTYPE)
        out_offsets = np.concatenate(([0], np.cumsum(lengths)))
        gather = np.arange(total, dtype=VERTEX_DTYPE)
        gather += np.repeat(starts - out_offsets[:-1], lengths)
        return self.rows[gather]


class TwoDPartition(Partition):
    """An ``R x C`` 2D edge partitioning of an undirected graph.

    The stored entries of all ranks are held once, pooled in rank order
    (rank ``r``'s part of a pooled array is cut by the matching
    ``*_bounds[r]:*_bounds[r+1]``):

    * ``rows`` — every stored entry's row id, in (rank, column, row)
      order; ``entry_bounds`` cuts it per rank;
    * ``col_keys`` — ``rank * n + id`` of every non-empty partial edge
      list, ascending; ``col_bounds`` cuts it per rank;
    * ``slot_shift`` / ``slot_indptr`` — the direct index: rank ``r``'s
      partial edge list of vertex ``v`` (in its column chunk) is
      ``rows[slot_indptr[s]:slot_indptr[s+1]]`` with ``s = slot_shift[r]
      + v``, the ranks' chunks back to back, ``R * n`` slots in all
      (int32 unless the entries overflow it);
    * ``row_ids`` — each rank's sorted distinct row ids (its
      sent-neighbours universe, Section 2.4.3), cut by ``row_bounds``;
      ``row_slots`` is every entry's index into it;
    * ``owned_lo`` / ``owned_hi`` — rank ``(i, j)`` owns block row
      ``j * R + i``: vertices ``[owned_lo[r], owned_hi[r])``.
    """

    def __init__(self, graph: CsrGraph, grid: GridShape) -> None:
        rows = np.repeat(np.arange(graph.n, dtype=VERTEX_DTYPE), np.diff(graph.indptr))
        self._build(graph.n, grid, rows, graph.indices)

    @classmethod
    def from_entries(cls, n: int, grid: GridShape, rows, cols) -> "TwoDPartition":
        """A partition of the stored entries ``A[rows[e], cols[e]]``, in any order.

        Each entry's rank follows from its row and column, so the entries
        of every rank can be supplied together: the distributed generator
        (:class:`repro.graph.distributed_gen.DistributedGraphBuilder`)
        passes each rank's blocks without materialising the global graph.
        Raises :class:`PartitionError` on an id outside ``[0, n)``.
        """
        rows, cols = as_vertex_array(rows), as_vertex_array(cols)
        if rows.shape != cols.shape:
            raise PartitionError(f"{rows.size} row ids for {cols.size} column ids")
        partition = cls.__new__(cls)
        partition._build(n, grid, rows, cols)
        return partition

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, n: int, grid: GridShape, rows: np.ndarray, cols: np.ndarray) -> None:
        self.n = n = int(n)
        self.grid = grid
        #: block-row distribution: n vertices over R*C contiguous block rows
        self.dist = BlockDistribution(n, grid.size)
        R, C, nranks = grid.rows, grid.cols, grid.size
        ranks = np.arange(nranks, dtype=np.int64)
        own_block = (ranks % C) * R + ranks // C
        self.owned_lo = self.dist.offsets[own_block]
        self.owned_hi = self.dist.offsets[own_block + 1]
        # Owning rank of entry (u, v): mesh row i = blockrow(u) mod R, mesh
        # col j = column chunk of v = blockrow(v) div R.  Ranks are numbered
        # row-major and the column chunks ascend with v, so (rank, column,
        # row) order is (i, v, u) order: one sort of (i * n + v) * n + u.
        if R * n * n > np.iinfo(np.int64).max:
            raise PartitionError(f"R * n**2 = {R * n * n} overflows the int64 entry key")
        mesh_row = self.dist.part_of(rows) % R
        order = np.argsort((mesh_row * n + cols) * n + rows)
        rank = (mesh_row * C + self.dist.part_of(cols) // R)[order]
        rows = rows[order]
        col_key = rank * n + cols[order]
        # Entry-sized temporaries are dropped once used: they, not the
        # tables kept, set the build's peak memory.
        del order, mesh_row
        self.rows = rows
        self.entry_bounds = np.searchsorted(rank, np.arange(nranks + 1))
        # cols are sorted per rank, so the distinct column keys and their
        # list lengths fall out of the run boundaries
        key_bounds = np.arange(nranks + 1, dtype=np.int64) * n
        starts = np.flatnonzero(np.diff(col_key, prepend=-1))
        self.col_keys = col_key[starts]
        self.col_bounds = np.searchsorted(self.col_keys, key_bounds)
        col_rank = rank[starts]
        # Slots of the row universe are ordered by (rank, vertex), so every
        # entry's slot is the rank of its rank * n + row key among the
        # distinct keys.
        row_key = rank * n + rows
        del rank, col_key
        row_keys, self.row_slots = np.unique(row_key, return_inverse=True)
        del row_key
        self.row_bounds = np.searchsorted(row_keys, key_bounds)
        self.row_ids = row_keys - np.repeat(key_bounds[:-1], np.diff(self.row_bounds))
        # Rank (i, j) stores partial edge lists only for column chunk j,
        # whose span is that of mesh column j's R block rows.
        member_bounds = self.dist.offsets[::R]
        chunk_spans = np.diff(member_bounds)[ranks % C]
        self.slot_shift = np.cumsum(chunk_spans) - chunk_spans - member_bounds[ranks % C]
        # Built in place, in int32 unless the stored entries overflow it:
        # no int64 copy of an R * n table.
        indptr = np.zeros(
            R * n + 1, dtype=np.int32 if rows.size <= np.iinfo(np.int32).max else np.int64
        )
        indptr[self.col_keys - col_rank * n + self.slot_shift[col_rank] + 1] = np.diff(
            np.append(starts, rows.size)
        )
        np.cumsum(indptr, dtype=indptr.dtype, out=indptr)
        self.slot_indptr = indptr

    # ------------------------------------------------------------------ #
    # ownership
    # ------------------------------------------------------------------ #
    def owner_of(self, vertices) -> np.ndarray:
        """Mesh owner of each vertex: block row ``g`` maps to rank ``(g % R, g // R)``."""
        R, C = self.grid.rows, self.grid.cols
        g = self.dist.part_of(vertices)
        return (g % R) * C + (g // R)

    def owned_vertices(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return np.arange(self.owned_lo[rank], self.owned_hi[rank], dtype=VERTEX_DTYPE)

    def column_chunk_range(self, mesh_col: int) -> tuple[int, int]:
        """Global vertex range whose edge lists live on processor-column ``mesh_col``."""
        R = self.grid.rows
        if not (0 <= mesh_col < self.grid.cols):
            raise PartitionError(f"mesh column {mesh_col} out of range")
        lo = int(self.dist.offsets[mesh_col * R])
        hi = int(self.dist.offsets[(mesh_col + 1) * R])
        return lo, hi

    def local(self, rank: int) -> RankLocal2D:
        """Rank ``rank``'s view of the pooled storage, built on demand."""
        self._check_rank(rank)
        lo, hi = self.entry_bounds[rank], self.entry_bounds[rank + 1]
        col_ids = self.col_keys[self.col_bounds[rank] : self.col_bounds[rank + 1]]
        col_ids = col_ids - rank * self.n
        col_indptr = np.append(self.slot_indptr[self.slot_shift[rank] + col_ids], hi) - lo
        i, j = self.grid.coords_of(rank)
        return RankLocal2D(
            rank=rank,
            mesh_row=i,
            mesh_col=j,
            vertex_lo=int(self.owned_lo[rank]),
            vertex_hi=int(self.owned_hi[rank]),
            col_map=VertexIndexMap.of_sorted(col_ids),
            col_indptr=col_indptr.astype(VERTEX_DTYPE),
            rows=self.rows[lo:hi],
            row_map=VertexIndexMap.of_sorted(
                self.row_ids[self.row_bounds[rank] : self.row_bounds[rank + 1]]
            ),
        )

    def memory_footprints(self) -> dict[str, np.ndarray]:
        return {
            "owned_vertices": self.owned_hi - self.owned_lo,
            "edge_entries": np.diff(self.entry_bounds),
            "nonempty_columns": np.diff(self.col_bounds),
            "unique_row_vertices": np.diff(self.row_bounds),
        }
