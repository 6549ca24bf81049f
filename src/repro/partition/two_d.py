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
one sort of the stored entries by (rank, column, row); the simulated
engine and each SPMD worker read a rank's part of them in place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CsrGraph
from repro.partition.base import BlockDistribution
from repro.types import VERTEX_DTYPE, GridShape, as_vertex_array


class TwoDPartition:
    """An ``R x C`` 2D edge partitioning of an undirected graph.

    The stored entries of all ranks are held once, pooled in rank order
    (rank ``r``'s part of a pooled array is cut by the matching
    ``*_bounds[r]:*_bounds[r+1]``), one id per entry (Section 2.4.2):

    * ``row_ids`` — each rank's sorted distinct row ids (its
      sent-neighbours universe, Section 2.4.3), cut by ``row_bounds``;
    * ``row_slots`` — every stored entry, as its slot in ``row_ids``, in
      (rank, column, row) order; ``entry_bounds`` cuts it per rank, and
      entry ``e``'s row id is ``row_ids[row_slots[e]]``;
    * ``col_ids`` — the vertex id of every non-empty partial edge list,
      ascending within each rank; ``col_bounds`` cuts it per rank;
    * ``owned_lo`` / ``owned_hi`` — rank ``(i, j)`` owns block row
      ``j * R + i``: vertices ``[owned_lo[r], owned_hi[r])``.

    A rank's partial edge lists are found by :meth:`stored_lists`, the one
    reader of the index behind it.
    """

    def __init__(self, graph: CsrGraph, grid: GridShape) -> None:
        self._build(
            graph.n,
            grid,
            np.repeat(np.arange(graph.n, dtype=VERTEX_DTYPE), np.diff(graph.indptr)),
            graph.indices,
        )

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
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise PartitionError("item ids out of range for this distribution")
        # The key is built, sorted and decoded in one array: entry-sized
        # temporaries, not the tables kept, set the build's peak memory.
        key = self.dist.part_of(rows)
        key %= R
        key *= n
        key += cols
        key *= n
        key += rows
        del rows, cols
        key.sort()
        rows = key % n
        key //= n
        # (i, v) runs are (rank, column) runs: every non-empty partial edge
        # list starts one
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        cols = key % n
        key //= n
        # what is left of the key is the mesh row: turned into the rank in place
        rank = key
        rank *= C
        chunk = self.dist.part_of(cols)
        chunk //= R
        rank += chunk
        del chunk
        self.entry_bounds = np.searchsorted(rank, np.arange(nranks + 1))
        col_rank, self.col_ids = rank[starts], cols[starts]
        del cols
        self.col_bounds = np.searchsorted(col_rank, np.arange(nranks + 1))
        # Slots of the row universe are ordered by (rank, vertex), so every
        # entry's slot is the rank of its rank * n + row key among the
        # distinct keys.
        rank *= n
        rank += rows
        row_keys, self.row_slots = np.unique(rank, return_inverse=True)
        del rank, key, rows
        key_bounds = np.arange(nranks + 1, dtype=np.int64) * n
        self.row_bounds = np.searchsorted(row_keys, key_bounds)
        self.row_ids = row_keys - np.repeat(key_bounds[:-1], np.diff(self.row_bounds))
        # The direct index: rank (i, j) stores partial edge lists only for
        # column chunk j, whose span is that of mesh column j's R block
        # rows, so rank r's list of v is slot ``_slot_shift[r] + v`` of the
        # CSR ``_slot_indptr`` into ``row_slots``, the ranks' chunks back to
        # back, R * n slots in all.
        member_bounds = self.dist.offsets[::R]
        chunk_spans = np.diff(member_bounds)[ranks % C]
        self._slot_shift = np.cumsum(chunk_spans) - chunk_spans - member_bounds[ranks % C]
        # Built in place, in int32 unless the stored entries overflow it:
        # no int64 copy of an R * n table.
        indptr = np.zeros(
            R * n + 1,
            dtype=np.int32 if self.row_slots.size <= np.iinfo(np.int32).max else np.int64,
        )
        indptr[self.col_ids + self._slot_shift[col_rank] + 1] = np.diff(
            np.append(starts, self.row_slots.size)
        )
        np.cumsum(indptr, dtype=indptr.dtype, out=indptr)
        self._slot_indptr = indptr

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def stored_lists(self, vertices, ranks) -> tuple[np.ndarray, np.ndarray]:
        """Where each rank's partial edge list of each vertex lies in ``row_slots``.

        ``ranks`` is one rank per vertex, or one rank for all of them, and
        every vertex must lie in its rank's column chunk.  Returns
        ``(starts, lengths)``: the list of ``vertices[k]`` is
        ``row_slots[starts[k] : starts[k] + lengths[k]]``, of length zero
        where the rank stores none.  A direct index, no search.
        """
        slot = self._slot_shift[ranks] + vertices
        starts = self._slot_indptr[slot]
        return starts, self._slot_indptr[1:][slot] - starts

    # ------------------------------------------------------------------ #
    # ownership
    # ------------------------------------------------------------------ #
    def owner_of(self, vertices) -> np.ndarray:
        """Mesh owner of each vertex: block row ``g`` maps to rank ``(g % R, g // R)``."""
        R, C = self.grid.rows, self.grid.cols
        g = self.dist.part_of(vertices)
        return (g % R) * C + (g // R)

    @property
    def nranks(self) -> int:
        """Total number of ranks ``P``."""
        return self.grid.size

    def memory_footprints(self) -> dict[str, np.ndarray]:
        """Per-structure element counts of every rank, one array per structure
        (Section 2.4.1's O(n/P) storage)."""
        return {
            "owned_vertices": self.owned_hi - self.owned_lo,
            "edge_entries": np.diff(self.entry_bounds),
            "nonempty_columns": np.diff(self.col_bounds),
            "unique_row_vertices": np.diff(self.row_bounds),
        }
