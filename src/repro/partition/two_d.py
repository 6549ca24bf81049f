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
        _check_entry_key(graph.n, grid)
        self._build(graph.n, grid, graph.indptr, graph.indices)

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
        n = int(n)
        _check_entry_key(n, grid)
        for ids in (rows, cols):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise PartitionError("item ids out of range for this distribution")
        partition = cls.__new__(cls)
        partition._build(n, grid, *_csr_of_entries(n, rows, cols))
        return partition

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, n: int, grid: GridShape, indptr: np.ndarray, cols: np.ndarray) -> None:
        """Build the tables from entries in CSR order.

        Row ``u``'s stored columns are ``cols[indptr[u]:indptr[u+1]]``,
        ascending (other orders are sorted first).  Beside the one sort
        of the entry keys, work and memory are O(entries + n); no
        transient grows with the mesh.
        """
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
        # col j = column chunk of v = blockrow(v) div R.
        block = np.repeat(np.arange(nranks, dtype=np.int64), np.diff(self.dist.offsets))
        mesh_row = block % R
        chunk = (block // R).astype(np.min_scalar_type(C - 1))
        del block
        nnz = cols.size
        # A rank's row slots number its distinct rows, ascending.  Row u is
        # stored by rank (i, j) once for the run of its CSR entries in chunk
        # j, so every (row, chunk) run is one slot, and the runs listed
        # row by row are each rank's slots in order: a stable regroup by
        # rank numbers them (on rank ids of up to 16 bits NumPy's stable
        # argsort is a radix sort), no sort of the entries.
        j = chunk[cols]
        starts = _run_starts(j, indptr)
        if starts is None:  # a row's columns out of order: sort them first
            indptr, cols = _csr_of_entries(n, np.repeat(np.arange(n), np.diff(indptr)), cols)
            j = chunk[cols]
            starts = _run_starts(j, indptr)
        run_row = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(np.searchsorted(starts, indptr))
        )
        run_rank = mesh_row[run_row]
        run_rank *= C
        run_rank += j[starts]
        del j
        order = np.argsort(run_rank.astype(np.min_scalar_type(nranks - 1)), kind="stable")
        self.row_ids = run_row[order]
        del run_row
        counts = np.bincount(run_rank, minlength=nranks)
        del run_rank
        self.row_bounds = np.zeros(nranks + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_bounds[1:])
        local = np.arange(starts.size, dtype=np.int64)
        local -= np.repeat(self.row_bounds[:-1], counts)
        slot = np.empty(local.size, dtype=np.min_scalar_type(n))
        slot[order] = local
        del order, local
        # Ranks are numbered row-major and the column chunks ascend with v,
        # so (rank, column, row) order is (i, v, u) order, and within a
        # rank u's order is its slot's: one in-place sort of
        # (i * n + v) * n + slot - row_bounds[rank].
        key = np.repeat(mesh_row * n, np.diff(indptr))
        key += cols
        del cols
        key *= n
        key += np.repeat(slot, np.diff(starts, append=nnz))
        del slot, starts
        key.sort()
        self.row_slots = key % n
        key //= n
        # (i, v) runs are (rank, column) runs: every non-empty partial edge
        # list starts one
        new = np.empty(nnz, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        del new
        head = key[starts]
        del key
        self.col_ids = head % n
        col_rank = head // n
        del head
        col_rank *= C
        col_rank += chunk[self.col_ids]
        self.col_bounds = np.searchsorted(col_rank, np.arange(nranks + 1))
        self.entry_bounds = np.append(starts, nnz)[self.col_bounds]
        # the rank offsets, repeated per entry in int32 while they fit
        offset_dtype = np.int32 if self.row_bounds[-1] <= np.iinfo(np.int32).max else np.int64
        self.row_slots += np.repeat(
            self.row_bounds[:-1].astype(offset_dtype), np.diff(self.entry_bounds)
        )
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
            dtype=np.int32 if nnz <= np.iinfo(np.int32).max else np.int64,
        )
        indptr[self.col_ids + self._slot_shift[col_rank] + 1] = np.diff(starts, append=nnz)
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


def _check_entry_key(n: int, grid: GridShape) -> None:
    """Refuse a mesh whose ``(i * n + v) * n + slot`` entry key overflows int64."""
    if grid.rows * n * n > np.iinfo(np.int64).max:
        raise PartitionError(f"R * n**2 = {grid.rows * n * n} overflows the int64 entry key")


def _csr_of_entries(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries ``(rows[e], cols[e])`` in CSR order: ``(indptr, cols)``, one
    in-place sort of ``row * n + col`` keys."""
    key = rows * n
    key += cols
    key.sort()
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    key %= n
    return indptr, key


def _run_starts(chunks: np.ndarray, indptr: np.ndarray) -> np.ndarray | None:
    """Where each (row, chunk) run of CSR entries starts, or ``None`` when
    some row's chunks are not ascending."""
    step = np.empty(chunks.size, dtype=bool)
    np.less(chunks[1:], chunks[:-1], out=step[1:])
    row_starts = indptr[:-1][np.diff(indptr) > 0]
    step[row_starts] = False
    if step[1:].any():
        return None
    step[:1] = True
    np.not_equal(chunks[1:], chunks[:-1], out=step[1:])
    step[row_starts] = True
    return np.flatnonzero(step)
