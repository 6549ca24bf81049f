"""Algorithm 1: distributed breadth-first expansion with 1D partitioning.

Every rank owns a contiguous vertex block with full edge lists.  Each
level: merge the edge lists of the local frontier, send every discovered
neighbour to its owner (the fold — the only communication step of the 1D
algorithm), and label the freshly received vertices.  All ``P`` ranks take
part in the fold collective, which is exactly the scalability weakness the
2D layout attacks.

The level itself is the shared top-down body
(:meth:`~repro.bfs.level_sync.LevelSyncEngine._top_down`); this module
supplies the layout: no expand peers, one fold group spanning the
machine, block owners as fold destinations, and one gather over the
concatenated per-rank CSR as the edge-list lookup — per-level cost
proportional to the touched data, not to P.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottom_up import bottom_up_level_1d
from repro.bfs.level_sync import LevelSyncEngine
from repro.bfs.options import BfsOptions
from repro.bfs.sent_cache import PooledSentCache
from repro.bfs.sieve import PooledSieve
from repro.collectives.base import get_fold
from repro.errors import ConfigurationError
from repro.partition.indexing import VertexIndexMap
from repro.partition.one_d import OneDPartition
from repro.runtime.comm import Communicator
from repro.types import VERTEX_DTYPE
from repro.utils.segmented import range_indices


class Bfs1DEngine(LevelSyncEngine):
    """Level-synchronous BFS over a :class:`OneDPartition`."""

    def __init__(
        self,
        partition: OneDPartition,
        comm: Communicator,
        opts: BfsOptions | None = None,
    ) -> None:
        opts = opts or BfsOptions()
        if comm.nranks != partition.nranks:
            raise ConfigurationError(
                f"communicator has {comm.nranks} ranks but partition has {partition.nranks}"
            )
        super().__init__(comm, partition.n, opts)
        self.partition = partition
        shape_kwargs = (
            {"shape": opts.collective_shape} if opts.fold_collective == "two-phase" else {}
        )
        self._fold = get_fold(opts.fold_collective, **shape_kwargs)
        self._fold_groups = [list(range(partition.nranks))]
        # Sent-neighbours universe: unique vertices in each rank's edge
        # lists, pooled into one flat bitset shared by every search.
        self._sent_universe = [
            VertexIndexMap(np.unique(partition.local(r).adjacency))
            for r in range(partition.nranks)
        ]
        self._sent_pool = PooledSentCache(self._sent_universe, partition.n)
        if opts.use_sieve:
            # The 1D fold spans the whole machine, so every rank shadows
            # every other rank's owned block.
            self._sieve = PooledSieve(
                self._fold_groups, np.diff(partition.dist.offsets), partition.n
            )
        # Concatenated CSR over every rank's local block (the blocks tile
        # [0, n) in rank order, so this is the global CSR re-assembled) —
        # one gather expands all P frontiers at once.
        cat_indptr = np.zeros(partition.n + 1, dtype=np.int64)
        adjacency_parts: list[np.ndarray] = []
        edge_base = 0
        for r in range(partition.nranks):
            loc = partition.local(r)
            cat_indptr[loc.vertex_lo + 1 : loc.vertex_hi + 1] = (
                loc.indptr[1:].astype(np.int64) + edge_base
            )
            adjacency_parts.append(loc.adjacency)
            edge_base += loc.adjacency.shape[0]
        self._cat_indptr = cat_indptr
        self._cat_adjacency = (
            np.concatenate(adjacency_parts)
            if adjacency_parts
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        #: sent-pool slot of every entry of ``_cat_adjacency``: discovery
        #: dedups and filters in slot space, never on global ids
        self._adjacency_slots = self._sent_pool.entry_slots(adjacency_parts)

    # ------------------------------------------------------------------ #
    # layout hooks
    # ------------------------------------------------------------------ #
    def owner_rank(self, vertex: int) -> int:
        return self.partition.dist.part_of_scalar(vertex)

    def owned_slice(self, rank: int) -> tuple[int, int]:
        return self.partition.dist.range_of(rank)

    def _fold_member(self, vertices: np.ndarray) -> np.ndarray:
        # the 1D fold spans the machine: the block owner, whoever sends
        return np.searchsorted(self.partition.dist.offsets, vertices, side="right") - 1

    def _expand_level_bottom_up(self) -> tuple[np.ndarray, np.ndarray]:
        return bottom_up_level_1d(self)

    def _gather_slots(
        self, frontier_flat: np.ndarray, frontier_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Steps 7-10's lookup: the frontiers' edge lists, as pool slots.

        One CSR gather over the concatenated frontiers, charged to each
        rank as its edge count (the running sum of lengths cut at the
        frontier's rank bounds) in scans and hash probes.  Returns
        ``(slots, lengths)``: ``lengths`` is each frontier vertex's
        degree — how many of ``slots`` it contributed.
        """
        starts = self._cat_indptr[frontier_flat]
        lengths = self._cat_indptr[frontier_flat + 1] - starts
        gather, out_offsets = range_indices(starts, lengths)
        edges = np.diff(out_offsets[frontier_bounds])
        self.comm.charge_compute_many(edges_scanned=edges, hash_lookups=edges)
        return self._adjacency_slots[gather], lengths
