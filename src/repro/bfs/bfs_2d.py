"""Algorithm 2: distributed breadth-first expansion with 2D partitioning.

Each level has two communication steps:

* **expand** (steps 7-11): frontier owners inform their processor-*column*
  peers, which hold the frontier vertices' partial edge lists;
* **fold** (steps 13-18): discovered neighbours travel across the
  processor-*row* to their owners.

Only ``R`` (resp. ``C``) ranks take part in each collective instead of all
``P`` — the paper's key communication-scalability argument.

The level itself is the shared top-down body
(:meth:`~repro.bfs.level_sync.LevelSyncEngine._top_down`); this module
supplies the layout — the expand over processor-columns (per-vertex
expand-target CSR, or a forwarding program), the keyed concatenated
column-CSR lookup, and the processor-rows as fold groups — all batched
NumPy kernels over pooled per-rank state, with per-level cost
proportional to active ranks plus touched data, not to P.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottom_up import bottom_up_level_2d
from repro.bfs.level_sync import LevelSyncEngine
from repro.bfs.options import BfsOptions
from repro.bfs.sent_cache import PooledSentCache
from repro.bfs.sieve import PooledSieve
from repro.collectives.base import get_expand, get_fold
from repro.errors import ConfigurationError
from repro.partition.two_d import TwoDPartition
from repro.runtime.comm import Communicator
from repro.utils.segmented import range_indices, segmented_union


class Bfs2DEngine(LevelSyncEngine):
    """Level-synchronous BFS over a :class:`TwoDPartition` (R x C mesh)."""

    def __init__(
        self,
        partition: TwoDPartition,
        comm: Communicator,
        opts: BfsOptions | None = None,
    ) -> None:
        opts = opts or BfsOptions()
        if comm.nranks != partition.nranks:
            raise ConfigurationError(
                f"communicator has {comm.nranks} ranks but partition has {partition.nranks}"
            )
        if comm.grid != partition.grid:
            raise ConfigurationError(
                f"communicator grid {comm.grid} != partition grid {partition.grid}"
            )
        super().__init__(comm, partition.n, opts)
        self.partition = partition
        self.grid = partition.grid
        shape = opts.collective_shape
        #: the forwarding expand program; ``None`` is the direct expand,
        #: one personalized round built by :meth:`_expand_messages`
        self._expand = (
            None
            if opts.expand_collective == "direct"
            else get_expand(
                opts.expand_collective,
                **({"shape": shape} if opts.expand_collective == "two-phase" else {}),
            )
        )
        self._fold = get_fold(
            opts.fold_collective,
            **({"shape": shape} if opts.fold_collective == "two-phase" else {}),
        )
        self._col_groups = [self.grid.col_members(j) for j in range(self.grid.cols)]
        self._row_groups = [self.grid.row_members(i) for i in range(self.grid.rows)]
        self._fold_groups = self._row_groups
        #: fold buckets within a processor-row are contiguous vertex ranges:
        #: row member m (mesh column m) owns block rows [m*R, (m+1)*R)
        self._member_bounds = partition.dist.offsets[:: self.grid.rows]
        #: per-vertex expand-target CSR (lazy): the column-group peers
        #: holding a non-empty partial edge list for each vertex
        self._etarget_indptr: np.ndarray | None = None
        self._etarget_dst: np.ndarray | None = None
        #: pooled sent-neighbours cache over every rank's row universe
        self._sent_pool = PooledSentCache(
            [partition.local(r).row_map for r in range(partition.nranks)],
            partition.n,
        )
        if opts.use_sieve:
            # Fold candidates only ever travel along processor-rows, so
            # each rank shadows exactly its row peers' owned blocks.
            spans = np.array(
                [
                    partition.local(r).vertex_hi - partition.local(r).vertex_lo
                    for r in range(partition.nranks)
                ],
                dtype=np.int64,
            )
            self._sieve = PooledSieve(self._row_groups, spans, partition.n)
        # Concatenated column-CSR of every rank, keyed by rank * n + column
        # id (ascending: ranks ascend, ids are sorted per rank) — one
        # searchsorted resolves all ranks' partial-edge-list lookups.
        n = partition.n
        key_parts: list[np.ndarray] = []
        start_parts: list[np.ndarray] = []
        stop_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        rows_base = 0
        for r in range(partition.nranks):
            loc = partition.local(r)
            key_parts.append(r * n + loc.col_map.ids)
            indptr = loc.col_indptr.astype(np.int64)
            start_parts.append(indptr[:-1] + rows_base)
            stop_parts.append(indptr[1:] + rows_base)
            row_parts.append(loc.rows)
            rows_base += loc.rows.shape[0]
        self._col_keys = np.concatenate(key_parts)
        self._col_starts = np.concatenate(start_parts)
        self._col_stops = np.concatenate(stop_parts)
        self._rows_cat = np.concatenate(row_parts)
        #: sent-pool slot of every entry of ``_rows_cat``: discovery
        #: dedups and filters in slot space, never on global ids
        self._row_slots = self._sent_pool.entry_slots(row_parts)
        #: pre-routed expand pair population (direct expand only):
        #: every (owner, holder) wire pair any expand round can use, keyed
        #: like the direct step's messages so a searchsorted indexes it
        self._expand_pop_keys: np.ndarray | None = None
        self._expand_population = None
        if self._expand is None and opts.use_expand_filter:
            self._prime_expand_population()

    # ------------------------------------------------------------------ #
    # expand-side lookup structures
    # ------------------------------------------------------------------ #
    def _expand_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex expand destinations as a CSR over global vertex ids.

        ``_etarget_dst[_etarget_indptr[v]:_etarget_indptr[v+1]]`` lists, in
        ascending rank order, the column-group peers of ``v``'s owner that
        hold a non-empty partial edge list for ``v`` (owner excluded) —
        the owner-side knowledge the paper stores (Section 2.2), kept per
        vertex and built once from the keyed column-CSR.  Expand messages
        gather each frontier vertex's targets straight from this table, so
        their per-level cost follows the frontier, not the P x C rank
        pairs.  With ``use_expand_filter`` off the owner knows nothing and
        every vertex lists all ``R - 1`` column peers.
        """
        if self._etarget_indptr is None:
            n = self.n
            nranks = self.comm.nranks
            R, C = self.grid.rows, self.grid.cols
            if not self.opts.use_expand_filter:
                block = self.partition.dist.part_of(np.arange(n, dtype=np.int64))
                peer_row = np.arange(R - 1, dtype=np.int64)
                # rows of the owner's column, skipping the owner's own
                peer_row = peer_row + (peer_row >= (block % R)[:, None])
                self._etarget_indptr = np.arange(n + 1, dtype=np.int64) * (R - 1)
                self._etarget_dst = (peer_row * C + (block // R)[:, None]).ravel()
                return self._etarget_indptr, self._etarget_dst
            rank_bounds = np.searchsorted(
                self._col_keys, np.arange(nranks + 1, dtype=np.int64) * n
            )
            holder = np.repeat(
                np.arange(nranks, dtype=np.int64), np.diff(rank_bounds)
            )
            vertex = self._col_keys - holder * n
            if vertex.size:
                block = self.partition.dist.part_of(vertex)
                owner = (block % R) * C + (block // R)
                keep = holder != owner
                v = vertex[keep]
                d = holder[keep]
                order = np.argsort(v * nranks + d, kind="stable")
                v, d = v[order], d[order]
            else:
                v = vertex
                d = holder
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(v, minlength=n), out=indptr[1:])
            self._etarget_indptr = indptr
            self._etarget_dst = d
        return self._etarget_indptr, self._etarget_dst

    def _prime_expand_population(self) -> None:
        """Route every possible expand wire pair once, at build time.

        A direct-expand message always travels from a vertex's owner to a
        column peer holding a partial edge list for it — exactly the
        rank-level aggregation of the expand-target CSR.  Pre-analysing
        those routes keeps route interning out of the level loop: each
        level indexes the prepared population instead of resolving paths
        for whichever pair subset its frontier activates.
        """
        indptr, target_dst = self._expand_targets()
        if target_dst.size == 0:
            return
        nranks = self.comm.nranks
        R, C = self.grid.rows, self.grid.cols
        v = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(indptr)
        )
        block = self.partition.dist.part_of(v)
        # Same key space as the direct step's messages: owned block (the
        # dense emission order) then destination rank.
        keys = np.unique(block * nranks + target_dst)
        blk = keys // nranks
        src = (blk % R) * C + blk // R
        self._expand_pop_keys = keys
        self._expand_population = self.comm.network.prepare_pairs(
            src, keys % nranks
        )

    # ------------------------------------------------------------------ #
    # layout hooks
    # ------------------------------------------------------------------ #
    def owner_rank(self, vertex: int) -> int:
        return int(self.partition.owner_of(np.array([vertex]))[0])

    def owned_slice(self, rank: int) -> tuple[int, int]:
        loc = self.partition.local(rank)
        return loc.vertex_lo, loc.vertex_hi

    def _fold_member(self, vertices: np.ndarray) -> np.ndarray:
        """Which member of a processor-row owns each vertex."""
        return np.searchsorted(self._member_bounds, vertices, side="right") - 1

    def _expand_level_bottom_up(self) -> tuple[np.ndarray, np.ndarray]:
        return bottom_up_level_2d(self)

    # ------------------------------------------------------------------ #
    # one level (Algorithm 2, steps 7-12): expand and lookup
    # ------------------------------------------------------------------ #
    def _expand_messages(
        self, fflat: np.ndarray, fbounds: np.ndarray, fmasks: np.ndarray | None = None
    ):
        """One expand round's messages for a pooled frontier.

        One gather of the expand-target CSR resolves every frontier
        vertex's destinations; one stable sort puts the entries in the
        lockstep driver's merged outbox order: column groups ascending,
        sources ascending within each group — i.e. ascending owned block
        — then destination, then vertex (the sort is stable, so payloads
        stay ascending).  Returns ``(payload, words, src, dst, bounds,
        population, pop_idx)``: ``payload`` is the vertex payload and
        ``words`` the mask column ``fmasks`` routed alongside it (``None``
        without one), message ``m`` carries entries
        ``bounds[m]:bounds[m+1]`` from ``src[m]`` to ``dst[m]``, and
        ``population`` / ``pop_idx`` index the pre-routed pairs for
        :meth:`~repro.runtime.comm.Communicator.exchange_arrays`.
        """
        nranks = self.comm.nranks
        R, C = self.grid.rows, self.grid.cols
        indptr, target_dst = self._expand_targets()
        starts = indptr[fflat]
        lengths = indptr[fflat + 1] - starts
        gather, _ = range_indices(starts, lengths)
        if gather.size == 0:
            none = np.empty(0, dtype=np.int64)
            words = None if fmasks is None else fmasks[:0]
            return fflat[:0], words, none, none, np.zeros(1, dtype=np.int64), None, None
        entry_src = np.repeat(
            np.repeat(np.arange(nranks, dtype=np.int64), np.diff(fbounds)), lengths
        )
        src_block = (entry_src % C) * R + entry_src // C
        key = src_block * nranks + target_dst[gather]
        order = np.argsort(key, kind="stable")
        skey = key[order]
        cut = np.flatnonzero(skey[1:] != skey[:-1]) + 1
        msg_bounds = np.concatenate(([0], cut, [skey.size]))
        msg_key = skey[msg_bounds[:-1]]
        msg_block = msg_key // nranks
        population = self._expand_population
        pop_idx = (
            np.searchsorted(self._expand_pop_keys, msg_key)
            if population is not None
            else None
        )
        return (
            np.repeat(fflat, lengths)[order],
            None if fmasks is None else np.repeat(fmasks, lengths)[order],
            (msg_block % R) * C + msg_block // R,
            msg_key % nranks,
            msg_bounds,
            population,
            pop_idx,
        )

    def _expand_step(
        self, fflat: np.ndarray, fbounds: np.ndarray, fmasks: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Steps 7-11: every rank's frontier reaches its column peers; F-bar as CSR.

        All processor-columns run in lockstep, so their messages contend
        for the torus in the same simulated round — as they would on the
        real machine.  The direct expand is one batched exchange built
        from :meth:`_expand_messages` (chunks a fault withheld are dropped
        before the merge); a forwarding program runs through the expand
        driver.  Either way the mask column, when there is one, rides
        beside the vertex ids, and one segmented union merges what each
        rank received into its own frontier, OR-ing the masks.
        """
        comm = self.comm
        nranks = comm.nranks
        fsizes = np.diff(fbounds)
        with comm.obs.span("expand", cat="phase"):
            if self._expand is not None:
                payload, inc_bounds, words = self._expand.expand(
                    comm, self._col_groups, fflat, fbounds, "expand", masks=fmasks
                )
                inc_sizes = np.diff(inc_bounds)
                msg_dst, msg_sizes = np.arange(nranks, dtype=np.int64), inc_sizes
            else:
                payload, words, msg_src, msg_dst, msg_bounds, population, pop_idx = (
                    self._expand_messages(fflat, fbounds, fmasks)
                )
                msg_sizes = np.diff(msg_bounds)
                arrived = comm.exchange_arrays(
                    msg_src,
                    msg_dst,
                    payload,
                    msg_bounds[:-1],
                    msg_bounds[1:],
                    "expand",
                    population=population,
                    pop_idx=pop_idx,
                    masks=words,
                )
                if arrived is not None:
                    msg, starts, stops = arrived
                    msg_dst, msg_sizes = msg_dst[msg], stops - starts
                    idx, _ = range_indices(starts, msg_sizes)
                    payload = payload[idx]
                    words = None if words is None else words[idx]
                comm.stats.record_delivery_bulk(msg_dst, msg_sizes, "expand")
                inc_sizes = np.bincount(
                    msg_dst, weights=msg_sizes, minlength=nranks
                ).astype(np.int64)
            comm.charge_compute_many(hash_lookups=inc_sizes)
            with_inc = np.flatnonzero(inc_sizes)
            if with_inc.size == 0:
                return fflat, fbounds, fmasks
            own, _ = range_indices(fbounds[with_inc], fsizes[with_inc])
            segs = np.concatenate(
                (np.repeat(with_inc, fsizes[with_inc]), np.repeat(msg_dst, msg_sizes))
            )
            uniq, ubounds, umasks = segmented_union(
                np.concatenate((fflat[own], payload)), segs, nranks, self.n,
                None if fmasks is None else np.concatenate((fmasks[own], words)),
            )
            # Two-bank merge: ranks with incoming take their union segment,
            # the rest keep their frontier segment — one gather, no per-rank
            # assembly loop.
            has = inc_sizes > 0
            sel_starts = np.where(has, ubounds[:-1], uniq.size + fbounds[:-1])
            sel_sizes = np.where(has, np.diff(ubounds), fsizes)
            idx, out_bounds = range_indices(sel_starts, sel_sizes)
            out_masks = None if fmasks is None else np.concatenate((umasks, fmasks))[idx]
            return np.concatenate((uniq, fflat))[idx], out_bounds, out_masks

    def _gather_slots(
        self, fbar_flat: np.ndarray, fbar_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step 12's lookup: the partial edge lists of F-bar, as pool slots.

        One keyed lookup into the concatenated column-CSR resolves every
        rank's partial edge lists; one gather reads their entries' slots.
        Each rank is charged its edge count in scans, and that plus one
        keyed probe per F-bar vertex in hash lookups.  Returns ``(slots,
        lengths)``: ``lengths`` is how many of ``slots`` each F-bar entry
        contributed — zero where this rank holds no partial list for it.
        """
        nranks = self.comm.nranks
        fbar_sizes = np.diff(fbar_bounds)
        qkeys = np.repeat(np.arange(nranks, dtype=np.int64), fbar_sizes) * self.n
        qkeys += fbar_flat
        if self._col_keys.size:
            pos = np.searchsorted(self._col_keys, qkeys)
            np.minimum(pos, self._col_keys.size - 1, out=pos)
            starts = self._col_starts[pos]
            lengths = np.where(
                self._col_keys[pos] == qkeys, self._col_stops[pos] - starts, 0
            )
        else:  # no rank stores an edge
            starts = lengths = np.zeros(qkeys.size, dtype=np.int64)
        gather, out_offsets = range_indices(starts, lengths)
        # Per-rank edge counts: the running sum of lengths cut at the
        # F-bar's rank bounds.
        edges = np.diff(out_offsets[fbar_bounds])
        self.comm.charge_compute_many(
            edges_scanned=edges, hash_lookups=edges + fbar_sizes
        )
        return self._row_slots[gather], lengths
