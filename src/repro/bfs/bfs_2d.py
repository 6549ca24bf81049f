"""Algorithm 2: distributed breadth-first expansion with 2D partitioning.

Each level has two communication steps:

* **expand** (steps 7-11): frontier owners inform their processor-*column*
  peers, which hold the frontier vertices' partial edge lists;
* **fold** (steps 13-18): discovered neighbours travel across the
  processor-*row* to their owners.

Only ``R`` (resp. ``C``) ranks take part in each collective instead of all
``P`` — the paper's key communication-scalability argument.

All per-rank work of a level runs as batched NumPy kernels over the
pooled per-rank CSR state (frontier pool, per-vertex expand-target CSR,
keyed concatenated column-CSR, pooled sent cache, the fold's CSR driver)
— numerically identical to iterating the P virtual ranks in Python, but
with per-level cost proportional to active ranks plus touched data, not
to P.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottom_up import bottom_up_level_2d
from repro.bfs.level_sync import LevelSyncEngine
from repro.bfs.options import BfsOptions
from repro.bfs.sent_cache import PooledSentCache, SentCache
from repro.bfs.sieve import PooledSieve
from repro.collectives.base import get_expand, get_fold
from repro.errors import ConfigurationError
from repro.partition.two_d import TwoDPartition
from repro.runtime.comm import Communicator
from repro.types import VERTEX_DTYPE
from repro.utils.segmented import gather_segments, segmented_unique


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
        self._expand = get_expand(
            opts.expand_collective,
            **({"shape": shape} if opts.expand_collective == "two-phase" else {}),
        )
        self._fold = get_fold(
            opts.fold_collective,
            **({"shape": shape} if opts.fold_collective == "two-phase" else {}),
        )
        self._col_groups = [self.grid.col_members(j) for j in range(self.grid.cols)]
        self._row_groups = [self.grid.row_members(i) for i in range(self.grid.rows)]
        # Pair-keyed expand filters are only needed by MS-BFS — built
        # lazily, because the eager build is O(C^3) in group size.
        self._expand_filters_cache: dict[tuple[int, int], np.ndarray] | None = None
        self._expand_filter_cat_cache: (
            dict[int, tuple[list[int], np.ndarray, np.ndarray]] | None
        ) = None
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
            if not self._fold.supports_csr:
                raise ConfigurationError(
                    "the communication sieve requires a CSR-capable fold "
                    f"collective (union-ring), not {opts.fold_collective!r}"
                )
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
        #: pre-routed expand pair population (direct fast path only):
        #: every (owner, holder) wire pair any expand round can use, keyed
        #: like the direct step's messages so a searchsorted indexes it
        self._expand_pop_keys: np.ndarray | None = None
        self._expand_population = None
        if self._expand.name == "direct" and opts.use_expand_filter:
            self._prime_expand_population()

    # ------------------------------------------------------------------ #
    # expand-side lookup structures
    # ------------------------------------------------------------------ #
    @property
    def _expand_filters(self) -> dict[tuple[int, int], np.ndarray] | None:
        """Owner-side knowledge of peers' non-empty partial edge lists.

        ``filters[(src, dst)]`` is the sorted array of ``src``-owned
        vertices for which column peer ``dst`` holds a non-empty partial
        edge list.  The paper stores exactly this (Section 2.2): storage is
        proportional to the number of owned vertices, hence scalable.
        """
        if not self.opts.use_expand_filter:
            return None
        if self._expand_filters_cache is None:
            self._expand_filters_cache = self._build_expand_filters()
        return self._expand_filters_cache

    @property
    def _expand_filter_cat(
        self,
    ) -> dict[int, tuple[list[int], np.ndarray, np.ndarray]] | None:
        """Per-source concatenation of the expand filters (lazy)."""
        if not self.opts.use_expand_filter:
            return None
        if self._expand_filter_cat_cache is None:
            self._expand_filter_cat_cache = self._build_expand_filter_cat()
        return self._expand_filter_cat_cache

    def _build_expand_filters(self) -> dict[tuple[int, int], np.ndarray]:
        filters: dict[tuple[int, int], np.ndarray] = {}
        for group in self._col_groups:
            # One searchsorted of each dst's column ids against all the
            # group's owned ranges replaces a probe per (src, dst) pair.
            los = np.array(
                [self.partition.local(src).vertex_lo for src in group],
                dtype=np.int64,
            )
            his = np.array(
                [self.partition.local(src).vertex_hi for src in group],
                dtype=np.int64,
            )
            for dst in group:
                ids = self.partition.local(dst).col_map.ids
                b_lo = np.searchsorted(ids, los)
                b_hi = np.searchsorted(ids, his)
                for k, src in enumerate(group):
                    if src != dst:
                        filters[(src, dst)] = ids[b_lo[k] : b_hi[k]]
        return filters

    def _build_expand_filter_cat(
        self,
    ) -> dict[int, tuple[list[int], np.ndarray, np.ndarray]]:
        """Per-source concatenation of the expand filters.

        One membership test of the concatenated filters against the
        source's frontier replaces one test per (src, dst) pair; the
        per-destination results are slices of the concatenation.
        """
        filters = self._expand_filters
        cat: dict[int, tuple[list[int], np.ndarray, np.ndarray]] = {}
        for group in self._col_groups:
            for src in group:
                dsts = [d for d in group if d != src]
                segs = [filters[(src, d)] for d in dsts]
                sizes = np.array([s.size for s in segs], dtype=np.int64)
                bounds = np.concatenate(([0], np.cumsum(sizes)))
                merged = (
                    np.concatenate(segs) if segs else np.empty(0, dtype=VERTEX_DTYPE)
                )
                cat[src] = (dsts, merged, bounds)
        return cat

    def _expand_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex expand destinations as a CSR over global vertex ids.

        ``_etarget_dst[_etarget_indptr[v]:_etarget_indptr[v+1]]`` lists, in
        ascending rank order, the column-group peers of ``v``'s owner that
        hold a non-empty partial edge list for ``v`` (owner excluded) —
        the transpose of the pair-keyed expand filters, built once from
        the keyed column-CSR.  The direct expand gathers each frontier
        vertex's targets straight from this table, so its per-level cost
        follows the frontier, not the P x C filter pairs.
        """
        if self._etarget_indptr is None:
            n = self.n
            nranks = self.comm.nranks
            R, C = self.grid.rows, self.grid.cols
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

    @property
    def _sent_caches(self) -> list[SentCache]:
        """Per-rank views of the pooled sent cache (compat accessor)."""
        return [self._sent_pool.view(r) for r in range(self.comm.nranks)]

    def _reset_layout_state(self) -> None:
        self._sent_pool.reset()
        if self._sieve is not None:
            self._sieve.reset()

    def _snapshot_layout_state(self):
        if self._sieve is not None:
            return self._sent_pool.snapshot(), self._sieve.snapshot()
        return self._sent_pool.snapshot()

    def _restore_layout_state(self, snapshot) -> None:
        if self._sieve is not None:
            sent, shadows = snapshot
            self._sent_pool.restore(sent)
            self._sieve.restore(shadows)
        else:
            self._sent_pool.restore(snapshot)

    def _layout_checkpoint_nbytes(self) -> np.ndarray:
        # the sent-neighbours cache travels in the buddy checkpoint as a
        # bitset over each rank's sent universe (plus the sieve's shadow
        # bitsets when it is enabled)
        nbytes = self._sent_pool.checkpoint_nbytes()
        if self._sieve is not None:
            nbytes = nbytes + self._sieve.checkpoint_nbytes()
        return nbytes

    def _expand_level_bottom_up(self) -> tuple[np.ndarray, np.ndarray]:
        return bottom_up_level_2d(self)

    # ------------------------------------------------------------------ #
    # one level (Algorithm 2, steps 7-21)
    # ------------------------------------------------------------------ #
    def _expand_level(self) -> tuple[np.ndarray, np.ndarray]:
        obs = self.comm.obs
        with obs.span("expand", cat="phase"):
            if self._expand.name == "direct" and self.opts.use_expand_filter:
                fbar_flat, fbar_bounds = self._expand_step_direct()
            else:
                fbar_flat, fbar_bounds = self._expand_step()
        with obs.span("compute", cat="phase"):
            send_flat, send_bounds = self._discover_step(fbar_flat, fbar_bounds)
        with obs.span("fold", cat="phase"):
            fresh = self._fold_step(send_flat, send_bounds)
        if self._sieve is not None:
            self._sieve_update(*fresh)
        return fresh

    def _expand_step(self) -> tuple[np.ndarray, np.ndarray]:
        """Steps 7-11 via the collective machinery; returns F-bar as CSR.

        All processor-columns run their collective rounds in lockstep
        (``expand_many``), so their messages contend for the torus in the
        same simulated round — as they would on the real machine.  This
        serves the forwarding collectives and the unfiltered direct expand;
        the filtered direct expand takes :meth:`_expand_step_direct`.
        """
        frontier = self.frontier
        contributions_per_group = [
            [frontier[rank] for rank in group] for group in self._col_groups
        ]
        received_per_group = self._expand.expand_many(
            self.comm,
            self._col_groups,
            contributions_per_group,
            phase="expand",
        )
        nranks = self.comm.nranks
        fbar: list[np.ndarray] = [None] * nranks  # type: ignore[list-item]
        inc_sizes = np.zeros(nranks, dtype=np.int64)
        parts: list[np.ndarray] = []
        part_segs: list[int] = []
        for group, received in zip(self._col_groups, received_per_group):
            for idx, rank in enumerate(group):
                incoming = sum(int(a.size) for a in received[idx])
                inc_sizes[rank] = incoming
                if incoming:
                    parts.append(frontier[rank])
                    part_segs.append(rank)
                    for a in received[idx]:
                        if a.size:
                            parts.append(a)
                            part_segs.append(rank)
                else:
                    fbar[rank] = frontier[rank]
        self.comm.charge_compute_many(hash_lookups=inc_sizes)
        if parts:
            values = np.concatenate(parts)
            segs = np.repeat(
                np.array(part_segs, dtype=np.int64),
                np.array([p.size for p in parts], dtype=np.int64),
            )
            flat, bounds, _, _ = segmented_unique(values, segs, nranks, self.n)
            for rank in range(nranks):
                if fbar[rank] is None:
                    fbar[rank] = flat[bounds[rank] : bounds[rank + 1]]
        sizes = np.array([f.size for f in fbar], dtype=np.int64)
        return (
            np.concatenate(fbar) if fbar else np.empty(0, dtype=VERTEX_DTYPE),
            np.concatenate(([0], np.cumsum(sizes))),
        )

    def _expand_step_direct(self) -> tuple[np.ndarray, np.ndarray]:
        """The filtered single-round expand as one batched exchange.

        Equivalent to ``DirectExpand.expand_many`` with the per-destination
        filters, but built straight from the per-vertex expand-target CSR:
        one gather resolves every frontier vertex's destinations, one
        stable sort produces the messages in the lockstep driver's merged
        outbox order (column groups ascending — which is ascending owned
        block, then destination, then vertex), one array exchange, one
        segmented union for the per-rank merges.  Chunks a fault withheld
        are dropped before the merge.
        """
        nranks = self.comm.nranks
        R, C = self.grid.rows, self.grid.cols
        fflat = self._frontier_flat
        fbounds = self._frontier_bounds
        fsizes = np.diff(fbounds)
        indptr, target_dst = self._expand_targets()
        starts = indptr[fflat]
        lengths = indptr[fflat + 1] - starts
        total = int(lengths.sum())
        if total:
            out_offsets = np.concatenate(([0], np.cumsum(lengths)))
            gather = np.arange(total, dtype=np.int64)
            gather += np.repeat(starts - out_offsets[:-1], lengths)
            entry_dst = target_dst[gather]
            entry_v = np.repeat(fflat, lengths)
            entry_src = np.repeat(
                np.repeat(np.arange(nranks, dtype=np.int64), fsizes), lengths
            )
            # Dense emission order: column groups ascending, sources
            # ascending within each group — i.e. ascending owned block —
            # then destination, then vertex (stable sort keeps the
            # ascending-vertex payload order within each message).
            src_block = (entry_src % C) * R + entry_src // C
            key = src_block * nranks + entry_dst
            order = np.argsort(key, kind="stable")
            payload = entry_v[order]
            skey = key[order]
            cut = np.flatnonzero(skey[1:] != skey[:-1]) + 1
            msg_bounds = np.concatenate(([0], cut, [total]))
            msg_key = skey[msg_bounds[:-1]]
            msg_dst = msg_key % nranks
            msg_block = msg_key // nranks
            msg_src = (msg_block % R) * C + msg_block // R
            msg_sizes = np.diff(msg_bounds)
            population = self._expand_population
            pop_idx = (
                np.searchsorted(self._expand_pop_keys, msg_key)
                if population is not None
                else None
            )
        else:
            payload = np.empty(0, dtype=VERTEX_DTYPE)
            msg_src = np.empty(0, dtype=np.int64)
            msg_dst = np.empty(0, dtype=np.int64)
            msg_sizes = np.empty(0, dtype=np.int64)
            msg_bounds = np.zeros(1, dtype=np.int64)
            population = None
            pop_idx = None
        arrived = self.comm.exchange_arrays(
            msg_src,
            msg_dst,
            payload,
            msg_bounds[:-1],
            msg_bounds[1:],
            "expand",
            population=population,
            pop_idx=pop_idx,
        )
        if arrived is not None:
            msg, starts, stops = arrived
            msg_dst, msg_sizes = msg_dst[msg], stops - starts
            payload = np.concatenate(
                [payload[:0]]
                + [payload[a:b] for a, b in zip(starts.tolist(), stops.tolist())]
            )
        self.comm.stats.record_delivery_bulk(msg_dst, msg_sizes, "expand")

        inc_sizes = np.bincount(
            msg_dst, weights=msg_sizes, minlength=nranks
        ).astype(np.int64)
        self.comm.charge_compute_many(hash_lookups=inc_sizes)
        with_inc = np.flatnonzero(inc_sizes)
        if with_inc.size == 0:
            return fflat, fbounds
        fvals, _fsegs, fsz = gather_segments(fflat, fbounds, with_inc)
        values = np.concatenate((fvals, payload))
        segs = np.concatenate(
            (np.repeat(with_inc, fsz), np.repeat(msg_dst, msg_sizes))
        )
        uniq, ubounds, _, _ = segmented_unique(values, segs, nranks, self.n)
        # Two-bank merge: ranks with incoming take their union segment,
        # the rest keep their frontier segment — one gather, no per-rank
        # assembly loop.
        mask = inc_sizes > 0
        bank = np.concatenate((uniq, fflat))
        sel_starts = np.where(mask, ubounds[:-1], uniq.size + fbounds[:-1])
        sel_sizes = np.where(mask, np.diff(ubounds), fsizes)
        out_bounds = np.concatenate(([0], np.cumsum(sel_sizes)))
        out_total = int(out_bounds[-1])
        idx = np.arange(out_total, dtype=np.int64)
        idx += np.repeat(sel_starts - out_bounds[:-1], sel_sizes)
        return bank[idx], out_bounds

    def _gather_slots(
        self, fbar_flat: np.ndarray, fbar_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Step 12's lookup: the partial edge lists of F-bar, as pool slots.

        One keyed lookup into the concatenated column-CSR resolves every
        rank's partial edge lists; one gather reads their entries' slots.
        Returns ``(slots, raw_sizes, hit, lengths)``: ``hit`` marks the
        F-bar entries holding a partial list here, ``lengths`` (parallel
        to the hits) is how many of ``slots`` each contributed, and
        ``raw_sizes`` is the per-rank edge count.
        """
        nranks = self.comm.nranks
        qsegs = np.repeat(np.arange(nranks, dtype=np.int64), np.diff(fbar_bounds))
        qkeys = qsegs * self.n + fbar_flat
        pos = np.searchsorted(self._col_keys, qkeys)
        pos_c = np.minimum(pos, max(self._col_keys.size - 1, 0))
        hit = (
            self._col_keys[pos_c] == qkeys
            if self._col_keys.size
            else np.zeros(qkeys.shape, dtype=bool)
        )
        starts = self._col_starts[pos_c[hit]]
        lengths = self._col_stops[pos_c[hit]] - starts
        out_offsets = np.concatenate(([0], np.cumsum(lengths)))
        gather = np.arange(out_offsets[-1], dtype=np.int64)
        gather += np.repeat(starts - out_offsets[:-1], lengths)
        # Per-rank edge counts: the running sum of lengths cut where the
        # hit list changes rank.
        hit_bounds = np.concatenate(([0], np.cumsum(hit)))[fbar_bounds]
        return (
            self._row_slots[gather],
            np.diff(out_offsets[hit_bounds]),
            hit,
            lengths,
        )

    def _discover_step(
        self, fbar_flat: np.ndarray, fbar_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step 12: merge partial edge lists; returns fold candidates as CSR."""
        slots, raw_sizes, _, _ = self._gather_slots(fbar_flat, fbar_bounds)
        self.comm.charge_compute_many(
            edges_scanned=raw_sizes,
            hash_lookups=raw_sizes + np.diff(fbar_bounds),
        )
        filter_sent = self.opts.use_sent_cache
        send_flat, send_bounds, uniq_sizes = self._sent_pool.discover(
            slots, filter_sent=filter_sent
        )
        if filter_sent:
            self.comm.charge_compute_many(hash_lookups=uniq_sizes)
        return send_flat, send_bounds

    def _fold_step(
        self, send_flat: np.ndarray, send_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Steps 13-21: deliver neighbours across processor-rows, label fresh ones.

        All processor-rows fold in lockstep so their ring rounds share the
        wire in the contention model.  With a CSR-capable fold the slot
        sizes come from one bincount (row-group member ``i*C+j`` sending
        to member ``d`` is slot ``rank*C + d``, and ``send_flat`` is
        already in slot order); other folds get per-rank outbox dicts.
        """
        nranks = self.comm.nranks
        R = self.grid.rows
        offsets = self.partition.dist.offsets
        # Destination buckets within a processor-row are contiguous vertex
        # ranges: row member m (mesh column m) owns block rows [m*R, (m+1)*R).
        col_bounds = offsets[::R]
        if self._fold.supports_csr:
            C = self.grid.cols
            seg = np.repeat(
                np.arange(nranks, dtype=np.int64), np.diff(send_bounds)
            )
            bucket = np.searchsorted(col_bounds, send_flat, side="right") - 1
            csizes = np.bincount(seg * C + bucket, minlength=nranks * C)
            incoming, inc_bounds = self._fold.fold_many_csr(
                self.comm, self._row_groups, csizes, send_flat, "fold",
                sieve=self._sieve,
            )
            inc_segs = np.repeat(
                np.arange(nranks, dtype=np.int64), np.diff(inc_bounds)
            )
            return self._label_fresh(incoming, inc_segs)
        outboxes: list[dict[int, np.ndarray]] = []
        for r in range(nranks):
            neighbors = send_flat[send_bounds[r] : send_bounds[r + 1]]
            bounds = np.searchsorted(neighbors, col_bounds)
            nonempty = np.flatnonzero(bounds[1:] > bounds[:-1])
            outboxes.append(
                {int(m): neighbors[bounds[m] : bounds[m + 1]] for m in nonempty}
            )
        outboxes_per_group = [
            [outboxes[rank] for rank in group] for group in self._row_groups
        ]
        received_per_group = self._fold.fold_many(
            self.comm, self._row_groups, outboxes_per_group, phase="fold"
        )
        parts: list[np.ndarray] = []
        part_segs: list[int] = []
        for group, group_received in zip(self._row_groups, received_per_group):
            for idx, rank in enumerate(group):
                for arr in group_received[idx]:
                    if arr.size:
                        parts.append(arr)
                        part_segs.append(rank)
        if parts:
            incoming = np.concatenate(parts)
            inc_segs = np.repeat(
                np.array(part_segs, dtype=np.int64),
                np.array([p.size for p in parts], dtype=np.int64),
            )
        else:
            incoming = np.empty(0, dtype=VERTEX_DTYPE)
            inc_segs = np.empty(0, dtype=np.int64)
        return self._label_fresh(incoming, inc_segs)
