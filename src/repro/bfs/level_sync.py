"""The level-synchronized distributed BFS engine (Algorithms 1 and 2).

Algorithm 2 proceeds level by level — build the frontier, communicate,
discover neighbours, communicate, label — with two communication steps:

* **expand** (steps 7-11): frontier owners inform their processor-*column*
  peers, which hold the frontier vertices' partial edge lists;
* **fold** (steps 13-18): discovered neighbours travel across the
  processor-*row* to their owners.

Only ``R`` (resp. ``C``) ranks take part in each collective instead of all
``P`` — the paper's key communication-scalability argument.  Algorithm 1
(1D) is the same engine on a ``1 x P`` mesh (Section 2.2): one
processor-row folds across the machine, and with no column peers the
expand is empty.

:class:`LevelSyncEngine` holds one search over a :class:`TwoDPartition`:
the loop bookkeeping (level counter, per-level statistics, global
termination reduction), the one top-down level body
(:meth:`LevelSyncEngine._top_down`) and the bottom-up level
(:meth:`LevelSyncEngine._bottom_up`) — all batched NumPy kernels over
pooled per-rank state, with per-level cost proportional to active ranks
plus touched data, not to P, and no per-level sort or search over an
owner range.  Keeping ``step()`` public is what lets the bi-directional
driver (Section 2.3) interleave two searches.

A top-down level runs over a ``(vertex[, mask])`` frontier, the
linear-algebraic form of Buluç & Madduri (arXiv:1104.4518): a batch of W
sources carries one mask word per frontier entry, and single-source is
W = 1 with the mask column left out — the same expand, merge, discover,
fold and label, not a second function.

:func:`run_level` is the one level loop: the checkpoint / retry /
rollback / crash-replay protocol around a level body.  The engine's
``step()`` and the batched traversal (:mod:`repro.bfs.msbfs`) both run
their levels through it.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottom_up import _scan_stored_columns
from repro.bfs.direction import BOTTOM_UP, TOP_DOWN, DirectionPolicy
from repro.bfs.options import BfsOptions
from repro.bfs.result import BfsResult
from repro.bfs.sent_cache import PooledSentCache
from repro.bfs.sieve import PooledSieve
from repro.collectives.base import get_expand, get_fold
from repro.errors import ConfigurationError, FaultError, SearchError
from repro.observability.artifacts import collect_observability
from repro.partition.two_d import TwoDPartition
from repro.runtime.comm import Communicator
from repro.types import LEVEL_DTYPE, UNREACHED, VERTEX_DTYPE
from repro.utils.logging import get_logger
from repro.utils.segmented import range_indices

logger = get_logger("bfs")


class LevelSyncEngine:
    """A restartable level-synchronous BFS over a :class:`TwoDPartition` (R x C mesh)."""

    def __init__(
        self,
        partition: TwoDPartition,
        comm: Communicator,
        opts: BfsOptions | None = None,
    ) -> None:
        opts = opts or BfsOptions()
        self.partition = partition
        self.grid = partition.grid
        self.n = int(partition.n)
        self.opts = opts
        self._check_comm(comm)
        self.comm = comm
        self.level = 0
        #: global level array indexed by vertex id (backing storage)
        self._levels_flat: np.ndarray = np.empty(0, dtype=LEVEL_DTYPE)
        #: pooled per-rank frontier: sorted global vertex ids of rank ``r``
        #: are ``_frontier_flat[_frontier_bounds[r]:_frontier_bounds[r+1]]``.
        #: One flat array + one bounds vector instead of P Python lists —
        #: per-level bookkeeping is NumPy ops over the pool, never a
        #: Python iteration of all P ranks.
        self._frontier_flat: np.ndarray = np.empty(0, dtype=VERTEX_DTYPE)
        self._frontier_bounds: np.ndarray = np.zeros(
            comm.nranks + 1, dtype=np.int64
        )
        #: :meth:`_owned_union`'s scratch over every vertex, allocated on
        #: first use and left all clear between calls: a presence mark
        #: (width 1) and a mask-word OR accumulator (a batch)
        self._mark: np.ndarray | None = None
        self._mask_or: np.ndarray | None = None
        self._started = False
        #: resolved per-level direction policy (opts coerces bare names)
        self._direction_policy: DirectionPolicy = DirectionPolicy.coerce(opts.direction)
        #: direction of the level being run, else of the last one run (the
        #: policy's hysteresis input)
        self._direction = TOP_DOWN
        #: global count of still-unreached vertices (a policy input; every
        #: backend derives the same value from allreduced frontier totals)
        self._unvisited = 0
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
        #: the fold groups, the processor-rows (the whole machine on a
        #: ``1 x P`` mesh): equal-size and tiling the ranks in order, so
        #: fold segment ``s`` is rank ``s``
        self._row_groups = [self.grid.row_members(i) for i in range(self.grid.rows)]
        #: whether a processor-column has peers (R > 1).  At R = 1 — the
        #: 1D layout (Section 2.2) — a rank's column chunk is its own
        #: block: no Section 2.4.1 global-to-local probe per F-bar vertex,
        #: no unvisited bitmap from column peers, no second finder to
        #: de-duplicate, so none of the three is charged.
        self._column_peers = self.grid.rows > 1
        #: per-vertex expand-target CSR (lazy): the column-group peers
        #: holding a non-empty partial edge list for each vertex
        self._etarget_indptr: np.ndarray | None = None
        self._etarget_dst: np.ndarray | None = None
        self._etarget_row: np.ndarray | None = None
        #: the expand outbox key, sender block * R + destination mesh row,
        #: in the narrowest dtype that holds it (a radix sort up to 16 bits)
        self._outbox_key_dtype = np.min_scalar_type(partition.nranks * self.grid.rows - 1)
        #: rank ``r`` owns the ``_owned_spans[r]`` vertices
        #: ``[partition.owned_lo[r], partition.owned_hi[r])``
        self._owned_spans = partition.owned_hi - partition.owned_lo
        #: pooled sent-neighbours cache over every rank's row universe
        self._sent_pool = PooledSentCache(partition.row_bounds, partition.row_ids)
        #: communication sieve (``repro.bfs.sieve``), on with
        #: ``opts.use_sieve``.  Fold candidates only ever travel along
        #: processor-rows, so each rank shadows exactly its row peers'
        #: owned blocks.
        self._sieve = (
            PooledSieve(self._row_groups, self._owned_spans, partition.n)
            if opts.use_sieve
            else None
        )
        #: pre-routed expand pair population (direct expand only):
        #: every (owner, holder) wire pair any expand round can use, keyed
        #: like the direct step's messages — owned block (the dense
        #: emission order) * R + destination mesh row, marked by
        #: :meth:`_expand_targets` — so a searchsorted indexes it
        self._expand_pop_keys: np.ndarray | None = None
        self._expand_population = None
        if self._expand is None and opts.use_expand_filter:
            self._prime_expand_population()

    def _check_comm(self, comm: Communicator) -> None:
        """Reject a communicator that cannot drive this engine.

        Its ranks and grid must be the partition's, and it must chunk
        messages at ``opts.buffer_capacity``: the communicator does the
        chunking, so a mismatch would silently run the search at another
        capacity than its options name.
        """
        part = self.partition
        if comm.nranks != part.nranks:
            raise ConfigurationError(
                f"communicator has {comm.nranks} ranks but partition has {part.nranks}"
            )
        if comm.grid != part.grid:
            raise ConfigurationError(
                f"communicator grid {comm.grid} != partition grid {part.grid}"
            )
        if comm.buffer_capacity != self.opts.buffer_capacity:
            raise ConfigurationError(
                f"communicator buffer_capacity {comm.buffer_capacity} != "
                f"opts.buffer_capacity {self.opts.buffer_capacity}"
            )

    # ------------------------------------------------------------------ #
    # expand-side lookup structures
    # ------------------------------------------------------------------ #
    def _expand_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex expand destinations as a CSR over global vertex ids.

        ``_etarget_dst[_etarget_indptr[v]:_etarget_indptr[v+1]]`` lists, in
        ascending rank order, the column-group peers of ``v``'s owner that
        hold a non-empty partial edge list for ``v`` (owner excluded) —
        the owner-side knowledge the paper stores (Section 2.2), kept per
        vertex and built once from the stored-column list.  Expand messages
        gather each frontier vertex's targets straight from this table, so
        their per-level cost follows the frontier, not the P x C rank
        pairs.  With ``use_expand_filter`` off the owner knows nothing and
        every vertex lists all ``R - 1`` column peers.  ``_etarget_row``
        is each target's mesh row, in the outbox key's dtype.  With the
        filter on, the targets' (owner block, mesh row) keys are marked
        on the way into ``_expand_pop_keys``.
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
                indptr = np.arange(n + 1, dtype=np.int64) * (R - 1)
                d = (peer_row * C + (block // R)[:, None]).ravel()
            else:
                holder = np.repeat(
                    np.arange(nranks, dtype=np.int64), np.diff(self.partition.col_bounds)
                )
                v = self.partition.col_ids
                d = holder
                marked = np.zeros(nranks * R, dtype=bool)
                if v.size:
                    block = self.partition.dist.part_of(v)
                    keep = holder != (block % R) * C + (block // R)
                    v, d = v[keep], d[keep]
                    marked[block[keep] * R + d // C] = True
                    del block, keep
                    # (v, holder) keys are unique: any sort is the stable one
                    order = np.argsort(v * nranks + d)
                    v, d = v[order], d[order]
                self._expand_pop_keys = np.flatnonzero(marked)
                indptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(np.bincount(v, minlength=n), out=indptr[1:])
            self._etarget_indptr = indptr
            self._etarget_dst = d
            self._etarget_row = (d // C).astype(self._outbox_key_dtype)
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
        self._expand_targets()
        keys = self._expand_pop_keys
        if keys.size == 0:
            return
        R, C = self.grid.rows, self.grid.cols
        blk, row = np.divmod(keys, R)
        self._expand_population = self.comm.network.prepare_pairs(
            (blk % R) * C + blk // R, row * C + blk // R
        )

    def owner_rank(self, vertex: int) -> int:
        """Owning rank of a single vertex."""
        return int(self.partition.owner_of(np.array([vertex]))[0])

    # ------------------------------------------------------------------ #
    # one top-down level (Algorithm 2, steps 7-18), at every width
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
        stay ascending).  A destination always sits in its sender's mesh
        column, so the sort key is ``sender block * R + destination mesh
        row`` in the narrowest dtype that holds it — the same order as a
        ``block * P + destination`` key, and a radix sort up to 16 bits.
        Returns ``(payload, words, src, dst, bounds, population,
        pop_idx)``: ``payload`` is the vertex payload and ``words`` the
        mask column ``fmasks`` routed alongside it (``None`` without one),
        message ``m`` carries entries ``bounds[m]:bounds[m+1]`` from
        ``src[m]`` to ``dst[m]``, and ``population`` / ``pop_idx`` index
        the pre-routed pairs for
        :meth:`~repro.runtime.comm.Communicator.exchange_arrays`.
        """
        nranks = self.comm.nranks
        R, C = self.grid.rows, self.grid.cols
        indptr, _ = self._expand_targets()
        starts = indptr[fflat]
        lengths = indptr[fflat + 1] - starts
        gather, _ = range_indices(starts, lengths)
        if gather.size == 0:
            none = np.empty(0, dtype=np.int64)
            words = None if fmasks is None else fmasks[:0]
            return fflat[:0], words, none, none, np.zeros(1, dtype=np.int64), None, None
        ranks = np.arange(nranks, dtype=np.int64)
        rank_key = (((ranks % C) * R + ranks // C) * R).astype(self._outbox_key_dtype)
        key = np.repeat(np.repeat(rank_key, np.diff(fbounds)), lengths)
        key += self._etarget_row[gather]
        order = np.argsort(key, kind="stable")
        skey = key[order]
        cut = np.flatnonzero(skey[1:] != skey[:-1]) + 1
        msg_bounds = np.concatenate(([0], cut, [skey.size]))
        msg_key = skey[msg_bounds[:-1]].astype(np.int64)
        msg_block, msg_row = np.divmod(msg_key, R)
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
            msg_row * C + msg_block // R,
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
        beside the vertex ids.

        F-bar is a splice, not a union: column peers own disjoint blocks,
        and what a rank receives comes in sender order — ascending mesh
        row, so ascending block and vertex.  Each rank's own frontier goes
        in at its own row, between the arrivals from the peers above and
        below it, and one gather reads every rank's F-bar, masks alike.
        """
        comm = self.comm
        nranks = comm.nranks
        R, C = self.grid.rows, self.grid.cols
        fsizes = np.diff(fbounds)
        with comm.obs.span("expand", cat="phase"):
            if self._expand is not None:
                payload, inc_bounds, words = self._expand.expand(
                    comm, self._col_groups, fflat, fbounds, "expand", masks=fmasks
                )
                inc_sizes = np.diff(inc_bounds)
                # every column peer's block arrives, peers in row order: the
                # rank's own frontier follows the blocks of the rows above it
                grid_sizes = fsizes.reshape(R, C)
                above = (np.cumsum(grid_sizes, axis=0) - grid_sizes).ravel()
                starts = np.stack(
                    (inc_bounds[:-1], payload.size + fbounds[:-1], inc_bounds[:-1] + above),
                    axis=1,
                ).ravel()
                sizes = np.stack((above, fsizes, inc_sizes - above), axis=1).ravel()
            else:
                payload, words, msg_src, msg_dst, msg_bounds, population, pop_idx = (
                    self._expand_messages(fflat, fbounds, fmasks)
                )
                starts, stops = msg_bounds[:-1], msg_bounds[1:]
                arrived = comm.exchange_arrays(
                    msg_src,
                    msg_dst,
                    payload,
                    starts,
                    stops,
                    "expand",
                    population=population,
                    pop_idx=pop_idx,
                    masks=words,
                )
                if arrived is not None:
                    msg, starts, stops = arrived
                    msg_src, msg_dst = msg_src[msg], msg_dst[msg]
                sizes = stops - starts
                comm.stats.record_delivery_bulk(msg_dst, sizes, "expand")
                inc_sizes = np.bincount(
                    msg_dst, weights=sizes, minlength=nranks
                ).astype(np.int64)
                # Messages leave in ascending sender block; a stable regroup
                # by destination keeps the senders in row order, and one
                # search per rank finds where its own row goes.
                order = np.argsort(msg_dst, kind="stable")
                row_key = msg_dst[order] * R + msg_src[order] // C
                ranks = np.arange(nranks, dtype=np.int64)
                at = np.searchsorted(row_key, ranks * R + ranks // C)
                starts = np.insert(starts[order], at, payload.size + fbounds[:-1])
                sizes = np.insert(sizes[order], at, fsizes)
            comm.charge_compute_many(hash_lookups=inc_sizes)
            if not inc_sizes.any():
                return fflat, fbounds, fmasks
            idx, _ = range_indices(starts, sizes)
            out_bounds = np.zeros(nranks + 1, dtype=np.int64)
            np.cumsum(fsizes + inc_sizes, out=out_bounds[1:])
            out_masks = None if fmasks is None else np.concatenate((words, fmasks))[idx]
            return np.concatenate((payload, fflat))[idx], out_bounds, out_masks

    def _gather_slots(
        self, fbar_flat: np.ndarray, fbar_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step 12's lookup: the partial edge lists of F-bar, as pool slots.

        Every F-bar vertex of rank ``r`` lies in ``r``'s column chunk, so
        the partition finds its partial edge list by direct index
        (:meth:`~repro.partition.two_d.TwoDPartition.stored_lists`), and
        one gather reads the lists' entries' slots — discovery dedups and
        filters in slot space, never on global ids.  Each rank is charged
        its edge count in scans, and that plus — with column peers — one
        Section 2.4.1 probe per F-bar vertex in hash lookups.  Returns
        ``(slots, lengths)``: ``lengths`` is how many of ``slots`` each
        F-bar entry contributed — zero where this rank holds no partial
        list for it.
        """
        part = self.partition
        ranks = np.repeat(np.arange(part.nranks), np.diff(fbar_bounds))
        starts, lengths = part.stored_lists(fbar_flat, ranks)
        gather, out_offsets = range_indices(starts, lengths)
        # Per-rank edge counts: the running sum of lengths cut at the
        # F-bar's rank bounds.
        edges = np.diff(out_offsets[fbar_bounds])
        probes = edges + np.diff(fbar_bounds) if self._column_peers else edges
        self.comm.charge_compute_many(edges_scanned=edges, hash_lookups=probes)
        return part.row_slots[gather], lengths

    def _top_down(
        self,
        flat: np.ndarray,
        bounds: np.ndarray,
        masks: np.ndarray | None = None,
        *,
        fold,
        filter_sent: bool,
        sieve,
        label,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One top-down level (Algorithm 1/2) over a ``(vertex[, mask])`` frontier.

        ``(flat, bounds)`` is the pooled frontier CSR — rank ``r`` holds
        ``flat[bounds[r]:bounds[r+1]]``, sorted — and ``masks`` its
        mask-word column: ``None`` for a single source, one bit per source
        for a batch.  Expand (2D only), discover, fold and the owner-side
        union run the same at every width; the caller picks the fold
        program, the sent filter and the sieve, and ``label`` is the state
        holder's hook that keeps the still-unvisited candidates and
        records their level.  Returns the next frontier as ``(flat,
        bounds, masks)``.
        """
        comm = self.comm
        nranks = comm.nranks
        obs = comm.obs
        ranks = np.arange(nranks, dtype=np.int64)
        flat, bounds, masks = self._expand_step(flat, bounds, masks)
        with obs.span("compute", cat="phase"):
            slots, lengths = self._gather_slots(flat, bounds)
            flat, bounds, masks, counts = self._sent_pool.discover(
                slots,
                None if masks is None else np.repeat(masks, lengths),
                filter_sent=filter_sent,
            )
            # one slot per edge scanned: not held through the fold (peak memory)
            del slots
            if filter_sent:
                comm.charge_compute_many(hash_lookups=counts)
            # A sender's candidates are sorted and its fold peers — its
            # processor-row, each member owning one contiguous vertex range
            # in mesh-column order — own ascending ranges, so ``flat`` is
            # already in slot order (sender, then in-group destination).
            size = self.grid.cols
            # row member m (mesh column m) owns blocks [m*R, (m+1)*R)
            member = self.partition.dist.part_of(flat) // self.grid.rows
            slot = np.repeat(ranks, np.diff(bounds)) * size + member
            csizes = np.bincount(slot, minlength=nranks * size)
        with obs.span("fold", cat="phase"):
            flat, bounds, masks = fold.fold(
                comm, self._row_groups, csizes, flat, "fold", sieve=sieve, masks=masks
            )
        with obs.span("compute", cat="phase"):
            # owner side: one probe per delivered candidate, dedup, label
            arrived = np.diff(bounds)
            comm.charge_compute_many(hash_lookups=arrived)
            flat, bounds, masks = label(*self._owned_union(flat, masks))
            comm.charge_compute_many(updates=np.diff(bounds))
        if sieve is not None:
            self._sieve_update(flat, bounds)
        return flat, bounds, masks

    def _owned_union(
        self, values: np.ndarray, masks: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Each owner's sorted union of vertices that lie in its own block.

        Every vertex of ``values`` goes to the rank owning it (a fold's or
        a bottom-up round's arrivals, a batch's sources), and the owned
        blocks tile ``[0, n)``, so a mark pass over engine-held scratch
        replaces a per-rank sort: scatter, read back with ``flatnonzero``
        (ascending vertex, i.e. block order), clear.  One search of the
        owned bounds cuts the result into per-rank runs, gathered back in
        rank order (2D rank order is not block order).  With a mask column
        the scratch is an OR accumulator, and each kept vertex carries the
        OR of its occurrences' words — which relies on no word being zero
        (a zero word would drop its vertex): frontier words never are, as
        labelling and retirement drop zero words.  Returns ``(flat,
        bounds, masks)``, ``masks`` ``None`` without a mask column.
        """
        if masks is None:
            if self._mark is None:
                self._mark = np.zeros(self.n, dtype=bool)
            self._mark[values] = True
            flat = np.flatnonzero(self._mark)
            self._mark[flat] = False
            words = None
        else:
            if self._mask_or is None:
                self._mask_or = np.zeros(self.n, dtype=masks.dtype)
            np.bitwise_or.at(self._mask_or, values, masks)
            flat = np.flatnonzero(self._mask_or)
            words = self._mask_or[flat]
            self._mask_or[flat] = 0
        part = self.partition
        starts = np.searchsorted(flat, part.owned_lo)
        idx, bounds = range_indices(starts, np.searchsorted(flat, part.owned_hi) - starts)
        return flat[idx], bounds, None if words is None else words[idx]

    def _label(
        self, flat: np.ndarray, bounds: np.ndarray, masks: None
    ) -> tuple[np.ndarray, np.ndarray, None]:
        """Width-1 label: the candidates still unreached take ``level + 1``.

        Freshness is read for every rank at once, then all labels apply.
        """
        fresh = self._levels_flat[flat] == UNREACHED
        flat = flat[fresh]
        self._levels_flat[flat] = self.level + 1
        return flat, np.concatenate(([0], np.cumsum(fresh)))[bounds], None

    def _sieve_update(
        self, fresh_flat: np.ndarray, fresh_bounds: np.ndarray
    ) -> None:
        """End-of-level sieve maintenance (top-down levels only).

        Every rank with freshly labelled vertices broadcasts a bitmap
        summary of them to its fold-group peers, who mark their shadows;
        next level's fold candidates for those vertices never reach the
        wire.  The broadcast pays real network time and bytes (phase
        ``"sieve"``) and the shadow marking pays per-rank update work, so
        the sieve's cost stays on the books next to its savings.
        """
        sieve = self._sieve
        obs = self.comm.obs
        span = obs.begin("sieve", cat="phase") if obs.enabled else None
        src, dst, nbytes = sieve.summary_messages(np.diff(fresh_bounds))
        self.comm.exchange_summaries(src, dst, nbytes)
        marks = sieve.observe_segmented(fresh_flat, fresh_bounds)
        self.comm.charge_compute_many(updates=marks)
        if span is not None:
            obs.end(span)

    # ------------------------------------------------------------------ #
    # one bottom-up level
    # ------------------------------------------------------------------ #
    def _bottom_up(self) -> tuple[np.ndarray, np.ndarray, None]:
        """One *bottom-up* level: unvisited vertices probe the frontier.

        Rank ``(i, j)`` stores partial *column* edge lists for the column
        chunk of mesh column ``j``, whose rows are vertices owned by
        processor row ``i``.  Three steps: the frontier bitmaps are
        allgathered around each processor **row**'s ring (so each rank
        can test its stored rows; arXiv:1705.04590 §4), unvisited bitmaps
        travel along processor **columns** (so each rank knows which
        stored columns still need a parent), then the early-exit scan
        (:func:`~repro.bfs.bottom_up._scan_stored_columns`) runs and every
        found vertex is sent to its owner *within the processor column* —
        a real :meth:`~repro.runtime.comm.Communicator.exchange_arrays`,
        so wire codecs, chunking, and contention pricing all apply — where
        owners de-duplicate multi-finder hits with one mark pass and
        label.  On a ``1 x P`` mesh — the 1D layout — processor columns
        are single ranks: the row ring is the whole exchange and every
        rank labels its own finds.

        The bitmap exchanges are charged as raw byte transfers on the
        routed network
        (:meth:`~repro.runtime.comm.Communicator.exchange_summaries`, the
        sieve-summary pattern); because they bypass the droppable-message
        path, :meth:`start` rejects direction policies that can reach
        bottom-up when a fault schedule is attached.  The level labels
        exactly the vertices a top-down level would, so hybrid runs return
        byte-identical ``levels``; only the traversed-edge counts and
        simulated times differ.  Returns the next frontier as pooled
        ``(flat, bounds, None)`` and writes the new labels into
        ``_levels_flat``.
        """
        comm = self.comm
        nranks = comm.nranks
        obs = comm.obs
        levels = self._levels_flat
        part = self.partition

        span_bytes = (self._owned_spans + 7) // 8
        R, C = self.grid.rows, self.grid.cols

        # Frontier state of the stored rows lives on processor-row peers;
        # unvisited state of the column chunk lives on processor-column peers.
        with obs.span("bitmap-broadcast", cat="phase"):
            # Row ring allgather, its C - 1 rounds aggregated as one transfer
            # per member: each sends its successor every block of the row but
            # the successor's own.
            member = np.arange(nranks if C > 1 else 0, dtype=np.int64)
            succ = member - member % C + (member + 1) % C
            row_total = span_bytes.reshape(R, C).sum(axis=1)
            ring_bytes = row_total[member // C] - span_bytes[succ]
            # Column pairs, column by column: row i sends its block to every
            # other row k of the column.
            i = np.repeat(np.arange(R, dtype=np.int64), R - 1)
            k = np.tile(np.arange(R - 1, dtype=np.int64), R)
            j = np.arange(C, dtype=np.int64)[:, None]
            col_src = (i * C + j).ravel()
            col_dst = ((k + (k >= i)) * C + j).ravel()
            comm.exchange_summaries(
                np.concatenate([member, col_src]),
                np.concatenate([succ, col_dst]),
                np.concatenate([ring_bytes, span_bytes[col_src]]),
                phase=None,
            )

        with obs.span("bottom-up-scan", cat="phase"):
            scan_v, scan_rank, found, edges = _scan_stored_columns(
                part, 0, nranks,
                (levels == self.level)[part.row_ids], (levels == UNREACHED)[part.col_ids],
            )
            per_rank_edges = np.zeros(nranks, dtype=np.int64)
            np.add.at(per_rank_edges, scan_rank, edges)
            # one frontier probe per scanned edge, plus — with column peers —
            # one unvisited-bitmap probe per stored column
            cols_per_rank = np.diff(part.col_bounds)
            probes = per_rank_edges + cols_per_rank if self._column_peers else per_rank_edges
            comm.charge_compute_many(edges_scanned=per_rank_edges, hash_lookups=probes)
            found_v, finder = scan_v[found], scan_rank[found]
            owner = part.owner_of(found_v) if found_v.size else found_v

        # Found vertices go to their owners (always within the finder's
        # processor column).  Real messages: codec, chunking, contention.
        with obs.span("bottom-up-fold", cat="phase"):
            # Sorted by (finder, owner), the found vertices are the round's
            # messages back to back, in outbox order; self-addressed segments
            # are local hand-offs and stay off the wire.  Every chunk arrives:
            # bottom-up is rejected under a fault schedule.
            pair = finder * nranks + owner
            order = np.argsort(pair, kind="stable")
            values, vsegs, sender = found_v[order], owner[order], finder[order]
            _, starts = np.unique(pair[order], return_index=True)
            stops = np.append(starts[1:], values.size)
            wire = sender[starts] != vsegs[starts]
            starts, stops = starts[wire], stops[wire]
            comm.exchange_arrays(
                sender[starts], vsegs[starts], values, starts, stops, "fold"
            )
            if starts.size:
                comm.stats.record_delivery_bulk(vsegs[starts], stops - starts, "fold")
            # Owner-side dedup (several column peers can find the same
            # vertex) and labelling — one mark pass over every owner's
            # arrivals at once.
            flat, fresh_bounds, _ = self._owned_union(values)
            incoming_counts = np.bincount(vsegs, minlength=nranks)
            fresh_counts = np.diff(fresh_bounds)
            levels[flat] = self.level + 1
            comm.stats.record_duplicates(values.size - flat.size)
            comm.charge_compute_many(
                hash_lookups=incoming_counts if self._column_peers else None,
                updates=fresh_counts,
            )
        return flat, fresh_bounds, None

    # ------------------------------------------------------------------ #
    # re-entrant serving
    # ------------------------------------------------------------------ #
    def rebind(self, comm: Communicator) -> None:
        """Attach a fresh communicator for the next search.

        Everything the engine builds at construction (partition views,
        concatenated CSR tables, expand filters) depends only on the
        *immutable* partition, so a long-lived engine can serve many
        queries by rebinding a fresh communicator per query — each run
        then gets independent clocks and statistics without paying the
        construction cost again.  The engine's in-flight search state is
        invalidated: call :meth:`start` before :meth:`step`.
        """
        self._check_comm(comm)
        self.comm = comm
        self._started = False

    # ------------------------------------------------------------------ #
    # loop
    # ------------------------------------------------------------------ #
    def start(self, source: int) -> None:
        """Initialise a new search from ``source`` (Algorithm 1/2, step 1)."""
        if not (0 <= source < self.n):
            raise SearchError(f"source {source} out of range [0, {self.n})")
        nranks = self.comm.nranks
        # One flat global level array plus the pooled frontier CSR: a new
        # search allocates O(1) arrays, never P per-rank objects — the
        # session server runs many queries over one engine, and only the
        # source's rank has a non-empty frontier at level 0.
        self._levels_flat = np.full(self.n, UNREACHED, dtype=LEVEL_DTYPE)
        owner = self.owner_rank(source)
        self._levels_flat[source] = 0
        bounds = np.zeros(nranks + 1, dtype=np.int64)
        bounds[owner + 1 :] = 1
        self._frontier_flat = np.array([source], dtype=VERTEX_DTYPE)
        self._frontier_bounds = bounds
        self.level = 0
        if self._direction_policy.may_go_bottom_up and self.comm.faults is not None:
            # Bottom-up levels charge bitmap broadcasts outside the
            # droppable-message path, so the fault schedule cannot touch
            # them.
            raise ConfigurationError(
                "direction-optimizing BFS does not support fault injection; "
                "use direction='top-down' with faults"
            )
        self._direction = TOP_DOWN
        self._unvisited = self.n - 1
        self._sent_pool.reset()
        if self._sieve is not None:
            self._sieve.reset()
        self._started = True

    def step(self) -> int:
        """Run one level expansion; returns the global new-frontier size.

        A return of 0 means the search has terminated (steps 4-6 of the
        algorithms: every rank's frontier is empty).  The level runs
        under :func:`run_level`'s checkpoint / rollback / crash-replay
        protocol.
        """
        if not self._started:
            raise SearchError("engine not started; call start(source) first")
        obs = self.comm.obs
        level_span = (
            obs.begin(f"level {self.level}", cat="level", level=self.level)
            if obs.enabled
            else None
        )
        # Direction decision: global counts only (frontier size, unvisited,
        # n), so the SPMD workers reach the identical choice from their
        # allreduced totals.  Charge-free by design — a pure top-down
        # policy leaves every simulated clock bit-identical to a build
        # without direction optimization.
        frontier_total = int(self._frontier_bounds[-1])
        direction = self._direction_policy.decide(
            self.level, frontier_total, self._unvisited, self.n, self._direction
        )
        if direction != self._direction and obs.enabled:
            with obs.span(
                "direction-switch",
                cat="phase",
                level=self.level,
                frm=self._direction,
                to=direction,
            ):
                pass
        self._direction = direction
        (new_flat, new_bounds, _), total_new, rollbacks, replays = run_level(
            self.comm, self.opts, self.level, self, direction=direction
        )
        self._frontier_flat = new_flat
        self._frontier_bounds = new_bounds
        self._unvisited -= total_new
        if level_span is not None:
            obs.end(level_span, frontier=total_new, rollbacks=rollbacks, replays=replays)
        self.level += 1
        return total_new

    def _attempt(self) -> tuple[np.ndarray, np.ndarray, None]:
        """One attempt at the current level, in the decided direction."""
        if self._direction == BOTTOM_UP:
            return self._bottom_up()
        return self._top_down(
            self._frontier_flat,
            self._frontier_bounds,
            fold=self._fold,
            filter_sent=self.opts.use_sent_cache,
            sieve=self._sieve,
            label=self._label,
        )

    # ------------------------------------------------------------------ #
    # level-boundary checkpointing (fault recovery)
    # ------------------------------------------------------------------ #
    def _checkpoint_nbytes(self) -> np.ndarray:
        """Per-rank byte size of the buddy-replicated checkpoint.

        The O(n/P) state a partner must hold to resurrect a rank: the
        owned level slice (one level word per vertex), the current
        frontier (vertex ids), a visited bitmap over the owned span, and
        the per-run caches — the sent-neighbours cache as a bitset over
        the rank's sent universe, plus the sieve's shadow bitsets when it
        is on.
        """
        spans = self._owned_spans
        frontier_sizes = np.diff(self._frontier_bounds)
        levels_bytes = spans * self._levels_flat.dtype.itemsize
        frontier_bytes = frontier_sizes * np.dtype(VERTEX_DTYPE).itemsize
        bitmap_bytes = (spans + 7) // 8
        cache_bytes = self._sent_pool.checkpoint_nbytes()
        if self._sieve is not None:
            cache_bytes = cache_bytes + self._sieve.checkpoint_nbytes()
        return levels_bytes + frontier_bytes + bitmap_bytes + cache_bytes

    def _checkpoint(self):
        """Snapshot every mutable per-search structure at a level boundary."""
        return (
            self._levels_flat.copy(),
            self._frontier_flat.copy(),
            self._frontier_bounds.copy(),
            self._sent_pool.snapshot(),
            None if self._sieve is None else self._sieve.snapshot(),
        )

    def _restore(self, snapshot) -> None:
        """Roll the search back to a :meth:`_checkpoint` snapshot.

        The flat level array is restored *in place* so any outstanding
        views of it stay valid.
        """
        levels_flat, frontier_flat, frontier_bounds, sent, shadows = snapshot
        self._levels_flat[:] = levels_flat
        self._frontier_flat = frontier_flat
        self._frontier_bounds = frontier_bounds
        self._sent_pool.restore(sent)
        if self._sieve is not None:
            self._sieve.restore(shadows)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def assemble_levels(self) -> np.ndarray:
        """Gather the distributed level arrays into one global array."""
        return self._levels_flat.copy()

    def level_of(self, vertex: int) -> int:
        """Current label of ``vertex`` (``UNREACHED`` if not labelled yet)."""
        return int(self._levels_flat[vertex])


def run_level(
    comm: Communicator,
    opts: BfsOptions,
    level: int,
    body,
    *,
    prefix: str = "",
    direction: str = TOP_DOWN,
):
    """Run one level of ``body`` under the checkpoint / retry protocol.

    ``body`` is anything with ``_attempt()`` (run the level once from the
    body's entry state and return the next frontier as a pooled
    ``(flat, bounds, masks)`` — the entry frontier is left untouched),
    ``_checkpoint()`` / ``_restore(snapshot)`` (every
    structure an attempt mutates) and ``_checkpoint_nbytes()`` (per-rank
    size of that state plus the entry frontier): the engine at width 1,
    the batched traversal at width W.

    Under fault injection with checkpointing enabled, a level in which a
    message chunk was lost for good (retry budget exhausted) is rolled
    back to its entry state and re-executed — the wasted simulated time
    stays on the clocks and is tallied in the fault report.  The
    re-execution draws fresh fault decisions, so it can (and eventually
    will) succeed.

    Under crash injection the level entry additionally replicates every
    rank's checkpoint to its buddy
    (:meth:`~repro.runtime.comm.Communicator.replicate_checkpoint`); a
    crash detected during the level triggers the failover protocol (spare
    takeover or shrink absorption) and a replay of the level from that
    checkpoint.

    Closes the level's statistics row and returns ``(frontier,
    total_new, rollbacks, replays)``.  ``prefix`` leads the
    :class:`FaultError` texts (``"batch "`` for a batched traversal).
    """
    stats = comm.stats
    clock = comm.clock
    obs = comm.obs
    faults = comm.faults
    comm_before = clock.max_comm_time
    compute_before = clock.max_compute_time
    fault_before = clock.max_fault_time
    checkpointing = opts.checkpoint
    if checkpointing is None:
        checkpointing = faults is not None and faults.spec.needs_checkpoint
    if checkpointing and faults is not None and faults.spec.buddy_checkpointing:
        # buddy replication makes the level-entry snapshot crash-proof:
        # each rank's O(n/P) state streams to its ring partner
        comm.replicate_checkpoint(body._checkpoint_nbytes())
    attempts_left = faults.spec.max_level_retries if faults is not None else 0
    rollbacks = 0
    replays = 0
    replay_span = None
    while True:
        snapshot = body._checkpoint() if checkpointing else None
        elapsed_before = clock.elapsed
        comm.begin_level(level)
        frontier = body._attempt()
        total_new = int(
            comm.allreduce_sum(np.diff(frontier[1]).astype(np.float64))
        )
        if replay_span is not None:
            obs.end(replay_span)
            replay_span = None
        crashes = comm.consume_crashes()
        failed = comm.consume_level_failure()
        if not crashes and not failed:
            break
        if snapshot is None:
            raise FaultError(
                f"{prefix}state lost at level {level} and checkpointing is "
                "disabled (BfsOptions.checkpoint=False)",
                report=comm.fault_report(),
            )
        if attempts_left <= 0:
            raise FaultError(
                f"{prefix}level {level} still failing after "
                f"{faults.spec.max_level_retries} rollbacks",
                report=comm.fault_report(),
            )
        attempts_left -= 1
        if crashes:
            replays += 1
            with obs.span(
                "crash-recovery",
                cat="phase",
                level=level,
                ranks=[event.rank for event in crashes],
            ):
                stats.abort_level()
                body._restore(snapshot)
                comm.recover_crashes(crashes, body._checkpoint_nbytes())
                faults.record_replay(clock.elapsed - elapsed_before)
            if obs.enabled:
                replay_span = obs.begin("replay", cat="phase", level=level)
            logger.debug(
                "%slevel %d replayed after rank crash(es) %s",
                prefix,
                level,
                [event.rank for event in crashes],
            )
        else:
            rollbacks += 1
            with obs.span("fault-recovery", cat="phase", level=level):
                stats.abort_level()
                body._restore(snapshot)
                faults.record_rollback(clock.elapsed - elapsed_before)
            logger.debug(
                "%slevel %d rolled back after an unrecovered loss", prefix, level
            )
    level_stats = stats.end_level(
        total_new,
        comm_seconds=clock.max_comm_time - comm_before,
        compute_seconds=clock.max_compute_time - compute_before,
        fault_seconds=clock.max_fault_time - fault_before,
        direction=direction,
    )
    logger.debug(
        "%slevel %d: frontier=%d delivered=%d messages=%d",
        prefix,
        level,
        total_new,
        level_stats.total_received,
        level_stats.messages,
    )
    return frontier, total_new, rollbacks, replays


def run_bfs(
    engine: LevelSyncEngine,
    source: int,
    target: int | None = None,
    max_levels: int | None = None,
) -> BfsResult:
    """Run ``engine`` from ``source`` until exhaustion, target hit, or level cap.

    With a ``target``, every level pays one extra flag-allreduce (the
    found-check a real implementation performs); the search stops at the
    end of the level that labels the target — the worst-case unreachable
    target of Figure 6 is simply a target in another component.
    """
    if target is not None and not (0 <= target < engine.n):
        raise SearchError(f"target {target} out of range [0, {engine.n})")
    obs = engine.comm.obs
    run_span = (
        obs.begin("bfs", cat="run", source=source, target=target)
        if obs.enabled
        else None
    )
    engine.start(source)
    target_level: int | None = 0 if target == source else None
    while True:
        new_vertices = engine.step()
        if target is not None and target_level is None:
            flags = np.zeros(engine.comm.nranks)
            flags[engine.owner_rank(target)] = float(engine.level_of(target) != UNREACHED)
            if engine.comm.allreduce_flag(flags):
                target_level = engine.level_of(target)
        if new_vertices == 0:
            break
        if target_level is not None:
            break
        if max_levels is not None and engine.level >= max_levels:
            break
    if run_span is not None:
        obs.end(run_span, levels=engine.level)
    clock = engine.comm.clock
    return BfsResult(
        source=source,
        levels=engine.assemble_levels(),
        num_levels=engine.level,
        elapsed=clock.elapsed,
        comm_time=clock.max_comm_time,
        compute_time=clock.max_compute_time,
        stats=engine.comm.stats,
        target=target,
        target_level=target_level,
        faults=engine.comm.fault_report(),
        observability=collect_observability(engine.comm),
    )
