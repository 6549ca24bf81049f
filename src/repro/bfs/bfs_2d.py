"""Algorithm 2: distributed breadth-first expansion with 2D partitioning.

Each level has two communication steps:

* **expand** (steps 7-11): frontier owners inform their processor-*column*
  peers, which hold the frontier vertices' partial edge lists;
* **fold** (steps 13-18): discovered neighbours travel across the
  processor-*row* to their owners.

Only ``R`` (resp. ``C``) ranks take part in each collective instead of all
``P`` — the paper's key communication-scalability argument.  Algorithm 1
(1D) is this engine on a ``1 x P`` mesh (Section 2.2): one processor-row
folds across the machine, and with no column peers the expand is empty.

The level itself is the shared top-down body
(:meth:`~repro.bfs.level_sync.LevelSyncEngine._top_down`); this module
supplies the layout — the expand over processor-columns (per-vertex
expand-target CSR, or a forwarding program), F-bar spliced from the
column peers' disjoint blocks, the partial-edge-list lookup by direct
index into each rank's column chunk, and the processor-rows as fold
groups — all batched NumPy kernels over pooled per-rank state, with
per-level cost proportional to active ranks plus touched data, not to P,
and no per-level sort or search over an owner range.
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
from repro.utils.segmented import range_indices


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
        #: whether a processor-column has peers (R > 1).  At R = 1 — the
        #: 1D layout (Section 2.2) — a rank's column chunk is its own
        #: block: no Section 2.4.1 global-to-local probe per F-bar vertex,
        #: no unvisited bitmap from column peers, no second finder to
        #: de-duplicate, so none of the three is charged.
        self._column_peers = self.grid.rows > 1
        #: fold buckets within a processor-row are contiguous vertex ranges:
        #: row member m (mesh column m) owns block rows [m*R, (m+1)*R)
        self._member_bounds = partition.dist.offsets[:: self.grid.rows]
        #: per-vertex expand-target CSR (lazy): the column-group peers
        #: holding a non-empty partial edge list for each vertex
        self._etarget_indptr: np.ndarray | None = None
        self._etarget_dst: np.ndarray | None = None
        self._etarget_row: np.ndarray | None = None
        #: the expand outbox key, sender block * R + destination mesh row,
        #: in the narrowest dtype that holds it (a radix sort up to 16 bits)
        self._outbox_key_dtype = np.min_scalar_type(partition.nranks * self.grid.rows - 1)
        self._owned_spans = partition.owned_hi - partition.owned_lo
        #: pooled sent-neighbours cache over every rank's row universe
        self._sent_pool = PooledSentCache(partition.row_bounds, partition.row_ids)
        if opts.use_sieve:
            # Fold candidates only ever travel along processor-rows, so
            # each rank shadows exactly its row peers' owned blocks.
            self._sieve = PooledSieve(self._row_groups, self._owned_spans, partition.n)
        #: pre-routed expand pair population (direct expand only):
        #: every (owner, holder) wire pair any expand round can use, keyed
        #: like the direct step's messages — owned block (the dense
        #: emission order) * R + destination mesh row, marked by
        #: :meth:`_expand_targets` — so a searchsorted indexes it
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

    # ------------------------------------------------------------------ #
    # layout hooks
    # ------------------------------------------------------------------ #
    def owner_rank(self, vertex: int) -> int:
        return int(self.partition.owner_of(np.array([vertex]))[0])

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
