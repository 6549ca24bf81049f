"""Shared scaffolding of the level-synchronized BFS loop.

Algorithm 2 proceeds level by level — build the frontier, communicate,
discover neighbours, communicate, label — and Algorithm 1 is the same
loop on a ``1 x P`` mesh (Section 2.2).  The :class:`LevelSyncEngine`
base class owns the loop bookkeeping (level counter, per-level
statistics, global termination reduction) and the one top-down level
body (:meth:`LevelSyncEngine._top_down`);
:class:`~repro.bfs.bfs_2d.Bfs2DEngine` supplies the layout hooks — expand
peers, partial-edge-list lookup, fold groups, the bottom-up level.
Keeping ``step()`` public is what lets the bi-directional driver
(Section 2.3) interleave two searches.

A top-down level runs over a ``(vertex[, mask])`` frontier, the
linear-algebraic form of Buluç & Madduri (arXiv:1104.4518): a batch of W
sources carries one mask word per frontier entry, and single-source is
W = 1 with the mask column left out — the same expand, merge, discover,
fold and label, not a second function.

:func:`run_level` is the one level loop: the checkpoint / retry /
rollback / crash-replay protocol around a level body.  The engines'
``step()`` and the batched traversal (:mod:`repro.bfs.msbfs`) both run
their levels through it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.bfs.direction import BOTTOM_UP, TOP_DOWN, DirectionPolicy
from repro.bfs.options import BfsOptions
from repro.bfs.result import BfsResult
from repro.errors import ConfigurationError, FaultError, SearchError
from repro.observability.artifacts import collect_observability
from repro.partition.two_d import TwoDPartition
from repro.runtime.comm import Communicator
from repro.types import LEVEL_DTYPE, UNREACHED, VERTEX_DTYPE
from repro.utils.logging import get_logger
from repro.utils.segmented import range_indices

logger = get_logger("bfs")


class LevelSyncEngine(abc.ABC):
    """A restartable level-synchronous distributed BFS over P virtual ranks."""

    def __init__(self, comm: Communicator, n: int, opts: BfsOptions) -> None:
        self.comm = comm
        self.n = int(n)
        self.opts = opts
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
        #: communication sieve (``repro.bfs.sieve``): a layout engine that
        #: supports it installs a PooledSieve here when opts.use_sieve
        self._sieve = None
        #: resolved per-level direction policy (opts coerces bare names)
        self._direction_policy: DirectionPolicy = DirectionPolicy.coerce(opts.direction)
        #: direction of the level being run, else of the last one run (the
        #: policy's hysteresis input)
        self._direction = TOP_DOWN
        #: global count of still-unreached vertices (a policy input; every
        #: backend derives the same value from allreduced frontier totals)
        self._unvisited = 0

    # ------------------------------------------------------------------ #
    # abstract per-layout hooks
    # ------------------------------------------------------------------ #
    #: the layout's fold groups: equal-size, tiling the ranks in order (so
    #: fold segment ``s`` is rank ``s``) — the processor-rows, the whole
    #: machine on a ``1 x P`` mesh
    _fold_groups: list[list[int]]
    #: the layout's partition: rank ``r`` owns the ``_owned_spans[r]``
    #: vertices ``[partition.owned_lo[r], partition.owned_hi[r])``
    partition: TwoDPartition
    _owned_spans: np.ndarray

    @abc.abstractmethod
    def owner_rank(self, vertex: int) -> int:
        """Owning rank of a single vertex."""

    @abc.abstractmethod
    def _expand_level_bottom_up(self) -> tuple[np.ndarray, np.ndarray]:
        """Run one *bottom-up* level (unvisited vertices probe the frontier;
        :mod:`repro.bfs.bottom_up`).  Returns the next frontier as pooled
        CSR ``(flat, bounds)`` and writes the new labels into
        ``_levels_flat``."""

    @abc.abstractmethod
    def _expand_step(
        self, flat: np.ndarray, bounds: np.ndarray, masks: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The expand: every rank's frontier merged with what its expand
        peers hold of theirs (F-bar)."""

    @abc.abstractmethod
    def _gather_slots(
        self, flat: np.ndarray, bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Discovery's lookup: the (partial) edge lists of a pooled
        frontier as sent-pool slots, charged to each rank.  Returns
        ``(slots, lengths)``, ``lengths[k]`` the entries ``flat[k]`` gave."""

    @abc.abstractmethod
    def _fold_member(self, vertices: np.ndarray) -> np.ndarray:
        """In-group fold destination of each candidate vertex: the member
        of the sender's fold group that labels it: the processor-row
        member standing in the owner's mesh column (on a ``1 x P`` mesh,
        the owner)."""

    def _reset_layout_state(self) -> None:
        """Clear the per-run caches (sent-neighbours cache, sieve shadows)."""
        self._sent_pool.reset()
        if self._sieve is not None:
            self._sieve.reset()

    def _snapshot_layout_state(self):
        """Capture the per-run caches for a level checkpoint."""
        if self._sieve is not None:
            return self._sent_pool.snapshot(), self._sieve.snapshot()
        return self._sent_pool.snapshot()

    def _restore_layout_state(self, snapshot) -> None:
        """Reinstate state captured by :meth:`_snapshot_layout_state`."""
        if self._sieve is not None:
            sent, shadows = snapshot
            self._sent_pool.restore(sent)
            self._sieve.restore(shadows)
        else:
            self._sent_pool.restore(snapshot)

    def _layout_checkpoint_nbytes(self) -> np.ndarray:
        """Per-rank checkpoint bytes of the per-run caches.

        The sent-neighbours cache travels in the buddy checkpoint as a
        bitset over each rank's sent universe (plus the sieve's shadow
        bitsets when it is enabled).
        """
        nbytes = self._sent_pool.checkpoint_nbytes()
        if self._sieve is not None:
            nbytes = nbytes + self._sieve.checkpoint_nbytes()
        return nbytes

    # ------------------------------------------------------------------ #
    # one top-down level, at every width
    # ------------------------------------------------------------------ #
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
            # A sender's candidates are sorted and its fold peers own
            # ascending vertex ranges, so ``flat`` is already in slot order
            # (sender, then in-group destination).
            size = len(self._fold_groups[0])
            slot = np.repeat(ranks, np.diff(bounds)) * size + self._fold_member(flat)
            csizes = np.bincount(slot, minlength=nranks * size)
        with obs.span("fold", cat="phase"):
            flat, bounds, masks = fold.fold(
                comm, self._fold_groups, csizes, flat, "fold", sieve=sieve, masks=masks
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
    # re-entrant serving
    # ------------------------------------------------------------------ #
    def rebind(self, comm: Communicator) -> None:
        """Attach a fresh communicator for the next search.

        Everything an engine builds at construction (partition views,
        concatenated CSR tables, expand filters) depends only on the
        *immutable* partition, so a long-lived engine can serve many
        queries by rebinding a fresh communicator per query — each run
        then gets independent clocks and statistics without paying the
        construction cost again.  The engine's in-flight search state is
        invalidated: call :meth:`start` before :meth:`step`.
        """
        if comm.nranks != self.comm.nranks:
            raise ConfigurationError(
                f"communicator has {comm.nranks} ranks but engine was built "
                f"for {self.comm.nranks}"
            )
        if getattr(comm, "grid", None) != self.comm.grid:
            raise ConfigurationError(
                f"communicator grid {comm.grid} != engine grid {self.comm.grid}"
            )
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
        self._reset_layout_state()
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
            return (*self._expand_level_bottom_up(), None)
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
        whatever layout-specific cache the engine carries (the
        sent-neighbours cache, via :meth:`_layout_checkpoint_nbytes`).
        """
        spans = self._owned_spans
        frontier_sizes = np.diff(self._frontier_bounds)
        levels_bytes = spans * self._levels_flat.dtype.itemsize
        frontier_bytes = frontier_sizes * np.dtype(VERTEX_DTYPE).itemsize
        bitmap_bytes = (spans + 7) // 8
        return (
            levels_bytes + frontier_bytes + bitmap_bytes
            + self._layout_checkpoint_nbytes()
        )

    def _checkpoint(self):
        """Snapshot every mutable per-search structure at a level boundary."""
        return (
            self._levels_flat.copy(),
            self._frontier_flat.copy(),
            self._frontier_bounds.copy(),
            self._snapshot_layout_state(),
        )

    def _restore(self, snapshot) -> None:
        """Roll the search back to a :meth:`_checkpoint` snapshot.

        The flat level array is restored *in place* so any outstanding
        views of it stay valid.
        """
        levels_flat, frontier_flat, frontier_bounds, layout = snapshot
        self._levels_flat[:] = levels_flat
        self._frontier_flat = frontier_flat
        self._frontier_bounds = frontier_bounds
        self._restore_layout_state(layout)

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
    size of that state plus the entry frontier): a layout engine at
    width 1, the batched traversal at width W.

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
