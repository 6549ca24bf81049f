"""MS-BFS: batched multi-source traversal with bit-parallel frontiers.

The serving workload ("millions of users" querying one semantic graph)
issues many independent BFS queries against the *same* partitioned graph.
Running them one at a time repeats the per-level machinery — frontier
exchange, partial-edge-list lookup, fold, labelling — once per query.
MS-BFS (Then et al., VLDB 2015) amortizes it: up to 64 concurrent sources
share one traversal, each owning one bit of a 64-bit mask, and every
frontier entry becomes a ``(vertex, mask)`` pair.  One expand, one
discovery gather, and one fold per *batch* level serve every source at
once — a natural extension of the existing visited-bitmap machinery, with
the visited bit widened to a visited *word*.

The traversal rides the existing engines: :func:`run_ms_bfs` wraps a
constructed :class:`~repro.bfs.bfs_1d.Bfs1DEngine` or
:class:`~repro.bfs.bfs_2d.Bfs2DEngine` and reuses its immutable caches
(concatenated CSR tables, expand filters, partition geometry) and its
communicator — vertex payloads travel through the normal
:meth:`~repro.runtime.comm.Communicator.exchange` path (so wire codecs,
chunking, contention, and observability all apply), while the parallel
mask words are charged to the wire uncompressed (8 bytes per entry;
dense bitmasks are what the sparse-frontier codecs do *not* target).

Level semantics are bit-for-bit those of the sequential loop: a source's
level row after :func:`run_ms_bfs` is byte-identical to the ``levels``
array a dedicated :func:`~repro.bfs.level_sync.run_bfs` would produce —
including target-terminated runs, which retire the source's bit at the
end of the level that labels its target (exactly where the sequential
driver stops).  The test suite asserts this property across seeds,
layouts, and codecs.

Fault injection rides the same level-boundary checkpoint/replay protocol
as the sequential loop: each batch level snapshots the per-source level
rows, the per-vertex visited mask words, and the ``(vertex, mask)``
frontier, and buddy-replicates the per-rank slice of that state when
crashes are possible.  A lost chunk or a rank crash rolls the batch level
back to its entry state and re-executes it (mask-aware rollback), so
crash-spare/crash-shrink recovery and wire-drop retry work inside a
batched traversal — per-source rows stay byte-identical to fault-free
sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.bfs_2d import Bfs2DEngine
from repro.bfs.level_sync import LevelSyncEngine
from repro.bfs.result import QueryResult
from repro.errors import ConfigurationError, FaultError, SearchError
from repro.faults.report import FaultReport
from repro.runtime.stats import CommStats
from repro.types import LEVEL_DTYPE, UNREACHED, VERTEX_DTYPE
from repro.utils.arrays import in_sorted

#: dtype of the per-vertex source masks (one bit per batched source)
MASK_DTYPE = np.uint64

#: widest batch one traversal can carry (bits in a mask word)
MAX_BATCH = 64

__all__ = ["MAX_BATCH", "MsBfsResult", "run_ms_bfs"]


@dataclass(slots=True)
class MsBfsResult:
    """Outcome of one batched multi-source traversal.

    ``levels`` is a ``(batch, n)`` array: row ``i`` is exactly the level
    array the sequential driver would produce for ``sources[i]`` (with
    ``targets[i]`` when given).  Simulated times cover the whole batch —
    that sharing is the point.
    """

    sources: tuple[int, ...]
    targets: tuple[int | None, ...]
    levels: np.ndarray
    #: per-source level count, matching the sequential driver's ``num_levels``
    num_levels: np.ndarray
    target_levels: tuple[int | None, ...]
    #: batch levels actually executed (max over sources)
    batch_levels: int
    elapsed: float
    comm_time: float
    compute_time: float
    stats: CommStats
    #: structured fault tally when a schedule was attached (None otherwise)
    faults: FaultReport | None = None

    @property
    def batch_size(self) -> int:
        """Number of sources served by this traversal."""
        return len(self.sources)

    def levels_of(self, i: int) -> np.ndarray:
        """The level array of batched source ``i`` (a view, do not mutate)."""
        return self.levels[i]

    def query_view(self, i: int, *, digest: bool = True) -> QueryResult:
        """Streaming view of batched source ``i`` (scalars only)."""
        levels_digest = None
        if digest:
            from repro.observability.digest import levels_digest as _levels_digest

            levels_digest = _levels_digest(self.levels[i])
        row = self.levels[i]
        return QueryResult(
            source=self.sources[i],
            target=self.targets[i],
            target_level=self.target_levels[i],
            num_levels=int(self.num_levels[i]),
            num_reached=int((row != UNREACHED).sum()),
            elapsed=self.elapsed,
            batch_size=self.batch_size,
            levels_digest=levels_digest,
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"MS-BFS over {self.batch_size} sources: {self.batch_levels} batch "
            f"levels, {self.elapsed:.6f}s simulated (comm {self.comm_time:.6f}s)"
        )


def _or_reduce_segmented(
    verts: np.ndarray,
    masks: np.ndarray,
    segs: np.ndarray,
    nranks: int,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment duplicate elimination with mask OR-merge.

    Returns ``(verts, masks, bounds)`` where segment ``r`` is
    ``verts[bounds[r]:bounds[r+1]]`` sorted ascending and each vertex's
    mask is the OR of its occurrences within the segment.
    """
    if verts.size == 0:
        bounds = np.zeros(nranks + 1, dtype=np.int64)
        return (
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=MASK_DTYPE),
            bounds,
        )
    key = segs * n + verts
    order = np.argsort(key, kind="stable")
    k = key[order]
    first = np.concatenate(([True], k[1:] != k[:-1]))
    idx = np.flatnonzero(first)
    uv = verts[order][idx]
    us = segs[order][idx]
    um = np.bitwise_or.reduceat(masks[order], idx)
    counts = np.bincount(us, minlength=nranks)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return uv, um, bounds


class _MsBfsRun:
    """One batched traversal over a wrapped engine's immutable caches."""

    def __init__(
        self,
        engine: LevelSyncEngine,
        sources: list[int],
        targets: list[int | None] | None,
        max_levels: int | None,
    ) -> None:
        if not sources:
            raise SearchError("MS-BFS needs at least one source")
        if len(sources) > MAX_BATCH:
            raise ConfigurationError(
                f"MS-BFS batches carry at most {MAX_BATCH} sources (one mask "
                f"bit each), got {len(sources)}; split into waves"
            )
        n = engine.n
        for s in sources:
            if not (0 <= s < n):
                raise SearchError(f"source {s} out of range [0, {n})")
        if targets is None:
            targets = [None] * len(sources)
        if len(targets) != len(sources):
            raise SearchError(
                f"{len(targets)} targets for {len(sources)} sources"
            )
        for t in targets:
            if t is not None and not (0 <= t < n):
                raise SearchError(f"target {t} out of range [0, {n})")
        self.engine = engine
        self.comm = engine.comm
        self.n = n
        self.nranks = self.comm.nranks
        self.sources = [int(s) for s in sources]
        self.targets = [None if t is None else int(t) for t in targets]
        self.max_levels = max_levels
        self.B = len(sources)
        self.bits = np.left_shift(
            np.ones(self.B, dtype=MASK_DTYPE), np.arange(self.B, dtype=MASK_DTYPE)
        )
        self.is_2d = isinstance(engine, Bfs2DEngine)

    # ------------------------------------------------------------------ #
    # wire helpers
    # ------------------------------------------------------------------ #
    def _exchange_pairs(
        self,
        vert_outbox: dict[int, dict[int, np.ndarray]],
        mask_outbox: dict[int, dict[int, np.ndarray]],
        phase: str,
    ) -> dict[int, list[tuple[np.ndarray, np.ndarray]]]:
        """One synchronous round of ``(vertex, mask)`` pair messages.

        Vertex ids ride :meth:`Communicator.exchange` (codec-compressed,
        chunked, contention-priced, traced); the parallel mask words are
        charged as an uncompressed second round on the same links (8 bytes
        per entry) and re-paired with their vertices on arrival.
        """
        comm = self.comm
        inbox = comm.exchange(vert_outbox, phase, sync=False)
        src_l: list[int] = []
        dst_l: list[int] = []
        nbytes_l: list[int] = []
        for src, dests in mask_outbox.items():
            for dst, masks in dests.items():
                if masks.size:
                    src_l.append(src)
                    dst_l.append(dst)
                    nbytes_l.append(int(masks.size) * masks.dtype.itemsize)
        if src_l:
            src_a = np.array(src_l, dtype=np.int64)
            dst_a = np.array(dst_l, dtype=np.int64)
            nb = np.array(nbytes_l, dtype=np.int64)
            send, recv, _ = comm.network.round_times_arrays(src_a, dst_a, nb)
            comm.clock.advance_many(np.maximum(send, recv), kind="comm")
            total = int(nb.sum())
            comm.stats.record_message_bulk(0, 0, total, total)
        comm.barrier()
        paired: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for dst, items in inbox.items():
            chunks_by_src: dict[int, list[np.ndarray]] = {}
            order: list[int] = []
            for src, chunk in items:
                if src not in chunks_by_src:
                    order.append(src)
                chunks_by_src.setdefault(src, []).append(chunk)
            out = []
            for src in order:
                chunks = chunks_by_src[src]
                verts = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                sent = vert_outbox[src][dst]
                masks = mask_outbox[src][dst]
                if verts.size != sent.size:
                    # a fault withheld chunks of this message: re-pair the
                    # surviving vertices (a sorted subset of the sorted
                    # unique send) with their mask words by position
                    masks = masks[np.searchsorted(sent, verts)]
                out.append((verts, masks))
            paired[dst] = out
        return paired

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def run(self) -> MsBfsResult:
        engine = self.engine
        comm = self.comm
        n, nranks, B = self.n, self.nranks, self.B
        obs = comm.obs
        stats = comm.stats
        clock = comm.clock

        levels = np.full((B, n), UNREACHED, dtype=LEVEL_DTYPE)
        levels[np.arange(B), self.sources] = 0
        seen = np.zeros(n, dtype=MASK_DTYPE)
        target_levels: list[int | None] = [
            0 if t is not None and t == s else None
            for s, t in zip(self.sources, self.targets)
        ]
        retired_level = np.zeros(B, dtype=np.int64)
        active = np.ones(B, dtype=bool)

        # initial frontier: each source at its owner rank
        init_verts = np.array(self.sources, dtype=VERTEX_DTYPE)
        init_masks = self.bits.copy()
        np.bitwise_or.at(seen, init_verts, init_masks)
        init_segs = np.array(
            [engine.owner_rank(s) for s in self.sources], dtype=np.int64
        )
        fr_verts, fr_masks, fr_bounds = _or_reduce_segmented(
            init_verts, init_masks, init_segs, nranks, n
        )
        frontier: list[tuple[np.ndarray, np.ndarray]] = [
            (fr_verts[fr_bounds[r]: fr_bounds[r + 1]],
             fr_masks[fr_bounds[r]: fr_bounds[r + 1]])
            for r in range(nranks)
        ]

        faults = comm.faults
        checkpointing = engine.opts.checkpoint
        if checkpointing is None:
            checkpointing = faults is not None and faults.spec.needs_checkpoint

        any_targets = any(t is not None for t in self.targets)
        run_span = (
            obs.begin("msbfs", cat="run", sources=B) if obs.enabled else None
        )
        t = 0
        while True:
            level_span = (
                obs.begin(f"level {t}", cat="level", level=t)
                if obs.enabled
                else None
            )
            comm_before = clock.max_comm_time
            compute_before = clock.max_compute_time
            fault_before = clock.max_fault_time
            if checkpointing and faults is not None and faults.spec.buddy_checkpointing:
                # buddy replication makes the batch-level snapshot
                # crash-proof: each rank streams its owned level rows,
                # visited mask words, and (vertex, mask) frontier to its
                # ring partner
                comm.replicate_checkpoint(self._checkpoint_nbytes(frontier))
            attempts_left = faults.spec.max_level_retries if faults is not None else 0
            rollbacks = 0
            replays = 0
            replay_span = None
            entry_frontier = frontier
            while True:
                snapshot = (
                    (levels.copy(), seen.copy()) if checkpointing else None
                )
                elapsed_before = clock.elapsed
                comm.begin_level(t)
                if self.is_2d:
                    frontier, new_entries = self._level_2d(
                        entry_frontier, seen, levels, t
                    )
                else:
                    frontier, new_entries = self._level_1d(
                        entry_frontier, seen, levels, t
                    )
                total_new = int(comm.allreduce_sum(new_entries.astype(np.float64)))
                if replay_span is not None:
                    obs.end(replay_span)
                    replay_span = None
                crashes = comm.consume_crashes()
                failed = comm.consume_level_failure()
                if not crashes and not failed:
                    break
                if snapshot is None:
                    raise FaultError(
                        f"batch state lost at level {t} and checkpointing is "
                        "disabled (BfsOptions.checkpoint=False)",
                        report=comm.fault_report(),
                    )
                if attempts_left <= 0:
                    raise FaultError(
                        f"batch level {t} still failing after "
                        f"{faults.spec.max_level_retries} rollbacks",
                        report=comm.fault_report(),
                    )
                attempts_left -= 1
                # the entry frontier's arrays are never mutated in place,
                # so rolling back only restores the level rows and the
                # visited mask words; the next attempt re-expands
                # entry_frontier under fresh fault draws
                if crashes:
                    replays += 1
                    with obs.span(
                        "crash-recovery",
                        cat="phase",
                        level=t,
                        ranks=[event.rank for event in crashes],
                    ):
                        stats.abort_level()
                        levels[:] = snapshot[0]
                        seen[:] = snapshot[1]
                        comm.recover_crashes(
                            crashes, self._checkpoint_nbytes(entry_frontier)
                        )
                        faults.record_replay(clock.elapsed - elapsed_before)
                    if obs.enabled:
                        replay_span = obs.begin("replay", cat="phase", level=t)
                else:
                    rollbacks += 1
                    with obs.span("fault-recovery", cat="phase", level=t):
                        stats.abort_level()
                        levels[:] = snapshot[0]
                        seen[:] = snapshot[1]
                        faults.record_rollback(clock.elapsed - elapsed_before)
            stats.end_level(
                total_new,
                comm_seconds=clock.max_comm_time - comm_before,
                compute_seconds=clock.max_compute_time - compute_before,
                fault_seconds=clock.max_fault_time - fault_before,
            )
            t += 1
            pending = [
                i
                for i in range(B)
                if active[i] and self.targets[i] is not None
            ]
            if any_targets and pending:
                # one found-check reduction covers every pending target —
                # the sequential driver pays one per query per level
                flags = np.zeros(nranks, dtype=np.float64)
                newly_found = []
                for i in pending:
                    tgt = self.targets[i]
                    if target_levels[i] is None and levels[i, tgt] != UNREACHED:
                        target_levels[i] = int(levels[i, tgt])
                    if target_levels[i] is not None:
                        flags[engine.owner_rank(tgt)] = 1.0
                        newly_found.append(i)
                comm.allreduce_flag(flags)
                if newly_found:
                    retire_mask = MASK_DTYPE(0)
                    for i in newly_found:
                        active[i] = False
                        retired_level[i] = t
                        retire_mask |= self.bits[i]
                    keep_mask = ~retire_mask
                    frontier = [
                        ((v[(m & keep_mask) != 0]), (m & keep_mask)[(m & keep_mask) != 0])
                        for v, m in frontier
                    ]
            if level_span is not None:
                obs.end(
                    level_span,
                    frontier=total_new,
                    rollbacks=rollbacks,
                    replays=replays,
                )
            if total_new == 0 or not active.any():
                break
            if self.max_levels is not None and t >= self.max_levels:
                break

        if run_span is not None:
            obs.end(run_span, levels=t, sources=B)

        # per-source level counts, matching the sequential driver
        num_levels = np.zeros(B, dtype=np.int64)
        for i in range(B):
            if target_levels[i] is not None and not active[i]:
                num_levels[i] = retired_level[i]
            else:
                row = levels[i]
                ecc = int(row.max())
                num_levels[i] = min(ecc + 1, t) if self.max_levels is None else min(
                    ecc + 1, t, self.max_levels
                )
        return MsBfsResult(
            sources=tuple(self.sources),
            targets=tuple(self.targets),
            levels=levels,
            num_levels=num_levels,
            target_levels=tuple(target_levels),
            batch_levels=t,
            elapsed=clock.elapsed,
            comm_time=clock.max_comm_time,
            compute_time=clock.max_compute_time,
            stats=stats,
            faults=comm.fault_report(),
        )

    # ------------------------------------------------------------------ #
    # level-boundary checkpointing (fault recovery)
    # ------------------------------------------------------------------ #
    def _checkpoint_nbytes(self, frontier) -> np.ndarray:
        """Per-rank byte size of the buddy-replicated batch checkpoint.

        The O(n/P) state a partner must hold to resurrect a rank inside a
        batched traversal: the owned slice of every source's level row
        (``B`` level words per vertex), the owned slice of the visited
        mask words (8 bytes per vertex), and the rank's current frontier
        as ``(vertex, mask)`` pairs.
        """
        engine = self.engine
        engine._owned_bounds()
        spans = engine._owned_spans
        frontier_sizes = np.array(
            [verts.size for verts, _ in frontier], dtype=np.int64
        )
        level_bytes = spans * (self.B * np.dtype(LEVEL_DTYPE).itemsize)
        mask_bytes = spans * np.dtype(MASK_DTYPE).itemsize
        frontier_bytes = frontier_sizes * (
            np.dtype(VERTEX_DTYPE).itemsize + np.dtype(MASK_DTYPE).itemsize
        )
        return level_bytes + mask_bytes + frontier_bytes

    # ------------------------------------------------------------------ #
    # one batch level — 2D (expand / discover / fold)
    # ------------------------------------------------------------------ #
    def _level_2d(self, frontier, seen, levels, t):
        engine = self.engine
        comm = self.comm
        nranks, n = self.nranks, self.n
        grid = engine.grid
        R = grid.rows
        obs = comm.obs

        # --- expand: frontier (vertex, mask) pairs to processor-column peers
        with obs.span("expand", cat="phase"):
            vert_out: dict[int, dict[int, np.ndarray]] = {}
            mask_out: dict[int, dict[int, np.ndarray]] = {}
            filter_cat = engine._expand_filter_cat
            for group in engine._col_groups:
                for src in group:
                    fv, fm = frontier[src]
                    if fv.size == 0:
                        continue
                    if filter_cat is not None:
                        dsts, merged, bounds = filter_cat[src]
                        if merged.size == 0:
                            continue
                        sel = in_sorted(merged, fv)
                        for k, dst in enumerate(dsts):
                            seg = merged[bounds[k]: bounds[k + 1]]
                            seg_sel = sel[bounds[k]: bounds[k + 1]]
                            verts = seg[seg_sel]
                            if verts.size:
                                pos = np.searchsorted(fv, verts)
                                vert_out.setdefault(src, {})[dst] = verts
                                mask_out.setdefault(src, {})[dst] = fm[pos]
                    else:
                        for dst in group:
                            if dst != src:
                                vert_out.setdefault(src, {})[dst] = fv
                                mask_out.setdefault(src, {})[dst] = fm
            inbox = self._exchange_pairs(vert_out, mask_out, "expand")

            inc_counts = np.zeros(nranks, dtype=np.int64)
            fbar_parts_v: list[np.ndarray] = []
            fbar_parts_m: list[np.ndarray] = []
            fbar_segs: list[np.ndarray] = []
            for r in range(nranks):
                fv, fm = frontier[r]
                if fv.size:
                    fbar_parts_v.append(fv)
                    fbar_parts_m.append(fm)
                    fbar_segs.append(np.full(fv.size, r, dtype=np.int64))
                for v, m in inbox.get(r, []):
                    if v.size:
                        inc_counts[r] += v.size
                        fbar_parts_v.append(v)
                        fbar_parts_m.append(m)
                        fbar_segs.append(np.full(v.size, r, dtype=np.int64))
            comm.charge_compute_many(hash_lookups=inc_counts)
            if fbar_parts_v:
                fb_v, fb_m, fb_bounds = _or_reduce_segmented(
                    np.concatenate(fbar_parts_v),
                    np.concatenate(fbar_parts_m),
                    np.concatenate(fbar_segs),
                    nranks,
                    n,
                )
            else:
                fb_v, fb_m, fb_bounds = _or_reduce_segmented(
                    np.empty(0, dtype=VERTEX_DTYPE),
                    np.empty(0, dtype=MASK_DTYPE),
                    np.empty(0, dtype=np.int64),
                    nranks,
                    n,
                )

        # --- discover: one keyed lookup into the concatenated column-CSR
        with obs.span("compute", cat="phase"):
            slots, raw_sizes, hit, lengths = engine._gather_slots(fb_v, fb_bounds)
            comm.charge_compute_many(
                edges_scanned=raw_sizes,
                hash_lookups=raw_sizes + np.diff(fb_bounds),
            )
            nb_v, nb_m, nb_bounds = engine._sent_pool.discover_masks(
                slots, np.repeat(fb_m[hit], lengths)
            )

            # --- bucket by processor-row member (mesh column owner blocks)
            col_bounds = engine.partition.dist.offsets[::R]
            vert_out = {}
            mask_out = {}
            own_parts: list[tuple[int, np.ndarray, np.ndarray]] = []
            for r in range(nranks):
                verts = nb_v[nb_bounds[r]: nb_bounds[r + 1]]
                masks = nb_m[nb_bounds[r]: nb_bounds[r + 1]]
                if verts.size == 0:
                    continue
                row = r // grid.cols
                bounds = np.searchsorted(verts, col_bounds)
                nonempty = np.flatnonzero(bounds[1:] > bounds[:-1])
                for m_idx in nonempty:
                    dst = grid.rank_of(row, int(m_idx))
                    v_slice = verts[bounds[m_idx]: bounds[m_idx + 1]]
                    m_slice = masks[bounds[m_idx]: bounds[m_idx + 1]]
                    if dst == r:
                        own_parts.append((r, v_slice, m_slice))
                    else:
                        vert_out.setdefault(r, {})[dst] = v_slice
                        mask_out.setdefault(r, {})[dst] = m_slice

        # --- fold: deliver across processor-rows, then label
        with obs.span("fold", cat="phase"):
            inbox = self._exchange_pairs(vert_out, mask_out, "fold")
        return self._label(inbox, own_parts, seen, levels, t)

    # ------------------------------------------------------------------ #
    # one batch level — 1D (discover / fold)
    # ------------------------------------------------------------------ #
    def _level_1d(self, frontier, seen, levels, t):
        engine = self.engine
        comm = self.comm
        nranks = self.nranks
        obs = comm.obs
        offsets = engine.partition.dist.offsets

        with obs.span("compute", cat="phase"):
            parts_v = [frontier[r][0] for r in range(nranks)]
            parts_m = [frontier[r][1] for r in range(nranks)]
            f_bounds = np.concatenate(([0], np.cumsum([p.size for p in parts_v])))
            slots, raw_sizes, lengths = engine._gather_slots(
                np.concatenate(parts_v), f_bounds
            )
            comm.charge_compute_many(edges_scanned=raw_sizes, hash_lookups=raw_sizes)
            nb_v, nb_m, nb_bounds = engine._sent_pool.discover_masks(
                slots, np.repeat(np.concatenate(parts_m), lengths)
            )

            vert_out: dict[int, dict[int, np.ndarray]] = {}
            mask_out: dict[int, dict[int, np.ndarray]] = {}
            own_parts: list[tuple[int, np.ndarray, np.ndarray]] = []
            for r in range(nranks):
                verts = nb_v[nb_bounds[r]: nb_bounds[r + 1]]
                masks = nb_m[nb_bounds[r]: nb_bounds[r + 1]]
                if verts.size == 0:
                    continue
                bounds = np.searchsorted(verts, offsets)
                nonempty = np.flatnonzero(bounds[1:] > bounds[:-1])
                for q in nonempty:
                    dst = int(q)
                    v_slice = verts[bounds[q]: bounds[q + 1]]
                    m_slice = masks[bounds[q]: bounds[q + 1]]
                    if dst == r:
                        own_parts.append((r, v_slice, m_slice))
                    else:
                        vert_out.setdefault(r, {})[dst] = v_slice
                        mask_out.setdefault(r, {})[dst] = m_slice

        with obs.span("fold", cat="phase"):
            inbox = self._exchange_pairs(vert_out, mask_out, "fold")
        return self._label(inbox, own_parts, seen, levels, t)

    # ------------------------------------------------------------------ #
    # label newly reached (vertex, bit) pairs, build the next frontier
    # ------------------------------------------------------------------ #
    def _label(self, inbox, own_parts, seen, levels, t):
        comm = self.comm
        nranks, n = self.nranks, self.n
        parts_v: list[np.ndarray] = []
        parts_m: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        inc_counts = np.zeros(nranks, dtype=np.int64)
        for r, v, m in own_parts:
            parts_v.append(v)
            parts_m.append(m)
            parts_s.append(np.full(v.size, r, dtype=np.int64))
            inc_counts[r] += v.size
        for dst, items in inbox.items():
            for v, m in items:
                if v.size:
                    parts_v.append(v)
                    parts_m.append(m)
                    parts_s.append(np.full(v.size, dst, dtype=np.int64))
                    inc_counts[dst] += v.size
        comm.charge_compute_many(hash_lookups=inc_counts)
        if parts_v:
            cand_v, cand_m, cand_bounds = _or_reduce_segmented(
                np.concatenate(parts_v),
                np.concatenate(parts_m),
                np.concatenate(parts_s),
                nranks,
                n,
            )
        else:
            cand_v, cand_m, cand_bounds = _or_reduce_segmented(
                np.empty(0, dtype=VERTEX_DTYPE),
                np.empty(0, dtype=MASK_DTYPE),
                np.empty(0, dtype=np.int64),
                nranks,
                n,
            )
        # freshness is evaluated against the *level-entry* visited words for
        # every rank at once (the engines' flat-array semantics), then all
        # updates apply together — duplicate candidates across ranks each
        # enter their rank's frontier, exactly as in the sequential engines
        new_m = cand_m & ~seen[cand_v]
        keep = new_m != 0
        kept_v = cand_v[keep]
        kept_m = new_m[keep]
        np.bitwise_or.at(seen, kept_v, kept_m)
        for b in range(self.B):
            sel = (kept_m >> MASK_DTYPE(b)) & MASK_DTYPE(1) != 0
            if sel.any():
                levels[b, kept_v[sel]] = t + 1
        kept_counts = np.zeros(nranks, dtype=np.int64)
        cand_segs = np.repeat(
            np.arange(nranks, dtype=np.int64), np.diff(cand_bounds)
        )
        np.add.at(kept_counts, cand_segs[keep], 1)
        comm.charge_compute_many(updates=kept_counts)
        kept_bounds = np.concatenate(([0], np.cumsum(kept_counts)))
        frontier = [
            (kept_v[kept_bounds[r]: kept_bounds[r + 1]],
             kept_m[kept_bounds[r]: kept_bounds[r + 1]])
            for r in range(nranks)
        ]
        return frontier, kept_counts


def run_ms_bfs(
    engine: LevelSyncEngine,
    sources: list[int],
    targets: list[int | None] | None = None,
    max_levels: int | None = None,
) -> MsBfsResult:
    """Run up to :data:`MAX_BATCH` sources through one shared traversal.

    ``engine`` is a constructed (and possibly
    :meth:`~repro.bfs.level_sync.LevelSyncEngine.rebind`-refreshed) 1D or
    2D engine; its immutable caches drive the batched traversal and its
    communicator carries the traffic.  ``targets[i]``, when given, stops
    source ``i`` at the end of the level that labels its target — the
    sequential driver's early-termination semantics.  Returns an
    :class:`MsBfsResult` whose per-source rows are byte-identical to
    dedicated :func:`~repro.bfs.level_sync.run_bfs` runs.
    """
    return _MsBfsRun(engine, list(sources), targets, max_levels).run()
