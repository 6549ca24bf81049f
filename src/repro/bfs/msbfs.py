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

The traversal rides the existing engine: :func:`run_ms_bfs` wraps a
constructed :class:`~repro.bfs.level_sync.LevelSyncEngine` (on any
mesh, the 1D ``1 x P`` included), and a batch level is the
engine's *one* top-down body
(:meth:`~repro.bfs.level_sync.LevelSyncEngine._top_down`) — expand,
merge, discover, fold — over a pooled ``(flat, bounds, masks)`` frontier:
single-source is the same body with the mask column left out.  This
module keeps only the batch's state (bit-sliced level planes, visited
mask words, target retirement, the level checkpoint) and its label, and
fixes the batch's settings in one place (``_MsBfsRun._attempt``).  The loop and its
recovery are :func:`~repro.bfs.level_sync.run_level`.  The mask words
ride every round and both collective drivers beside the vertex ids: the
vertex ids enter the wire through
:meth:`~repro.runtime.comm.Communicator.exchange_arrays` (so wire codecs,
chunking, contention, faults and observability all apply to them), while
the mask words are charged uncompressed (8 bytes per entry; dense
bitmasks are what the sparse-frontier codecs do *not* target) and re-join
their vertices by position on arrival.

Level semantics are bit-for-bit those of the sequential loop: a source's
level row after :func:`run_ms_bfs` is byte-identical to the ``levels``
array a dedicated :func:`~repro.bfs.level_sync.run_bfs` would produce —
including target-terminated runs, which retire the source's bit at the
end of the level that labels its target (exactly where the sequential
driver stops).  The test suite asserts this property across seeds,
layouts, and codecs.

Fault injection rides the same level-boundary checkpoint/replay protocol
as the sequential loop: each batch level snapshots the level planes,
the per-vertex visited mask words and the per-level reached words (the
``(vertex, mask)`` entry frontier is never mutated), and buddy-replicates
the per-rank slice of that state when crashes are possible.  A lost
chunk or a rank crash rolls the batch level back to its entry state and
re-executes it (mask-aware rollback), so
crash-spare/crash-shrink recovery and wire-drop retry work inside a
batched traversal — per-source rows stay byte-identical to fault-free
sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.level_sync import LevelSyncEngine, run_level
from repro.bfs.result import QueryResult
from repro.collectives.base import get_fold
from repro.errors import ConfigurationError, SearchError
from repro.faults.report import FaultReport
from repro.runtime.stats import CommStats
from repro.types import LEVEL_DTYPE, UNREACHED, VERTEX_DTYPE

#: dtype of the per-vertex source masks (one bit per batched source)
MASK_DTYPE = np.uint64

#: widest batch one traversal can carry (bits in a mask word)
MAX_BATCH = 64

#: a batch level's fold, whatever the engine's options say: the set-union
#: rings merge vertex ids, not mask words
_BATCH_FOLD = get_fold("direct")

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


def _keep(
    flat: np.ndarray, bounds: np.ndarray, masks: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of a pooled ``(flat, bounds, masks)`` frontier that ``keep`` marks."""
    return flat[keep], np.concatenate(([0], np.cumsum(keep)))[bounds], masks[keep]


class _MsBfsRun:
    """One batched traversal's state over a wrapped engine.

    Holds only what is batch-specific — the bit-sliced level planes (the
    ``(B, n)`` rows are built once, at the end of :meth:`run`), the
    visited mask words, the pooled ``(flat, bounds, masks)`` frontier
    (rank ``r`` holds ``flat[bounds[r]:bounds[r+1]]``, sorted, with the
    parallel mask words), target retirement and the level checkpoint.
    The level loop and its recovery are
    :func:`~repro.bfs.level_sync.run_level`; the level itself is the
    engine's top-down body with the batch's settings (:meth:`_attempt`),
    labelled by :meth:`_label`.
    """

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
        self.level = 0
        # bit-sliced levels: bit b of planes[p][v] is bit p of source b's
        # level at v, meaningful only where seen[v] has bit b set; a
        # plane is added when the first level that needs its bit is
        # labelled (every source starts at level 0, all planes clear)
        self.planes: list[np.ndarray] = []
        # reached[l]: the sources that labelled at least one vertex at l
        self.reached = [np.bitwise_or.reduce(self.bits)]
        # initial frontier: each source at its owner rank
        init_verts = np.array(self.sources, dtype=VERTEX_DTYPE)
        self.seen = np.zeros(n, dtype=MASK_DTYPE)
        np.bitwise_or.at(self.seen, init_verts, self.bits)
        self.frontier = engine._owned_union(init_verts, self.bits)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def run(self) -> MsBfsResult:
        engine = self.engine
        comm = self.comm
        B = self.B
        obs = comm.obs
        target_levels: list[int | None] = [
            0 if t is not None and t == s else None
            for s, t in zip(self.sources, self.targets)
        ]
        retired_level = np.zeros(B, dtype=np.int64)
        active = np.ones(B, dtype=bool)

        run_span = (
            obs.begin("msbfs", cat="run", sources=B) if obs.enabled else None
        )
        while True:
            level_span = (
                obs.begin(f"level {self.level}", cat="level", level=self.level)
                if obs.enabled
                else None
            )
            self.frontier, total_new, rollbacks, replays = run_level(
                comm, engine.opts, self.level, self, prefix="batch "
            )
            self.level += 1
            t = self.level
            pending = [
                i
                for i in range(B)
                if active[i] and self.targets[i] is not None
            ]
            if pending:
                # one found-check reduction covers every pending target —
                # the sequential driver pays one per query per level
                flags = np.zeros(self.nranks, dtype=np.float64)
                retired = MASK_DTYPE(0)
                for i in pending:
                    tgt = self.targets[i]
                    if target_levels[i] is None and self.seen[tgt] & self.bits[i]:
                        target_levels[i] = self._level_at(i, tgt)
                    if target_levels[i] is not None:
                        flags[engine.owner_rank(tgt)] = 1.0
                        active[i] = False
                        retired_level[i] = t
                        retired |= self.bits[i]
                comm.allreduce_flag(flags)
                if retired:
                    flat, bounds, masks = self.frontier
                    masks = masks & ~retired
                    self.frontier = _keep(flat, bounds, masks, masks != 0)
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

        # per-source level counts, matching the sequential driver: a
        # retired source stops where its target was labelled, any other at
        # its eccentricity + 1 (the last level whose word holds its bit)
        reached = np.array(self.reached, dtype=MASK_DTYPE)
        hit = (reached[:, None] >> np.arange(B, dtype=MASK_DTYPE)) & MASK_DTYPE(1)
        ecc = len(reached) - 1 - np.argmax(hit[::-1] != 0, axis=0)
        cap = t if self.max_levels is None else min(t, self.max_levels)
        num_levels = np.where(active, np.minimum(ecc + 1, cap), retired_level)
        clock = comm.clock
        return MsBfsResult(
            sources=tuple(self.sources),
            targets=tuple(self.targets),
            levels=self._rows(),
            num_levels=num_levels,
            target_levels=tuple(target_levels),
            batch_levels=t,
            elapsed=clock.elapsed,
            comm_time=clock.max_comm_time,
            compute_time=clock.max_compute_time,
            stats=comm.stats,
            faults=comm.fault_report(),
        )

    # ------------------------------------------------------------------ #
    # level-boundary checkpointing (the run_level body protocol)
    # ------------------------------------------------------------------ #
    def _checkpoint_nbytes(self) -> np.ndarray:
        """Per-rank byte size of the buddy-replicated batch checkpoint.

        The O(n/P) state a partner must hold to resurrect a rank inside a
        batched traversal: the owned slice of every source's level row
        (``B`` level words per vertex), the owned slice of the visited
        mask words (8 bytes per vertex), and the rank's current frontier
        as ``(vertex, mask)`` pairs.

        The host holds the levels as ``bit_length(depth)`` bit-sliced
        planes, but this prices what the modelled machine checkpoints: a
        rank keeps each source's level row for its owned vertices, so the
        size stays ``B`` level words per vertex — and the simulated crash
        time and bytes do not depend on how the host stores levels.
        """
        per_vertex = (
            self.B * np.dtype(LEVEL_DTYPE).itemsize + np.dtype(MASK_DTYPE).itemsize
        )
        per_entry = np.dtype(VERTEX_DTYPE).itemsize + np.dtype(MASK_DTYPE).itemsize
        return self.engine._owned_spans * per_vertex + np.diff(self.frontier[1]) * per_entry

    def _checkpoint(self) -> tuple[list[np.ndarray], np.ndarray, int]:
        """Snapshot what an attempt mutates: the level planes, the visited
        words and the length of the per-level reached list (the simulated
        size is :meth:`_checkpoint_nbytes`, not this host copy)."""
        return [plane.copy() for plane in self.planes], self.seen.copy(), len(
            self.reached
        )

    def _restore(self, snapshot: tuple[list[np.ndarray], np.ndarray, int]) -> None:
        """Mask-aware rollback: the next attempt re-expands the untouched
        entry frontier under fresh fault draws.  ``run_level`` takes a new
        snapshot before every attempt, so this one is adopted, not copied."""
        self.planes, self.seen, depth = snapshot
        del self.reached[depth:]

    # ------------------------------------------------------------------ #
    # one batch level: the engine's top-down body, labelled word-wide
    # ------------------------------------------------------------------ #
    def _attempt(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batch level from the entry frontier; returns the next one.

        The batch's settings, whatever ``engine.opts`` say (see
        :func:`run_ms_bfs`): the direct fold, no sent cache, no sieve.
        """
        return self.engine._top_down(
            *self.frontier, fold=_BATCH_FOLD, filter_sent=False, sieve=None,
            label=self._label,
        )

    def _label(
        self, flat: np.ndarray, bounds: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Width-W label: each candidate keeps the source bits that have not
        visited it yet, and those (vertex, bit) pairs take ``level + 1``.

        Freshness is read against the level-entry visited words for every
        rank at once, then all updates apply together: one OR into the
        visited words and one into each plane whose bit ``level + 1`` sets.
        """
        masks = masks & ~self.seen[flat]
        flat, bounds, masks = _keep(flat, bounds, masks, masks != 0)
        # the owners' mark pass leaves each vertex once: plain fancy ORs
        self.seen[flat] |= masks
        label = self.level + 1
        for p in range(label.bit_length()):
            if p == len(self.planes):
                self.planes.append(np.zeros(self.n, dtype=MASK_DTYPE))
            if label >> p & 1:
                self.planes[p][flat] |= masks
        self.reached.append(np.bitwise_or.reduce(masks, initial=MASK_DTYPE(0)))
        return flat, bounds, masks

    def _level_at(self, i: int, v: int) -> int:
        """Source ``i``'s level at ``v``, decoded from the planes (``v``
        must hold ``i``'s visited bit)."""
        return sum(
            (int(plane[v]) >> i & 1) << p for p, plane in enumerate(self.planes)
        )

    def _rows(self) -> np.ndarray:
        """The ``(B, n)`` C-ordered level rows, built once from the planes."""
        B, n = self.B, self.n

        def unpack(words: np.ndarray) -> np.ndarray:
            """``(n, B)`` 0/1 bytes: column ``b`` is bit ``b`` of each word."""
            octets = words.astype("<u8", copy=False).view(np.uint8).reshape(n, 8)
            return np.unpackbits(octets, axis=1, bitorder="little")[:, :B]

        acc = np.zeros((n, B), dtype=np.min_scalar_type((1 << len(self.planes)) - 1))
        for p, plane in enumerate(self.planes):
            acc |= unpack(plane).astype(acc.dtype) << acc.dtype.type(p)
        levels = acc.T.astype(LEVEL_DTYPE, order="C")
        levels[unpack(self.seen).T == 0] = UNREACHED
        return levels


def run_ms_bfs(
    engine: LevelSyncEngine,
    sources: list[int],
    targets: list[int | None] | None = None,
    max_levels: int | None = None,
) -> MsBfsResult:
    """Run up to :data:`MAX_BATCH` sources through one shared traversal.

    ``engine`` is a constructed (and possibly
    :meth:`~repro.bfs.level_sync.LevelSyncEngine.rebind`-refreshed)
    engine; its immutable caches drive the batched traversal and its
    communicator carries the traffic.  ``targets[i]``, when given, stops
    source ``i`` at the end of the level that labels its target — the
    sequential driver's early-termination semantics.  Returns an
    :class:`MsBfsResult` whose per-source rows are byte-identical to
    dedicated :func:`~repro.bfs.level_sync.run_bfs` runs.

    A batch level is the engine's own top-down body
    (:meth:`~repro.bfs.level_sync.LevelSyncEngine._top_down`) over the
    ``(vertex, mask)`` frontier, with the engine's expand collective and
    these settings, whatever ``engine.opts`` say: the ``direct`` fold
    (the set-union rings merge vertex ids, not mask words), no sent cache
    and no sieve (both keep per-vertex state, and a vertex already sent
    or visited for one source is not for another), top-down at every
    level.
    """
    return _MsBfsRun(engine, list(sources), targets, max_levels).run()
