"""Sampled fault decisions: :class:`FaultPlan` and the per-run :class:`FaultSchedule`.

The schedule is the stateful object the communicator consults once per
message round — every chunk's fate and link cost answered as arrays,
keyed by the chunk's *pair id* (the network's id of its directed rank
pair) — and at every crash/recovery boundary.  Link degradation,
stragglers, the dying link, and the crash plan are sampled once, into a
:class:`FaultPlan`, from named streams (stable in ``spec.seed`` and
``nranks`` only).  Transient drops come from the keyed
:class:`~repro.faults.crash.KeyedDropStream`: deterministic per link and
transmission index, independent of execution order — which is what makes
the single-process simulator and the multi-process SPMD backend agree
byte-for-byte, and what gives a replayed level fresh draws.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, FaultError
from repro.faults.crash import CrashEvent, KeyedDropStream, grown
from repro.faults.report import FaultReport
from repro.faults.spec import FaultSpec

from dataclasses import dataclass, replace

#: uniforms drawn at a time while sampling degraded links
_LINK_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class FaultPlan:
    """What a spec's seed decides for ``nranks`` ranks, sampled once.

    The retry penalties, the degraded links (a packed table of the P × P
    directed pairs, bit ``src * P + dst`` little-endian within its byte,
    and their count), the stragglers' compute multipliers, the dying link
    and the crash plan never change during a run, so one plan serves every
    run of the same ``(spec, nranks)``.  What a run changes (drop
    counters, link costs, fired and dead ranks, hosts, report) lives in
    :class:`FaultSchedule`.
    """

    spec: FaultSpec
    nranks: int
    retry_penalties: np.ndarray
    degraded: np.ndarray
    degraded_links: int
    compute_multipliers: np.ndarray
    down_pair: tuple[int, int] | None
    crash_events: tuple[CrashEvent, ...]

    @classmethod
    def sample(cls, spec: FaultSpec, nranks: int) -> "FaultPlan":
        """Draw the plan from the spec's named seed streams."""
        # Deferred so that repro.types -> repro.faults does not pull in the
        # repro.utils package (whose __init__ imports repro.types back).
        from repro.utils.rng import RngFactory

        if nranks < 1:
            raise ConfigurationError(f"need at least one rank, got {nranks}")
        factory = RngFactory(spec.seed)
        retry_penalties = np.array([
            spec.retry_timeout * sum(spec.backoff**i for i in range(drops))
            for drops in range(spec.max_retries + 2)
        ])

        degraded, degraded_links = np.empty(0, dtype=np.uint8), 0
        if spec.degraded_link_rate > 0 and spec.degradation_factor > 1:
            # one uniform per ordered pair in (src, dst != src) order, drawn
            # a block of source rows at a time so that P**2 floats never
            # exist at once; blocks are whole eights of rows, so each packs
            # to whole bytes
            link_rng = factory.named("faults:links")
            rows = max(8, _LINK_BLOCK // nranks // 8 * 8)
            blocks = []
            for lo in range(0, nranks, rows):
                src = np.arange(lo, min(lo + rows, nranks))
                hit = link_rng.random((src.size, nranks - 1)) < spec.degraded_link_rate
                degraded_links += int(hit.sum())
                # the diagonal pair src -> src goes in as a zero bit
                bits = np.insert(hit.ravel(), (src - lo) * (nranks - 1) + src, False)
                blocks.append(np.packbits(bits, bitorder="little"))
            degraded = np.concatenate(blocks)

        compute_multipliers = np.ones(nranks, dtype=np.float64)
        if spec.straggler_rate > 0 and spec.straggler_slowdown > 1:
            straggler_rng = factory.named("faults:stragglers")
            mask = straggler_rng.random(nranks) < spec.straggler_rate
            compute_multipliers[mask] = spec.straggler_slowdown

        down_pair = None
        if spec.down_level is not None and nranks > 1:
            down_rng = factory.named("faults:down")
            src = int(down_rng.integers(nranks))
            dst = int(down_rng.integers(nranks - 1))
            down_pair = (src, dst if dst < src else dst + 1)

        # The crash plan: per-rank coin at crash_rate, a uniform level in
        # [0, crash_max_level], and the phase the crash strikes in (the
        # allreduce phase only when the spec drops the reliable-collective
        # assumption).  A rank crashes at most once per run.
        events: list[CrashEvent] = []
        if spec.crash_rate > 0 and nranks > 1:
            crash_rng = factory.named("faults:crashes")
            for rank in range(nranks):
                if crash_rng.random() < spec.crash_rate:
                    level = int(crash_rng.integers(spec.crash_max_level + 1))
                    phase = "exchange"
                    if spec.collective_faults and crash_rng.random() < 0.5:
                        phase = "allreduce"
                    events.append(CrashEvent(rank=rank, level=level, phase=phase))
        return cls(
            spec, int(nranks), retry_penalties, degraded, degraded_links,
            compute_multipliers, down_pair,
            tuple(sorted(events, key=lambda e: (e.level, e.rank))),
        )


class FaultSchedule:
    """Per-run fault state over a :class:`FaultPlan`, consulted by the
    communicator.  Its per-pair columns are indexed by pair id, so every
    round it answers must number pairs the same way: one network's
    :meth:`~repro.runtime.network.Network.pair_ids` (or one SPMD worker's
    destination ranks)."""

    __slots__ = ("spec", "nranks", "report", "_drops", "_degraded", "_costs", "_down_id",
                 "_retry_penalties", "_compute_multipliers", "_down_pair", "_level",
                 "_crash_events", "_crash_fired", "_dead", "_spares_used",
                 "_host", "_has_cohosting")

    def __init__(
        self, spec: FaultSpec, nranks: int, plan: FaultPlan | None = None
    ) -> None:
        """A fresh run of ``spec`` on ``nranks`` ranks, over ``plan`` when
        the caller already sampled it."""
        plan = plan or FaultPlan.sample(spec, nranks)
        self.spec = spec = plan.spec
        self.nranks = plan.nranks
        self._drops = KeyedDropStream(spec.seed, spec.drop_rate, spec.max_retries)
        self._retry_penalties = plan.retry_penalties
        self._degraded = plan.degraded
        #: wire-cost multiplier per pair id, 0.0 until the pair is priced
        self._costs = np.empty(0, dtype=np.float64)
        #: the down pair's id, once priced
        self._down_id: int | None = None
        self._compute_multipliers = plan.compute_multipliers
        self._down_pair = plan.down_pair
        self._crash_events = plan.crash_events
        self._level = 0
        self.report = FaultReport(
            degraded_links=plan.degraded_links,
            straggler_ranks=int((plan.compute_multipliers > 1).sum()),
            link_down=plan.down_pair,
        )
        self._crash_fired: set[int] = set()
        #: ranks currently dead (crashed, recovery not yet executed)
        self._dead: set[int] = set()
        self._spares_used = 0
        #: physical host of each logical rank (shrink recovery cohosts)
        self._host = np.arange(nranks, dtype=np.int64)
        self._has_cohosting = False

    # ------------------------------------------------------------------ #
    # queries made by the communicator
    # ------------------------------------------------------------------ #
    def begin_level(self, level: int) -> None:
        """Tell the schedule which BFS level is executing (link-down gate)."""
        self._level = int(level)

    def link_multipliers(
        self, src: np.ndarray, dst: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Wire-cost multiplier of each message ``src[i] -> dst[i]``, pair
        ``ids[i]``, at the current level (1.0 on a healthy link and for
        self-sends).  A pair's degradation is read from the plan's bit
        table once, the first time the pair is priced."""
        if not ids.size:
            return np.ones(0, dtype=np.float64)
        spec = self.spec
        costs = self._costs = grown(self._costs, ids)
        fresh = np.flatnonzero(costs[ids] == 0.0)
        if fresh.size:
            src, dst, at = src[fresh], dst[fresh], ids[fresh]
            costs[at] = 1.0
            if self._degraded.size:
                key = src * self.nranks + dst
                hit = (self._degraded[key >> 3] >> (key & 7)) & 1
                costs[at[hit == 1]] = spec.degradation_factor
            if self._down_pair is not None:
                down = (src == self._down_pair[0]) & (dst == self._down_pair[1])
                if down.any():
                    self._down_id = int(at[down][0])
        out = costs[ids]
        if self._down_id is not None and self._level >= spec.down_level:
            out[ids == self._down_id] = spec.down_detour_factor
        return out

    def compute_fault_extra(self, seconds: np.ndarray) -> np.ndarray:
        """Per-rank fault seconds riding on a bulk compute charge.

        Straggler ranks pay their slowdown excess; after a shrink
        failover the surviving host additionally serializes every
        absorbed rank's compute (the cohost model: one node, two
        partitions, no extra parallelism).
        """
        extra = seconds * (self._compute_multipliers - 1.0)
        if self._has_cohosting:
            absorbed = self._host != np.arange(self.nranks)
            if absorbed.any():
                hosted = np.zeros(self.nranks, dtype=np.float64)
                np.add.at(hosted, self._host[absorbed], seconds[absorbed])
                extra = extra + hosted
        return extra

    def plan_round(
        self, src: np.ndarray, dst: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide the fate of every chunk ``src[i] -> dst[i]``, pair
        ``ids[i]``, of a round.

        Returns per-chunk ``(transmissions, delivered)`` and tallies the
        report; the decisions come from the keyed drop stream (see the
        module docstring).  Self-sends are local hand-offs: they never
        draw and always arrive.  This is the one place a chunk's fate is
        decided and counted, in the simulator and in every SPMD worker.
        """
        transmissions = np.ones(src.size, dtype=np.int64)
        delivered = np.ones(src.size, dtype=bool)
        wired = src != dst
        transmissions[wired], delivered[wired] = self._drops.plan_many(
            src[wired], dst[wired], ids[wired]
        )
        drops = transmissions - delivered
        injected = int(drops.sum())
        if injected:
            report = self.report
            report.injected += injected
            report.retries += int((transmissions - 1).sum())
            report.recovered += int((delivered & (drops > 0)).sum())
            report.unrecovered += int((~delivered).sum())
        return transmissions, delivered

    def retry_penalty(self, drops):
        """Timeout seconds a sender waits to detect ``drops`` losses of one
        chunk (an int, or an array of per-chunk counts)."""
        return self._retry_penalties[drops]

    # ------------------------------------------------------------------ #
    # crash lifecycle
    # ------------------------------------------------------------------ #
    @property
    def crash_events(self) -> tuple[CrashEvent, ...]:
        """The full construction-sampled crash plan (read-only)."""
        return self._crash_events

    @property
    def dead_ranks(self) -> frozenset[int]:
        """Ranks that crashed and have not executed recovery yet."""
        return frozenset(self._dead)

    def fire_crashes(self, phase: str) -> list[CrashEvent]:
        """Fire (once) every crash scheduled for the current level/``phase``."""
        fired = [
            event
            for event in self._crash_events
            if event.level == self._level
            and event.phase == phase
            and event.rank not in self._crash_fired
        ]
        for event in fired:
            self._crash_fired.add(event.rank)
            self._dead.add(event.rank)
        self.report.crashes += len(fired)
        return fired

    def buddy_of(self, rank: int) -> int:
        """The partner rank holding ``rank``'s level-boundary checkpoint."""
        return (rank + 1) % self.nranks

    def check_recoverable(self, events: list[CrashEvent]) -> None:
        """Raise :class:`FaultError` when a crash batch is unrecoverable.

        The buddy ring replicates rank ``r``'s checkpoint onto
        ``(r+1) % P``; when both die in the same level the checkpoint is
        gone with them and no recovery mode can reconstruct the
        partition.
        """
        ranks = {event.rank for event in events}
        for event in events:
            buddy = self.buddy_of(event.rank)
            if buddy in ranks:
                raise FaultError(
                    f"unrecoverable crash at level {event.level}: ranks "
                    f"{event.rank} and {buddy} are checkpoint buddies and "
                    "died together, so the buddy checkpoint is lost"
                )

    def assign_recovery(self, rank: int) -> str:
        """Pick and register the failover mode for crashed ``rank``.

        Returns ``"spare"`` (a reserved spare adopts the slot) while the
        spec's spare pool lasts, falling back to ``"shrink"`` (the buddy
        absorbs the partition as a cohost) otherwise.
        """
        self._dead.discard(rank)
        spec = self.spec
        if spec.recovery == "spare" and self._spares_used < spec.spare_ranks:
            self._spares_used += 1
            self.report.spare_failovers += 1
            return "spare"
        host = int(self._host[self.buddy_of(rank)])
        self._host[rank] = host
        # anything this rank was hosting migrates with it
        self._host[self._host == rank] = host
        self._has_cohosting = True
        self.report.shrink_failovers += 1
        return "shrink"

    # ------------------------------------------------------------------ #
    # bookkeeping shared with the engine
    # ------------------------------------------------------------------ #
    def record_rollback(self, wasted_seconds: float) -> None:
        """Count one level rollback that threw away ``wasted_seconds``."""
        self.report.rollbacks += 1
        self.report.rollback_seconds += float(wasted_seconds)

    def record_replay(self, wasted_seconds: float) -> None:
        """Count one crash-triggered level replay (wasted attempt seconds)."""
        self.report.replayed_levels += 1
        self.report.rollback_seconds += float(wasted_seconds)

    def record_checkpoint(self, nbytes: int) -> None:
        """Tally one level boundary's buddy-replication traffic."""
        self.report.checkpoint_bytes += int(nbytes)

    def snapshot_report(self, overhead_seconds: float) -> FaultReport:
        """Freeze the current report with the clock's fault-time total."""
        return replace(self.report, overhead_seconds=float(overhead_seconds))


__all__ = ["FaultPlan", "FaultSchedule"]
