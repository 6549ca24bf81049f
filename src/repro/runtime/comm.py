"""The virtual communicator: synchronous message rounds over the network model.

This is the library's stand-in for an MPI communicator.  BFS drivers and
collective algorithms talk to it exclusively through:

* :meth:`Communicator.exchange_arrays` — one synchronous round of
  point-to-point messages (payloads are int64 vertex arrays, chunked to
  the fixed buffer capacity of Section 3.1), given as flat arrays; every
  configuration is chunked, priced, faulted, charged and traced by the
  same code,
* :meth:`Communicator.allreduce_sum` / :meth:`allreduce_flag` — the global
  termination check of the level-synchronous loop,
* :meth:`Communicator.charge_compute_many` — local-work cost accounting.

Time is charged through the :class:`~repro.runtime.network.Network`
contention model and the per-rank :class:`~repro.runtime.clock.SimClock`.

A :mod:`repro.wire` codec (``wire=``) compresses every chunk: the network
is charged for the *encoded* bytes, a calibrated per-vertex encode/decode
CPU cost lands on the clock's compute bucket, and the statistics carry
both raw and encoded byte counts.  The default ``"raw"`` codec reproduces
the uncompressed runtime byte-for-byte.

When a :class:`~repro.faults.FaultSchedule` is attached, every round asks
it for the fates of its wire chunks: transient drops are retried with
exponential backoff (each wasted transmission and timeout charges
simulated *fault* time), degraded links multiply wire cost, and
stragglers multiply compute cost.  A chunk that exhausts its retries is
lost — the round reports it withheld — and the level is flagged so the
BFS engine can roll the level back to its checkpoint.  Without a schedule
every path below is byte-identical to the fault-free runtime.

Rank crashes ride the same machinery: the schedule fires scheduled
crashes at the first exchange of their level (or, with
``collective_faults=True``, at the level's first reduction — the
reliable-collective-network assumption dropped), every rank pays the
``detect_timeout`` to notice the dead peer, messages to and from dead
ranks are withheld, and the BFS engine drives the recovery —
:meth:`Communicator.consume_crashes` + :meth:`Communicator.recover_crashes`
— before replaying the level from its buddy checkpoint (replicated each
level boundary through :meth:`Communicator.replicate_checkpoint`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import BufferOverflowError, CommunicationError, FaultError
from repro.faults import CrashEvent, FaultReport, FaultSchedule, FaultSpec
from repro.machine.bluegene import MachineModel
from repro.machine.mapping import TaskMapping
from repro.observability.spans import NULL_RECORDER, ObserveSpec, SpanRecorder
from repro.runtime.clock import SimClock
from repro.runtime.network import Network
from repro.runtime.stats import CommStats, check_message_columns
from repro.wire import WireCodec, resolve_wire


class Communicator:
    """A P-rank virtual communicator with simulated-time accounting."""

    def __init__(
        self,
        mapping: TaskMapping,
        model: MachineModel,
        *,
        buffer_capacity: int | None = None,
        faults: FaultSpec | FaultSchedule | None = None,
        wire: WireCodec | str | None = None,
        observe: ObserveSpec | str | None = None,
        network: Network | None = None,
    ) -> None:
        self.mapping = mapping
        self.model = model
        # A prebuilt Network may be shared across communicators serving the
        # same mapping+model: its route/pattern tables are pure caches, so
        # reusing it skips the route interning cost on every fresh
        # communicator (the BfsSession / server per-query path).
        if network is not None and (
            network.mapping is not mapping or network.model is not model
        ):
            raise CommunicationError(
                "injected network was built for a different mapping or machine model"
            )
        self.network = network if network is not None else Network(mapping, model)
        self.nranks = mapping.grid.size
        self.grid = mapping.grid
        self.buffer_capacity = buffer_capacity
        #: frontier compression codec applied to every wire chunk
        self.wire: WireCodec = resolve_wire(wire)
        self.clock = SimClock(self.nranks)
        self.stats = CommStats(self.nranks)
        if isinstance(faults, FaultSpec):
            faults = FaultSchedule(faults, self.nranks)
        self.faults: FaultSchedule | None = faults
        self._level_failed = False
        #: crashes fired since the last consume_crashes (engine recovery queue)
        self._crash_pending: list[CrashEvent] = []
        #: the level's first reduction may carry a crash (collective_faults)
        self._allreduce_armed = False
        #: what the observability layer captures (``repro.observability``)
        self.observe = ObserveSpec.parse(observe)
        #: span recorder — the shared no-op singleton when spans are off
        self.obs = SpanRecorder(self.clock) if self.observe.spans else NULL_RECORDER
        #: installed :class:`~repro.runtime.trace.TraceRecorder` objects; every
        #: round hands them its chunks
        self.recorders: list = []
        #: per-message event capture (installed only for observe "messages"/"full")
        self.obs_trace = None
        if self.observe.messages:
            from repro.runtime.trace import TraceRecorder

            self.obs_trace = TraceRecorder(self).install()

    # ------------------------------------------------------------------ #
    # point-to-point rounds
    # ------------------------------------------------------------------ #
    def exchange_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        flat: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        phase: str,
        participants: list[int] | None = None,
        population=None,
        pop_idx: np.ndarray | None = None,
        masks: np.ndarray | None = None,
        rounds: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Execute synchronous rounds of point-to-point messages.

        Message ``k`` carries ``flat[starts[k]:stops[k]]`` from ``src[k]``
        to ``dst[k]``; messages must be non-empty, with each ``(src, dst)``
        pair appearing at most once per round (their order is the order of
        the trace and of per-rank float accumulation).  Every payload is
        chunked to ``buffer_capacity`` (each chunk is a separate message
        paying its own latency — the cost of the paper's fixed-length
        buffers) and participants are barrier-synchronised after each
        round.  ``rounds`` (CSR bounds over the messages) runs several
        rounds back to back, each in its own ``round t`` span, with every
        float the single-round calls would give; ``None``: one round.

        ``masks``, a batched traversal's mask-word column parallel to
        ``flat``, rides the same messages uncompressed (dense bitmasks
        are what the frontier codecs do *not* target): one more transfer
        over the unsplit messages at the words' item size per entry,
        charged before the barrier and counted in the byte totals only —
        no messages, vertices or phase split.  The words re-join their
        vertices by position: the chunk bounds returned index both
        columns.

        With a fault schedule attached, each chunk may be dropped and
        retried (see the module docstring); a chunk lost for good flags
        the current level as failed.  Returns ``None`` when every chunk
        arrived, else ``(msg, starts, stops)`` of the chunks that did:
        chunk ``j`` is ``flat[starts[j]:stops[j]]`` of message ``msg[j]``.

        ``population``/``pop_idx`` forward to
        :meth:`~repro.runtime.network.Network.round_times_arrays` — the
        prepared-pair-population contention shortcut (dropped for a call
        the buffer cap splits: its chunks repeat pairs) — and the
        population's pair ids key the fault schedule's answers, where
        other rounds ask :meth:`~repro.runtime.network.Network.pair_ids`.

        The arguments' shapes are checked first, in O(1) plus O(rounds):
        ``src``, ``dst``, ``starts``, ``stops`` and ``pop_idx`` hold one
        entry per message, ``masks`` one per entry of ``flat``, and
        ``rounds`` is a CSR over the messages.  A violation raises
        :class:`CommunicationError` naming the argument, before anything
        is counted or charged.
        """
        _check_messages(self.nranks, src, dst, flat, starts, stops, pop_idx, masks, rounds)
        msg, starts, stops, arrived = self._round(
            src, dst, flat, starts, stops, phase, participants,
            population, pop_idx, masks, rounds,
        )
        if arrived is None:
            return None
        if msg is None:
            msg = np.arange(src.size)
        return msg[arrived], starts[arrived], stops[arrived]

    def _round(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        flat: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        phase: str,
        participants: list[int] | None,
        population=None,
        pop_idx: np.ndarray | None = None,
        masks: np.ndarray | None = None,
        rounds: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None]:
        """The message rounds behind :meth:`exchange_arrays`.

        Each knob is a step that does nothing when the knob is off and
        runs once over all rounds; :meth:`_advance_rounds` then replays
        them on the clocks.  Returns the chunks as ``(msg, starts, stops,
        arrived)``: ``msg[k]`` is the message chunk ``k`` was cut from
        (``None``: no message was split, chunk ``k`` is message ``k``) and
        ``arrived`` masks the chunks that reached their destination
        (``None``: all).
        """
        nranks = self.nranks
        bounds = np.array([0, src.size]) if rounds is None else rounds
        # the mask column's transfer: the messages as given, before chunking
        side = None if masks is None else (src, dst, (stops - starts) * masks.itemsize)
        senders = src

        msg = None
        chunk_bounds = bounds
        capacity = self.buffer_capacity
        if capacity is not None:
            if capacity < 1:
                raise BufferOverflowError(
                    f"buffer capacity must be positive, got {capacity}"
                )
            nchunks = -((starts - stops) // capacity)
            if nchunks.sum() != src.size:
                msg = np.repeat(np.arange(src.size), nchunks)
                ends = np.cumsum(nchunks)
                within = np.arange(msg.size) - (ends - nchunks)[msg]
                starts = starts[msg] + within * capacity
                stops = np.minimum(starts + capacity, stops[msg])
                src, dst = src[msg], dst[msg]
                chunk_bounds = np.concatenate(([0], ends))[bounds]
                population = pop_idx = None
        count = src.size
        bytes_per_vertex = self.model.bytes_per_vertex
        raw_nbytes = stops - starts
        raw_nbytes *= bytes_per_vertex

        # one pricing call; self-sends are local hand-offs — never encoded
        nbytes = raw_nbytes
        wire = self.wire
        encode_s = decode_s = None
        if wire.name != "raw":
            nbytes = raw_nbytes.copy()
            encode_s = np.zeros(count, dtype=np.float64)
            decode_s = np.zeros(count, dtype=np.float64)
            wired = src != dst
            nbytes[wired], encode_s[wired], decode_s[wired] = wire.price_many(
                flat, starts[wired], stops[wired]
            )

        # every wire chunk's fate: transmissions, final delivery, link cost,
        # keyed by pair id (a population's own ids need no search)
        faults = self.faults
        delivered = multipliers = None
        if faults is not None:
            ids = (
                self.network.pair_ids(src, dst)
                if population is None
                else population.ids[pop_idx]
            )
            transmissions, delivered = faults.plan_round(src, dst, ids)
            multipliers = faults.link_multipliers(src, dst, ids)
            drops = transmissions - delivered
            self.stats.record_fault(int(drops.sum()), int((transmissions - 1).sum()))
            if not delivered.all():
                self._level_failed = True

        total_raw = int(raw_nbytes.sum())
        vertices = total_raw // bytes_per_vertex
        total_enc = total_raw if nbytes is raw_nbytes else int(nbytes.sum())
        self.stats.record_message_bulk(
            count, vertices, total_raw, total_enc, phase=phase
        )
        send_time, recv_time, per_transfer = self.network.round_times_arrays(
            src, dst, nbytes, multipliers, population=population, pop_idx=pop_idx,
            rounds=None if rounds is None else chunk_bounds,
        )
        send_time, recv_time = send_time.reshape(-1, nranks), recv_time.reshape(-1, nranks)
        nrows = send_time.shape[0]
        # per-rank sums round by round: a chunk's key is round * P + rank
        key_src, key_dst = src, dst
        if rounds is not None and (faults is not None or encode_s is not None):
            row = np.repeat(np.arange(nrows) * nranks, np.diff(chunk_bounds))
            key_src, key_dst = row + src, row + dst
        # without faults the send times are not read again: overwrite them
        base = np.maximum(send_time, recv_time, out=send_time if faults is None else None)
        charges = [(base, "comm")]
        if faults is not None:
            # wasted retransmissions plus the backoff timeouts that
            # detected each loss; the first transmission is already in the
            # base round times
            fault_send = np.zeros(base.size, dtype=np.float64)
            fault_recv = np.zeros(base.size, dtype=np.float64)
            faulty = np.flatnonzero(drops)
            extra = (transmissions[faulty] - 1) * per_transfer[faulty] + (
                faults.retry_penalty(drops[faulty])
            )
            np.add.at(fault_send, key_src[faulty], extra)
            np.add.at(fault_recv, key_dst[faulty], extra)
            total = np.maximum(
                send_time + fault_send.reshape(nrows, nranks),
                recv_time + fault_recv.reshape(nrows, nranks),
            )
            charges.append((total - base, "fault"))
        if encode_s is not None:
            # one encode per chunk (retransmissions reuse the buffer);
            # decode only where the chunk was delivered.  Chunk by chunk,
            # sender before receiver — the accumulation order per rank.
            if delivered is not None:
                decode_s = decode_s * delivered
            codec_seconds = np.zeros(base.size, dtype=np.float64)
            np.add.at(
                codec_seconds,
                np.column_stack((key_src, key_dst)).ravel(),
                np.column_stack((encode_s, decode_s)).ravel(),
            )
            charges.append((codec_seconds.reshape(nrows, nranks), "compute"))
        if side is not None and side[0].size:
            send_time, recv_time, _ = self.network.round_times_arrays(*side, rounds=rounds)
            charges.append((np.maximum(send_time, recv_time).reshape(-1, nranks), "comm"))
            total = int(side[2].sum())
            self.stats.record_message_bulk(0, 0, total, total)

        summaries = None
        if self.obs.enabled:  # each round's messages, vertices and bytes
            columns = np.vstack((np.ones(count, dtype=np.int64), stops - starts, raw_nbytes, nbytes))
            summed = np.cumsum(np.hstack((np.zeros((4, 1), dtype=np.int64), columns)), axis=1)
            summaries = np.diff(summed[:, chunk_bounds], axis=1).T.tolist()
        stamps = self._advance_rounds(
            phase, senders, bounds, charges, participants, summaries, rounds is not None
        )

        arrived = delivered
        if faults is not None:
            if faults.dead_ranks:
                dead = np.fromiter(faults.dead_ranks, dtype=np.int64)
                arrived = delivered & ~(np.isin(src, dead) | np.isin(dst, dead))
            if arrived.all():
                arrived = None
        for recorder in self.recorders:
            recorder.record_round(
                stamps if msg is None else stamps[msg],
                src, dst, stops - starts, raw_nbytes, nbytes, phase,
            )
        return msg, starts, stops, arrived

    def _advance_rounds(
        self, phase: str, senders: np.ndarray, bounds: np.ndarray, charges: list,
        participants: list[int] | None, summaries: list | None, named: bool,
    ) -> np.ndarray | None:
        """Replay priced rounds on the clocks, one barrier each.

        Round ``t`` (messages ``bounds[t]:bounds[t + 1]``) advances every
        rank by row ``t`` of each ``(seconds, kind)`` charge in order and
        synchronises ``participants``, in its ``exchange`` span (inside a
        ``round t`` span when ``named``).  Scheduled crashes fire in round
        0, once its messages are stamped.  Returns the senders' clock
        stamps (``None`` without recorders).
        """
        obs, clock = self.obs, self.clock
        stamps = np.empty(senders.size, dtype=np.float64) if self.recorders else None
        for t in range(bounds.size - 1):
            outer = span = None
            if obs.enabled:
                if named:
                    outer = obs.begin(f"round {t}", cat="round", phase=phase)
                span = obs.begin("exchange", cat="exchange", phase=phase)
            if stamps is not None:
                lo, hi = bounds[t], bounds[t + 1]
                stamps[lo:hi] = clock.time[senders[lo:hi]]
            if t == 0 and self.faults is not None:
                self._fire_crashes("exchange")
            for seconds, kind in charges:
                clock.advance_many(seconds[t], kind=kind)
            self.barrier(participants)
            if span is not None:
                names = ("messages", "vertices", "raw_bytes", "encoded_bytes")
                obs.end(span, **dict(zip(names, summaries[t])))
            if outer is not None:
                obs.end(outer)
        return stamps

    def exchange_summaries(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        phase: str | None = "sieve",
    ) -> None:
        """Ship pre-sized control messages (visited summaries, bitmaps).

        Message ``k`` carries ``nbytes[k]`` bytes from ``src[k]`` to
        ``dst[k]``.  Summaries are fixed-size bitmaps, not vertex lists:
        they bypass the wire codec (raw == encoded), carry zero frontier
        vertices, and are charged to the network and statistics under
        ``phase`` so the sieve's overhead stays visible next to the fold
        bytes it saves (``phase=None``: counted in the totals only, the
        bottom-up bitmap rounds).  Summaries ride the reliable control plane: fault
        schedules never drop them, and because the exchange runs inside
        the retried level body, a rollback replays the broadcast against
        the restored shadows deterministically.

        ``src``, ``dst`` and ``nbytes`` hold one entry per message and the
        ranks lie in ``[0, nranks)``, else :class:`CommunicationError`
        names the argument before anything is counted or charged.
        """
        check_message_columns(self.nranks, {"src": src, "dst": dst}, {"nbytes": nbytes})
        obs = self.obs
        span = obs.begin("exchange", cat="exchange", phase=phase) if obs.enabled else None
        total = int(nbytes.sum())
        self.stats.record_message_bulk(int(src.size), 0, total, total, phase=phase)
        send_time, recv_time, _ = self.network.round_times_arrays(src, dst, nbytes)
        self.clock.advance_many(np.maximum(send_time, recv_time), kind="comm")
        self.barrier()
        if span is not None:
            obs.end(
                span,
                messages=int(src.size),
                vertices=0,
                raw_bytes=total,
                encoded_bytes=total,
            )

    def barrier(self, participants: list[int] | None = None) -> None:
        """Synchronise ``participants`` (default: all ranks)."""
        self.clock.sync(participants)

    # ------------------------------------------------------------------ #
    # fault lifecycle (driven by the BFS engines)
    # ------------------------------------------------------------------ #
    def begin_level(self, level: int) -> None:
        """Open level ``level``: statistics row, fault gate, failure flag."""
        self.stats.begin_level(level)
        if self.faults is not None:
            self.faults.begin_level(level)
        self._level_failed = False
        # only the level's own termination reduction — the first one after
        # begin_level — may carry a crash; later reductions (target checks,
        # the bidirectional meet test) run outside the engine's recovery
        # scope and stay reliable.
        self._allreduce_armed = True

    def consume_level_failure(self) -> bool:
        """Return (and clear) whether an unrecovered loss occurred since
        the last :meth:`begin_level`."""
        failed = self._level_failed
        self._level_failed = False
        return failed

    def consume_crashes(self) -> list[CrashEvent]:
        """Return (and clear) the crashes fired since the last call.

        The BFS engine checks this right after the level's termination
        reduction and, when non-empty, runs :meth:`recover_crashes` and
        replays the level from its checkpoint.
        """
        crashed = self._crash_pending
        self._crash_pending = []
        return crashed

    def recover_crashes(
        self, events: list[CrashEvent], checkpoint_nbytes: np.ndarray
    ) -> list[dict[str, object]]:
        """Execute the failover protocol for a batch of crashes.

        For every crashed rank the schedule picks the recovery mode:

        * ``"spare"`` — a reserved spare node adopts the dead rank's slot;
          the buddy streams the dead rank's checkpoint
          (``checkpoint_nbytes[rank]`` bytes) to it over the network, and
          every rank stalls for the transfer (fault time).
        * ``"shrink"`` — the buddy already holds the checkpoint and simply
          absorbs the partition as a cohost; no bulk transfer, but the
          host serializes the absorbed rank's compute from now on (booked
          as fault time by :meth:`charge_compute_many`).

        Raises :class:`FaultError` when the batch is unrecoverable (a
        buddy pair died together, taking the checkpoint with them).
        Returns one summary dict per event for the observability spans.
        """
        faults = self.faults
        obs = self.obs
        try:
            faults.check_recoverable(events)
        except FaultError as exc:
            exc.report = self.fault_report()
            raise
        summaries: list[dict[str, object]] = []
        for event in events:
            buddy = faults.buddy_of(event.rank)
            mode = faults.assign_recovery(event.rank)
            failover_span = (
                obs.begin("failover", cat="phase", rank=event.rank,
                          level=event.level, mode=mode)
                if obs.enabled
                else None
            )
            seconds = 0.0
            nbytes = int(checkpoint_nbytes[event.rank])
            if mode == "spare":
                # the spare powers up in the dead node's torus slot; the
                # buddy streams the checkpoint to it and the machine
                # stalls until the partition is live again
                send, recv, _ = self.network.round_times_arrays(
                    np.array([buddy], dtype=np.int64),
                    np.array([event.rank], dtype=np.int64),
                    np.array([nbytes], dtype=np.int64),
                )
                seconds = float(max(send.max(), recv.max()))
                if seconds > 0.0:
                    self.clock.advance_many(
                        np.full(self.nranks, seconds), kind="fault"
                    )
            if failover_span is not None:
                obs.end(failover_span, seconds=seconds, bytes=nbytes)
            summaries.append(
                {"rank": event.rank, "level": event.level, "phase": event.phase,
                 "mode": mode, "seconds": seconds, "bytes": nbytes}
            )
        return summaries

    def replicate_checkpoint(self, nbytes: np.ndarray) -> float:
        """Replicate each rank's level-boundary checkpoint to its buddy.

        ``nbytes[r]`` bytes travel ``r -> (r+1) % P`` simultaneously; the
        boundary is a collective, so every rank stalls for the slowest
        transfer.  The time lands on the fault bucket (it only exists
        because crash tolerance is on) and the bytes are tallied in the
        report.  Returns the per-boundary stall seconds.
        """
        src = np.arange(self.nranks, dtype=np.int64)
        dst = (src + 1) % self.nranks
        send, recv, _ = self.network.round_times_arrays(src, dst, nbytes)
        seconds = float(np.maximum(send, recv).max())
        obs = self.obs
        span = (
            obs.begin("checkpoint", cat="phase") if obs.enabled else None
        )
        if seconds > 0.0:
            self.clock.advance_many(np.full(self.nranks, seconds), kind="fault")
        self.faults.record_checkpoint(int(nbytes.sum()))
        if span is not None:
            obs.end(span, bytes=int(nbytes.sum()), seconds=seconds)
        return seconds

    def _fire_crashes(self, phase: str) -> None:
        """Fire scheduled crashes for ``phase`` and charge the detection.

        Every surviving rank pays the spec's ``detect_timeout`` (the
        heartbeat/timeout that exposes the dead peer), booked as fault
        time inside a ``crash-detect`` span.
        """
        faults = self.faults
        fired = faults.fire_crashes(phase)
        if not fired:
            return
        obs = self.obs
        span = (
            obs.begin("crash-detect", cat="phase", phase=phase,
                      ranks=[event.rank for event in fired])
            if obs.enabled
            else None
        )
        timeout = faults.spec.detect_timeout
        if timeout > 0.0:
            self.clock.advance_many(np.full(self.nranks, timeout), kind="fault")
        self._crash_pending.extend(fired)
        if span is not None:
            obs.end(span, seconds=timeout)

    def fault_report(self) -> FaultReport | None:
        """Snapshot of the fault layer's report (None when faults are off)."""
        if self.faults is None:
            return None
        return self.faults.snapshot_report(self.clock.max_fault_time)

    # ------------------------------------------------------------------ #
    # reductions (termination checks)
    # ------------------------------------------------------------------ #
    def _allreduce(self, values: np.ndarray) -> np.ndarray:
        """Validate and charge one reduction; returns the per-rank values.

        Reductions are assumed reliable even under fault injection (the
        real machine runs them on a dedicated collective network) —
        unless the fault spec sets ``collective_faults=True``, in which
        case a scheduled crash may strike the level's termination
        reduction (the first reduction after :meth:`begin_level`).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.nranks,):
            raise CommunicationError(
                f"allreduce expects one value per rank ({self.nranks}), got {values.shape}"
            )
        self._maybe_collective_crash()
        depth = max(1, math.ceil(math.log2(self.nranks))) if self.nranks > 1 else 0
        cost = depth * self.model.message_time(1, hops=1)
        self.clock.advance_many(np.full(self.nranks, cost), kind="comm")
        self.barrier()
        return values

    def allreduce_sum(self, values: np.ndarray) -> float:
        """Global sum of one scalar per rank; charges a log2(P)-deep tree."""
        return float(self._allreduce(values).sum())

    def allreduce_flag(self, flags: np.ndarray) -> bool:
        """Global logical OR of one flag per rank."""
        return self.allreduce_sum(np.asarray(flags, dtype=np.float64)) > 0.0

    def allreduce_min(self, values: np.ndarray) -> float:
        """Global minimum of one scalar per rank (same cost as a sum)."""
        return float(self._allreduce(values).min())

    def _maybe_collective_crash(self) -> None:
        """Fire allreduce-phase crashes on the level's armed reduction."""
        if not self._allreduce_armed:
            return
        self._allreduce_armed = False
        if self.faults is not None and self.faults.spec.collective_faults:
            self._fire_crashes("allreduce")

    # ------------------------------------------------------------------ #
    # compute-side accounting
    # ------------------------------------------------------------------ #
    def charge_compute_many(
        self,
        *,
        edges_scanned: np.ndarray | None = None,
        hash_lookups: np.ndarray | None = None,
        updates: np.ndarray | None = None,
    ) -> None:
        """Charge every rank's local BFS work through the machine model.

        Each argument is one value per rank (``None`` means all zeros),
        priced at the model's edge-scan, hash-lookup and update costs (a
        vector of any other shape raises :class:`CommunicationError`
        naming the argument).  Every rank receives exactly one compute advance (zero-work ranks
        advance by 0.0, which leaves their clocks bit-identical).
        Straggler ranks (fault layer) pay their slowdown multiplier, and a
        shrink host serializes the compute of the rank it absorbed; that
        excess is booked as fault time.
        """
        model = self.model
        zeros = np.zeros(self.nranks, dtype=np.int64)
        e = zeros if edges_scanned is None else np.asarray(edges_scanned)
        h = zeros if hash_lookups is None else np.asarray(hash_lookups)
        u = zeros if updates is None else np.asarray(updates)
        for name, work in zip(("edges_scanned", "hash_lookups", "updates"), (e, h, u)):
            if work.shape != (self.nranks,):
                raise CommunicationError(
                    f"{name} must be a per-rank vector of shape ({self.nranks},), "
                    f"got shape {work.shape}"
                )
        if edges_scanned is not None:
            self.stats.record_edges_scanned(int(e.sum()))
        seconds = (
            e * model.edge_scan_cost
            + h * model.hash_lookup_cost
            + u * model.update_cost
        )
        self.clock.advance_many(seconds, kind="compute")
        if self.faults is not None:
            self.clock.advance_many(
                self.faults.compute_fault_extra(seconds), kind="fault"
            )


def _check_messages(nranks, src, dst, flat, starts, stops, pop_idx, masks, rounds) -> None:
    """:meth:`Communicator.exchange_arrays`' argument contract (see there)."""
    check_message_columns(
        nranks,
        {"src": src, "dst": dst},
        {"starts": starts, "stops": stops, "pop_idx": pop_idx},
        rank_range=False,
    )
    count = len(src)
    if masks is not None and np.shape(masks) != np.shape(flat):
        raise CommunicationError(
            f"masks must be parallel to flat, shape {np.shape(flat)}, "
            f"got shape {np.shape(masks)}"
        )
    if rounds is not None and not (
        np.ndim(rounds) == 1
        and len(rounds) > 0
        and rounds[0] == 0
        and rounds[-1] == count
        and (np.diff(rounds) >= 0).all()
    ):
        raise CommunicationError(
            f"rounds must be CSR bounds over the {count} messages (1-D, from 0, "
            f"non-decreasing, ending at {count}), got {np.asarray(rounds).tolist()}"
        )
