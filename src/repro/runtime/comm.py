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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Execute synchronous rounds of point-to-point messages.

        Message ``k`` carries ``flat[starts[k]:stops[k]]`` from ``src[k]``
        to ``dst[k]``; messages must be non-empty, with each ``(src, dst)``
        pair appearing at most once per round (their order is the order of
        the trace and of per-rank float accumulation).  Every payload is
        chunked to ``buffer_capacity`` (each chunk is a separate message
        paying its own latency — the cost of the paper's fixed-length
        buffers) and participants are barrier-synchronised after each
        round.

        *A ring's rounds* come as a table: ``starts`` and ``stops`` of
        shape ``(R, n)`` over ``n`` pairs ``src[k] -> dst[k]`` whose
        destinations are their sources, each once (a ring's member ->
        successor pairs).  Cell ``(t, k)`` is pair ``k``'s message of
        round ``t`` — none where ``starts == stops`` — so every rank sends
        and receives at most one message a round.  The rounds run back to
        back, each in its own ``round t`` span, and are priced as a table
        (:meth:`~repro.runtime.network.Network.round_times_table`) in
        slabs of at most 64 rounds; codecs, fault schedules and recorders
        read the cells round-major, pairs ascending.  ``population`` is
        the pairs' prepared population (prepared here when ``None``).  A
        buffer cap that splits a cell runs the cells as message rows
        instead, one generic load analysis a round.

        ``masks``, a batched traversal's mask-word column parallel to
        ``flat``, rides the same messages uncompressed (dense bitmasks
        are what the frontier codecs do *not* target): one more transfer
        over the unsplit messages at the words' item size per entry,
        charged before the barrier and counted in the byte totals only —
        no messages, vertices or phase split.  The words re-join their
        vertices by position: the chunk bounds returned index both
        columns.  A table carries no mask column.

        With a fault schedule attached, each chunk may be dropped and
        retried (see the module docstring); a chunk lost for good flags
        the current level as failed.  Returns ``None`` when every chunk
        arrived, else ``(msg, starts, stops)`` of the chunks that did:
        chunk ``j`` is ``flat[starts[j]:stops[j]]`` of message ``msg[j]``
        (of cell ``msg[j] = t * n + k`` for a table).

        ``population``/``pop_idx`` (one round of message rows) forward to
        :meth:`~repro.runtime.network.Network.round_times_arrays` — the
        prepared-pair-population contention shortcut (dropped for a call
        the buffer cap splits: its chunks repeat pairs) — and the
        population's pair ids key the fault schedule's answers, where
        other rounds ask :meth:`~repro.runtime.network.Network.pair_ids`.

        The arguments' shapes are checked first, in O(1): ``src``,
        ``dst``, ``pop_idx`` and the rows of ``starts`` and ``stops`` hold
        one entry per message (per pair for a table), and ``masks`` one
        per entry of ``flat``; a table's pairs must be a ring's
        (:meth:`~repro.runtime.network.PairPopulation.ring_pred`, worked
        out once per population).  A violation raises
        :class:`CommunicationError` naming the argument, before anything
        is counted or charged.
        """
        _check_messages(self.nranks, src, dst, flat, starts, stops, pop_idx, masks)
        capacity = self.buffer_capacity
        if capacity is not None and capacity < 1:
            raise BufferOverflowError(f"buffer capacity must be positive, got {capacity}")
        if np.ndim(starts) == 2:
            if population is None:
                population = self.network.prepare_pairs(src, dst)
            if population.ring_pred(src, dst) is None:
                raise CommunicationError(
                    "dst must hold each rank of src once for a table of rounds "
                    "(a ring's member -> successor pairs)"
                )
            sizes = stops - starts
            if capacity is None or sizes.max(initial=0) <= capacity:
                return self._table_rounds(
                    src, dst, flat, starts, stops, sizes, phase, participants, population
                )
            # split cells repeat pairs in a round: message rows, round-major
            cells = np.flatnonzero(sizes)
            pair = cells % src.size
            msg, starts, stops, arrived = self._round(
                src[pair], dst[pair], flat, starts.ravel()[cells], stops.ravel()[cells],
                phase, participants,
                rounds=np.searchsorted(cells, np.arange(sizes.shape[0] + 1) * src.size),
            )
            if arrived is None:
                return None
            return cells[msg[arrived]], starts[arrived], stops[arrived]
        msg, starts, stops, arrived = self._round(
            src, dst, flat, starts, stops, phase, participants, population, pop_idx, masks
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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The message rows behind :meth:`exchange_arrays`.

        ``rounds`` (CSR bounds over the messages) runs several rounds back
        to back, each in its own ``round t`` span — a table whose cells
        the buffer cap splits; ``None``: one round.  Each knob is a step
        that does nothing when the knob is off and runs once over all
        rounds; :meth:`SimClock.replay` then replays them on the clocks.
        Returns the chunks as ``(msg, starts, stops, arrived)``:
        ``msg[k]`` is the message chunk ``k`` was cut from (``None``: no
        message was split, chunk ``k`` is message ``k``) and ``arrived``
        masks the chunks that reached their destination (``None``: all).
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

        # self-sends are local hand-offs: never encoded
        nbytes, encode_s, decode_s = raw_nbytes, None, None
        if self.wire.name != "raw":
            nbytes, encode_s, decode_s = self._price_codec(
                flat, starts, stops, raw_nbytes, np.flatnonzero(src != dst)
            )
        # a population's own ids key the fates with no search
        faults = self.faults
        delivered = multipliers = None
        if faults is not None:
            ids = self.network.pair_ids(src, dst) if population is None else population.ids[pop_idx]
            delivered, multipliers, faulty, retries, penalty = self._plan_faults(src, dst, ids)

        total_raw = int(raw_nbytes.sum())
        total_enc = total_raw if nbytes is raw_nbytes else int(nbytes.sum())
        self.stats.record_message_bulk(
            count, total_raw // bytes_per_vertex, total_raw, total_enc, phase=phase
        )
        send_time, recv_time, per_transfer = self.network.round_times_arrays(
            src, dst, nbytes, multipliers,
            population=population, pop_idx=pop_idx,
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
            extra = retries * per_transfer[faulty] + penalty
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
            send_time, recv_time, _ = self.network.round_times_arrays(*side)
            charges.append((np.maximum(send_time, recv_time)[None], "comm"))
            total = int(side[2].sum())
            self.stats.record_message_bulk(0, 0, total, total)

        summaries = None
        if self.obs.enabled:
            summaries = _round_summaries(chunk_bounds, stops - starts, raw_nbytes, nbytes)
        stamps = np.empty(senders.size, dtype=np.float64) if self.recorders else None
        self.clock.replay(
            charges, participants,
            each=self._round_hook(phase, rounds is not None, bounds, senders, stamps, summaries),
        )
        if stamps is not None and msg is not None:
            stamps = stamps[msg]
        arrived = self._deliver(
            phase, stamps, src, dst, stops - starts, raw_nbytes, nbytes, delivered
        )
        return msg, starts, stops, arrived

    def _table_rounds(
        self, src, dst, flat, starts, stops, sizes, phase, participants, population,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """A ring's ``(round, pair)`` table of messages (see
        :meth:`exchange_arrays`), priced and replayed as a table.

        The codec, the fault schedule, the span summaries and the
        recorders see the non-empty cells as message rows, round-major and
        pairs ascending — the order of the trace and of the fault fates —
        through the steps :meth:`_round` uses, and their answers go back
        into table form.  Only the pricing and the charges are the
        table's own.  They run in slabs of at most 64 rounds, so beside
        the size table they hold O(64 n) bytes.
        """
        nrounds, width = sizes.shape
        active = sizes > 0
        bytes_per_vertex = self.model.bytes_per_vertex
        vertices = int(sizes.sum())
        raw_nbytes = sizes  # the table is ours: scaled in place
        raw_nbytes *= bytes_per_vertex
        faults = self.faults
        cells = bounds = senders = rows = None
        if self.wire.name != "raw" or faults is not None or self.obs.enabled or self.recorders:
            cells = np.flatnonzero(active)
            pair = cells % width
            senders, receivers = src[pair], dst[pair]
            bounds = np.searchsorted(cells, np.arange(nrounds + 1) * width)
            count = cells.size
        else:
            count = int(np.count_nonzero(active))

        nbytes, encode_s, decode_s = raw_nbytes, None, None
        if self.wire.name != "raw":
            nbytes, encode_s, decode_s = self._price_codec(flat, starts, stops, raw_nbytes, cells)
        delivered = multipliers = None
        if faults is not None:
            delivered, cell_multipliers, faulty, retries, penalty = self._plan_faults(
                senders, receivers, population.ids[pair]
            )
            multipliers = np.ones(active.shape, dtype=np.float64)
            multipliers.ravel()[cells] = cell_multipliers
            if decode_s is not None:  # decode only where the message was delivered
                decode_s.ravel()[cells[~delivered]] = 0.0
            faulty = cells[faulty]

        total_raw = vertices * bytes_per_vertex
        total_enc = total_raw if nbytes is raw_nbytes else int(nbytes.sum())
        self.stats.record_message_bulk(count, vertices, total_raw, total_enc, phase=phase)
        if cells is not None:
            raw_rows = raw_nbytes.ravel()[cells]
            rows = raw_rows // bytes_per_vertex, raw_rows, nbytes.ravel()[cells]
        summaries = _round_summaries(bounds, *rows) if self.obs.enabled else None
        stamps = np.empty(count, dtype=np.float64) if self.recorders else None
        # the charges' columns are the pairs' sources
        ranks = None
        if width != self.nranks or (src != np.arange(width)).any():
            ranks = src
        pred = population.ring[0]
        for lo in range(0, nrounds, 64):
            hi = min(lo + 64, nrounds)
            send, base = self.network.round_times_table(
                population, active[lo:hi], nbytes[lo:hi],
                None if multipliers is None else multipliers[lo:hi],
            )
            charges = [(base, "comm")]
            if faults is not None:
                # wasted retransmissions plus the backoff timeouts that
                # detected each loss, on both ends of the message
                at = (faulty >= lo * width) & (faulty < hi * width)
                cell = faulty[at] - lo * width
                extra = np.zeros(send.shape, dtype=np.float64)
                extra.ravel()[cell] = retries[at] * send.ravel()[cell] + penalty[at]
                extra += send
                total = np.maximum(extra, extra[:, pred])
                charges.append((total - base, "fault"))
            if encode_s is not None:
                # a rank's own encode plus its decode of what it received
                charges.append(
                    (encode_s[lo:hi] + decode_s[lo:hi][:, pred], "compute")
                )
            self.clock.replay(
                charges, participants, ranks,
                self._round_hook(phase, True, bounds, senders, stamps, summaries, lo),
            )

        if cells is None:  # no schedule and no recorder: every message arrived
            return None
        arrived = self._deliver(phase, stamps, senders, receivers, *rows, delivered)
        if arrived is None:
            return None
        cells = cells[arrived]
        return cells, starts.ravel()[cells], stops.ravel()[cells]

    def _price_codec(self, flat, starts, stops, raw_nbytes, rows):
        """Encoded bytes and encode / decode seconds of messages — the
        entries ``rows`` of the flattened message arrays, in the codec's
        order — as arrays shaped like ``raw_nbytes`` (the other entries:
        their raw bytes and 0.0 seconds)."""
        nbytes = raw_nbytes.copy()
        encode_s = np.zeros(raw_nbytes.shape, dtype=np.float64)
        decode_s = np.zeros(raw_nbytes.shape, dtype=np.float64)
        (
            nbytes.ravel()[rows], encode_s.ravel()[rows], decode_s.ravel()[rows]
        ) = self.wire.price_many(flat, starts.ravel()[rows], stops.ravel()[rows])
        return nbytes, encode_s, decode_s

    def _plan_faults(self, src, dst, ids):
        """Every message's fate under the fault schedule, counted in the
        statistics (a message lost for good flags the level failed).

        Returns ``(delivered, multipliers, faulty, retries, penalty)``: the
        delivered mask and link multipliers per message, the messages that
        lost a transmission, their retransmissions and the timeout seconds
        that detected their losses."""
        faults = self.faults
        transmissions, delivered = faults.plan_round(src, dst, ids)
        multipliers = faults.link_multipliers(src, dst, ids)
        drops = transmissions - delivered
        self.stats.record_fault(int(drops.sum()), int((transmissions - 1).sum()))
        if not delivered.all():
            self._level_failed = True
        faulty = np.flatnonzero(drops)
        return (
            delivered, multipliers, faulty, transmissions[faulty] - 1,
            faults.retry_penalty(drops[faulty]),
        )

    def _deliver(self, phase, stamps, src, dst, vertices, raw_nbytes, nbytes, delivered):
        """Hand the rounds' messages to the recorders and return which
        arrived: ``delivered`` less the messages to or from a crashed
        rank (``None``: all, or no fault schedule)."""
        for recorder in self.recorders:
            recorder.record_round(stamps, src, dst, vertices, raw_nbytes, nbytes, phase)
        if delivered is None:
            return None
        arrived = delivered
        if self.faults.dead_ranks:
            dead = np.fromiter(self.faults.dead_ranks, dtype=np.int64)
            arrived = delivered & ~(np.isin(src, dead) | np.isin(dst, dead))
        return None if arrived.all() else arrived

    def _round_hook(
        self, phase: str, named: bool, bounds, senders, stamps, summaries, first: int = 0,
    ):
        """What a replayed round does besides its charges, as
        :meth:`SimClock.replay`'s ``each`` (``None``: nothing).

        Round ``first + t`` (messages ``bounds[.]:bounds[. + 1]``) opens its
        ``exchange`` span (inside a ``round t`` span when ``named``),
        stamps its messages with their senders' clocks into ``stamps``
        (when recording) and, in round 0, fires the scheduled crashes;
        after the barrier its spans close with the round's ``summaries``.
        """
        obs, clock, faults = self.obs, self.clock, self.faults
        if not obs.enabled and stamps is None and faults is None:
            return None
        names = ("messages", "vertices", "raw_bytes", "encoded_bytes")

        def each(t: int):
            t += first
            outer = span = None
            if obs.enabled:
                if named:
                    outer = obs.begin(f"round {t}", cat="round", phase=phase)
                span = obs.begin("exchange", cat="exchange", phase=phase)
            if stamps is not None:
                lo, hi = bounds[t], bounds[t + 1]
                stamps[lo:hi] = clock.time[senders[lo:hi]]
            if t == 0 and faults is not None:
                self._fire_crashes("exchange")
            if span is None:
                return None

            def close() -> None:
                obs.end(span, **dict(zip(names, summaries[t])))
                if outer is not None:
                    obs.end(outer)

            return close

        return each

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


def _round_summaries(bounds, vertices, raw_nbytes, nbytes) -> list:
    """Each round's ``[messages, vertices, raw bytes, encoded bytes]``, the
    sums over its messages ``bounds[t]:bounds[t + 1]``."""
    columns = np.vstack((np.ones(vertices.size, dtype=np.int64), vertices, raw_nbytes, nbytes))
    summed = np.cumsum(np.hstack((np.zeros((4, 1), dtype=np.int64), columns)), axis=1)
    return np.diff(summed[:, bounds], axis=1).T.tolist()


def _check_messages(nranks, src, dst, flat, starts, stops, pop_idx, masks) -> None:
    """:meth:`Communicator.exchange_arrays`' argument contract (see there)."""
    table = np.ndim(starts) == 2
    check_message_columns(
        nranks,
        {"src": src, "dst": dst},
        {} if table else {"starts": starts, "stops": stops, "pop_idx": pop_idx},
        rank_range=False,
    )
    if table:
        shape = (np.shape(starts)[0], len(src))
        for name, column in (("starts", starts), ("stops", stops)):
            if np.shape(column) != shape:
                raise CommunicationError(
                    f"{name} must be a (rounds, pairs) table of shape {shape}, "
                    f"got shape {np.shape(column)}"
                )
        for name, column in (("pop_idx", pop_idx), ("masks", masks)):
            if column is not None:
                raise CommunicationError(f"{name} must be None for a table of rounds")
    if masks is not None and np.shape(masks) != np.shape(flat):
        raise CommunicationError(
            f"masks must be parallel to flat, shape {np.shape(flat)}, "
            f"got shape {np.shape(masks)}"
        )
