"""Runtime statistics: message counts, volumes, redundancy, per-level series.

These counters are what the paper's figures and tables are made of:

* per-level *delivered* message volume (Figures 4.b and 6, Table 1's
  average message lengths) — vertices arriving at the rank that needs
  them,
* *processed* volume — every vertex handled at every hop, including ring
  forwarding; this is the paper's Figure 7 notion of "received" ("each
  processor receives more messages ... because it passes the messages
  using ring communications"),
* duplicate vertices eliminated in-flight by the union-fold (Figure 7's
  redundancy ratio numerator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError


@dataclass(slots=True)
class LevelStats:
    """Aggregated communication counters for one BFS level."""

    level: int
    #: vertices delivered to their final consumer during expand
    expand_received: int = 0
    #: vertices delivered to their final consumer during fold
    fold_received: int = 0
    #: vertices handled at any hop (delivery + ring forwarding)
    processed: int = 0
    #: duplicate vertices removed in-flight by union reductions
    duplicates_eliminated: int = 0
    #: point-to-point messages sent this level
    messages: int = 0
    #: payload bytes before wire encoding (vertices * bytes_per_vertex)
    raw_bytes: int = 0
    #: bytes actually put on the wire by the configured codec
    encoded_bytes: int = 0
    #: new vertices labelled at this level
    frontier_size: int = 0
    #: simulated communication seconds this level (slowest rank's delta)
    comm_seconds: float = 0.0
    #: simulated computation seconds this level (slowest rank's delta)
    compute_seconds: float = 0.0
    #: transmissions lost to injected faults this level
    drops: int = 0
    #: retransmissions performed after drops this level
    retries: int = 0
    #: simulated fault-overhead seconds this level (slowest rank's delta)
    fault_seconds: float = 0.0
    #: traversal direction this level ran ("top-down" or "bottom-up")
    direction: str = "top-down"
    #: edges examined this level across all ranks (the direction-optimizing
    #: literature's "traversed edges" — bottom-up's early exit shrinks it)
    edges_scanned: int = 0
    #: fold candidates dropped before encoding by the communication sieve
    #: (vertices whose owner was already known to have visited them)
    sieved: int = 0

    @property
    def total_received(self) -> int:
        """All vertices delivered this level (expand + fold)."""
        return self.expand_received + self.fold_received

    @property
    def compression_ratio(self) -> float:
        """Raw-to-encoded byte ratio this level (1.0 for the raw codec)."""
        return self.raw_bytes / self.encoded_bytes if self.encoded_bytes else 1.0


class CommStats:
    """Mutable per-run statistics collected by the communicator and collectives."""

    def __init__(self, nranks: int) -> None:
        self.nranks = int(nranks)
        self.levels: list[LevelStats] = []
        self.total_messages = 0
        self.total_bytes = 0
        #: bytes on the wire after codec encoding (== total_bytes for "raw")
        self.total_encoded_bytes = 0
        self.total_processed = 0
        #: transmissions lost to injected faults (whole run)
        self.total_drops = 0
        #: retransmissions performed after drops (whole run)
        self.total_retries = 0
        #: BFS level re-executions forced by unrecovered losses
        self.total_rollbacks = 0
        #: edges examined over the whole run (sum of per-level edges_scanned)
        self.total_edges_scanned = 0
        #: fold candidates dropped pre-encoding by the communication sieve
        self.total_sieved = 0
        #: raw payload bytes split by phase ("expand", "fold", "sieve", ...)
        self.raw_bytes_by_phase: dict[str, int] = {}
        #: encoded wire bytes split by phase (what each phase actually shipped)
        self.encoded_bytes_by_phase: dict[str, int] = {}
        #: per-rank delivered vertex counts, split by phase
        self.recv_by_rank: dict[str, np.ndarray] = {}
        self._current: LevelStats | None = None

    # ------------------------------------------------------------------ #
    # level lifecycle
    # ------------------------------------------------------------------ #
    def begin_level(self, level: int) -> None:
        """Open the counters for BFS level ``level``."""
        if self._current is not None:
            raise RuntimeError("previous level not closed")
        self._current = LevelStats(level=level)

    def end_level(
        self,
        frontier_size: int,
        comm_seconds: float = 0.0,
        compute_seconds: float = 0.0,
        fault_seconds: float = 0.0,
        direction: str = "top-down",
    ) -> LevelStats:
        """Close the current level, recording the new frontier size, the
        level's simulated time split (slowest-rank deltas), and the
        traversal direction it ran."""
        if self._current is None:
            raise RuntimeError("no open level")
        self._current.frontier_size = int(frontier_size)
        self._current.comm_seconds = float(comm_seconds)
        self._current.compute_seconds = float(compute_seconds)
        self._current.fault_seconds = float(fault_seconds)
        self._current.direction = str(direction)
        self.levels.append(self._current)
        done = self._current
        self._current = None
        return done

    def abort_level(self) -> None:
        """Discard the open level's counters (a faulted level being rolled back).

        The aborted attempt's *run-level* totals (messages, bytes, drops)
        are kept — that traffic really crossed the wire — but no
        per-level row is appended for it.
        """
        if self._current is None:
            raise RuntimeError("no open level")
        self.total_rollbacks += 1
        self._current = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_message_bulk(
        self,
        count: int,
        num_vertices: int,
        nbytes: int,
        encoded_nbytes: int,
        *,
        phase: str | None = None,
    ) -> None:
        """Record ``count`` wire messages' totals in one call.

        ``nbytes`` is the raw payload size and ``encoded_nbytes`` what the
        wire codec actually shipped.  When ``phase`` is given the bytes
        also land in the per-phase splits.
        """
        self.total_messages += int(count)
        self.total_bytes += int(nbytes)
        self.total_encoded_bytes += int(encoded_nbytes)
        self.total_processed += int(num_vertices)
        if phase is not None:
            self.raw_bytes_by_phase[phase] = (
                self.raw_bytes_by_phase.get(phase, 0) + int(nbytes)
            )
            self.encoded_bytes_by_phase[phase] = (
                self.encoded_bytes_by_phase.get(phase, 0) + int(encoded_nbytes)
            )
        if self._current is not None:
            self._current.messages += int(count)
            self._current.raw_bytes += int(nbytes)
            self._current.encoded_bytes += int(encoded_nbytes)
            self._current.processed += int(num_vertices)

    def record_delivery_bulk(
        self, dsts: np.ndarray, counts: np.ndarray, phase: str
    ) -> None:
        """Record many final-consumer arrivals at once (batched collectives).

        ``counts[k]`` vertices arrive at rank ``dsts[k]``.  Both hold one
        entry per arrival and every rank lies in ``[0, nranks)``, else
        :class:`~repro.errors.CommunicationError` names the argument
        before anything is booked.
        """
        check_message_columns(self.nranks, {"dsts": dsts}, {"counts": counts})
        per_rank = self.recv_by_rank.setdefault(phase, np.zeros(self.nranks, dtype=np.int64))
        np.add.at(per_rank, dsts, counts)
        if self._current is not None:
            total = int(np.sum(counts))
            if phase == "expand":
                self._current.expand_received += total
            elif phase == "fold":
                self._current.fold_received += total

    def record_edges_scanned(self, count: int) -> None:
        """Record ``count`` edge examinations (fed by ``charge_compute_many``).

        Both directions report through this: top-down counts edges out of
        the frontier, bottom-up counts the (early-exited) scans of
        unvisited vertices' edge lists.
        """
        self.total_edges_scanned += int(count)
        if self._current is not None:
            self._current.edges_scanned += int(count)

    def record_fault(self, drops: int, retries: int) -> None:
        """Record one chunk's injected drops and retransmissions."""
        self.total_drops += int(drops)
        self.total_retries += int(retries)
        if self._current is not None:
            self._current.drops += int(drops)
            self._current.retries += int(retries)

    def record_duplicates(self, count: int) -> None:
        """Record ``count`` duplicates eliminated in-flight by a union reduction."""
        if self._current is not None:
            self._current.duplicates_eliminated += int(count)

    def record_sieved(self, count: int) -> None:
        """Record ``count`` fold candidates dropped pre-encoding by the sieve."""
        self.total_sieved += int(count)
        if self._current is not None:
            self._current.sieved += int(count)

    # ------------------------------------------------------------------ #
    # derived series (figure/table inputs)
    # ------------------------------------------------------------------ #
    def volume_per_level(self, phase: str | None = None) -> np.ndarray:
        """Delivered-vertex counts per level (Figures 4.b / 6 series)."""
        if phase == "expand":
            return np.array([s.expand_received for s in self.levels], dtype=np.int64)
        if phase == "fold":
            return np.array([s.fold_received for s in self.levels], dtype=np.int64)
        return np.array([s.total_received for s in self.levels], dtype=np.int64)

    def bytes_per_level(self, kind: str = "raw") -> np.ndarray:
        """Per-level wire bytes: ``kind`` is ``"raw"`` (pre-codec) or
        ``"encoded"`` (what the configured codec shipped)."""
        if kind == "raw":
            return np.array([s.raw_bytes for s in self.levels], dtype=np.int64)
        if kind == "encoded":
            return np.array([s.encoded_bytes for s in self.levels], dtype=np.int64)
        raise ValueError(f"kind must be 'raw' or 'encoded', got {kind!r}")

    def time_per_level(self, kind: str = "comm") -> np.ndarray:
        """Per-level simulated seconds: ``kind`` is ``"comm"``, ``"compute"``,
        or ``"fault"``."""
        if kind == "comm":
            return np.array([s.comm_seconds for s in self.levels])
        if kind == "compute":
            return np.array([s.compute_seconds for s in self.levels])
        if kind == "fault":
            return np.array([s.fault_seconds for s in self.levels])
        raise ValueError(f"kind must be 'comm', 'compute', or 'fault', got {kind!r}")

    def edges_scanned_per_level(self) -> np.ndarray:
        """Edge examinations per level (the traversed-edges series)."""
        return np.array([s.edges_scanned for s in self.levels], dtype=np.int64)

    def sieved_per_level(self) -> np.ndarray:
        """Fold candidates dropped pre-encoding by the sieve, per level."""
        return np.array([s.sieved for s in self.levels], dtype=np.int64)

    def direction_counts(self) -> dict[str, int]:
        """Number of levels run in each direction (``{mode: count}``)."""
        counts: dict[str, int] = {}
        for s in self.levels:
            counts[s.direction] = counts.get(s.direction, 0) + 1
        return counts

    def mean_message_length_per_level(self, phase: str, nranks_receiving: int) -> float:
        """Average vertices delivered per rank per level for ``phase`` (Table 1)."""
        if not self.levels or nranks_receiving <= 0:
            return 0.0
        per_level = self.volume_per_level(phase)
        return float(per_level.mean() / nranks_receiving)

    @property
    def compression_ratio(self) -> float:
        """Whole-run raw-to-encoded byte ratio (1.0 for the raw codec)."""
        if not self.total_encoded_bytes:
            return 1.0
        return self.total_bytes / self.total_encoded_bytes

    @property
    def total_duplicates(self) -> int:
        """All duplicates eliminated in-flight over the whole run."""
        return sum(s.duplicates_eliminated for s in self.levels)

    @property
    def redundancy_ratio(self) -> float:
        """Duplicates eliminated / total vertices processed (Figure 7), in [0, 1).

        The denominator is what ranks handled *plus* what the union saved
        (i.e. the volume that would have been handled without in-flight
        elimination), so the ratio reads "fraction of traffic the
        union-fold removed".  It declines with P because ring forwarding
        inflates the processed volume — the paper's own explanation.
        """
        eliminated = self.total_duplicates
        processed = sum(s.processed for s in self.levels)
        total = processed + eliminated
        return eliminated / total if total else 0.0


def check_message_columns(
    nranks: int,
    ranks: dict[str, np.ndarray],
    values: dict[str, np.ndarray | None],
    *,
    rank_range: bool = True,
) -> None:
    """Refuse per-message columns that disagree in length or name a rank
    outside ``[0, nranks)``.

    ``ranks`` and ``values`` map argument names to columns (a ``None``
    value is an absent optional column); the first rank column sets the
    message count.  A one-element column would otherwise broadcast over
    every message, and rank ``-1`` land on the last rank.  The shapes
    cost O(1); the rank range, one ``min`` and ``max`` per rank column,
    is skipped with ``rank_range=False``.  A violation raises
    :class:`~repro.errors.CommunicationError` naming the argument.
    """
    first, column = next(iter(ranks.items()))
    if np.ndim(column) != 1:
        raise CommunicationError(f"{first} must be 1-D, got shape {np.shape(column)}")
    shape = (len(column),)
    for name, column in (*ranks.items(), *values.items()):
        if column is not None and np.shape(column) != shape:
            raise CommunicationError(
                f"{name} must hold one entry per message, shape {shape}, "
                f"got shape {np.shape(column)}"
            )
    if rank_range and shape[0]:
        for name, column in ranks.items():
            lo, hi = column.min(), column.max()
            if lo < 0 or hi >= nranks:
                raise CommunicationError(
                    f"{name} must hold ranks in [0, {nranks}), got {lo}..{hi}"
                )
