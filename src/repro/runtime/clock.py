"""Per-rank simulated clocks.

Each virtual rank owns a clock that accumulates simulated seconds, split
into *compute* and *communication* buckets (the paper reports both, e.g.
Figure 4.a and Table 1), plus a *fault* bucket for time added by the
fault-injection layer (retransmissions, timeouts, straggler excess) so
that fault overhead is separable from the algorithm's intrinsic cost.
Synchronisation points (collective boundaries) advance every participant
to the group maximum; the wait is booked as communication time, matching
how the paper's timers would see it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError


class SimClock:
    """Vector of per-rank simulated times with comm/compute attribution."""

    __slots__ = ("nranks", "time", "comm_time", "compute_time", "fault_time")

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        self.nranks = int(nranks)
        self.time = np.zeros(nranks, dtype=np.float64)
        self.comm_time = np.zeros(nranks, dtype=np.float64)
        self.compute_time = np.zeros(nranks, dtype=np.float64)
        self.fault_time = np.zeros(nranks, dtype=np.float64)

    def _bucket(self, kind: str) -> np.ndarray:
        if kind == "compute":
            return self.compute_time
        if kind == "comm":
            return self.comm_time
        if kind == "fault":
            return self.fault_time
        raise ValueError(f"unknown work kind {kind!r}")

    def advance_many(self, seconds: np.ndarray, kind: str = "compute") -> None:
        """Advance every rank by its entry in ``seconds`` (vectorised).

        ``seconds`` must be a per-rank vector of shape ``(nranks,)``; any
        other shape raises :class:`CommunicationError`, as the
        communicator's per-rank charges do.
        """
        seconds = np.asarray(seconds, dtype=np.float64)
        if seconds.shape != (self.nranks,):
            raise CommunicationError(
                f"seconds must be a per-rank vector of shape ({self.nranks},), "
                f"got shape {seconds.shape}"
            )
        if (seconds < 0).any():
            raise ValueError("cannot advance clocks by negative time")
        self.time += seconds
        self._bucket(kind)[:] += seconds

    def sync(self, ranks: list[int] | np.ndarray | None = None) -> float:
        """Barrier: advance ``ranks`` (default all) to their common maximum.

        The idle wait is attributed to communication time.  Returns the
        post-barrier time.
        """
        if ranks is None:
            # Whole machine — no indexed scatter needed.
            horizon = float(self.time.max())
            self.comm_time += horizon - self.time
            self.time[:] = horizon
            return horizon
        idx = np.asarray(ranks, dtype=np.int64)
        horizon = float(self.time[idx].max()) if idx.size else 0.0
        wait = horizon - self.time[idx]
        self.comm_time[idx] += wait
        self.time[idx] = horizon
        return horizon

    @property
    def elapsed(self) -> float:
        """Simulated makespan: the slowest rank's clock."""
        return float(self.time.max())

    @property
    def max_comm_time(self) -> float:
        """Largest per-rank cumulative communication time."""
        return float(self.comm_time.max())

    @property
    def max_compute_time(self) -> float:
        """Largest per-rank cumulative computation time."""
        return float(self.compute_time.max())

    @property
    def max_fault_time(self) -> float:
        """Largest per-rank cumulative fault-attributable time."""
        return float(self.fault_time.max())
