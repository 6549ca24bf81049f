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

    def replay(
        self,
        charges: list[tuple[np.ndarray, str]],
        participants: list[int] | np.ndarray | None = None,
        ranks: np.ndarray | None = None,
        each=None,
    ) -> None:
        """Replay rounds of charges, one barrier each.

        Every ``(seconds, kind)`` charge is an ``(R, m)`` matrix over the
        same ``R`` rounds, column ``j`` charging rank ``ranks[j]`` (``None``:
        ``m = nranks``, column ``j`` is rank ``j``).  Round ``t`` advances
        the ranks by row ``t`` of each charge in order, booking it to
        ``kind``, then synchronises ``participants`` (``None``: every rank)
        — bit for bit :meth:`advance_many` per charge and :meth:`sync` per
        round, the ranks outside ``ranks`` advancing by zero.  ``each(t)``,
        when given, runs before round ``t`` moves a clock; a callable it
        returns runs after the round's barrier.

        The matrices are checked once, before any clock moves: a shape
        other than the first matrix's ``(R, m)`` raises
        :class:`CommunicationError`, a negative entry :class:`ValueError`.
        Then each round is in-place vector work; with no ``each`` and no
        ``ranks``, once every rank has synchronised, from one common clock.
        """
        width = self.nranks if ranks is None else len(ranks)
        nrounds = np.shape(charges[0][0])[0] if charges and np.ndim(charges[0][0]) == 2 else 0
        rows = []
        for seconds, kind in charges:
            if np.shape(seconds) != (nrounds, width):
                raise CommunicationError(
                    f"charges must be (rounds, {width}) matrices of one shape, "
                    f"got shape {np.shape(seconds)}"
                )
            if (seconds < 0).any():
                raise ValueError("cannot advance clocks by negative time")
            rows.append((np.asarray(seconds, dtype=np.float64), self._bucket(kind)))
        time, comm = self.time, self.comm_time
        idx = None if participants is None else np.asarray(participants, dtype=np.int64)
        wait = np.empty(self.nranks, dtype=np.float64)
        level = None
        t = 0
        while t < nrounds and level is None:
            after = None if each is None else each(t)
            for seconds, bucket in rows:
                if ranks is None:
                    time += seconds[t]
                    bucket += seconds[t]
                else:
                    time[ranks] += seconds[t]
                    bucket[ranks] += seconds[t]
            if idx is None:
                horizon = time.max()
                comm += np.subtract(horizon, time, out=wait)
                time.fill(horizon)
                if each is None and ranks is None:
                    level = float(horizon)
            elif idx.size:
                horizon = time[idx].max()
                comm[idx] += horizon - time[idx]
                time[idx] = horizon
            if after is not None:
                after()
            t += 1
        if level is None or t == nrounds:
            return
        # Every rank has synchronised and no hook reads the clocks: they
        # all read ``level``, so a round's clocks are that level plus its
        # charges (in ``wait``) and — rounding being monotone — a lone
        # charge's horizon is the level plus its largest entry.  The clock
        # vector is written back once, at the end.
        (seconds, bucket), *others = rows
        peaks = None if others else seconds.max(axis=1).tolist()
        for t in range(t, nrounds):
            row = seconds[t]
            np.add(level, row, out=wait)
            bucket += row
            for more, more_bucket in others:
                wait += more[t]
                more_bucket += more[t]
            horizon = level + peaks[t] if peaks else float(wait.max())
            comm += np.subtract(horizon, wait, out=wait)
            level = horizon
        time.fill(level)

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
