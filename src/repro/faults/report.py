"""The graceful-degradation summary: :class:`FaultReport`.

One report per run, filled in by :class:`repro.faults.FaultSchedule`
while the communicator and the BFS engine consult it, and snapshotted
into :class:`repro.bfs.result.BfsResult` when the search finishes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class FaultReport:
    """What the fault layer did to one run (graceful-degradation summary)."""

    #: transmissions lost (every individual drop, including on retries)
    injected: int = 0
    #: retransmissions performed after a drop
    retries: int = 0
    #: chunks eventually delivered after at least one drop
    recovered: int = 0
    #: chunks lost for good (retry budget exhausted) — forces a rollback
    unrecovered: int = 0
    #: BFS level re-executions after unrecovered losses
    rollbacks: int = 0
    #: directed rank pairs with a degraded link
    degraded_links: int = 0
    #: ranks with a compute slowdown
    straggler_ranks: int = 0
    #: the rank pair whose link goes permanently down (None = none)
    link_down: tuple[int, int] | None = None
    #: ranks that crashed during the run
    crashes: int = 0
    #: crashes recovered by a reserved spare adopting the dead rank's slot
    spare_failovers: int = 0
    #: crashes recovered by the buddy absorbing the dead rank's partition
    shrink_failovers: int = 0
    #: BFS level re-executions after crash failovers
    replayed_levels: int = 0
    #: bytes replicated to buddy ranks at level boundaries
    checkpoint_bytes: int = 0
    #: slowest rank's retry/timeout/straggler/recovery overhead, simulated seconds
    overhead_seconds: float = 0.0
    #: simulated seconds spent on level executions that were rolled back
    rollback_seconds: float = 0.0

    @property
    def failovers(self) -> int:
        """Total crash failovers, whatever the recovery mode."""
        return self.spare_failovers + self.shrink_failovers

    @property
    def added_seconds(self) -> float:
        """Total simulated seconds attributable to faults."""
        return self.overhead_seconds + self.rollback_seconds

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"faults: {self.injected} injected, {self.retries} retries, "
            f"{self.recovered} recovered, {self.unrecovered} unrecovered, "
            f"{self.rollbacks} rollbacks, +{self.added_seconds:.6f}s simulated"
        )
        if self.crashes:
            text += (
                f"; {self.crashes} crashes ({self.spare_failovers} spare / "
                f"{self.shrink_failovers} shrink failovers), "
                f"{self.replayed_levels} replayed levels, "
                f"{self.checkpoint_bytes} checkpoint bytes"
            )
        return text


__all__ = ["FaultReport"]
