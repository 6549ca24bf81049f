"""Partition balance metrics.

The paper requires both layouts to assign "approximately the same number of
vertices and edges" to every processor; these helpers quantify that and are
asserted statistically in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition.two_d import TwoDPartition


@dataclass(frozen=True, slots=True)
class BalanceReport:
    """Min/max/mean per-rank counts plus the max/mean imbalance factor."""

    metric: str
    minimum: int
    maximum: int
    mean: float
    imbalance: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.metric}: min={self.minimum} max={self.maximum} "
            f"mean={self.mean:.1f} imbalance={self.imbalance:.3f}"
        )


def balance_report(partition: TwoDPartition, metric: str = "edge_entries") -> BalanceReport:
    """Compute the balance of ``metric`` (a :meth:`memory_footprints` key)."""
    counts = partition.memory_footprints()[metric].astype(np.float64)
    mean = float(counts.mean()) if counts.size else 0.0
    imbalance = float(counts.max() / mean) if mean > 0 else 1.0
    return BalanceReport(
        metric=metric,
        minimum=int(counts.min()) if counts.size else 0,
        maximum=int(counts.max()) if counts.size else 0,
        mean=mean,
        imbalance=imbalance,
    )
