"""The sent-neighbours optimisation (Section 2.4.3).

Each rank remembers which neighbour vertices it has already shipped during
a fold; a vertex sent once never needs to be sent again, because the
receiving owner would ignore the duplicate anyway.  Storage is one flag per
*unique vertex appearing in the rank's edge lists* — O(n/P) in expectation
(Section 2.4.1), which the tests verify statistically.

The cache only suppresses duplicates *this* sender has shipped before; a
vertex another rank discovered and delivered in an earlier level still
costs a first send from here.  The communication sieve
(:mod:`repro.bfs.sieve`) closes that gap with a cross-level shadow of
each destination's visited set, extending the same idea beyond
self-sent tracking.
"""

from __future__ import annotations

import numpy as np


class PooledSentCache:
    """All P ranks' sent filters in one flat bitset over pooled universes.

    The flags live in a single array whose index — the *slot* — is the
    address space of discovery (Section 2.4.2's local index).  Slots are
    ordered by ``(rank, vertex)``, so the distinct slots a level touches,
    read off a flag array in index order, *are* every rank's sorted
    duplicate-free neighbour set: :meth:`discover` needs no sort and no
    search, and costs O(edges gathered + slots).  The universes are the
    partition's pooled row universe
    (:attr:`~repro.partition.two_d.TwoDPartition.row_ids`, cut by
    ``row_bounds``), shared, not copied; they are immutable, so one pool
    serves every search of an engine's lifetime; :meth:`reset` rewinds it
    per run.
    """

    __slots__ = ("bounds", "vertex", "_sent", "_mark", "_acc")

    def __init__(self, bounds: np.ndarray, vertex: np.ndarray) -> None:
        #: per-rank slice bounds into the pooled flag array
        self.bounds = bounds
        #: slot -> global vertex id (each rank's sorted universe, in rank order)
        self.vertex = vertex
        self._sent = np.zeros(vertex.size, dtype=bool)
        # scratch of the discover kernel; all-clear between calls
        self._mark = np.zeros(vertex.size, dtype=bool)
        self._acc: np.ndarray | None = None

    def _distinct(self, slots: np.ndarray) -> np.ndarray:
        """The distinct values of ``slots``, ascending."""
        mark = self._mark
        mark[slots] = True
        hit = np.flatnonzero(mark)
        mark[hit] = False
        return hit

    def discover(
        self, slots: np.ndarray, masks: np.ndarray | None = None, *, filter_sent: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """One level's neighbour dedup (and sent filter) over every rank.

        ``slots`` are the gathered slot ids of the edges scanned this
        level, duplicates included, and ``masks`` an optional mask-word
        column parallel to them.  Returns ``(flat, bounds, masks,
        counts)``: rank ``r``'s sorted duplicate-free neighbours are
        ``flat[bounds[r]:bounds[r+1]]`` — with ``filter_sent`` only the
        not-yet-sent ones, which are then marked sent, element-for-element
        what per-rank ``np.unique`` and a per-rank flag array produce —
        each carrying the OR of its occurrences' mask words
        (``None`` without a column), and ``counts[r]`` is the size of
        rank ``r``'s neighbour set *before* the filter (the lookups the
        filter is charged for).  Sent flags are per vertex, not per mask
        bit, so a mask column is only taken with ``filter_sent=False``.
        """
        hit = self._distinct(slots)
        bounds = np.searchsorted(hit, self.bounds)
        counts = np.diff(bounds)
        merged = None
        if masks is not None:
            if self._acc is None:
                self._acc = np.zeros(self.vertex.size, dtype=masks.dtype)
            np.bitwise_or.at(self._acc, slots, masks)
            merged = self._acc[hit]
            self._acc[hit] = 0
        if filter_sent:
            fresh = ~self._sent[hit]
            hit = hit[fresh]
            self._sent[hit] = True
            bounds = np.searchsorted(hit, self.bounds)
        return self.vertex[hit], bounds, merged, counts

    def reset(self) -> None:
        """Forget all sent marks (start of a new search)."""
        self._sent[:] = False

    def snapshot(self) -> np.ndarray:
        """Copy of the pooled flags (level-boundary checkpointing)."""
        return self._sent.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Reinstate flags captured by :meth:`snapshot` (level rollback)."""
        self._sent[:] = snapshot

    def checkpoint_nbytes(self) -> np.ndarray:
        """Per-rank bitset size of the buddy-replicated cache state."""
        return (np.diff(self.bounds) + 7) // 8
