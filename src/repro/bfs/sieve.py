"""The communication sieve: cross-level redundancy elimination on the wire.

The sent-neighbours cache (:mod:`repro.bfs.sent_cache`) only suppresses
duplicates a *sender* has itself shipped before.  The larger win — Lv et
al.'s "Compression and Sieve" observation — is never transmitting vertices
the *receiver* has already visited, which no wire codec can recover once
the candidate is encoded.

Each rank keeps an exact visited bitmap over its owned vertices; at the
end of every top-down level it broadcasts a bitmap summary of its freshly
labelled vertices to its fold-group peers (its processor-row peers: all
other ranks on the 1D ``1 x P`` mesh).  Every sender therefore holds a *shadow* of each
destination's visited set that is complete up to the previous level, and
fold candidates are filtered against it before encoding: a candidate
whose owner already knows it is visited never hits the wire.  Same-level
duplicates are still removed by the in-flight union, so the labelled
levels are byte-identical to a sieve-off run — only the traffic drops.

Shadows are sound subsets of the true visited sets (a missed mark can
only cost bytes, never correctness), which is what lets bottom-up levels
of a hybrid run skip the summary broadcast entirely.
"""

from __future__ import annotations

import numpy as np


class PooledSieve:
    """All P ranks' destination shadows in one flat flag pool.

    ``flags[g * n + v]`` means rank ``g`` knows vertex ``v`` is already
    visited at its owner.  Peers are derived from the fold groups: rank
    ``d``'s end-of-level summary reaches exactly the ranks that can fold
    candidates to ``d``.  A rank never marks its own vertices — its
    self-addressed fold contributions cost nothing on the wire and are
    deduplicated locally anyway.
    """

    __slots__ = (
        "_nranks",
        "_n",
        "_flags",
        "_pair_src",
        "_pair_dst",
        "_pair_nbytes",
        "_pair_offsets",
        "_shadow_spans",
    )

    def __init__(
        self, groups: list[list[int]], spans: np.ndarray, n: int
    ) -> None:
        nranks = sum(len(g) for g in groups)
        self._nranks = nranks
        self._n = int(n)
        self._flags = np.zeros(nranks * self._n, dtype=bool)
        spans = np.asarray(spans, dtype=np.int64)
        peers_of: dict[int, list[int]] = {}
        for group in groups:
            for d in group:
                peers_of[d] = [g for g in group if g != d]
        offsets = np.zeros(nranks + 1, dtype=np.int64)
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        for r in range(nranks):
            peers = peers_of.get(r, [])
            offsets[r + 1] = offsets[r] + len(peers)
            if peers:
                src_parts.append(np.full(len(peers), r, dtype=np.int64))
                dst_parts.append(np.array(peers, dtype=np.int64))
        self._pair_offsets = offsets
        self._pair_src = (
            np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
        )
        self._pair_dst = (
            np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
        )
        # One summary message is a bitmap over the *sender's* owned span
        # plus a fixed base/count header word.
        self._pair_nbytes = 8 + (spans[self._pair_src] + 7) // 8
        # A rank's shadow covers exactly its fold-group peers' owned
        # vertices — what its buddy checkpoint would have to carry.
        group_totals = np.zeros(nranks, dtype=np.int64)
        for group in groups:
            total = int(spans[np.asarray(group, dtype=np.int64)].sum())
            for d in group:
                group_totals[d] = total
        self._shadow_spans = group_totals - spans

    # ------------------------------------------------------------------ #
    # the sieve itself
    # ------------------------------------------------------------------ #
    def keep_mask(self, senders: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Per-candidate survival mask: ``flat[k]`` sent by ``senders[k]``
        passes unless the sender's shadow already marks it visited."""
        return ~self._flags[senders * self._n + flat]

    def observe_segmented(
        self, fresh_flat: np.ndarray, fresh_bounds: np.ndarray
    ) -> np.ndarray:
        """Apply one level's summary broadcasts to every receiver's shadow.

        Segment ``r`` of ``(fresh_flat, fresh_bounds)`` holds rank ``r``'s
        freshly labelled owned vertices; each is marked in all of ``r``'s
        fold-group peers' shadows.  Returns the per-rank mark counts (the
        receivers' bitmap-update work, for compute charging).
        """
        nranks = self._nranks
        counts = np.diff(fresh_bounds)
        if fresh_flat.size == 0:
            return np.zeros(nranks, dtype=np.int64)
        owner = np.repeat(np.arange(nranks, dtype=np.int64), counts)
        npeers = np.diff(self._pair_offsets)
        reps = npeers[owner]
        total = int(reps.sum())
        if total == 0:
            return np.zeros(nranks, dtype=np.int64)
        out_off = np.concatenate(([0], np.cumsum(reps)))
        gather = np.arange(total, dtype=np.int64)
        gather += np.repeat(self._pair_offsets[owner] - out_off[:-1], reps)
        peers = self._pair_dst[gather]
        verts = np.repeat(fresh_flat, reps)
        self._flags[peers * self._n + verts] = True
        return np.bincount(peers, minlength=nranks)

    def summary_messages(
        self, fresh_counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wire messages of one level's summary broadcast as parallel arrays.

        Only ranks with a non-empty fresh set broadcast (an empty bitmap
        carries no information); each sends one fixed-size bitmap summary
        to every fold-group peer.  Returns ``(src, dst, nbytes)``.
        """
        active = np.flatnonzero(np.asarray(fresh_counts) > 0)
        npeers = np.diff(self._pair_offsets)
        lengths = npeers[active]
        total = int(lengths.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        out_off = np.concatenate(([0], np.cumsum(lengths)))
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(self._pair_offsets[active] - out_off[:-1], lengths)
        return self._pair_src[idx], self._pair_dst[idx], self._pair_nbytes[idx]

    # ------------------------------------------------------------------ #
    # per-run lifecycle (mirrors PooledSentCache)
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget every shadow mark (start of a new search)."""
        self._flags[:] = False

    def snapshot(self) -> np.ndarray:
        """Copy of the pooled shadow flags (level-boundary checkpointing)."""
        return self._flags.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Reinstate flags captured by :meth:`snapshot` (level rollback)."""
        self._flags[:] = snapshot

    def checkpoint_nbytes(self) -> np.ndarray:
        """Per-rank bitset size of the shadow state (peers' owned spans)."""
        return (self._shadow_spans + 7) // 8
