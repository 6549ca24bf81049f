"""Crash events and the keyed (order-independent) drop stream.

Two building blocks of :class:`repro.faults.FaultSchedule`, which both the
simulator and every SPMD backend worker consult:

* :class:`CrashEvent` — one scheduled rank crash (rank, level, phase),
  sampled at schedule construction.
* :class:`KeyedDropStream` — per-transmission drop decisions drawn from a
  splitmix64 hash of ``(seed, src, dst, k)`` where ``k`` is the pair's
  monotone transmission counter, kept in a column indexed by pair id.
  Unlike a shared sequential stream, the draw for the k-th transmission
  on a link does not depend on the order in which *other* links send —
  so P independent SPMD processes make byte-identical decisions to the
  single-process simulator, and a replayed level (whose counters have
  advanced) sees fresh draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: stream tag separating drop draws from any other keyed consumer
_DROP_TAG = 0x9E6B_1F2A_D7C3_5E81

# uint64 arrays wrap on overflow, which is the reference arithmetic
# ``& (2**64 - 1)``; every constant is an explicit ``np.uint64`` so that no
# NumPy version promotes a term to float64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_11, _27, _30, _31 = (np.uint64(n) for n in (11, 27, 30, 31))


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer — a high-quality 64-bit mixing function —
    over a ``uint64`` array."""
    x = x + _GOLDEN
    x = (x ^ (x >> _30)) * _MIX_A
    x = (x ^ (x >> _27)) * _MIX_B
    return x ^ (x >> _31)


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """One scheduled whole-rank crash."""

    #: the rank that dies
    rank: int
    #: BFS level at which the crash strikes
    level: int
    #: where in the level it strikes: ``"exchange"`` or ``"allreduce"``
    phase: str


class KeyedDropStream:
    """Stateful per-link transmission-drop decisions (see module docstring).

    Each ``(src, dst)`` pair carries a monotone counter of draws made, so
    the decision sequence on a link is a pure function of the spec seed
    and how many transmissions that link has attempted — independent of
    every other link and of which process asks.  The counters are a
    column indexed by the caller's *pair id* (any dense numbering that
    gives each pair one id: the simulator's network pair ids, or a
    sending worker's destination ranks); beside each counter sits the
    pair's hash state, so a draw only has to mix in the transmission
    index.
    """

    __slots__ = ("drop_rate", "max_retries", "_seeded", "_counts", "_hashes", "_last")

    def __init__(self, seed: int, drop_rate: float, max_retries: int) -> None:
        self.drop_rate = float(drop_rate)
        self.max_retries = int(max_retries)
        #: the hash state every draw starts from
        self._seeded = _mix64(
            np.array([(int(seed) ^ _DROP_TAG) & (2**64 - 1)], dtype=np.uint64)
        )
        self._counts = np.empty(0, dtype=np.uint64)
        self._hashes = np.empty(0, dtype=np.uint64)
        #: scratch, one entry per pair: the last chunk of a round to use it
        self._last = np.empty(0, dtype=np.int64)

    def plan_many(
        self, src: np.ndarray, dst: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fates of a round's chunks ``src[i] -> dst[i]`` (pair ``ids[i]``),
        in order: ``(transmissions, delivered)``.

        Each transmission is dropped independently with ``drop_rate``; a
        drop triggers a retransmission until the chunk arrives or
        ``max_retries`` retries are spent.  Every draw advances the
        pair's counter (a successful transmission consumes one draw too).
        A pair that appears several times in the round (the chunks of a
        message the buffer cap split) is drawn occurrence by occurrence,
        each seeing the counter its predecessors left — the fates of
        asking chunk by chunk.
        """
        count = src.size
        drops = np.zeros(count, dtype=np.int64)
        if self.drop_rate > 0.0 and count:
            self._counts = grown(self._counts, ids)
            self._hashes = grown(self._hashes, ids)
            if self._last.size < self._counts.size:
                self._last = np.empty(self._counts.size, dtype=np.int64)
            # a pair's hash state is set before its first draw
            fresh = self._counts[ids] == 0
            if fresh.any():
                self._hashes[ids[fresh]] = _mix64(
                    _mix64(self._seeded ^ src[fresh].astype(np.uint64))
                    ^ dst[fresh].astype(np.uint64)
                )
            chunk = np.arange(count)
            self._last[ids] = chunk
            if (self._last[ids] == chunk).all():
                drops = self._draw(ids)
            else:
                # occurrence rank of each chunk among those of its pair
                by_pair = np.argsort(ids, kind="stable")
                ordered = ids[by_pair]
                first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
                rank = np.empty(count, dtype=np.int64)
                rank[by_pair] = chunk - np.repeat(
                    first, np.diff(np.append(first, count))
                )
                for r in range(int(rank.max()) + 1):
                    nth = np.flatnonzero(rank == r)
                    drops[nth] = self._draw(ids[nth])
        delivered = drops <= self.max_retries
        return drops + delivered, delivered

    def _draw(self, ids: np.ndarray) -> np.ndarray:
        """Drops suffered by one chunk on each of the distinct pairs
        ``ids``: one vector draw per drop depth over the chunks still
        being dropped.  Advances the pairs' counters by the transmissions
        made."""
        first = self._counts[ids]
        state = self._hashes[ids]
        drops = np.zeros(ids.size, dtype=np.int64)
        live = np.arange(ids.size)
        for depth in range(self.max_retries + 1):
            h = _mix64(state[live] ^ (first[live] + np.uint64(depth)))
            uniform = (h >> _11).astype(np.float64) * (1.0 / (1 << 53))
            live = live[uniform < self.drop_rate]
            if not live.size:
                break
            drops[live] += 1
        transmissions = drops + (drops <= self.max_retries)
        self._counts[ids] = first + transmissions.astype(np.uint64)
        return drops


def grown(column: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``column``, zero-padded (at least doubling) when it is too short
    to index every id in ``ids``."""
    need = int(ids.max()) + 1
    if need <= column.size:
        return column
    pad = np.zeros(max(need, 2 * column.size) - column.size, dtype=column.dtype)
    return np.concatenate((column, pad))


__all__ = ["CrashEvent", "KeyedDropStream"]
