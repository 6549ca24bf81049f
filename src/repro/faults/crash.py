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

import math
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
    # in place past the first step: one temporary at a time
    x ^= x >> _30
    x *= _MIX_A
    x ^= x >> _27
    x *= _MIX_B
    x ^= x >> _31
    return x


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

    __slots__ = (
        "drop_rate", "max_retries", "_threshold", "_seeded", "_counts", "_hashes", "_last"
    )

    def __init__(self, seed: int, drop_rate: float, max_retries: int) -> None:
        self.drop_rate = float(drop_rate)
        self.max_retries = int(max_retries)
        #: a draw is a drop when its top 53 bits, read as a uniform in
        #: [0, 1), fall below the drop rate: below this integer
        self._threshold = np.uint64(math.ceil(self.drop_rate * 2.0**53))
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
        message the buffer cap split, or a stacked ring's rounds) has its
        chunks' fates read off its draws in order, each chunk starting at
        the counter its predecessors left — the fates of asking chunk by
        chunk.
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
                # the round's chunks grouped by pair, in round order
                by_pair = np.argsort(ids, kind="stable")
                ordered = ids[by_pair]
                first = _starts(ordered, 0)
                hit, lost = self._parse(ordered[first], _run_sizes(first, count))
                drops[by_pair[hit]] = lost
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
            live = live[h >> _11 < self._threshold]
            if not live.size:
                break
            drops[live] += 1
        transmissions = drops + (drops <= self.max_retries)
        self._counts[ids] = first + transmissions.astype(np.uint64)
        return drops

    def _parse(self, ids: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The fates of the next ``k[j]`` chunks on each of the distinct
        pairs ``ids[j]``, given as the chunks that suffer drops: their
        places in pair-by-pair chunk order, and their drops.  Advances the
        pairs' counters by the transmissions made.

        A pair's draws are one counter-indexed uniform stream and its
        chunks a parse of it: each success ends a chunk, and a run of
        drops is cut into ``max_retries + 1``-long undelivered chunks and
        a rest that the next success delivers.  Each pair draws ``k``
        uniforms plus slack for the drops expected; a pair whose slack ran
        out before its ``k``-th chunk is drawn again with the
        ``k · (max_retries + 1)`` that always suffice.  Past the hashing,
        only the runs of drops are handled one by one.
        """
        span = self.max_retries + 1
        rate = self.drop_rate
        # first-pass draws for k chunks: k, plus the extra draws their drops
        # are expected to take and two standard deviations (as if Poisson)
        per_chunk = span if rate >= 1.0 else (1.0 - rate**span) / (1.0 - rate)
        ks = np.arange(int(k.max()) + 1)
        extra = (per_chunk - 1.0) * ks
        slack = np.floor(extra + 2.0 * np.sqrt(extra)).astype(np.int64)
        size = np.minimum(span * ks, ks + slack)[k]
        pair, want, place = ids, k, np.cumsum(k) - k
        hits, losses = [], []
        while pair.size:
            start = np.cumsum(size) - size
            first = self._counts[pair]
            counter = np.repeat(first - start.astype(np.uint64), size)
            counter += np.arange(counter.size, dtype=np.uint64)
            h = _mix64(np.repeat(self._hashes[pair], size) ^ counter)
            dropped = np.flatnonzero(h >> _11 < self._threshold)
            seg = np.searchsorted(start, dropped, side="right") - 1
            # maximal runs of drops inside one pair's draws (shifting each
            # pair's draws by its index keeps runs from joining across pairs)
            opens = _starts(dropped + seg, 1)
            length = _run_sizes(opens, dropped.size)
            seg = seg[opens]
            at = dropped[opens] - start[seg]
            undelivered, rest = np.divmod(length, span)
            # every draw ends a chunk but the drops that do not end an
            # undelivered one; a run's first chunk is numbered by the
            # chunks its pair's earlier draws ended
            unended = length - undelivered
            nth = at - _restarted_cumsum(unended, _starts(seg, 0))
            found = size.copy()
            np.add.at(found, seg, -unended)
            done = found >= want
            # a run's chunks with drops: its undelivered ones, then the one
            # its rest of drops and the next success make (when the draws
            # end first, that chunk is unfinished, but it comes after every
            # chunk the draws ended, so it is never among a finished pair's
            # first k)
            chunks = undelivered + (rest > 0)
            chunk_seg = np.repeat(seg, chunks)
            nth_in_run = _ranks(chunks)
            chunk_nth = np.repeat(nth, chunks) + nth_in_run
            chunk_drops = np.where(
                nth_in_run < np.repeat(undelivered, chunks), span, np.repeat(rest, chunks)
            )
            # of each finished pair, only its first k chunks
            taken = done[chunk_seg] & (chunk_nth < want[chunk_seg])
            chunk_seg, chunk_drops = chunk_seg[taken], chunk_drops[taken]
            hits.append(place[chunk_seg] + chunk_nth[taken])
            losses.append(chunk_drops)
            # each chunk takes a draw per drop, and a delivered one a draw
            # for its success
            advance = want * done
            np.add.at(advance, chunk_seg, chunk_drops - (chunk_drops == span))
            self._counts[pair] = first + advance.astype(np.uint64)
            again = ~done
            pair, want, place = pair[again], want[again], place[again]
            size = span * want
        return np.concatenate(hits), np.concatenate(losses)


def _starts(values: np.ndarray, step: int) -> np.ndarray:
    """Where the runs of ``values`` that rise by ``step`` begin."""
    begins = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1] + step, out=begins[1:])
    return np.flatnonzero(begins)


def _run_sizes(starts: np.ndarray, total: int) -> np.ndarray:
    """Sizes of the runs beginning at ``starts`` among ``total`` items."""
    return np.concatenate((starts[1:], (total,))) - starts


def _restarted_cumsum(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Exclusive running sums of ``values``, restarted at each group's
    ``first`` item."""
    totals = np.cumsum(values) - values
    return totals - np.repeat(totals[first], _run_sizes(first, values.size))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[i] - 1`` for each ``i``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def grown(column: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``column``, zero-padded (at least doubling) when it is too short
    to index every id in ``ids``."""
    need = int(ids.max()) + 1
    if need <= column.size:
        return column
    pad = np.zeros(max(need, 2 * column.size) - column.size, dtype=column.dtype)
    return np.concatenate((column, pad))


__all__ = ["CrashEvent", "KeyedDropStream"]
