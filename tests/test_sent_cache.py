"""Tests for the sent-neighbours cache (Section 2.4.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_engine
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.sent_cache import PooledSentCache
from repro.types import GridShape


def pool_of(universes) -> PooledSentCache:
    """A pool over per-rank sorted universes, laid out as a partition's row universe."""
    ids = [np.asarray(u, dtype=np.int64) for u in universes]
    bounds = np.concatenate(([0], np.cumsum([u.size for u in ids]))).astype(np.int64)
    return PooledSentCache(bounds, np.concatenate([np.empty(0, np.int64), *ids]))


def entry_slots(pool: PooledSentCache, edges) -> np.ndarray:
    """Slots of every rank's edge ids, concatenated in rank order."""
    parts = [np.empty(0, np.int64)]
    for r, e in enumerate(edges):
        lo, hi = pool.bounds[r], pool.bounds[r + 1]
        parts.append(lo + np.searchsorted(pool.vertex[lo:hi], np.asarray(e, np.int64)))
    return np.concatenate(parts)


def send(pool: PooledSentCache, rank: int, vertices) -> np.ndarray:
    """The not-yet-sent ones of ``rank``'s ``vertices``, which are then marked
    sent: one filtered discover with every other rank idle."""
    edges = [[] for _ in range(pool.bounds.size - 1)]
    edges[rank] = vertices
    flat, bounds, _, _ = pool.discover(entry_slots(pool, edges), filter_sent=True)
    assert bounds[rank + 1] - bounds[rank] == flat.size
    return flat


def num_sent(pool: PooledSentCache) -> int:
    return int(pool.snapshot().sum())


class TestSentCache:
    """One rank's filter: a one-rank pool."""

    def test_first_pass_all_fresh(self):
        pool = pool_of([[10, 20, 30]])
        assert send(pool, 0, [10, 30]).tolist() == [10, 30]
        assert num_sent(pool) == 2

    def test_second_pass_filtered(self):
        pool = pool_of([[10, 20, 30]])
        send(pool, 0, [10, 30])
        assert send(pool, 0, [10, 20, 30]).tolist() == [20]

    def test_empty_input(self):
        pool = pool_of([[1]])
        assert send(pool, 0, []).size == 0

    def test_reset(self):
        pool = pool_of([[1, 2]])
        send(pool, 0, [1, 2])
        pool.reset()
        assert num_sent(pool) == 0
        assert send(pool, 0, [1]).tolist() == [1]

    def test_unknown_vertex_rejected(self):
        """A slot outside the universe is refused, not wrapped."""
        pool = pool_of([[1, 2]])
        with pytest.raises(IndexError):
            pool.discover(np.array([2]), filter_sent=True)

    def test_len_is_universe_size(self):
        pool = pool_of([[5, 6, 7]])
        assert np.diff(pool.bounds).tolist() == [3]
        assert pool.snapshot().size == 3

    def test_full_universe_saturation(self):
        """Once every vertex is marked, every further call filters to empty."""
        pool = pool_of([[1, 2, 3]])
        send(pool, 0, [1, 2, 3])
        assert num_sent(pool) == 3
        assert send(pool, 0, [1, 2, 3]).size == 0
        assert send(pool, 0, [2]).size == 0
        assert num_sent(pool) == 3

    def test_num_sent_monotone(self):
        """The sent count never decreases under filter calls, only under reset."""
        pool = pool_of([range(10)])
        rng = np.random.default_rng(0)
        seen = 0
        for _ in range(8):
            send(pool, 0, rng.integers(0, 10, size=4))
            assert num_sent(pool) >= seen
            seen = num_sent(pool)
        pool.reset()
        assert num_sent(pool) == 0


class TestPooledSentCache:
    """The slot-space discover kernel on a two-rank pool.

    Rank 0's universe is {0, 2, 4} (slots 0-2), rank 1's {1, 2, 3}
    (slots 3-5); :func:`entry_slots` turns per-rank edge multisets into gathered
    slot ids the way an engine's adjacency gather does.
    """

    def _pool(self):
        return pool_of([[0, 2, 4], [1, 2, 3]])

    def test_empty_level(self):
        """No edges at all is a no-op with well-formed bounds."""
        pool = self._pool()
        flat, bounds, _, counts = pool.discover(entry_slots(pool, [[], []]), filter_sent=True)
        assert flat.size == 0 and flat.dtype == np.int64
        assert bounds.tolist() == [0, 0, 0]
        assert counts.tolist() == [0, 0]
        assert pool.snapshot().sum() == 0

    def test_idle_rank_between_active_ranks(self):
        """Rank 0 active, rank 1 idle: the idle segment stays empty."""
        pool = self._pool()
        flat, bounds, _, counts = pool.discover(
            entry_slots(pool, [[4, 0, 4, 0], []]), filter_sent=True
        )
        assert flat.tolist() == [0, 4]
        assert bounds.tolist() == [0, 2, 2]
        assert counts.tolist() == [2, 0]

    def test_full_universe_saturation(self):
        pool = self._pool()
        slots = entry_slots(pool, [[0, 2, 4], [1, 2, 3]])
        flat, _, _, _ = pool.discover(slots, filter_sent=True)
        assert flat.tolist() == [0, 2, 4, 1, 2, 3]
        flat, bounds, _, counts = pool.discover(slots, filter_sent=True)
        assert flat.size == 0
        assert bounds.tolist() == [0, 0, 0]
        # the filter is still charged for every candidate it looked up
        assert counts.tolist() == [3, 3]

    def test_num_sent_monotone_under_discover(self):
        pool = self._pool()
        rng = np.random.default_rng(0)
        seen = 0
        for _ in range(8):
            slots = rng.integers(0, 6, size=3)
            pool.discover(slots, filter_sent=True)
            assert pool.snapshot().sum() >= seen
            seen = int(pool.snapshot().sum())
        pool.reset()
        assert pool.snapshot().sum() == 0

    def test_unfiltered_discover_leaves_flags_alone(self):
        """``filter_sent=False`` is the dedup alone: nothing read, nothing marked."""
        pool = self._pool()
        send(pool, 0, [2])
        before = pool.snapshot()
        flat, bounds, _, counts = pool.discover(
            entry_slots(pool, [[2, 0, 2], [3]]), filter_sent=False
        )
        assert flat.tolist() == [0, 2, 3]
        assert bounds.tolist() == [0, 2, 3]
        assert counts.tolist() == [2, 1]
        assert np.array_equal(pool.snapshot(), before)

    def test_views_share_pool_flags(self):
        """A rank's marks live in its own slice of the pooled flags: the
        kernel sees them, and no other rank does."""
        pool = self._pool()
        send(pool, 0, [2])
        assert pool.snapshot().tolist() == [False, True, False, False, False, False]
        flat, _, _, _ = pool.discover(entry_slots(pool, [[0, 2], []]), filter_sent=True)
        assert flat.tolist() == [0]
        # rank 1's own vertex 2 is a different flag
        assert send(pool, 1, [2]).tolist() == [2]

    def test_snapshot_restore_round_trip(self):
        pool = self._pool()
        before = pool.snapshot()
        pool.discover(entry_slots(pool, [[0, 4], []]), filter_sent=True)
        after = pool.snapshot()
        pool.restore(before)
        assert send(pool, 0, [0]).tolist() == [0]
        pool.restore(after)
        assert send(pool, 0, [4]).size == 0

    def test_one_edge_level_on_a_large_pool(self):
        """Far fewer edges than slots, then every slot at once."""
        pool = pool_of([range(0, 200, 2), range(200)])
        flat, bounds, _, counts = pool.discover(
            entry_slots(pool, [[], [7, 7, 3]]), filter_sent=True
        )
        assert flat.tolist() == [3, 7]
        assert bounds.tolist() == [0, 0, 2]
        assert counts.tolist() == [0, 2]
        dense = [np.arange(0, 200, 2), np.arange(200)]
        flat, bounds, _, counts = pool.discover(entry_slots(pool, dense), filter_sent=True)
        assert flat.size == 298 and 3 not in flat[100:] and 7 not in flat[100:]
        assert counts.tolist() == [100, 200]

    def test_masks_or_merge_per_rank(self):
        pool = self._pool()
        slots = entry_slots(pool, [[2, 4, 2], [2]])
        masks = np.array([1, 2, 4, 8], dtype=np.uint64)
        flat, bounds, merged, _ = pool.discover(slots, masks, filter_sent=False)
        assert flat.tolist() == [2, 4, 2]
        assert merged.tolist() == [5, 2, 8]
        assert bounds.tolist() == [0, 2, 3]
        assert pool.snapshot().sum() == 0
        # the accumulator is clear again: a second level starts from zero
        _, _, merged, _ = pool.discover(slots[:1], masks[3:], filter_sent=False)
        assert merged.tolist() == [8]


@st.composite
def _pool_histories(draw):
    """Universes for a few ranks plus a history of levels and rollbacks."""
    nranks = draw(st.integers(1, 4))
    domain = draw(st.integers(1, 48))
    universes = [
        sorted(draw(st.sets(st.integers(0, domain - 1), max_size=domain)))
        for _ in range(nranks)
    ]
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["level", "level", "level", "snapshot", "restore"]))
        if kind != "level":
            steps.append((kind, None))
            continue
        steps.append((
            "level",
            [
                draw(st.lists(st.sampled_from(u), max_size=3 * len(u))) if u else []
                for u in universes
            ],
        ))
    return domain, universes, steps


class TestDiscoverAgainstPerRankOracle:
    """The kernel vs. ``np.unique`` and a Python set of sent vertices per rank.

    Histories include ranks with no edges (or an empty universe), levels
    where everything is already sent, one-edge levels on a large pool
    next to dense ones, and snapshot/restore between levels.
    """

    @given(history=_pool_histories(), filter_sent=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, history, filter_sent):
        _, universes, steps = history
        pool = pool_of(universes)
        oracle: list[set[int]] = [set() for _ in universes]
        saved = None
        for kind, edges in steps:
            if kind == "snapshot":
                saved = (pool.snapshot(), [set(sent) for sent in oracle])
                continue
            if kind == "restore":
                if saved is not None:
                    pool.restore(saved[0])
                    oracle = [set(sent) for sent in saved[1]]
                continue
            edges = [np.array(e, dtype=np.int64) for e in edges]
            uniq = [sorted(set(e.tolist())) for e in edges]
            want = [[v for v in u if v not in sent] if filter_sent else u
                    for sent, u in zip(oracle, uniq)]
            if filter_sent:
                for sent, w in zip(oracle, want):
                    sent.update(w)
            flat, bounds, _, counts = pool.discover(
                entry_slots(pool, edges), filter_sent=filter_sent
            )
            assert counts.tolist() == [len(u) for u in uniq]
            assert bounds.tolist() == np.concatenate(
                ([0], np.cumsum([len(w) for w in want]))
            ).tolist()
            assert flat.tolist() == [v for w in want for v in w]
            assert pool.snapshot().tolist() == [
                v in sent for sent, u in zip(oracle, universes) for v in u
            ]

    @given(history=_pool_histories(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_masks_match_oracle(self, history, seed):
        _, universes, steps = history
        pool = pool_of(universes)
        rng = np.random.default_rng(seed)
        for kind, edges in steps:
            if kind != "level":
                continue
            edges = [np.array(e, dtype=np.int64) for e in edges]
            masks = [
                rng.integers(1, 2**63, size=e.size).astype(np.uint64) for e in edges
            ]
            flat, bounds, merged, _ = pool.discover(
                entry_slots(pool, edges), np.concatenate(masks), filter_sent=False
            )
            for r, (e, m) in enumerate(zip(edges, masks)):
                want = {}
                for v, bits in zip(e.tolist(), m.tolist()):
                    want[v] = want.get(v, 0) | bits
                lo, hi = bounds[r], bounds[r + 1]
                assert flat[lo:hi].tolist() == sorted(want)
                assert merged[lo:hi].tolist() == [want[v] for v in sorted(want)]


class TestCacheEffectOnTraffic:
    def test_cache_reduces_fold_volume(self, small_graph):
        """Dense graphs rediscover neighbours constantly; the cache must cut
        the fold traffic without changing the result."""
        grid = GridShape(2, 4)
        with_cache = run_bfs(
            build_engine(small_graph, grid, opts=BfsOptions(use_sent_cache=True)), 0
        )
        without = run_bfs(
            build_engine(small_graph, grid, opts=BfsOptions(use_sent_cache=False)), 0
        )
        assert np.array_equal(with_cache.levels, without.levels)
        assert (
            with_cache.stats.volume_per_level("fold").sum()
            < without.stats.volume_per_level("fold").sum()
        )

    def test_cache_universe_is_edge_list_vertices(self, small_graph):
        """Storage is one flag per unique vertex in local edge lists -- the
        Section 2.4.1/2.4.3 O(n/P) expectation."""
        engine = build_engine(small_graph, GridShape(2, 4))
        engine.start(0)
        per_rank = np.diff(engine._sent_pool.bounds)
        fp = engine.partition.memory_footprints()
        assert per_rank.tolist() == fp["unique_row_vertices"].tolist()
        assert engine._sent_pool.snapshot().size == per_rank.sum()
