"""Stateful property tests (hypothesis RuleBasedStateMachine) for the
mutable runtime structures: sent caches and simulated clocks.
Each machine mirrors the real structure against a trivial Python model and
asserts they never diverge under arbitrary operation sequences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.bfs.sent_cache import PooledSentCache
from repro.runtime.clock import SimClock

#: per-rank sorted universes, laid out as a partition's row universe (one
#: rank stores nothing)
UNIVERSES = [list(range(0, 100, 7)), [], list(range(3, 60, 5))]
BOUNDS = np.cumsum([0] + [len(u) for u in UNIVERSES])


class SentCacheMachine(RuleBasedStateMachine):
    """Every rank's sent filter, run level by level through one pooled
    discover, against a Python set per rank."""

    def __init__(self):
        super().__init__()
        self.pool = PooledSentCache(BOUNDS, np.array(sum(UNIVERSES, []), dtype=np.int64))
        self.model: list[set[int]] = [set() for _ in UNIVERSES]
        self.saved = None

    @rule(edges=st.tuples(*(
        st.lists(st.sampled_from(u), max_size=8) if u else st.just([]) for u in UNIVERSES
    )))
    def discover(self, edges):
        slots = np.concatenate([
            BOUNDS[r] + np.searchsorted(UNIVERSES[r], np.array(e, dtype=np.int64))
            for r, e in enumerate(edges)
        ])
        flat, bounds, _, counts = self.pool.discover(slots, filter_sent=True)
        for r, e in enumerate(edges):
            assert counts[r] == len(set(e))
            fresh = sorted(set(e) - self.model[r])
            assert flat[bounds[r] : bounds[r + 1]].tolist() == fresh
            self.model[r].update(fresh)

    @rule()
    def snapshot(self):
        self.saved = (self.pool.snapshot(), [set(sent) for sent in self.model])

    @precondition(lambda self: self.saved is not None)
    @rule()
    def restore(self):
        self.pool.restore(self.saved[0])
        self.model = [set(sent) for sent in self.saved[1]]

    @rule()
    def reset(self):
        self.pool.reset()
        self.model = [set() for _ in UNIVERSES]

    @invariant()
    def flags_agree(self):
        assert self.pool.snapshot().tolist() == [
            v in sent for sent, u in zip(self.model, UNIVERSES) for v in u
        ]


class SimClockMachine(RuleBasedStateMachine):
    RANKS = 4

    def __init__(self):
        super().__init__()
        self.clock = SimClock(self.RANKS)
        self.model = np.zeros(self.RANKS)
        self.model_comm = np.zeros(self.RANKS)
        self.model_compute = np.zeros(self.RANKS)

    @rule(
        seconds=st.lists(
            st.floats(0, 10, allow_nan=False), min_size=RANKS, max_size=RANKS
        ),
        kind=st.sampled_from(["comm", "compute"]),
    )
    def advance(self, seconds, kind):
        self.clock.advance_many(np.array(seconds), kind)
        self.model += seconds
        (self.model_comm if kind == "comm" else self.model_compute)[:] += seconds

    @rule(ranks=st.lists(st.integers(0, RANKS - 1), min_size=1, max_size=4, unique=True))
    def sync(self, ranks):
        self.clock.sync(ranks)
        horizon = self.model[ranks].max()
        self.model_comm[ranks] += horizon - self.model[ranks]
        self.model[ranks] = horizon

    @invariant()
    def totals_agree(self):
        assert np.allclose(self.clock.time, self.model)
        assert np.allclose(self.clock.comm_time, self.model_comm)
        assert np.allclose(self.clock.compute_time, self.model_compute)
        # time decomposes exactly into comm + compute
        assert np.allclose(self.clock.time, self.clock.comm_time + self.clock.compute_time)


TestSentCacheMachine = SentCacheMachine.TestCase
TestSimClockMachine = SimClockMachine.TestCase

for case in (TestSentCacheMachine, TestSimClockMachine):
    case.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
