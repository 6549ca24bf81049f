"""Stateful property tests (hypothesis RuleBasedStateMachine) for the
mutable runtime structures: sent caches and simulated clocks.
Each machine mirrors the real structure against a trivial Python model and
asserts they never diverge under arbitrary operation sequences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bfs.sent_cache import SentCache
from repro.partition.indexing import VertexIndexMap
from repro.runtime.clock import SimClock

UNIVERSE = list(range(0, 100, 7))


class SentCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = SentCache(VertexIndexMap(UNIVERSE))
        self.model: set[int] = set()

    @rule(vertices=st.lists(st.sampled_from(UNIVERSE), max_size=6, unique=True))
    def filter_unsent(self, vertices):
        arr = np.array(sorted(vertices), dtype=np.int64)
        fresh = self.cache.filter_unsent(arr)
        expected = sorted(set(vertices) - self.model)
        assert fresh.tolist() == expected
        self.model.update(vertices)

    @rule()
    def reset(self):
        self.cache.reset()
        self.model = set()

    @invariant()
    def counts_agree(self):
        assert self.cache.num_sent == len(self.model)


class SimClockMachine(RuleBasedStateMachine):
    RANKS = 4

    def __init__(self):
        super().__init__()
        self.clock = SimClock(self.RANKS)
        self.model = np.zeros(self.RANKS)
        self.model_comm = np.zeros(self.RANKS)
        self.model_compute = np.zeros(self.RANKS)

    @rule(
        rank=st.integers(0, RANKS - 1),
        seconds=st.floats(0, 10, allow_nan=False),
        kind=st.sampled_from(["comm", "compute"]),
    )
    def advance(self, rank, seconds, kind):
        self.clock.advance(rank, seconds, kind)
        self.model[rank] += seconds
        (self.model_comm if kind == "comm" else self.model_compute)[rank] += seconds

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
