"""Tests for the deterministic fault-injection and recovery layer."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import distributed_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import ConfigurationError, FaultError
from repro.faults import (
    FAULT_PRESETS, FaultReport, FaultSchedule, FaultSpec, KeyedDropStream,
)
from repro.utils.rng import RngFactory


class TestFaultSpec:
    def test_default_is_inactive(self):
        assert not FaultSpec().active

    def test_active_axes(self):
        assert FaultSpec(drop_rate=0.1).active
        assert FaultSpec(degraded_link_rate=0.5).active
        assert FaultSpec(straggler_rate=0.5).active
        assert FaultSpec(down_level=1).active

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(drop_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(drop_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultSpec(degradation_factor=0.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec(down_level=-2)

    def test_parse_preset(self):
        assert FaultSpec.parse("mild") == FAULT_PRESETS["mild"]
        assert FaultSpec.parse("none") == FaultSpec()

    def test_parse_kv_string(self):
        spec = FaultSpec.parse("drop=0.05,degrade=0.25x4,straggler=0.1x3,down=2,seed=7")
        assert spec.drop_rate == 0.05
        assert spec.degraded_link_rate == 0.25
        assert spec.degradation_factor == 4.0
        assert spec.straggler_rate == 0.1
        assert spec.straggler_slowdown == 3.0
        assert spec.down_level == 2
        assert spec.seed == 7

    def test_parse_retries_shorthand_and_bare_rate(self):
        spec = FaultSpec.parse("drop=0.02,retries=5,degrade=0.3")
        assert spec.max_retries == 5
        assert spec.degradation_factor == 2.0

    def test_parse_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse("dropp=0.1")
        with pytest.raises(ConfigurationError):
            FaultSpec.parse("justaword")


def ranks(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def degraded_keys(sched: FaultSchedule) -> np.ndarray:
    """The ``src * P + dst`` keys set in the schedule's degraded-link bits
    (the padding of the last byte included, so stray bits show)."""
    return np.flatnonzero(np.unpackbits(sched._degraded, bitorder="little"))


class TestFaultSchedule:
    def test_identical_seeds_identical_samples(self):
        a = FaultSchedule(FAULT_PRESETS["harsh"], 16)
        b = FaultSchedule(FAULT_PRESETS["harsh"], 16)
        assert a._degraded.size and np.array_equal(a._degraded, b._degraded)
        assert np.array_equal(a._compute_multipliers, b._compute_multipliers)
        assert a._down_pair == b._down_pair

    @pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
    @pytest.mark.parametrize("nranks", [1, 2, 7, 64])
    def test_degraded_links_are_the_pair_loops(self, preset, nranks):
        """Block sampling draws the stream the per-pair double loop drew."""
        spec = FAULT_PRESETS[preset]
        link_rng = RngFactory(spec.seed).named("faults:links")
        looped = [
            src * nranks + dst
            for src in range(nranks)
            for dst in range(nranks)
            if src != dst and link_rng.random() < spec.degraded_link_rate
        ]
        sched = FaultSchedule(spec, nranks)
        if not (spec.degraded_link_rate > 0 and spec.degradation_factor > 1):
            looped = []
        assert degraded_keys(sched).tolist() == looped
        assert sched.report.degraded_links == len(looped)

    def test_big_machine_constructs_fast(self):
        t0 = time.perf_counter()
        sched = FaultSchedule(FAULT_PRESETS["mild"], 4096)
        assert time.perf_counter() - t0 < 1.0
        assert sched.report.degraded_links > 0

    def test_down_link_gated_by_level(self):
        spec = FaultSpec(down_level=3, down_detour_factor=5.0)
        sched = FaultSchedule(spec, 4)
        src, dst = sched.report.link_down
        # the down pair, its reverse, and a self-send, under any pair ids
        pairs = ranks([src, dst, src]), ranks([dst, src, src]), ranks([7, 0, 3])
        sched.begin_level(2)
        assert sched.link_multipliers(*pairs).tolist() == [1.0, 1.0, 1.0]
        sched.begin_level(3)
        assert sched.link_multipliers(*pairs).tolist() == [5.0, 1.0, 1.0]

    def test_link_multipliers_of_a_round(self):
        spec = FaultSpec(
            seed=5, degraded_link_rate=0.3, degradation_factor=4.0,
            down_level=1, down_detour_factor=9.0,
        )
        nranks = 6
        sched = FaultSchedule(spec, nranks)
        degraded = {divmod(int(key), nranks) for key in degraded_keys(sched)}
        assert degraded and all(s != d for s, d in degraded)
        src, dst = (a.ravel() for a in np.indices((nranks, nranks)))
        # pair ids in no particular order; a round names some pairs twice
        ids = np.random.default_rng(5).permutation(src.size)
        twice = np.r_[np.arange(src.size), np.arange(0, src.size, 3)]
        for level in (0, 1):
            sched.begin_level(level)
            expected = [
                9.0 if level >= 1 and pair == sched.report.link_down
                else 4.0 if pair in degraded else 1.0
                for pair in zip(src[twice].tolist(), dst[twice].tolist())
            ]
            got = sched.link_multipliers(src[twice], dst[twice], ids[twice])
            assert got.tolist() == expected
        none = ranks([])
        assert sched.link_multipliers(none, none, none).size == 0

    def test_retry_penalty_backoff(self):
        spec = FaultSpec(retry_timeout=1.0, backoff=2.0)
        sched = FaultSchedule(spec, 2)
        assert sched.retry_penalty(0) == 0.0
        assert sched.retry_penalty(3) == pytest.approx(1.0 + 2.0 + 4.0)
        assert sched.retry_penalty(ranks([0, 3, 1])).tolist() == [
            sched.retry_penalty(n) for n in (0, 3, 1)
        ]


# ---------------------------------------------------------------------- #
# the drop stream: a round at once == chunk by chunk
# ---------------------------------------------------------------------- #
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class SequentialDrops:
    """Reference: the chunk-by-chunk drop stream in plain Python integers,
    as the schedule drew it before rounds were drawn as arrays."""

    def __init__(self, seed: int, drop_rate: float, max_retries: int) -> None:
        self.seeded = _mix64(seed ^ 0x9E6B_1F2A_D7C3_5E81)
        self.drop_rate, self.max_retries = drop_rate, max_retries
        self.counters: dict[tuple[int, int], int] = {}

    def plan(self, src: int, dst: int) -> tuple[int, bool]:
        if self.drop_rate <= 0.0:
            return 1, True
        k, drops = self.counters.get((src, dst), 0), 0
        while drops <= self.max_retries:
            h = _mix64(_mix64(_mix64(self.seeded ^ src) ^ dst) ^ (k + drops))
            if (h >> 11) * (1.0 / (1 << 53)) >= self.drop_rate:
                break
            drops += 1
        delivered = drops <= self.max_retries
        self.counters[(src, dst)] = k + drops + delivered
        return drops + delivered, delivered


#: consecutive rounds over 5 ranks: few enough that pairs repeat inside a
#: round (a message the buffer cap split) and self-sends turn up
drawn_rounds = st.lists(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40),
    min_size=1, max_size=5,
)
#: a pair id for each of the 25 pairs over 5 ranks: any numbering will do
drawn_ids = st.permutations(range(25))


def round_arrays(pairs, numbering):
    """``(src, dst, ids)`` of a drawn round, pair ``(s, d)`` numbered
    ``numbering[s * 5 + d]``."""
    src, dst = ranks([s for s, _ in pairs]), ranks([d for _, d in pairs])
    return src, dst, ranks(numbering)[src * 5 + dst]


class TestDropStream:
    @pytest.mark.parametrize("max_retries", [0, 3])
    @pytest.mark.parametrize("drop_rate", [0.0, 0.01, 0.5, 1.0])
    @settings(max_examples=30, deadline=None)
    @given(rounds=drawn_rounds, numbering=drawn_ids, seed=st.integers(0, 2**63))
    def test_round_at_once_equals_chunk_by_chunk(
        self, drop_rate, max_retries, rounds, numbering, seed
    ):
        stream = KeyedDropStream(seed, drop_rate, max_retries)
        reference = SequentialDrops(seed, drop_rate, max_retries)
        for pairs in rounds:
            transmissions, delivered = stream.plan_many(*round_arrays(pairs, numbering))
            assert transmissions.dtype == np.int64 and delivered.dtype == bool
            assert list(zip(transmissions.tolist(), delivered.tolist())) == [
                reference.plan(s, d) for s, d in pairs
            ]
        # every transmission, successful or not, advanced its pair's counter
        # — and a stream that never drops keeps none
        counts = stream._counts
        counters = {
            divmod(key, 5): int(counts[i])
            for key, i in enumerate(numbering)
            if i < counts.size and counts[i]
        }
        assert counters == reference.counters
        assert drop_rate > 0.0 or not counts.size

    @pytest.mark.parametrize("max_retries", [0, 3])
    @settings(max_examples=30, deadline=None)
    @given(rounds=drawn_rounds, numbering=drawn_ids, seed=st.integers(0, 2**63))
    def test_schedule_skips_self_sends_and_tallies_sums(
        self, max_retries, rounds, numbering, seed
    ):
        spec = FaultSpec(seed=seed, drop_rate=0.5, max_retries=max_retries)
        sched = FaultSchedule(spec, 5)
        reference = SequentialDrops(seed, 0.5, max_retries)
        tally = FaultReport()
        for pairs in rounds:
            fates = [
                reference.plan(s, d) if s != d else (1, True) for s, d in pairs
            ]
            for transmissions, delivered in fates:
                tally.injected += transmissions - delivered
                tally.retries += transmissions - 1
                tally.recovered += delivered and transmissions > 1
                tally.unrecovered += not delivered
            transmissions, delivered = sched.plan_round(*round_arrays(pairs, numbering))
            assert list(zip(transmissions.tolist(), delivered.tolist())) == fates
            assert sched.report == tally

    def test_worker_ids_draw_the_simulator_fates(self):
        """An SPMD worker numbers its pairs by destination rank, one chunk
        at a time; the simulator numbers every pair at once.  Same fates."""
        spec = FAULT_PRESETS["harsh"]
        worker, simulator = FaultSchedule(spec, 4), FaultSchedule(spec, 4)
        src, dst = ranks([2, 2, 2]), ranks([1, 0, 3])
        for _ in range(50):
            fates = simulator.plan_round(src, dst, ranks([9, 4, 6]))
            for k in range(3):
                one = worker.plan_round(src[k:k + 1], dst[k:k + 1], dst[k:k + 1])
                assert (one[0][0], one[1][0]) == (fates[0][k], fates[1][k])
        assert worker.report == simulator.report


class TestFaultedRuns:
    def test_levels_match_serial_under_drops(self, small_graph):
        result = distributed_bfs(
            small_graph, (2, 2), 0, faults=FaultSpec(seed=2, drop_rate=0.08)
        )
        assert result.faults is not None
        assert result.faults.injected > 0
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_levels_match_serial_1d(self, small_graph):
        result = distributed_bfs(
            small_graph, (4, 1), 0, system="bluegene-1d",
            faults=FaultSpec(seed=2, drop_rate=0.08),
        )
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_deterministic_report_and_time(self, small_graph):
        spec = FaultSpec.parse("harsh")
        a = distributed_bfs(small_graph, (2, 2), 0, faults=spec)
        b = distributed_bfs(small_graph, (2, 2), 0, faults=spec)
        assert a.elapsed == b.elapsed
        assert a.faults == b.faults
        assert np.array_equal(a.levels, b.levels)

    def test_fault_free_time_unchanged(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        inactive = distributed_bfs(small_graph, (2, 2), 0, faults=FaultSpec())
        assert plain.faults is None
        assert inactive.faults is not None
        assert inactive.faults.added_seconds == 0.0
        assert inactive.elapsed == plain.elapsed
        assert np.array_equal(inactive.levels, plain.levels)

    def test_drops_cost_time(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        faulted = distributed_bfs(
            small_graph, (2, 2), 0, faults=FaultSpec(seed=1, drop_rate=0.05)
        )
        assert faulted.elapsed > plain.elapsed
        assert faulted.faults.added_seconds > 0.0

    def test_stragglers_cost_time(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        faulted = distributed_bfs(
            small_graph, (2, 2), 0,
            faults=FaultSpec(seed=1, straggler_rate=0.5, straggler_slowdown=4.0),
        )
        assert faulted.faults.straggler_ranks > 0
        assert faulted.elapsed > plain.elapsed

    def test_degraded_links_cost_comm_time(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        faulted = distributed_bfs(
            small_graph, (2, 2), 0,
            faults=FaultSpec(seed=1, degraded_link_rate=0.5, degradation_factor=6.0),
        )
        assert faulted.faults.degraded_links > 0
        assert faulted.elapsed > plain.elapsed
        assert np.array_equal(faulted.levels, plain.levels)

    def test_rollback_recovers_correctness(self, small_graph):
        # No retries: every drop is an unrecovered loss, forcing rollbacks.
        result = distributed_bfs(
            small_graph, (2, 2), 0,
            faults=FaultSpec(seed=0, drop_rate=0.05, max_retries=0),
        )
        assert result.faults.unrecovered > 0
        assert result.faults.rollbacks > 0
        assert result.faults.rollback_seconds > 0.0
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_checkpoint_disabled_raises(self, small_graph):
        with pytest.raises(FaultError):
            distributed_bfs(
                small_graph, (2, 2), 0,
                opts=BfsOptions(checkpoint=False),
                faults=FaultSpec(seed=0, drop_rate=0.05, max_retries=0),
            )

    def test_report_summary_and_messages_uninflated(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        faulted = distributed_bfs(
            small_graph, (2, 2), 0, faults=FaultSpec(seed=2, drop_rate=0.08)
        )
        # Retransmissions live in the fault counters, not total_messages.
        assert faulted.faults.rollbacks > 0 or (
            faulted.stats.total_messages == plain.stats.total_messages
        )
        text = faulted.faults.summary()
        assert "injected" in text and "recovered" in text
