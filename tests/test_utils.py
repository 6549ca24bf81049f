"""Tests for repro.utils: rng streams, timers, validation, sorted-array ops."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.arrays import in_sorted, intersect_sorted
from repro.utils.rng import RngFactory, spawn_rank_rngs
from repro.utils.segmented import segmented_unique
from repro.utils.timer import PhaseTimer, Timer
from repro.utils.validation import check_in_range, check_positive, check_probability


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(42).named("edges").integers(0, 1 << 30, 100)
        b = RngFactory(42).named("edges").integers(0, 1 << 30, 100)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = RngFactory(42).named("edges").integers(0, 1 << 30, 100)
        b = RngFactory(42).named("sources").integers(0, 1 << 30, 100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).named("edges").integers(0, 1 << 30, 100)
        b = RngFactory(2).named("edges").integers(0, 1 << 30, 100)
        assert not np.array_equal(a, b)

    def test_rank_streams_independent(self):
        rngs = spawn_rank_rngs(7, 4)
        draws = [rng.integers(0, 1 << 30, 50) for rng in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_rank_stream_reproducible(self):
        a = RngFactory(7).for_rank("gen", 3).integers(0, 1 << 30, 50)
        b = RngFactory(7).for_rank("gen", 3).integers(0, 1 << 30, 50)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(-1)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(0).for_rank("x", -2)


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.001)
        with t:
            pass
        assert t.calls == 2
        assert t.elapsed > 0

    def test_double_start_rejected(self):
        t = Timer()
        t.start()
        with pytest.raises(RuntimeError):
            t.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestPhaseTimer:
    def test_phases_tracked_separately(self):
        pt = PhaseTimer()
        with pt.phase("expand"):
            pass
        with pt.phase("fold"):
            pass
        with pt.phase("expand"):
            pass
        snapshot = pt.as_dict()
        assert set(snapshot) == {"expand", "fold"}
        assert pt.elapsed("expand") >= 0
        assert pt.elapsed("never-entered") == 0.0


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_in_range(self):
        check_in_range("v", 3, 0, 5)
        with pytest.raises(ValueError):
            check_in_range("v", 5, 0, 5)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)


class TestInSorted:
    def test_basic(self):
        mask = in_sorted(np.array([1, 4, 7]), np.array([0, 1, 2, 7]))
        assert mask.tolist() == [True, False, True]

    def test_empty_haystack(self):
        assert not in_sorted(np.array([1, 2]), np.array([], dtype=np.int64)).any()

    def test_empty_needles(self):
        assert in_sorted(np.array([], dtype=np.int64), np.array([1, 2])).size == 0

    def test_intersect_sorted(self):
        out = intersect_sorted(np.array([1, 3, 5, 9]), np.array([3, 4, 5]))
        assert out.tolist() == [3, 5]

    @given(
        st.lists(st.integers(0, 100), max_size=50),
        st.lists(st.integers(0, 100), max_size=50),
    )
    def test_matches_python_set(self, needles, haystack):
        haystack_arr = np.unique(np.array(haystack, dtype=np.int64))
        needles_arr = np.array(sorted(needles), dtype=np.int64)
        mask = in_sorted(needles_arr, haystack_arr)
        expected = [x in set(haystack) for x in sorted(needles)]
        assert mask.tolist() == expected


def pack_keys(segments, values, ties, value_bits: int, tie_bits: int) -> np.ndarray:
    """``(segment << (value_bits + tie_bits)) | (value << tie_bits) | tie``."""
    segments, values, ties = (np.asarray(x, dtype=np.int64) for x in (segments, values, ties))
    return segments << (value_bits + tie_bits) | values << tie_bits | ties


class TestSegmentedUnique:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**40)), max_size=60))
    def test_no_tie_bits_is_a_per_segment_unique(self, pairs):
        keys = pack_keys([s for s, _ in pairs], [v for _, v in pairs], [0] * len(pairs), 41, 0)
        out = segmented_unique(keys, 0)
        assert (np.diff(out) > 0).all()  # segments ascending, then values
        for seg in range(6):
            values = np.array([v for s, v in pairs if s == seg], dtype=np.int64)
            assert np.array_equal(out[out >> 41 == seg] & ((1 << 41) - 1), np.unique(values))

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50), st.integers(0, 6)),
                 max_size=80),
        st.integers(3, 5),
    )
    def test_tie_bits_keep_the_smallest_tie(self, triples, tie_bits):
        segments, values, ties = ([x[i] for x in triples] for i in range(3))
        out = segmented_unique(pack_keys(segments, values, ties, 6, tie_bits), tie_bits)
        smallest = {}
        for s, v, t in triples:
            smallest[s, v] = min(t, smallest.get((s, v), t))
        want = [(s, v, smallest[s, v]) for s, v in sorted(smallest)]
        got = list(zip(
            (out >> (6 + tie_bits)).tolist(),
            (out >> tie_bits & 63).tolist(),
            (out & ((1 << tie_bits) - 1)).tolist(),
        ))
        assert got == want

    def test_sorts_in_place(self):
        keys = np.array([9, 3, 3, 7, 1], dtype=np.int64)
        assert segmented_unique(keys, 0).tolist() == [1, 3, 7, 9]
        assert keys.tolist() == [1, 3, 3, 7, 9]
