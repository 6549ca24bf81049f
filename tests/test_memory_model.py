"""Tests for the Section 2.4 memory model and the paper's feasibility headline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memory import (
    BLUEGENE_L_NODE_MEMORY,
    MemoryModel,
    fits_in_memory,
    max_vertices_per_rank,
)
from repro.graph.generators import poisson_random_graph
from repro.partition.two_d import TwoDPartition
from repro.types import GraphSpec, GridShape


class TestMemoryModel:
    def test_paper_headline_fits(self):
        """3.2B vertices / 32B edges on 32768 nodes with 512 MB each."""
        model = MemoryModel(n=100_000 * 32_768, k=10.0, grid=GridShape(128, 256))
        assert fits_in_memory(model, BLUEGENE_L_NODE_MEMORY)
        # and with a healthy margin: under 25% of the node
        assert model.total_bytes < 0.25 * BLUEGENE_L_NODE_MEMORY

    def test_ten_times_larger_does_not_fit(self):
        model = MemoryModel(n=1_000_000 * 32_768, k=10.0, grid=GridShape(128, 256))
        assert not fits_in_memory(model, BLUEGENE_L_NODE_MEMORY)

    def test_breakdown_sums_to_total(self):
        model = MemoryModel(n=10**6, k=16.0, grid=GridShape(16, 16))
        assert sum(model.breakdown().values()) == pytest.approx(model.total_bytes)

    def test_all_components_positive(self):
        model = MemoryModel(n=10**5, k=8.0, grid=GridShape(8, 8))
        for name, value in model.breakdown().items():
            assert value > 0, name

    def test_explicit_buffer_capacity(self):
        capped = MemoryModel(n=10**6, k=10.0, grid=GridShape(16, 16), buffer_capacity=1000)
        auto = MemoryModel(n=10**6, k=10.0, grid=GridShape(16, 16))
        assert capped.buffer_bytes == 2 * 1000 * 8
        assert auto.buffer_bytes > capped.buffer_bytes

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            MemoryModel(n=0, k=1.0, grid=GridShape(2, 2))
        with pytest.raises(ValueError):
            MemoryModel(n=10, k=-1.0, grid=GridShape(2, 2))
        model = MemoryModel(n=10, k=1.0, grid=GridShape(2, 2))
        with pytest.raises(ValueError):
            fits_in_memory(model, usable_fraction=0.0)

    @given(st.integers(4, 12), st.floats(1.0, 100.0))
    @settings(max_examples=30)
    def test_weak_scaling_memory_flat_with_fixed_buffers(self, log_p, k):
        """O(n/P) property with the paper's fixed-length buffers: growing P
        with n/P fixed keeps per-rank memory within a small factor.
        (Without the fixed cap, staging buffers drift toward (n/P)*k —
        exactly the Section 3.2 motivation for point-to-point collectives.)"""
        vpr = 10_000
        small_p, large_p = 4, 1 << log_p
        cap = {"buffer_capacity": 4096}
        small = MemoryModel(n=vpr * small_p, k=k, grid=GridShape(2, 2), **cap)
        a, b = divmod(log_p, 2)
        large = MemoryModel(
            n=vpr * large_p, k=k, grid=GridShape(1 << a, 1 << (a + b)), **cap
        )
        assert large.total_bytes < 3 * small.total_bytes

    def test_unbounded_buffers_drift_with_k(self):
        """Section 3.2: the expected message size approaches (n/P)*k, so
        auto-sized buffers grow with the degree while capped ones do not."""
        grid = GridShape(32, 32)
        auto_low = MemoryModel(n=10**7, k=10.0, grid=grid)
        auto_high = MemoryModel(n=10**7, k=100.0, grid=grid)
        assert auto_high.buffer_bytes > 3 * auto_low.buffer_bytes
        capped_low = MemoryModel(n=10**7, k=10.0, grid=grid, buffer_capacity=4096)
        capped_high = MemoryModel(n=10**7, k=100.0, grid=grid, buffer_capacity=4096)
        assert capped_high.buffer_bytes == capped_low.buffer_bytes

    def test_max_vertices_per_rank_bisection(self):
        grid = GridShape(128, 256)
        cap = max_vertices_per_rank(10.0, grid)
        assert cap >= 100_000  # the paper's run must be allowed
        at_cap = MemoryModel(n=cap * grid.size, k=10.0, grid=grid)
        above = MemoryModel(n=(cap + 1) * grid.size, k=10.0, grid=grid)
        assert fits_in_memory(at_cap)
        assert not fits_in_memory(above)

    def test_higher_degree_needs_more_memory(self):
        grid = GridShape(16, 16)
        low = MemoryModel(n=10**6, k=10.0, grid=grid)
        high = MemoryModel(n=10**6, k=100.0, grid=grid)
        assert high.total_bytes > low.total_bytes


class TestModelAgainstMeasuredFootprints:
    def test_expected_counts_match_partition(self):
        """The gamma expectations must track the real per-rank structure
        sizes on an actual Poisson instance (within statistical slack)."""
        n, k = 6000, 8.0
        grid = GridShape(4, 4)
        graph = poisson_random_graph(GraphSpec(n=n, k=k, seed=5))
        part = TwoDPartition(graph, grid)
        model = MemoryModel(n=n, k=k, grid=grid)
        footprints = part.memory_footprints()
        measured_entries = np.mean(footprints["edge_entries"])
        measured_cols = np.mean(footprints["nonempty_columns"])
        measured_rows = np.mean(footprints["unique_row_vertices"])
        assert measured_entries == pytest.approx(model.expected_edge_entries, rel=0.15)
        assert measured_cols == pytest.approx(model.expected_nonempty_columns, rel=0.15)
        assert measured_rows == pytest.approx(model.expected_unique_rows, rel=0.15)
