"""Tests for repro.partition.base (BlockDistribution)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition.base import BlockDistribution


def sizes_of(dist: BlockDistribution) -> list[int]:
    return np.diff(dist.offsets).tolist()


class TestBlockDistribution:
    def test_even_split(self):
        dist = BlockDistribution(12, 4)
        assert sizes_of(dist) == [3, 3, 3, 3]

    def test_remainder_goes_to_first_parts(self):
        dist = BlockDistribution(10, 4)
        assert sizes_of(dist) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        dist = BlockDistribution(2, 5)
        assert sizes_of(dist) == [1, 1, 0, 0, 0]

    def test_ranges_cover_everything(self):
        dist = BlockDistribution(17, 5)
        covered = []
        for p in range(5):
            lo, hi = dist.range_of(p)
            covered.extend(range(lo, hi))
        assert covered == list(range(17))

    def test_part_of_vectorised(self):
        dist = BlockDistribution(10, 3)  # sizes 4,3,3
        parts = dist.part_of(np.array([0, 3, 4, 6, 7, 9]))
        assert parts.tolist() == [0, 0, 1, 1, 2, 2]

    def test_part_of_scalar(self):
        dist = BlockDistribution(10, 3)
        assert dist.part_of(5).tolist() == [1]

    def test_local_index(self):
        dist = BlockDistribution(10, 3)
        items = np.array([0, 4, 9])
        local = items - dist.offsets[dist.part_of(items)]
        assert local.tolist() == [0, 0, 2]

    def test_out_of_range_rejected(self):
        dist = BlockDistribution(10, 3)
        with pytest.raises(PartitionError):
            dist.part_of(np.array([10]))
        with pytest.raises(PartitionError):
            dist.range_of(3)

    def test_zero_parts_rejected(self):
        with pytest.raises(PartitionError):
            BlockDistribution(10, 0)

    @given(st.integers(0, 500), st.integers(1, 32))
    def test_balance_invariant(self, n, parts):
        dist = BlockDistribution(n, parts)
        sizes = sizes_of(dist)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(1, 500), st.integers(1, 32), st.data())
    def test_ownership_consistent(self, n, parts, data):
        dist = BlockDistribution(n, parts)
        item = data.draw(st.integers(0, n - 1))
        (part,) = dist.part_of(item).tolist()
        lo, hi = dist.range_of(part)
        assert lo <= item < hi

