"""Partitioning primitives shared by the 1D and 2D layouts.

Both layouts distribute vertices in contiguous *blocks* ("symmetrically
reordered so that vertices owned by the same processor are contiguous",
Section 2.1).  :class:`BlockDistribution` is that balanced block map;
:class:`Partition` is the interface the BFS drivers program against.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import PartitionError
from repro.types import VERTEX_DTYPE, GridShape, as_vertex_array


class BlockDistribution:
    """Balanced contiguous block distribution of ``n`` items over ``parts`` parts.

    Part ``p`` holds ``n // parts`` items, plus one extra for the first
    ``n % parts`` parts, so sizes differ by at most one — the paper's
    "approximately the same number of vertices" balance requirement.
    """

    __slots__ = ("n", "parts", "offsets")

    def __init__(self, n: int, parts: int) -> None:
        if parts < 1:
            raise PartitionError(f"need at least one part, got {parts}")
        if n < 0:
            raise PartitionError(f"item count must be non-negative, got {n}")
        self.n = int(n)
        self.parts = int(parts)
        base, rem = divmod(n, parts)
        sizes = np.full(parts, base, dtype=VERTEX_DTYPE)
        sizes[:rem] += 1
        self.offsets = np.concatenate(([0], np.cumsum(sizes))).astype(VERTEX_DTYPE)

    def size_of(self, part: int) -> int:
        """Number of items in ``part``."""
        self._check_part(part)
        return int(self.offsets[part + 1] - self.offsets[part])

    def range_of(self, part: int) -> tuple[int, int]:
        """Half-open item range ``[lo, hi)`` of ``part``."""
        self._check_part(part)
        return int(self.offsets[part]), int(self.offsets[part + 1])

    def items_of(self, part: int) -> np.ndarray:
        """Item ids in ``part`` as an array."""
        lo, hi = self.range_of(part)
        return np.arange(lo, hi, dtype=VERTEX_DTYPE)

    def part_of(self, items) -> np.ndarray:
        """Vectorised owner lookup: part id for each item in ``items``."""
        items = as_vertex_array(items)
        if items.size and (items.min() < 0 or items.max() >= self.n):
            raise PartitionError("item ids out of range for this distribution")
        return np.searchsorted(self.offsets, items, side="right") - 1

    def part_of_scalar(self, item: int) -> int:
        """Owner part of a single ``item``."""
        return int(self.part_of(np.array([item]))[0])

    def local_index(self, items) -> np.ndarray:
        """Offset of each item within its owning part."""
        items = as_vertex_array(items)
        parts = self.part_of(items)
        return items - self.offsets[parts]

    def _check_part(self, part: int) -> None:
        if not (0 <= part < self.parts):
            raise PartitionError(f"part {part} out of range [0, {self.parts})")


class Partition(abc.ABC):
    """Interface of a distributed graph layout over ``nranks`` virtual ranks."""

    #: global vertex count
    n: int
    #: logical processor mesh (1 x P for the 1D layout)
    grid: GridShape

    @property
    def nranks(self) -> int:
        """Total number of ranks ``P``."""
        return self.grid.size

    @abc.abstractmethod
    def owner_of(self, vertices) -> np.ndarray:
        """Rank owning each vertex (vectorised)."""

    @abc.abstractmethod
    def owned_vertices(self, rank: int) -> np.ndarray:
        """Global ids of the vertices owned by ``rank``."""

    @abc.abstractmethod
    def memory_footprints(self) -> dict[str, np.ndarray]:
        """Per-structure element counts of every rank, one array per structure."""

    def memory_footprint(self, rank: int) -> dict[str, int]:
        """Per-structure element counts on ``rank`` (for O(n/P) scalability checks)."""
        self._check_rank(rank)
        return {name: int(counts[rank]) for name, counts in self.memory_footprints().items()}

    def owned_count(self, rank: int) -> int:
        """Number of vertices owned by ``rank``."""
        return int(self.owned_vertices(rank).shape[0])

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise PartitionError(f"rank {rank} out of range [0, {self.nranks})")
