"""The balanced block map under every layout.

The layouts distribute vertices in contiguous *blocks* ("symmetrically
reordered so that vertices owned by the same processor are contiguous",
Section 2.1); :class:`BlockDistribution` is that balanced block map.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.types import VERTEX_DTYPE, as_vertex_array


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

    def range_of(self, part: int) -> tuple[int, int]:
        """Half-open item range ``[lo, hi)`` of ``part``."""
        self._check_part(part)
        return int(self.offsets[part]), int(self.offsets[part + 1])

    def part_of(self, items) -> np.ndarray:
        """Vectorised owner lookup: part id for each item in ``items``."""
        items = as_vertex_array(items)
        if items.size and (items.min() < 0 or items.max() >= self.n):
            raise PartitionError("item ids out of range for this distribution")
        # The first n % parts parts hold base + 1 items, the rest base.  An
        # item in a big part is never past its part by the second quotient,
        # and one in a small part never past it by the first: the larger
        # quotient is its part.
        base, rem = divmod(self.n, self.parts)
        return np.maximum(items // (base + 1), (items - rem) // max(base, 1))

    def _check_part(self, part: int) -> None:
        if not (0 <= part < self.parts):
            raise PartitionError(f"part {part} out of range [0, {self.parts})")

