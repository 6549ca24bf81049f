"""Global-to-local vertex index mappings (Section 2.4.2).

The paper maps global vertex indices to dense local indices "through
hashing" so that per-vertex state (levels, sent-neighbour flags) is stored
in O(n/P) arrays.  This implementation keeps the same contract and the same
asymptotic storage but uses a sorted id array + binary search
(``np.searchsorted``) instead of a hash table: lookups vectorise over whole
frontiers, which is the idiomatic NumPy replacement for a per-element hash
probe (see DESIGN.md).  Ids a rank *stores* — its adjacency entries —
never pay even that at run time: the partition resolves their local index
once at build (:attr:`repro.partition.two_d.TwoDPartition.row_slots`)
and the engines discover in that index space.  The paper's profiling note — that
hashing received vertices dominates runtime — is modelled in the machine
cost model as a per-lookup charge, so the *simulated* cost is still
hash-like.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.types import VERTEX_DTYPE, as_vertex_array


class VertexIndexMap:
    """Bidirectional map between a set of global vertex ids and ``0..len-1``.

    Local indices follow the sorted order of the global ids, so the map is
    deterministic for a given id set.
    """

    __slots__ = ("ids",)

    def __init__(self, global_ids) -> None:
        ids = as_vertex_array(global_ids)
        # sorted + deduplicated (np.unique semantics via sort + mask,
        # which is cheaper on the mostly-sorted inputs partitions produce)
        if ids.size:
            ids = np.sort(ids)
            ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        self.ids = ids

    @classmethod
    def of_sorted(cls, ids: np.ndarray) -> "VertexIndexMap":
        """A map over ``ids``, already sorted and duplicate-free, kept as is (no copy)."""
        index = cls.__new__(cls)
        index.ids = ids
        return index

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def to_local(self, global_ids) -> np.ndarray:
        """Local indices of ``global_ids``; raises if any id is unmapped."""
        global_ids = as_vertex_array(global_ids)
        pos = np.searchsorted(self.ids, global_ids)
        ok = (pos < len(self)) & (self.ids[np.minimum(pos, len(self) - 1)] == global_ids) \
            if len(self) else np.zeros(global_ids.shape, dtype=bool)
        if not ok.all():
            missing = global_ids[~ok][:5]
            raise PartitionError(f"global ids not present in this map: {missing.tolist()}...")
        return pos.astype(VERTEX_DTYPE)

    def to_local_partial(self, global_ids) -> tuple[np.ndarray, np.ndarray]:
        """Local indices for the mapped subset of ``global_ids``.

        Returns ``(mask, local)`` where ``mask`` marks which inputs are
        present and ``local`` gives their local indices (length
        ``mask.sum()``).  Unmapped ids are simply skipped — the common case
        during the fold, where a rank receives vertices it has never seen.
        """
        global_ids = as_vertex_array(global_ids)
        if len(self) == 0:
            return np.zeros(global_ids.shape, dtype=bool), np.empty(0, dtype=VERTEX_DTYPE)
        pos = np.searchsorted(self.ids, global_ids)
        pos_c = np.minimum(pos, len(self) - 1)
        mask = self.ids[pos_c] == global_ids
        return mask, pos_c[mask].astype(VERTEX_DTYPE)

    def to_global(self, local_ids) -> np.ndarray:
        """Global ids of ``local_ids`` (vectorised array lookup)."""
        local_ids = as_vertex_array(local_ids)
        if local_ids.size and (local_ids.min() < 0 or local_ids.max() >= len(self)):
            raise PartitionError("local ids out of range")
        return self.ids[local_ids]

    def contains(self, global_ids) -> np.ndarray:
        """Boolean membership mask for ``global_ids``."""
        mask, _ = self.to_local_partial(global_ids)
        return mask
