"""Random vertex relabeling for load balance on skewed graphs.

The paper's block partitionings assume Poisson random graphs, whose
uniform structure makes contiguous blocks naturally balanced.  Skewed
workloads (e.g. the R-MAT extension generator, whose hubs concentrate at
low vertex ids) break that assumption badly.  The standard fix — used by
Graph500 reference implementations descended from this paper — is to
apply a random vertex permutation before partitioning.  This module
implements that relabeling and the bookkeeping to map results back to the
original ids.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CsrGraph, sorted_edge_keys
from repro.types import LEVEL_DTYPE, VERTEX_DTYPE, as_vertex_array
from repro.utils.rng import RngFactory


class VertexRelabeling:
    """A bijection between original vertex ids and relabeled ids."""

    __slots__ = ("to_new", "to_old")

    def __init__(self, to_new: np.ndarray) -> None:
        to_new = np.ascontiguousarray(to_new, dtype=VERTEX_DTYPE)
        n = to_new.shape[0]
        if n and (np.sort(to_new) != np.arange(n)).any():
            raise PartitionError("relabeling must be a permutation of 0..n-1")
        self.to_new = to_new
        self.to_old = np.empty(n, dtype=VERTEX_DTYPE)
        self.to_old[to_new] = np.arange(n, dtype=VERTEX_DTYPE)

    @property
    def n(self) -> int:
        """Number of vertices covered by the bijection."""
        return int(self.to_new.shape[0])

    @classmethod
    def random(cls, n: int, seed: int = 0) -> "VertexRelabeling":
        """Uniformly random permutation of ``n`` vertices (seeded)."""
        rng = RngFactory(seed).named("vertex-relabeling")
        return cls(rng.permutation(n).astype(VERTEX_DTYPE))

    @classmethod
    def identity(cls, n: int) -> "VertexRelabeling":
        """The do-nothing relabeling."""
        return cls(np.arange(n, dtype=VERTEX_DTYPE))

    # ------------------------------------------------------------------ #
    # id translation
    # ------------------------------------------------------------------ #
    def new_id(self, old_ids) -> np.ndarray:
        """Relabeled id(s) of original id(s)."""
        old_ids = as_vertex_array(old_ids)
        self._check(old_ids)
        return self.to_new[old_ids]

    def old_id(self, new_ids) -> np.ndarray:
        """Original id(s) of relabeled id(s)."""
        new_ids = as_vertex_array(new_ids)
        self._check(new_ids)
        return self.to_old[new_ids]

    def apply(self, graph: CsrGraph) -> CsrGraph:
        """Return ``graph`` with every vertex renamed through the bijection."""
        if graph.n != self.n:
            raise PartitionError(f"graph has {graph.n} vertices, relabeling covers {self.n}")
        # every stored entry (both orientations) renamed: a simple graph
        # stays simple, so the keys only need sorting
        keys = sorted_edge_keys(
            graph.n,
            np.repeat(self.to_new, np.diff(graph.indptr)),
            self.to_new[graph.indices],
        )
        return CsrGraph.from_sorted_keys(graph.n, keys)

    def restore_levels(self, levels_new: np.ndarray) -> np.ndarray:
        """Map a level array computed on the relabeled graph back to original ids."""
        levels_new = np.asarray(levels_new, dtype=LEVEL_DTYPE)
        if levels_new.shape != (self.n,):
            raise PartitionError(f"level array must have shape ({self.n},)")
        return levels_new[self.to_new]

    def _check(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise PartitionError("vertex ids out of range for this relabeling")


def relabel_graph(graph: CsrGraph, seed: int = 0) -> tuple[CsrGraph, VertexRelabeling]:
    """Convenience: random relabeling + relabeled graph in one call."""
    relabeling = VertexRelabeling.random(graph.n, seed)
    return relabeling.apply(graph), relabeling
