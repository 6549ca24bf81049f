"""The benchmark's answer key: BFS levels from SciPy, not from the engines.

``scipy.sparse.csgraph.breadth_first_order`` walks the raw CSR arrays in
C; the level of each vertex is recovered from the visit order alone, so
nothing here shares code with ``repro.bfs``.  Answers are in original
vertex ids, which is what ``BfsSession`` returns even under
``relabel="degree"``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

UNREACHED = -1
#: dtype the engines label levels with; the served digest hashes it
LEVEL_DTYPE = np.dtype(np.int64)


def adjacency(indptr: np.ndarray, indices: np.ndarray) -> csr_matrix:
    """The graph's raw CSR arrays as a SciPy matrix (shares the buffers)."""
    n = len(indptr) - 1
    return csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
    )


def oracle_levels(adj: csr_matrix, source: int) -> np.ndarray:
    """BFS level of every vertex from ``source`` (``UNREACHED`` = -1).

    A FIFO visit order lists whole levels one after another and the
    parents' positions never decrease along it, so the children of the
    vertices before position ``hi`` end where the first parent position
    ``>= hi`` appears: one ``searchsorted`` per level.
    """
    order, pred = breadth_first_order(
        adj, source, directed=True, return_predecessors=True
    )
    levels = np.full(adj.shape[0], UNREACHED, dtype=LEVEL_DTYPE)
    levels[source] = 0
    position = np.empty(adj.shape[0], dtype=np.int64)
    position[order] = np.arange(order.size)
    parent_pos = position[pred[order[1:]]]
    hi, level = 1, 0
    while hi < order.size:
        level += 1
        nxt = 1 + int(np.searchsorted(parent_pos, hi, side="left"))
        levels[order[hi:nxt]] = level
        hi = nxt
    return levels


def digest(levels: np.ndarray) -> str:
    """SHA-256 of a level array in the server's reply format
    (dtype string, shape, little-endian bytes)."""
    arr = np.ascontiguousarray(levels, dtype=LEVEL_DTYPE.newbyteorder("<"))
    h = hashlib.sha256()
    h.update(LEVEL_DTYPE.str.encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def first_difference(got: np.ndarray, want: np.ndarray) -> int | None:
    """First vertex whose level differs, or None when the arrays agree."""
    if got.shape != want.shape:
        return 0
    diff = np.flatnonzero(np.asarray(got) != want)
    return int(diff[0]) if diff.size else None
