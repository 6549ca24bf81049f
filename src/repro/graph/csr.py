"""Compressed-sparse-row adjacency storage.

The paper stores edge lists as rows/columns of the adjacency matrix; CSR is
the standard memory-scalable realisation.  All arrays are NumPy so that
frontier expansion is a vectorised gather (``indices[indptr[v]:indptr[v+1]]``
concatenated via fancy indexing), following the "vectorise the inner loop"
idiom from the HPC guides.
"""

from __future__ import annotations

import numpy as np

from repro.types import VERTEX_DTYPE, as_vertex_array


def sorted_edge_keys(
    n: int, src: np.ndarray, dst: np.ndarray, *, symmetrize: bool = False
) -> np.ndarray:
    """The sorted, distinct ``int64`` keys ``src · n + dst`` of an edge set.

    Self-loops are dropped; with ``symmetrize`` both orientations of every
    edge are keyed.  The keys are written into one array, sorted in place
    and deduplicated by adjacent difference, so key order is ``(src, dst)``
    order: the one canonicalisation behind every graph builder.  Raises
    ``ValueError`` before allocating anything when ``n * n`` does not fit
    an ``int64``.
    """
    n = int(n)  # a NumPy integer's n * n would wrap
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if n * n > np.iinfo(np.int64).max:
        raise ValueError(f"n**2 = {n * n} overflows the int64 edge key")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    if not keep.all():
        src, dst = src[keep], dst[keep]
    m = src.size
    keys = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    np.multiply(src, n, out=keys[:m])
    keys[:m] += dst
    if symmetrize:
        np.multiply(dst, n, out=keys[m:])
        keys[m:] += src
    keys.sort()
    if keys.size > 1:
        fresh = keys[1:] != keys[:-1]
        if not fresh.all():
            keys = keys[np.concatenate(([True], fresh))]
    return keys


class CsrGraph:
    """An undirected graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices (ids ``0 .. n-1``).
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s neighbours are
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of neighbour ids, sorted within each row.

    The structure is symmetric: if ``u`` appears in ``v``'s row then ``v``
    appears in ``u``'s row.  Self-loops and duplicate edges are not stored.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        indptr = np.ascontiguousarray(indptr, dtype=VERTEX_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=VERTEX_DTYPE)
        if indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have length n+1={n + 1}, got {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices contain out-of-range vertex ids")
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray, *, symmetrize: bool = True) -> "CsrGraph":
        """Build CSR from an ``(m, 2)`` edge array.

        Duplicate edges and self-loops are dropped.  With ``symmetrize``
        (the default; the paper considers undirected graphs only), each
        edge ``(u, v)`` is stored in both rows.  Raises ``ValueError`` when
        ``n * n`` overflows the ``int64`` edge key (see
        :func:`sorted_edge_keys`).
        """
        edges = np.asarray(edges, dtype=VERTEX_DTYPE)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoints out of range")
        return cls.from_sorted_keys(
            n, sorted_edge_keys(n, edges[:, 0], edges[:, 1], symmetrize=symmetrize)
        )

    @classmethod
    def from_sorted_keys(cls, n: int, keys: np.ndarray) -> "CsrGraph":
        """Build CSR from the sorted, distinct ``src · n + dst`` keys of its
        stored entries (what :func:`sorted_edge_keys` returns).

        ``keys`` is consumed: its buffer becomes the ``indices`` array.
        """
        rows = keys // n
        np.remainder(keys, n, out=keys)
        indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, keys)

    @classmethod
    def empty(cls, n: int) -> "CsrGraph":
        """Graph on ``n`` vertices with no edges."""
        return cls(n, np.zeros(n + 1, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries, ``2m`` for undirected."""
        return int(self.indices.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (assumes symmetric storage)."""
        return self.num_directed_edges // 2

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of vertex ``v``, or the full degree array when ``v is None``."""
        if v is None:
            return np.diff(self.indptr)
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def average_degree(self) -> float:
        """Mean vertex degree, the paper's ``k``."""
        return self.num_directed_edges / self.n if self.n else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (a read-only view, not a copy)."""
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        view = self.indices[self.indptr[v] : self.indptr[v + 1]]
        view.flags.writeable = False
        return view

    def neighbors_of_set(self, frontier: np.ndarray) -> np.ndarray:
        """All neighbours of the vertices in ``frontier``, with duplicates.

        This is the vectorised core of frontier expansion: one fancy-indexed
        gather instead of a Python loop over vertices.
        """
        frontier = as_vertex_array(frontier)
        if frontier.size == 0:
            return np.empty(0, dtype=VERTEX_DTYPE)
        starts = self.indptr[frontier]
        stops = self.indptr[frontier + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=VERTEX_DTYPE)
        # Build the gather index: for each frontier vertex, the contiguous
        # range [start, stop) of its row; realised as cumulative offsets.
        out_offsets = np.concatenate(([0], np.cumsum(lengths)))
        gather = np.arange(total, dtype=VERTEX_DTYPE)
        gather += np.repeat(starts - out_offsets[:-1], lengths)
        return self.indices[gather]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in ``u``'s sorted row."""
        row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def edge_array(self) -> np.ndarray:
        """Return the ``(m, 2)`` array of undirected edges with ``u < v``."""
        src = np.repeat(np.arange(self.n, dtype=VERTEX_DTYPE), np.diff(self.indptr))
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrGraph(n={self.n}, m={self.num_edges}, k~{self.average_degree:.2f})"
