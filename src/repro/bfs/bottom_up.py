"""The bottom-up BFS scan, shared by the engine and the SPMD worker.

In a *bottom-up* level (Beamer's direction-optimizing traversal, carried
to distributed memory by arXiv:1104.4518 / arXiv:1705.04590) the roles
flip: instead of frontier vertices pushing their edge lists outward,
every still-unvisited vertex scans its own edge list for a parent in the
current frontier and stops at the first hit.  When the frontier holds
most of the graph — the explosive middle levels of both Poisson and
scale-free graphs — almost every scan exits after a handful of edges, so
the level touches a small fraction of the edges the top-down push would.

This module is that scan over a :class:`TwoDPartition`'s stored tables.
The level around it — bitmap exchanges, the fold of found vertices to
their owners, labelling — is
:meth:`repro.bfs.level_sync.LevelSyncEngine._bottom_up`, and the SPMD
backend's worker runs the same level message for message.
"""

from __future__ import annotations

import numpy as np

from repro.utils.segmented import range_indices

#: sentinel larger than any in-segment position (np.minimum.reduceat seed)
_NO_HIT = np.iinfo(np.int64).max


def _scan_stored_columns(
    part, lo: int, hi: int, frontier_rows: np.ndarray, unvisited_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ranks ``lo .. hi - 1``'s bottom-up scan, in slot space.

    Every stored column still unvisited (``unvisited_cols``: one flag per
    entry of the ranks' ``col_ids``) scans its partial edge list — found
    by direct index, as in the top-down lookup — for a row in the
    frontier (``frontier_rows``: one flag per entry of the ranks'
    ``row_ids``, i.e. per slot), and stops at the first hit.  Flags over
    the ranks' own tables keep one rank's scan O(its tables), not O(n):
    the engine gathers them from its global bitmaps, an SPMD worker tests
    membership in the sorted lists its peers sent.  Returns ``(vertex,
    rank, found, edges_scanned)`` per scanned column, ranks ascending,
    vertices ascending within each: ``edges_scanned`` is what a
    sequential scan touches (first hit position + 1, or the whole list on
    a miss) — the quantity that makes bottom-up cheap.
    """
    row_lo = part.row_bounds[lo]
    col_bounds = part.col_bounds[lo : hi + 1]
    stored = part.col_ids[col_bounds[0] : col_bounds[-1]]
    scan_idx = np.flatnonzero(unvisited_cols)
    scan_rank = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(col_bounds))[scan_idx]
    scan_v = stored[scan_idx]
    # a stored list is never empty, so every list starts its own segment
    starts, lengths = part.stored_lists(scan_v, scan_rank)
    gather, offsets = range_indices(starts, lengths)
    hits = frontier_rows[part.row_slots[gather] - row_lo]
    pos = np.arange(gather.size, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    first = np.minimum.reduceat(np.where(hits, pos, _NO_HIT), offsets[:-1])
    found = first < _NO_HIT
    return scan_v, scan_rank, found, np.where(found, first + 1, lengths)
