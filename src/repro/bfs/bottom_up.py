"""The bottom-up BFS level kernel.

In a *bottom-up* level (Beamer's direction-optimizing traversal, carried
to distributed memory by arXiv:1104.4518 / arXiv:1705.04590) the roles
flip: instead of frontier vertices pushing their edge lists outward,
every still-unvisited vertex scans its own edge list for a parent in the
current frontier and stops at the first hit.  When the frontier holds
most of the graph — the explosive middle levels of both Poisson and
scale-free graphs — almost every scan exits after a handful of edges, so
the level touches a small fraction of the edges the top-down push would.

Communication pattern (charged through the simulated
:class:`~repro.runtime.comm.Communicator`): rank ``(i, j)`` stores partial
*column* edge lists for the column chunk of mesh column ``j``, whose rows
are vertices owned by processor row ``i``.  Three steps: the frontier
bitmaps are allgathered around each processor **row**'s ring (so each
rank can test its stored rows; arXiv:1705.04590 §4), unvisited bitmaps
travel along processor **columns** (so each rank knows which stored
columns still need a parent), then every found vertex is sent to its
owner *within the processor column* — a real
:meth:`~repro.runtime.comm.Communicator.exchange_arrays`, so wire codecs,
chunking, and contention pricing all apply — where owners de-duplicate
multi-finder hits with one mark pass and label.  On a ``1 x P`` mesh —
the 1D layout — processor columns are single ranks: the row ring is the
whole exchange and every rank labels its own finds.

The bitmap exchanges are charged as raw byte transfers on the routed
network (:meth:`~repro.runtime.comm.Communicator.exchange_summaries`, the
sieve-summary pattern); because they bypass the
droppable-message path, direction policies that can reach bottom-up are
rejected when a fault schedule is attached (see ``LevelSyncEngine.start``).

Determinism: the level sets a bottom-up level labels are *identical* to
top-down's (a vertex is at level ``l+1`` iff it is unvisited and has a
neighbour at level ``l``), so hybrid runs return byte-identical ``levels``
arrays; only the traversed-edge counts and simulated times differ.
"""

from __future__ import annotations

import numpy as np

from repro.types import UNREACHED
from repro.utils.segmented import range_indices

__all__ = ["bottom_up_level_2d"]

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


def bottom_up_level_2d(engine) -> tuple[np.ndarray, np.ndarray]:
    """One bottom-up level of :class:`~repro.bfs.bfs_2d.Bfs2DEngine`.

    Frontier bitmaps around processor rows, unvisited bitmaps along
    processor columns, early-exit scan of the stored partial column
    lists, then found vertices travel to their owners within the
    processor column for de-duplication and labelling.
    """
    comm = engine.comm
    nranks = comm.nranks
    obs = comm.obs
    levels = engine._levels_flat
    part = engine.partition

    span_bytes = (engine._owned_spans + 7) // 8
    R, C = engine.grid.rows, engine.grid.cols

    # Frontier state of the stored rows lives on processor-row peers;
    # unvisited state of the column chunk lives on processor-column peers.
    with obs.span("bitmap-broadcast", cat="phase"):
        # Row ring allgather, its C - 1 rounds aggregated as one transfer
        # per member: each sends its successor every block of the row but
        # the successor's own.
        member = np.arange(nranks if C > 1 else 0, dtype=np.int64)
        succ = member - member % C + (member + 1) % C
        row_total = span_bytes.reshape(R, C).sum(axis=1)
        ring_bytes = row_total[member // C] - span_bytes[succ]
        # Column pairs, column by column: row i sends its block to every
        # other row k of the column.
        i = np.repeat(np.arange(R, dtype=np.int64), R - 1)
        k = np.tile(np.arange(R - 1, dtype=np.int64), R)
        j = np.arange(C, dtype=np.int64)[:, None]
        col_src = (i * C + j).ravel()
        col_dst = ((k + (k >= i)) * C + j).ravel()
        comm.exchange_summaries(
            np.concatenate([member, col_src]),
            np.concatenate([succ, col_dst]),
            np.concatenate([ring_bytes, span_bytes[col_src]]),
            phase=None,
        )

    with obs.span("bottom-up-scan", cat="phase"):
        scan_v, scan_rank, found, edges = _scan_stored_columns(
            part, 0, nranks,
            (levels == engine.level)[part.row_ids], (levels == UNREACHED)[part.col_ids],
        )
        per_rank_edges = np.zeros(nranks, dtype=np.int64)
        np.add.at(per_rank_edges, scan_rank, edges)
        # one frontier probe per scanned edge, plus — with column peers —
        # one unvisited-bitmap probe per stored column
        cols_per_rank = np.diff(part.col_bounds)
        probes = per_rank_edges + cols_per_rank if engine._column_peers else per_rank_edges
        comm.charge_compute_many(edges_scanned=per_rank_edges, hash_lookups=probes)
        found_v, finder = scan_v[found], scan_rank[found]
        owner = part.owner_of(found_v) if found_v.size else found_v

    # Found vertices go to their owners (always within the finder's
    # processor column).  Real messages: codec, chunking, contention.
    with obs.span("bottom-up-fold", cat="phase"):
        # Sorted by (finder, owner), the found vertices are the round's
        # messages back to back, in outbox order; self-addressed segments
        # are local hand-offs and stay off the wire.  Every chunk arrives:
        # engines reject bottom-up under a fault schedule.
        pair = finder * nranks + owner
        order = np.argsort(pair, kind="stable")
        values, vsegs, sender = found_v[order], owner[order], finder[order]
        _, starts = np.unique(pair[order], return_index=True)
        stops = np.append(starts[1:], values.size)
        wire = sender[starts] != vsegs[starts]
        starts, stops = starts[wire], stops[wire]
        comm.exchange_arrays(
            sender[starts], vsegs[starts], values, starts, stops, "fold"
        )
        if starts.size:
            comm.stats.record_delivery_bulk(vsegs[starts], stops - starts, "fold")
        # Owner-side dedup (several column peers can find the same
        # vertex) and labelling — one mark pass over every owner's
        # arrivals at once.
        flat, fresh_bounds, _ = engine._owned_union(values)
        incoming_counts = np.bincount(vsegs, minlength=nranks)
        fresh_counts = np.diff(fresh_bounds)
        levels[flat] = engine.level + 1
        comm.stats.record_duplicates(values.size - flat.size)
        comm.charge_compute_many(
            hash_lookups=incoming_counts if engine._column_peers else None,
            updates=fresh_counts,
        )
    return flat, fresh_bounds
