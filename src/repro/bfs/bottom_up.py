"""Bottom-up BFS level kernels for the 1D and 2D layouts.

In a *bottom-up* level (Beamer's direction-optimizing traversal, carried
to distributed memory by arXiv:1104.4518 / arXiv:1705.04590) the roles
flip: instead of frontier vertices pushing their edge lists outward,
every still-unvisited vertex scans its own edge list for a parent in the
current frontier and stops at the first hit.  When the frontier holds
most of the graph — the explosive middle levels of both Poisson and
scale-free graphs — almost every scan exits after a handful of edges, so
the level touches a small fraction of the edges the top-down push would.

Communication pattern (charged through the simulated
:class:`~repro.runtime.comm.Communicator`):

* **1D**: each rank scans its *owned* vertices against the global
  frontier, so the frontier membership bitmap is allgathered around the
  ring first — ``span/8`` bytes per block, the
  :mod:`~repro.bfs.sent_cache`-style bitset over each rank's owned span.
  No fold follows: owners label their own vertices.
* **2D**: rank ``(i, j)`` stores partial *column* edge lists for the
  column chunk of mesh column ``j``, whose rows are vertices owned by
  processor row ``i``.  Three steps: frontier bitmaps travel along
  processor **rows** (so each rank can test its stored rows), unvisited
  bitmaps travel along processor **columns** (so each rank knows which
  stored columns still need a parent), then every found vertex is sent
  to its owner *within the processor column* — a real
  :meth:`~repro.runtime.comm.Communicator.exchange_arrays`, so wire codecs,
  chunking, and contention pricing all apply — where owners de-duplicate
  multi-finder hits with one mark pass and label.

The bitmap broadcasts are charged as raw byte transfers on the routed
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

from repro.types import UNREACHED, VERTEX_DTYPE
from repro.utils.segmented import range_indices

__all__ = ["bottom_up_level_1d", "bottom_up_level_2d"]

#: sentinel larger than any in-segment position (np.minimum.reduceat seed)
_NO_HIT = np.iinfo(np.int64).max


def _first_hit_scan(
    starts: np.ndarray,
    lengths: np.ndarray,
    adjacency: np.ndarray,
    frontier_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Early-exit scan of CSR segments against a frontier bitmap.

    Segment ``s`` is ``adjacency[starts[s] : starts[s] + lengths[s]]``.
    Returns ``(found, edges_scanned)`` per segment: whether any entry is
    in the frontier, and how many entries a sequential scan would touch
    before stopping (first hit position + 1, or the whole segment on a
    miss) — the quantity that makes bottom-up cheap.
    """
    nseg = starts.size
    found = np.zeros(nseg, dtype=bool)
    edges = np.zeros(nseg, dtype=np.int64)
    nz = np.flatnonzero(lengths)
    if nz.size == 0:
        return found, edges
    nz_starts = starts[nz]
    nz_lengths = lengths[nz]
    gather, out_offsets = range_indices(nz_starts, nz_lengths)
    hits = frontier_mask[adjacency[gather]]
    pos = np.arange(gather.size, dtype=np.int64) - np.repeat(
        out_offsets[:-1], nz_lengths
    )
    score = np.where(hits, pos, _NO_HIT)
    first = np.minimum.reduceat(score, out_offsets[:-1])
    nz_found = first < _NO_HIT
    found[nz] = nz_found
    edges[nz] = np.where(nz_found, first + 1, nz_lengths)
    return found, edges


def bottom_up_level_1d(engine) -> tuple[np.ndarray, np.ndarray]:
    """One bottom-up level of :class:`~repro.bfs.bfs_1d.Bfs1DEngine`.

    Ring-allgather of the per-rank frontier bitmaps, then every rank
    scans its unvisited owned vertices' (full) edge lists with early
    exit.  Owners label their own finds, so no fold round follows.
    """
    comm = engine.comm
    nranks = comm.nranks
    obs = comm.obs
    levels = engine._levels_flat
    offsets = engine.partition.dist.offsets

    # Frontier-bitmap allgather: P-1 ring rounds aggregated as one
    # concurrent transfer; rank i forwards every block except the one its
    # successor owns.
    with obs.span("bitmap-allgather", cat="phase"):
        span_bytes = (np.diff(offsets) + 7) // 8
        if nranks > 1:
            src = np.arange(nranks, dtype=np.int64)
            dst = (src + 1) % nranks
            nbytes = int(span_bytes.sum()) - span_bytes[dst]
            comm.exchange_summaries(src, dst, nbytes, phase=None)

    with obs.span("bottom-up-scan", cat="phase"):
        frontier_mask = levels == engine.level
        unvisited = np.flatnonzero(levels == UNREACHED).astype(VERTEX_DTYPE)
        starts = engine._cat_indptr[unvisited]
        lengths = engine._cat_indptr[unvisited + 1] - starts
        found, edges = _first_hit_scan(
            starts, lengths, engine._cat_adjacency, frontier_mask
        )
        # unvisited is sorted and blocks are contiguous, so one
        # searchsorted splits it into per-rank segments
        rank_bounds = np.searchsorted(unvisited, offsets)
        seg_rank = np.repeat(
            np.arange(nranks, dtype=np.int64), np.diff(rank_bounds)
        )
        per_rank_edges = np.zeros(nranks, dtype=np.int64)
        np.add.at(per_rank_edges, seg_rank, edges)
        # each scanned edge is one bitmap probe
        comm.charge_compute_many(
            edges_scanned=per_rank_edges, hash_lookups=per_rank_edges
        )
        fresh = unvisited[found]
        levels[fresh] = engine.level + 1
        fresh_counts = np.bincount(seg_rank[found], minlength=nranks)
        comm.charge_compute_many(updates=fresh_counts)
        fresh_bounds = np.concatenate(([0], np.cumsum(fresh_counts)))
    return fresh, fresh_bounds


def bottom_up_level_2d(engine) -> tuple[np.ndarray, np.ndarray]:
    """One bottom-up level of :class:`~repro.bfs.bfs_2d.Bfs2DEngine`.

    Frontier bitmaps along processor rows, unvisited bitmaps along
    processor columns, early-exit scan of the stored partial column
    lists, then found vertices travel to their owners within the
    processor column for de-duplication and labelling.
    """
    comm = engine.comm
    nranks = comm.nranks
    n = engine.n
    obs = comm.obs
    levels = engine._levels_flat
    part = engine.partition

    engine._owned_bounds()
    span_bytes = (engine._owned_spans + 7) // 8

    def group_pairs(groups):
        src_l: list[np.ndarray] = []
        dst_l: list[np.ndarray] = []
        for group in groups:
            g = np.asarray(group, dtype=np.int64)
            if g.size < 2:
                continue
            src_l.append(np.repeat(g, g.size - 1))
            dst_l.append(np.concatenate([g[g != s] for s in g]))
        if not src_l:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(src_l), np.concatenate(dst_l)

    # Frontier state of the stored rows lives on processor-row peers;
    # unvisited state of the column chunk lives on processor-column peers.
    with obs.span("bitmap-broadcast", cat="phase"):
        row_src, row_dst = group_pairs(engine._row_groups)
        col_src, col_dst = group_pairs(engine._col_groups)
        src = np.concatenate([row_src, col_src])
        dst = np.concatenate([row_dst, col_dst])
        comm.exchange_summaries(src, dst, span_bytes[src], phase=None)

    with obs.span("bottom-up-scan", cat="phase"):
        frontier_mask = levels == engine.level
        # stored columns, tagged by holder rank (the stored-column keys
        # are sorted by rank then vertex id); their partial edge lists
        # come from the direct-index table, as in the top-down lookup
        rank_bounds = np.searchsorted(
            engine._col_keys, np.arange(nranks + 1, dtype=np.int64) * n
        )
        cols_per_rank = np.diff(rank_bounds)
        col_rank = np.repeat(np.arange(nranks, dtype=np.int64), cols_per_rank)
        col_vertex = engine._col_keys - col_rank * n
        scan_idx = np.flatnonzero(levels[col_vertex] == UNREACHED)
        scan_rank = col_rank[scan_idx]
        slot = col_vertex[scan_idx] + engine._slot_shift[scan_rank]
        starts = engine._slot_indptr[slot]
        lengths = engine._slot_indptr[1:][slot] - starts
        found, edges = _first_hit_scan(
            starts, lengths, engine._rows_cat, frontier_mask
        )
        per_rank_edges = np.zeros(nranks, dtype=np.int64)
        np.add.at(per_rank_edges, scan_rank, edges)
        # one unvisited-bitmap probe per stored column plus one frontier
        # probe per scanned edge
        comm.charge_compute_many(
            edges_scanned=per_rank_edges,
            hash_lookups=per_rank_edges + cols_per_rank,
        )
        found_v = col_vertex[scan_idx[found]]
        finder = scan_rank[found]
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
            hash_lookups=incoming_counts, updates=fresh_counts
        )
    return flat, fresh_bounds
