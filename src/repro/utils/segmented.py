"""Segmented (per-virtual-rank) NumPy kernels for the batched BFS hot paths.

The simulator advances P virtual ranks in one process, and the scalar
engines paid one Python iteration — and one small ``np.unique`` — per
rank per level.  These helpers collapse such loops into single fused
array operations over *concatenated* per-rank data: values from every
segment are packed into one array, each element tagged with its segment
id, and a segment-offset key (``seg * domain + value``) makes one global
``np.unique`` equivalent to a per-segment unique.  Each segment's result
is byte-identical to ``np.unique`` over that segment alone (same sorted
order, same int64 dtype), which is what lets the batched engines keep
simulated clocks and statistics bit-for-bit equal to the scalar loops.
"""

from __future__ import annotations

import numpy as np

from repro.types import VERTEX_DTYPE


def segmented_unique(
    values: np.ndarray, segs: np.ndarray, nseg: int, domain: int
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Per-segment sorted unique of ``values`` tagged with segment ids.

    ``values`` must be non-negative and < ``domain``; ``segs`` is parallel
    to ``values`` with entries in ``[0, nseg)``.  Returns ``(flat, bounds,
    dups, seg_of)``: segment ``s``'s unique values are
    ``flat[bounds[s]:bounds[s+1]]`` (equal to ``np.unique`` of that
    segment's values), ``dups`` is the total number of entries the unique
    eliminated across all segments — the union-fold's duplicate tally —
    and ``seg_of`` tags each element of ``flat`` with its segment id (a
    byproduct of the offset-key split, free for callers that need it).
    """
    if values.size == 0:
        return (
            np.empty(0, dtype=VERTEX_DTYPE),
            np.zeros(nseg + 1, dtype=np.int64),
            0,
            np.empty(0, dtype=np.int64),
        )
    keys = segs * domain + values
    # Sorted-unique via sort + mask: identical output to np.unique, and
    # much faster here because fold payloads are concatenations of already
    # sorted runs (timsort exploits them; the hash path cannot).
    keys.sort(kind="stable")
    mask = np.empty(keys.size, dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    uk = keys[mask]
    seg_of, flat = np.divmod(uk, domain)
    bounds = np.empty(nseg + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(np.bincount(seg_of, minlength=nseg), out=bounds[1:])
    return flat, bounds, values.size - uk.size, seg_of


def segmented_union(
    values: np.ndarray,
    segs: np.ndarray,
    nseg: int,
    domain: int,
    masks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-segment sorted union of a frontier, OR-merging its mask column.

    Returns ``(flat, bounds, masks)``: ``flat``/``bounds`` are
    :func:`segmented_unique`'s, and each kept vertex carries the OR of
    its occurrences' mask words within its segment (``None`` without a
    mask column — single-source is the width-1 case with the column left
    out).
    """
    if masks is None:
        flat, bounds, _, _ = segmented_unique(values, segs, nseg, domain)
        return flat, bounds, None
    keys = segs * domain + values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    seg_of, flat = np.divmod(keys[starts], domain)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(seg_of, minlength=nseg))))
    return flat, bounds, np.bitwise_or.reduceat(masks[order], starts)


def range_indices(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the concatenated ranges ``[starts[k], starts[k] + lengths[k])``.

    The gather behind every CSR lookup in the engines: ``values[idx]``
    is the ranges' contents back to back, and any column parallel to
    ``values`` rides the same ``idx``.  Returns ``(idx, offsets)`` where
    range ``k`` occupies ``idx[offsets[k]:offsets[k+1]]``; zero-length
    ranges are allowed.
    """
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    idx = np.arange(offsets[-1], dtype=np.int64)
    idx += np.repeat(starts - offsets[:-1], lengths)
    return idx, offsets
