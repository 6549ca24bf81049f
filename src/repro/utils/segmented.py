"""Segmented (per-virtual-rank) NumPy kernels for the batched BFS hot paths.

The simulator advances P virtual ranks in one process, so per-rank work
is done as single fused array operations over *concatenated* per-rank
data.  :func:`segmented_unique` is the per-segment sorted unique for
segments whose values may overlap — the fold's set-union rings, where one
bundle carries many destinations' lanes: each element is tagged with its
segment id, and a segment-offset key (``seg * domain + value``) makes one
global sort equivalent to a per-segment ``np.unique``, byte for byte.
Where every segment's values fall in a range of their own — a rank's
owned block, its column chunk — the engines need no sort at all and use
index arithmetic instead (``LevelSyncEngine._owned_union``, the 2D
engine's direct-index lookup and F-bar splice).  :func:`range_indices` is
the gather behind every CSR lookup.
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
