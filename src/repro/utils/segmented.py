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


def segmented_unique(
    values: np.ndarray, segs: np.ndarray, domain: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment sorted unique of ``values`` tagged with segment ids.

    ``values`` must be non-negative and < ``domain``; ``segs`` is parallel
    to ``values``.  Returns ``(flat, seg_of)``: the distinct ``(segment,
    value)`` pairs sorted by segment, then value — segment ``s``'s run of
    ``flat`` equals ``np.unique`` of that segment's values — with
    ``seg_of`` tagging each element of ``flat`` with its segment id.
    """
    keys = segs * domain + values
    # Sorted-unique via sort + mask: identical output to np.unique.  Keys
    # carry no payload, so NumPy's default (vectorised) sort gives the
    # same bytes as any other, several times faster than timsort here.
    keys.sort()
    mask = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    uk = keys[mask]
    seg_of = uk // domain  # floor division is NumPy's fast one (not divmod)
    return uk - seg_of * domain, seg_of


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
