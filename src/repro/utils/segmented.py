"""Segmented (per-virtual-rank) NumPy kernels for the batched BFS hot paths.

The simulator advances P virtual ranks in one process, so per-rank work
is done as single fused array operations over *concatenated* per-rank
data.  :func:`segmented_unique` is the per-segment sorted unique for
segments whose values may overlap — the fold's set-union rings, where one
bundle carries many destinations' lanes.  The caller packs every element
into one non-negative ``int64`` key, most significant field first::

    key = (segment << (value_bits + tie_bits)) | (value << tie_bits) | tie

so one sort orders by segment, then value, then tie, and a run of equal
``key >> tie_bits`` is one ``(segment, value)`` pair whose first key holds
its smallest tie.  Decoding is shifts and masks, never a division.  The
union rings pack (final chunk, vertex, joining round); with ``tie_bits =
0`` the kernel is a plain sorted unique.  Where every segment's values
fall in a range of their own — a rank's owned block, its column chunk —
the engine needs no sort at all and uses index arithmetic instead
(``LevelSyncEngine._owned_union``, its direct-index lookup and F-bar
splice).  :func:`range_indices` is the gather behind every CSR
lookup.
"""

from __future__ import annotations

import numpy as np


def segmented_unique(keys: np.ndarray, tie_bits: int) -> np.ndarray:
    """The first key of every run of equal ``keys >> tie_bits``, in order.

    ``keys`` are non-negative packed keys (module docstring); they are
    sorted *in place*.  Returns the sorted keys that survive: one per
    distinct ``key >> tie_bits``, the one with the smallest low
    ``tie_bits`` bits.  ``tie_bits = 0`` makes it a sorted unique —
    segment ``s``'s run of values equals ``np.unique`` of its values.
    """
    # Keys carry no payload, so NumPy's default (vectorised) sort gives the
    # same bytes as any other, several times faster than timsort here.
    keys.sort()
    head = keys >> tie_bits if tie_bits else keys
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(head[1:], head[:-1], out=first[1:])
    return keys[first]


def range_indices(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the concatenated ranges ``[starts[k], starts[k] + lengths[k])``.

    The gather behind every CSR lookup in the engine: ``values[idx]``
    is the ranges' contents back to back, and any column parallel to
    ``values`` rides the same ``idx``.  Returns ``(idx, offsets)`` where
    range ``k`` occupies ``idx[offsets[k]:offsets[k+1]]``; zero-length
    ranges are allowed.
    """
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    idx = np.arange(offsets[-1], dtype=np.int64)
    idx += np.repeat(starts - offsets[:-1], lengths)
    return idx, offsets
