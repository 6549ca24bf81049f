"""Concrete frontier wire codecs: raw, delta+varint, bitmap, adaptive.

Payloads in this library are vertex-id arrays, and on every hot path they
are *sorted and duplicate-free* (frontiers and fold buckets come out of
``np.unique``).  That structure is what the codecs exploit:

* :class:`RawCodec` — little-endian ``int64`` ids, byte-identical to the
  paper's wire format (8 bytes/vertex, zero CPU cost).
* :class:`DeltaVarintCodec` — consecutive differences, zigzag-mapped and
  LEB128-encoded.  Sorted ids give small non-negative gaps, so dense
  frontiers cost ~1-2 bytes/vertex instead of 8.  Round-trips *any* int64
  array (order and duplicates preserved), so forwarding collectives that
  concatenate buckets (bruck, two-phase) stay safe.
* :class:`BitmapCodec` — a dense bitset over the message's vertex range
  (``[min, max]``, a sub-range of the destination rank's owned block for
  fold traffic).  Cost is ``span/8`` bytes regardless of how many vertices
  are set — unbeatable once the frontier saturates its block.
* :class:`AdaptiveCodec` — per-message choice between the two compressed
  formats from the frontier's density, mirroring the γ(m) saturation
  analysis of Section 3.1: with mean gap ``g = span/count``, delta+varint
  pays ~``bytes(2g)`` per vertex while the bitmap pays ``g/8``, so the
  bitmap wins once the density ``1/g`` exceeds roughly 1/8 — which γ(m)
  predicts as soon as ``m·k`` approaches the block size
  (:func:`repro.analysis.bounds.predicted_message_bytes` is the matching
  closed form).

Encode/decode CPU costs are seconds per vertex on the simulated 700 MHz
BlueGene/L core (a few cycles per vertex for bitmap word operations, ~15
cycles per vertex for varint branch-per-byte loops).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError
from repro.types import VERTEX_DTYPE, as_vertex_array
from repro.utils.segmented import range_indices
from repro.wire.base import WireCodec, register_codec

#: LEB128 length thresholds: a zigzagged value needs ``1 + #(thresholds <= u)``
#: bytes (7 payload bits per byte, 10 bytes max for 64-bit values).
_VARINT_THRESHOLDS = np.array([1 << (7 * i) for i in range(1, 10)], dtype=np.uint64)

_ADAPTIVE_VARINT_TAG = 0
_ADAPTIVE_BITMAP_TAG = 1


# ---------------------------------------------------------------------- #
# varint / zigzag primitives
# ---------------------------------------------------------------------- #
def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 deltas to unsigned ``uint64`` (-1→1, 0→0, 1→2, …)."""
    values = np.asarray(values, dtype=np.int64)
    return (values.astype(np.uint64) << np.uint64(1)) ^ (
        values >> np.int64(63)
    ).astype(np.uint64)


def varint_nbytes(unsigned: np.ndarray) -> np.ndarray:
    """LEB128 byte length of each unsigned 64-bit value (vectorised)."""
    u = np.asarray(unsigned, dtype=np.uint64)
    return 1 + np.searchsorted(_VARINT_THRESHOLDS, u, side="right")


def _append_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint in encoded payload")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


#: range offsets of a buffer that is one payload
_WHOLE = np.zeros(1, dtype=np.int64)


def _tiled(
    flat: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``flat[starts[k]:stops[k]]`` back to back.

    Returns ``(values, offsets)``: range ``k`` begins at ``values[offsets[k]]``
    and ends where range ``k + 1`` begins (the last one at the end) — the
    form ``ufunc.reduceat`` reduces segment-wise.  Ranges that already
    tile a stretch of ``flat`` (a round's chunks, the common case) are a
    slice; anything else is gathered.
    """
    if starts.size and (starts[1:] == stops[:-1]).all():
        return flat[starts[0] : stops[-1]], starts - starts[0]
    index, offsets = range_indices(starts, stops - starts)
    return flat[index], offsets[:-1]


def _deltas(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per range: first value, then consecutive differences (wrapping int64)."""
    deltas = np.empty(values.size, dtype=np.int64)
    np.subtract(values[1:], values[:-1], out=deltas[1:])
    deltas[offsets] = values[offsets]
    return deltas


def _bitmap_eligible_many(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Which ranges are sets a bitmap can represent: sorted,
    duplicate-free, non-negative ids."""
    rising = np.empty(values.size, dtype=bool)
    np.greater(values[1:], values[:-1], out=rising[1:])
    rising[offsets] = values[offsets] >= 0
    return np.logical_and.reduceat(rising, offsets)


def _is_bitmap_eligible(payload: np.ndarray) -> bool:
    """:func:`_bitmap_eligible_many` of one payload (the empty set is a set)."""
    return payload.size == 0 or bool(_bitmap_eligible_many(payload, _WHOLE)[0])


# ---------------------------------------------------------------------- #
# codecs
# ---------------------------------------------------------------------- #
@register_codec
class RawCodec(WireCodec):
    """Uncompressed little-endian int64 ids — the paper's wire format."""

    name = "raw"
    encode_cost_per_vertex = 0.0
    decode_cost_per_vertex = 0.0

    def encode(self, payload: np.ndarray) -> bytes:
        return as_vertex_array(payload).astype("<i8", copy=False).tobytes()

    def decode(self, data: bytes) -> np.ndarray:
        return np.frombuffer(data, dtype="<i8").astype(VERTEX_DTYPE)

    def encoded_nbytes_many(self, flat, starts, stops) -> np.ndarray:
        return 8 * (stops - starts)


@register_codec
class DeltaVarintCodec(WireCodec):
    """Sort-exploiting delta + zigzag + LEB128 encoding of vertex ids.

    Wire format: ``varint(count)`` then one zigzag-varint per delta, where
    ``delta[0] = x[0]`` and ``delta[i] = x[i] - x[i-1]`` (wrapping int64
    arithmetic, so the round-trip is exact for *every* int64 array — the
    zigzag step keeps occasional negative gaps from concatenated buckets
    cheap instead of catastrophic).
    """

    name = "delta-varint"
    # ~15 / ~12 cycles per vertex at 700 MHz (branchy byte-at-a-time loops)
    encode_cost_per_vertex = 2.1e-8
    decode_cost_per_vertex = 1.7e-8

    def encode(self, payload: np.ndarray) -> bytes:
        payload = as_vertex_array(payload)
        out = bytearray()
        _append_varint(out, payload.size)
        if payload.size:
            for value in zigzag(_deltas(payload, _WHOLE)).tolist():
                _append_varint(out, value)
        return bytes(out)

    def decode(self, data: bytes) -> np.ndarray:
        count, pos = _read_varint(data, 0)
        values = np.empty(count, dtype=np.uint64)
        for i in range(count):
            value, pos = _read_varint(data, pos)
            values[i] = value
        if pos != len(data):
            raise CodecError(f"{len(data) - pos} trailing bytes after encoded payload")
        halved = values >> np.uint64(1)
        deltas = np.where(values & np.uint64(1), ~halved, halved).astype(np.int64)
        return np.cumsum(deltas, dtype=np.int64)

    def encoded_nbytes_many(self, flat, starts, stops) -> np.ndarray:
        values, offsets = _tiled(flat, starts, stops)
        per_delta = varint_nbytes(zigzag(_deltas(values, offsets)))
        return varint_nbytes(stops - starts) + np.add.reduceat(per_delta, offsets)


@register_codec
class BitmapCodec(WireCodec):
    """Dense bitset over the message's vertex range.

    Wire format: ``varint(base) varint(span)`` then ``ceil(span/8)`` bytes
    of little-endian bits, where ``base = min(x)`` and ``span = max(x) -
    min(x) + 1``.  Fold payloads are slices of the destination rank's
    owned block, so the span never exceeds that block's width.  Bitmaps
    represent sets: :meth:`encode` rejects unsorted, duplicated, or
    negative ids (:meth:`encoded_nbytes` still prices such payloads as the
    bitset of their value range, which is what a real implementation would
    ship after an in-flight dedup).
    """

    name = "bitmap"
    # ~3 / ~4 cycles per vertex at 700 MHz (word-wide set/scan operations)
    encode_cost_per_vertex = 4.0e-9
    decode_cost_per_vertex = 6.0e-9

    def encode(self, payload: np.ndarray) -> bytes:
        payload = as_vertex_array(payload)
        if payload.size == 0:
            return b""
        if not _is_bitmap_eligible(payload):
            raise CodecError(
                "bitmap codec requires sorted, duplicate-free, non-negative "
                "vertex ids (frontier/bucket payloads satisfy this)"
            )
        base = int(payload[0])
        span = int(payload[-1]) - base + 1
        out = bytearray()
        _append_varint(out, base)
        _append_varint(out, span)
        bits = np.zeros(span, dtype=np.uint8)
        bits[payload - base] = 1
        out.extend(np.packbits(bits, bitorder="little").tobytes())
        return bytes(out)

    def decode(self, data: bytes) -> np.ndarray:
        if not data:
            return np.empty(0, dtype=VERTEX_DTYPE)
        base, pos = _read_varint(data, 0)
        span, pos = _read_varint(data, pos)
        if len(data) - pos != (span + 7) // 8:
            raise CodecError(
                f"bitmap payload has {len(data) - pos} bitset bytes, "
                f"expected {(span + 7) // 8} for span {span}"
            )
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, offset=pos), bitorder="little"
        )[:span]
        return np.flatnonzero(bits).astype(VERTEX_DTYPE) + base

    def encoded_nbytes_many(self, flat, starts, stops) -> np.ndarray:
        # min/max, not first/last: forwarding collectives concatenate buckets
        values, offsets = _tiled(flat, starts, stops)
        base = np.minimum.reduceat(values, offsets)
        span = np.maximum.reduceat(values, offsets) - base + 1
        header = varint_nbytes(np.maximum(base, 0)) + varint_nbytes(span)
        return header + (span + 7) // 8


@register_codec
class AdaptiveCodec(WireCodec):
    """Per-message bitmap-vs-varint choice driven by frontier density.

    One tag byte selects the format; the cheaper of the two encodings (by
    exact byte count) follows.  Payloads a bitmap cannot represent
    (unsorted or duplicated — forwarding collectives concatenate buckets)
    always take the varint path, in both the byte accounting and the real
    SPMD round-trip, so the two stay consistent.
    """

    name = "adaptive"

    def __init__(self) -> None:
        self._varint = DeltaVarintCodec()
        self._bitmap = BitmapCodec()

    def _choose_many(self, flat, starts, stops) -> tuple[np.ndarray, np.ndarray]:
        """``(inner encoded bytes, bitmap ships it)`` of each range: the
        bitmap wherever it can represent the range and is strictly smaller."""
        values, offsets = _tiled(flat, starts, stops)
        stops = offsets + (stops - starts)
        varint = self._varint.encoded_nbytes_many(values, offsets, stops)
        bitmap = self._bitmap.encoded_nbytes_many(values, offsets, stops)
        use_bitmap = _bitmap_eligible_many(values, offsets) & (bitmap < varint)
        return np.where(use_bitmap, bitmap, varint), use_bitmap

    def encode(self, payload: np.ndarray) -> bytes:
        payload = as_vertex_array(payload)
        if payload.size == 0:
            return b""
        _, use_bitmap = self._choose_many(payload, _WHOLE, _WHOLE + payload.size)
        if use_bitmap[0]:
            return bytes([_ADAPTIVE_BITMAP_TAG]) + self._bitmap.encode(payload)
        return bytes([_ADAPTIVE_VARINT_TAG]) + self._varint.encode(payload)

    def decode(self, data: bytes) -> np.ndarray:
        if not data:
            return np.empty(0, dtype=VERTEX_DTYPE)
        if data[0] == _ADAPTIVE_BITMAP_TAG:
            return self._bitmap.decode(data[1:])
        if data[0] == _ADAPTIVE_VARINT_TAG:
            return self._varint.decode(data[1:])
        raise CodecError(f"unknown adaptive-codec tag byte {data[0]}")

    def encoded_nbytes_many(self, flat, starts, stops) -> np.ndarray:
        return 1 + self._choose_many(flat, starts, stops)[0]

    def price_many(self, flat, starts, stops):
        inner, use_bitmap = self._choose_many(flat, starts, stops)
        sizes = stops - starts
        varint, bitmap = self._varint, self._bitmap
        return (
            1 + inner,
            np.where(
                use_bitmap, bitmap.encode_cost_per_vertex, varint.encode_cost_per_vertex
            ) * sizes,
            np.where(
                use_bitmap, bitmap.decode_cost_per_vertex, varint.decode_cost_per_vertex
            ) * sizes,
        )
