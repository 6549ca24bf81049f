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


def _deltas(payload: np.ndarray) -> np.ndarray:
    """First value then consecutive differences (wrapping int64 arithmetic)."""
    deltas = np.empty(payload.size, dtype=np.int64)
    deltas[0] = payload[0]
    np.subtract(payload[1:], payload[:-1], out=deltas[1:])
    return deltas


def _is_bitmap_eligible(payload: np.ndarray) -> bool:
    """Bitmaps represent sets: sorted, duplicate-free, non-negative ids."""
    if payload.size == 0:
        return True
    if payload[0] < 0:
        return False
    return payload.size == 1 or bool(np.all(np.diff(payload) > 0))


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

    def encoded_nbytes(self, payload: np.ndarray) -> int:
        return 8 * int(np.size(payload))


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
            for value in zigzag(_deltas(payload)).tolist():
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

    def encoded_nbytes(self, payload: np.ndarray) -> int:
        payload = as_vertex_array(payload)
        header = int(varint_nbytes(payload.size))
        if payload.size == 0:
            return header
        return header + int(varint_nbytes(zigzag(_deltas(payload))).sum())


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

    def encoded_nbytes(self, payload: np.ndarray) -> int:
        payload = as_vertex_array(payload)
        if payload.size == 0:
            return 0
        base = int(payload.min())
        span = int(payload.max()) - base + 1
        header = int(varint_nbytes(max(base, 0))) + int(varint_nbytes(span))
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

    def _choose(self, payload: np.ndarray) -> tuple[WireCodec, int]:
        """The inner codec that ships ``payload`` and its encoded size."""
        varint = self._varint.encoded_nbytes(payload)
        if _is_bitmap_eligible(payload):
            bitmap = self._bitmap.encoded_nbytes(payload)
            if bitmap < varint:
                return self._bitmap, bitmap
        return self._varint, varint

    def encode(self, payload: np.ndarray) -> bytes:
        payload = as_vertex_array(payload)
        if payload.size == 0:
            return b""
        codec, _ = self._choose(payload)
        tag = _ADAPTIVE_BITMAP_TAG if codec is self._bitmap else _ADAPTIVE_VARINT_TAG
        return bytes([tag]) + codec.encode(payload)

    def decode(self, data: bytes) -> np.ndarray:
        if not data:
            return np.empty(0, dtype=VERTEX_DTYPE)
        if data[0] == _ADAPTIVE_BITMAP_TAG:
            return self._bitmap.decode(data[1:])
        if data[0] == _ADAPTIVE_VARINT_TAG:
            return self._varint.decode(data[1:])
        raise CodecError(f"unknown adaptive-codec tag byte {data[0]}")

    def encoded_nbytes(self, payload: np.ndarray) -> int:
        return self.price(payload)[0]

    def encode_seconds(self, payload: np.ndarray) -> float:
        return self.price(payload)[1]

    def decode_seconds(self, payload: np.ndarray) -> float:
        return self.price(payload)[2]

    def price(self, payload: np.ndarray) -> tuple[int, float, float]:
        payload = as_vertex_array(payload)
        if payload.size == 0:
            return 0, 0.0, 0.0
        codec, nbytes = self._choose(payload)
        return (
            1 + nbytes,
            codec.encode_seconds(payload),
            codec.decode_seconds(payload),
        )
