"""Wire-codec interface and registry.

A :class:`WireCodec` turns a vertex-id payload (a contiguous ``int64``
array, the only thing this library ever puts on the wire) into bytes and
back.  The paper ships raw 8-byte ids on every expand/fold message; the
compression literature on distributed BFS (Lv et al.'s *Compression and
Sieve*; Buluç & Madduri's bitmap frontiers) shows that encoding frontiers
as deltas or dense bitsets cuts communication volume dramatically once the
frontier saturates — exactly the regime the Section 3.1 γ(m) analysis
describes.

Codecs are consulted in two places:

* the **simulated** runtime (:class:`~repro.runtime.comm.Communicator`)
  asks :meth:`WireCodec.price_many` once per message round — every chunk
  of the round priced segment-wise over the round's flat buffer — and
  charges the network for the encoded bytes instead of ``num_vertices *
  bytes_per_vertex``, plus the calibrated per-vertex encode/decode CPU
  cost on the clock;
* the **SPMD** multiprocessing backend round-trips real encoded buffers
  (:meth:`encode` on send, :meth:`decode` on receive), so every codec is
  exercised under true parallelism.

The contract is ``decode(encode(x)) == x`` and ``encoded_nbytes(x) ==
len(encode(x))`` for every payload a codec accepts; see the concrete
classes for per-codec restrictions (only :class:`~repro.wire.codecs.
BitmapCodec` restricts its domain).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import CodecError
from repro.types import as_vertex_array


class WireCodec(abc.ABC):
    """Encode/decode vertex-id payloads for the wire, with cost accounting.

    ``encode_cost_per_vertex`` / ``decode_cost_per_vertex`` are seconds of
    simulated CPU time per payload vertex, calibrated against the 700 MHz
    BlueGene/L core like the other :class:`~repro.machine.bluegene.
    MachineModel` compute constants.  The raw codec's costs are zero so the
    default runtime stays byte-identical to the uncompressed one.
    """

    name: str = "codec-base"
    #: simulated seconds of sender CPU per encoded vertex
    encode_cost_per_vertex: float = 0.0
    #: simulated seconds of receiver CPU per decoded vertex
    decode_cost_per_vertex: float = 0.0

    @abc.abstractmethod
    def encode(self, payload: np.ndarray) -> bytes:
        """Serialise ``payload`` (1-D int64 vertex ids) to wire bytes."""

    @abc.abstractmethod
    def decode(self, data: bytes) -> np.ndarray:
        """Inverse of :meth:`encode`; returns a 1-D int64 array."""

    def encoded_nbytes_many(
        self, flat: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> np.ndarray:
        """Wire bytes of each payload ``flat[starts[k]:stops[k]]`` (int64).

        Row ``k`` equals ``len(encode(flat[starts[k]:stops[k]]))`` for
        every payload :meth:`encode` accepts; ranges must be non-empty
        and may overlap or leave gaps.  This default really encodes each
        range; the built-in codecs override it with closed forms over
        the whole buffer — the simulated runtime calls it once per
        message round, never per chunk.
        """
        return np.array(
            [len(self.encode(flat[a:b])) for a, b in zip(starts.tolist(), stops.tolist())],
            dtype=np.int64,
        )

    def encoded_nbytes(self, payload: np.ndarray) -> int:
        """Wire bytes :meth:`encode` would produce, without building them:
        :meth:`encoded_nbytes_many` on the one range that is ``payload``."""
        payload = as_vertex_array(payload)
        if payload.size == 0:
            return len(self.encode(payload))
        whole = np.array([0, payload.size], dtype=np.int64)
        return int(self.encoded_nbytes_many(payload, whole[:1], whole[1:])[0])

    def price_many(
        self, flat: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(encoded bytes, encode seconds, decode seconds)`` per range.

        Everything the simulated runtime needs to know about a round's
        chunks, in the one call it makes per round.  Seconds are the
        per-vertex costs times the range sizes; codecs whose cost depends
        on the payload (:class:`~repro.wire.codecs.AdaptiveCodec`)
        override it to inspect the buffer once.
        """
        sizes = stops - starts
        return (
            self.encoded_nbytes_many(flat, starts, stops),
            self.encode_cost_per_vertex * sizes,
            self.decode_cost_per_vertex * sizes,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
WIRE_CODECS: dict[str, type] = {}


def register_codec(cls: type) -> type:
    """Class decorator: register a :class:`WireCodec` under its ``name``."""
    WIRE_CODECS[cls.name] = cls
    return cls


def get_codec(name: str) -> WireCodec:
    """Instantiate the codec registered under ``name``."""
    if not WIRE_CODECS:  # direct base-module import: register the built-ins
        from repro.wire import codecs  # noqa: F401
    try:
        return WIRE_CODECS[name]()
    except KeyError:
        raise CodecError(
            f"unknown wire codec {name!r}; available: {sorted(WIRE_CODECS)}"
        ) from None


def resolve_wire(wire: "WireCodec | str | None") -> WireCodec:
    """Coerce a ``wire=`` argument (codec, name, or None) to a codec instance.

    ``None`` means the raw codec — today's uncompressed behaviour.
    """
    if wire is None:
        return get_codec("raw")
    if isinstance(wire, str):
        return get_codec(wire)
    if isinstance(wire, WireCodec):
        return wire
    raise CodecError(
        f"wire must be a WireCodec, a codec name, or None, got {type(wire).__name__}"
    )
