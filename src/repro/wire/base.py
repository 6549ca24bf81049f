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
  asks :meth:`WireCodec.price` once per chunk and charges the network for
  the encoded bytes instead of ``num_vertices * bytes_per_vertex``, plus
  the calibrated per-vertex encode/decode CPU cost on the clock;
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

    def encoded_nbytes(self, payload: np.ndarray) -> int:
        """Wire bytes :meth:`encode` would produce, without building them.

        Subclasses override this with a vectorised computation — the
        simulated runtime calls it on every message, so it must be cheap.
        """
        return len(self.encode(payload))

    # ------------------------------------------------------------------ #
    # simulated CPU cost
    # ------------------------------------------------------------------ #
    def encode_seconds(self, payload: np.ndarray) -> float:
        """Simulated sender-side CPU seconds to encode ``payload``."""
        return self.encode_cost_per_vertex * int(np.size(payload))

    def decode_seconds(self, payload: np.ndarray) -> float:
        """Simulated receiver-side CPU seconds to decode ``payload``."""
        return self.decode_cost_per_vertex * int(np.size(payload))

    def price(self, payload: np.ndarray) -> tuple[int, float, float]:
        """``(encoded bytes, encode seconds, decode seconds)`` of ``payload``.

        Everything the simulated runtime needs to know about a chunk, in
        the one call it makes per chunk — codecs that must inspect the
        payload to answer (:class:`~repro.wire.codecs.AdaptiveCodec`)
        override it to inspect once.
        """
        return (
            self.encoded_nbytes(payload),
            self.encode_seconds(payload),
            self.decode_seconds(payload),
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
