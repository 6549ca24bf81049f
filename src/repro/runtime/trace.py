"""Message-level event tracing.

A :class:`TraceRecorder` attached to a communicator captures one event per
wire message — (simulated send time, src, dst, vertices, raw payload
bytes, encoded payload bytes, phase) — enabling timeline analysis beyond
the aggregate counters in :class:`~repro.runtime.stats.CommStats`:
per-rank load profiles, busiest links, phase overlap, per-link
compression.  Export to CSV/JSON for external tooling.

Events are the communicator's own accounting: every message round hands
its recorders the per-chunk arrays it charged — payloads already chunked
to the buffer capacity, ``raw_bytes`` is ``num_vertices *
bytes_per_vertex``, and ``encoded_bytes`` is what the attached
:mod:`repro.wire` codec put on the wire for that chunk (equal to
``raw_bytes`` under the ``"raw"`` codec and for self-sends, which are
local hand-offs).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.comm import Communicator


@dataclass(frozen=True, slots=True)
class MessageEvent:
    """One wire message, stamped with the sender's simulated clock."""

    time: float
    src: int
    dst: int
    num_vertices: int
    #: payload size before wire encoding (``num_vertices * bytes_per_vertex``)
    raw_bytes: int
    #: bytes actually on the wire after the communicator's codec
    encoded_bytes: int
    phase: str


class TraceRecorder:
    """Captures every wire message passing through one communicator.

    :meth:`install` registers the recorder with the communicator, whose
    message round then calls :meth:`record_round`; detach with
    :meth:`uninstall`.  Usable as a context manager.
    """

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm
        self.events: list[MessageEvent] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def install(self) -> "TraceRecorder":
        """Start capturing (idempotent)."""
        if self not in self.comm.recorders:
            self.comm.recorders.append(self)
        return self

    def uninstall(self) -> None:
        """Stop capturing."""
        if self in self.comm.recorders:
            self.comm.recorders.remove(self)

    def record_round(
        self, time, src, dst, num_vertices, raw_bytes, encoded_bytes, phase: str
    ) -> None:
        """Append one event per chunk of a round (parallel per-chunk arrays)."""
        self.events.extend(
            MessageEvent(*fields, phase)
            for fields in zip(
                time.tolist(), src.tolist(), dst.tolist(), num_vertices.tolist(),
                raw_bytes.tolist(), encoded_bytes.tolist(),
            )
        )

    def __enter__(self) -> "TraceRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def per_rank_sent(self) -> np.ndarray:
        """Vertices sent per rank over the whole trace."""
        out = np.zeros(self.comm.nranks, dtype=np.int64)
        for event in self.events:
            out[event.src] += event.num_vertices
        return out

    def per_phase_volume(self) -> dict[str, int]:
        """Total vertices on the wire per phase."""
        volumes: dict[str, int] = {}
        for event in self.events:
            volumes[event.phase] = volumes.get(event.phase, 0) + event.num_vertices
        return volumes

    def busiest_pair(self) -> tuple[int, int, int] | None:
        """(src, dst, vertices) of the heaviest rank pair, or None if empty."""
        if not self.events:
            return None
        totals: dict[tuple[int, int], int] = {}
        for event in self.events:
            key = (event.src, event.dst)
            totals[key] = totals.get(key, 0) + event.num_vertices
        (src, dst), volume = max(totals.items(), key=lambda item: item[1])
        return src, dst, volume

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_csv(self, path: str | Path) -> None:
        """Write the trace as CSV (one event per row)."""
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["time", "src", "dst", "num_vertices",
                 "raw_bytes", "encoded_bytes", "phase"]
            )
            for event in self.events:
                writer.writerow(
                    [f"{event.time:.9f}", event.src, event.dst, event.num_vertices,
                     event.raw_bytes, event.encoded_bytes, event.phase]
                )

    def to_json(self, path: str | Path) -> None:
        """Write the trace as a JSON list of event objects."""
        Path(path).write_text(
            json.dumps([asdict(event) for event in self.events], indent=0),
            encoding="utf-8",
        )
