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
local hand-offs).  The recorder keeps those arrays as they are
(:class:`MessageLog`); :class:`MessageEvent` objects are built when the
trace is read event by event.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
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


_FIELDS = tuple(f.name for f in fields(MessageEvent))


class MessageLog(Sequence):
    """A message trace held as the rounds' column arrays.

    Reads like a list of :class:`MessageEvent` — ``len``, iteration,
    indexing, ``==`` — but events are only built when something reads
    them one by one: a trace nobody iterates costs one tuple of arrays
    per round, and the analyses below work on the columns.
    """

    __slots__ = ("_rounds", "_size", "_events", "_built")

    def __init__(self, rounds: Sequence[tuple] = ()) -> None:
        #: per round: the six per-chunk columns in field order, then the phase
        self._rounds: list[tuple] = list(rounds)
        self._size = sum(r[0].size for r in self._rounds)
        #: the events of the first ``_built`` rounds
        self._events: list[MessageEvent] = []
        self._built = 0

    def append_round(
        self, time, src, dst, num_vertices, raw_bytes, encoded_bytes, phase: str
    ) -> None:
        """Add one round's chunks (parallel per-chunk arrays, kept as given)."""
        self._rounds.append(
            (time, src, dst, num_vertices, raw_bytes, encoded_bytes, phase)
        )
        self._size += src.size

    def snapshot(self) -> "MessageLog":
        """The trace so far; later rounds do not reach it."""
        return MessageLog(self._rounds)

    def column(self, name: str) -> np.ndarray:
        """One integer field of every message, as an array."""
        parts = [r[_FIELDS.index(name)] for r in self._rounds]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def phase_volumes(self) -> dict[str, int]:
        """Total vertices per phase, phases in order of first appearance."""
        volumes: dict[str, int] = {}
        for r in self._rounds:
            if r[3].size:
                volumes[r[-1]] = volumes.get(r[-1], 0) + int(r[3].sum())
        return volumes

    def rows(self, first_round: int = 0) -> Iterator[tuple]:
        """Every message (from round ``first_round`` on) as a plain tuple
        in :class:`MessageEvent` field order."""
        for *columns, phase in self._rounds[first_round:]:
            for row in zip(*(column.tolist() for column in columns)):
                yield (*row, phase)

    def _all(self) -> list[MessageEvent]:
        self._events.extend(MessageEvent(*row) for row in self.rows(self._built))
        self._built = len(self._rounds)
        return self._events

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self) -> Iterator[MessageEvent]:
        return iter(self._all())

    def __eq__(self, other) -> bool:
        if isinstance(other, MessageLog):
            other = other._all()
        if isinstance(other, list):
            return self._all() == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"MessageLog({self._size} messages in {len(self._rounds)} rounds)"


class TraceRecorder:
    """Captures every wire message passing through one communicator.

    :meth:`install` registers the recorder with the communicator, whose
    message round then calls :meth:`record_round`; detach with
    :meth:`uninstall`.  Usable as a context manager.
    """

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm
        self.events = MessageLog()

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
        """Append a round's chunks (parallel per-chunk arrays).  ``src`` and
        ``dst`` are the caller's own arrays, so they are copied."""
        self.events.append_round(
            time, src.copy(), dst.copy(), num_vertices, raw_bytes, encoded_bytes, phase
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
        np.add.at(out, self.events.column("src"), self.events.column("num_vertices"))
        return out

    def per_phase_volume(self) -> dict[str, int]:
        """Total vertices on the wire per phase."""
        return self.events.phase_volumes()

    def busiest_pair(self) -> tuple[int, int, int] | None:
        """(src, dst, vertices) of the heaviest rank pair, or None if empty.
        Of equally heavy pairs, the one that appears first in the trace."""
        events, nranks = self.events, self.comm.nranks
        if not events:
            return None
        pairs, first, inverse = np.unique(
            events.column("src") * nranks + events.column("dst"),
            return_index=True, return_inverse=True,
        )
        totals = np.zeros(pairs.size, dtype=np.int64)
        np.add.at(totals, inverse, events.column("num_vertices"))
        heaviest = np.flatnonzero(totals == totals.max())
        k = heaviest[np.argmin(first[heaviest])]
        return int(pairs[k] // nranks), int(pairs[k] % nranks), int(totals[k])

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_csv(self, path: str | Path) -> None:
        """Write the trace as CSV (one event per row)."""
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_FIELDS)
            for time, *rest in self.events.rows():
                writer.writerow([f"{time:.9f}", *rest])

    def to_json(self, path: str | Path) -> None:
        """Write the trace as a JSON list of event objects."""
        Path(path).write_text(
            json.dumps([dict(zip(_FIELDS, row)) for row in self.events.rows()], indent=0),
            encoding="utf-8",
        )
