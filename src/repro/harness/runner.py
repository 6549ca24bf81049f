"""The one runner: a run description in, rows in one flat schema out.

A :class:`Run` names a cell of a sweep — a graph on a grid on one
:class:`~repro.types.SystemSpec`, searched from explicit ``(source,
target)`` pairs.  :func:`execute` builds the cell's
:class:`~repro.session.BfsSession` once (one partition, one task mapping,
one engine) and runs every search through it; each search still gets a
fresh communicator, so per-search times are bit-equal to a fresh engine
per search.  :meth:`Outcome.row` flattens the outcome into the schema
every figure, CSV and JSON export shares; the system columns are read from
the *resolved* spec, so a row always describes the system that ran.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import stdtrit

from repro.bfs.options import BfsOptions
from repro.bfs.result import BfsResult
from repro.collectives.two_phase import subgrid_shape
from repro.faults import FAULT_PRESETS
from repro.graph.csr import CsrGraph
from repro.graph.generators import build_graph
from repro.observability import OBSERVE_PRESETS, ObserveSpec
from repro.session import BfsSession
from repro.types import GraphSpec, GridShape, SystemSpec
from repro.utils.rng import RngFactory

#: the paper's BlueGene/L configuration: two-phase grouped-ring collectives
#: (Figures 2-3) with the sent-neighbours cache; the fold's phase-1 rings
#: apply the set-union reduction.
PAPER_OPTS = BfsOptions(expand_collective="two-phase", fold_collective="two-phase")

Pair = tuple[int, int | None]


def square_grid(p: int) -> GridShape:
    """Most-square ``R x C`` mesh for ``p`` ranks."""
    return GridShape(*subgrid_shape(p))


def draw_pairs(spec: GraphSpec, stream: str, count: int) -> list[tuple[int, int]]:
    """``count`` random s-t pairs (``s != t``) from the named stream of ``spec.seed``."""
    rng = RngFactory(spec.seed).named(stream)
    pairs = []
    for _ in range(count):
        source = int(rng.integers(spec.n))
        target = int(rng.integers(spec.n))
        while target == source and spec.n > 1:
            target = int(rng.integers(spec.n))
        pairs.append((source, target))
    return pairs


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95 % confidence half-width (Student t; 0 for a single value)."""
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    spread = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    return mean, float(stdtrit(len(values) - 1, 0.975)) * spread


@dataclass(frozen=True, slots=True)
class Run:
    """One cell: a graph on a grid on a system, and the searches to run on it.

    ``system`` is the only description of machine / mapping / layout /
    wire / faults / observe; ``opts`` holds the engine's switches (the
    sieve among them).  ``pairs`` are the searches (a
    ``None`` target traverses the whole component); a row's ``searches``
    is their count and its ``seed`` is ``graph.seed``.
    """

    name: str
    graph: GraphSpec
    grid: GridShape
    system: SystemSpec | str | None = None
    opts: BfsOptions = field(default_factory=BfsOptions)
    pairs: tuple[Pair, ...] = ((0, None),)


def _label(value: object) -> str:
    return value if isinstance(value, str) else getattr(value, "name", type(value).__name__)


def _preset_name(presets: dict, value: object, default: str) -> str:
    return next((name for name, preset in presets.items() if preset == value), default)


@dataclass(slots=True)
class Outcome:
    """What one :class:`Run` produced: its session and one result per search."""

    run: Run
    session: BfsSession
    results: list[BfsResult]

    def row(self) -> dict[str, object]:
        """The flat row: graph, grid, resolved system, options, means with CIs."""
        graph, grid, runs = self.run.graph, self.run.grid, self.results
        system, opts = self.session.system, self.session.opts
        row: dict[str, object] = {
            "name": self.run.name,
            "n": graph.n,
            "k": graph.k,
            "seed": graph.seed,
            "kind": graph.kind,
            "scale": graph.scale if graph.scale is not None else "",
            "edge_factor": graph.edge_factor,
            "rows": grid.rows,
            "cols": grid.cols,
            "p": grid.size,
            "layout": system.layout,
            "machine": _label(system.machine),
            "mapping": _label(system.mapping),
            "wire": _label(system.wire),
            "observe": _preset_name(OBSERVE_PRESETS, ObserveSpec.parse(system.observe), "off"),
            "sieve": opts.use_sieve,
            "faults": "none" if system.faults is None
            else _preset_name(FAULT_PRESETS, system.faults, "custom"),
            "expand": opts.expand_collective,
            "fold": opts.fold_collective,
            "direction": opts.direction.mode,
            "searches": len(runs),
        }
        means = {
            "mean_time_s": [r.elapsed for r in runs],
            "mean_comm_s": [r.comm_time for r in runs],
            "mean_compute_s": [r.compute_time for r in runs],
            "expand_msg_len": [
                r.stats.mean_message_length_per_level("expand", grid.size) for r in runs
            ],
            "fold_msg_len": [
                r.stats.mean_message_length_per_level("fold", grid.size) for r in runs
            ],
            "redundancy": [r.stats.redundancy_ratio for r in runs],
            "wire_bytes": [r.stats.total_encoded_bytes for r in runs],
            "compression": [r.stats.compression_ratio for r in runs],
            "edges_scanned": [r.stats.total_edges_scanned for r in runs],
        }
        for key, values in means.items():
            row[key], row[f"{key}_ci"] = mean_ci(values)
        row["bottom_up_levels"] = sum(
            r.stats.direction_counts().get("bottom-up", 0) for r in runs
        )
        reports = [r.faults for r in runs if r.faults is not None]
        row["crashes"] = sum(f.crashes for f in reports)
        row["failovers"] = sum(f.failovers for f in reports)
        row["replayed_levels"] = sum(f.replayed_levels for f in reports)
        row["checkpoint_bytes"] = sum(f.checkpoint_bytes for f in reports)
        return row


def execute(run: Run, graph: CsrGraph | None = None) -> Outcome:
    """Build the cell's session once and run every search of ``run`` through it.

    ``graph`` supplies an already-built instance of ``run.graph`` (a sweep
    sharing one graph across grids, or a variant of it such as Figure 6's
    appended unreachable target).
    """
    session = BfsSession(
        graph if graph is not None else build_graph(run.graph),
        run.grid, opts=run.opts, system=run.system,
    )
    return Outcome(run, session, [session.bfs(s, t) for s, t in run.pairs])


def write_csv(rows: list[dict[str, object]], path: str | Path) -> None:
    """Write one CSV line per row (columns from the first row)."""
    if not rows:
        raise ValueError("nothing to export: empty row list")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_json(rows: list[dict[str, object]], path: str | Path) -> None:
    """Write the rows as a JSON array."""
    Path(path).write_text(json.dumps(rows, indent=2), encoding="utf-8")
