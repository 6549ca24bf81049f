"""The per-run observability bundle carried on result objects.

When a run is observed (``observe="spans"``/``"messages"``/``"full"``),
the drivers attach an :class:`ObservabilityData` to the result: the span
timeline, the captured message events, and one-call exporters for the
Perfetto trace and the metrics registry.  :func:`collect_observability`
is what the drivers call; :func:`export_artifacts` is the shared CLI /
harness path that writes whichever artifact files were requested.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.observability.metrics import MetricsRegistry
from repro.observability.perfetto import to_chrome_trace, write_chrome_trace
from repro.observability.spans import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.comm import Communicator
    from repro.runtime.trace import MessageEvent


@dataclass(slots=True)
class ObservabilityData:
    """Everything the observability layer captured during one run."""

    #: hierarchical span timeline (empty when spans were off)
    spans: list[Span] = field(default_factory=list)
    #: per-wire-message events (empty when message capture was off): a
    #: sequence backed by the trace's column arrays, which builds its
    #: :class:`~repro.runtime.trace.MessageEvent` objects only when read
    messages: "Sequence[MessageEvent]" = field(default_factory=list)
    #: number of virtual ranks (sizes the per-rank Perfetto tracks)
    nranks: int = 0

    def to_chrome_trace(self) -> dict:
        """The combined Perfetto / Chrome trace-event document."""
        return to_chrome_trace(self.spans, self.messages, nranks=self.nranks)

    def write_trace(self, path: str | Path) -> dict:
        """Write the Perfetto JSON to ``path``; returns the document."""
        return write_chrome_trace(path, self.spans, self.messages, nranks=self.nranks)

    def phase_totals(self, kind: str = "sim") -> dict[str, float]:
        """Seconds per phase name over all levels (``sim`` or ``wall``)."""
        if kind not in ("sim", "wall"):
            raise ValueError(f"kind must be 'sim' or 'wall', got {kind!r}")
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.cat == "phase":
                dur = span.sim_duration if kind == "sim" else span.wall_duration
                totals[span.name] = totals.get(span.name, 0.0) + dur
        return totals


def collect_observability(comm: "Communicator") -> ObservabilityData | None:
    """Snapshot a communicator's recorders; None when observability is off."""
    if not comm.observe.active:
        return None
    spans = list(comm.obs.spans)
    messages = comm.obs_trace.events.snapshot() if comm.obs_trace is not None else []
    return ObservabilityData(spans=spans, messages=messages, nranks=comm.nranks)


def export_artifacts(
    result,
    *,
    trace_out: str | Path | None = None,
    metrics_out: str | Path | None = None,
) -> list[Path]:
    """Write the requested artifact files for one result; returns the paths.

    ``trace_out`` gets the Perfetto JSON (requires the run to have been
    observed); ``metrics_out`` gets the unified metrics registry, as JSON
    when the suffix is ``.json`` and CSV otherwise.
    """
    written: list[Path] = []
    if trace_out is not None:
        obs = getattr(result, "observability", None)
        if obs is None:
            raise ValueError(
                "run has no observability data; pass observe='spans'/'full' "
                "(or the --observe CLI flag) to capture a trace"
            )
        obs.write_trace(trace_out)
        written.append(Path(trace_out))
    if metrics_out is not None:
        metrics_out = Path(metrics_out)
        registry = MetricsRegistry.from_result(result)
        if metrics_out.suffix.lower() == ".json":
            registry.to_json(metrics_out)
        else:
            registry.to_csv(metrics_out)
        written.append(metrics_out)
    return written
