"""Tests for the observability layer: spans, Perfetto export, metrics, digests."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.api import build_communicator, distributed_bfs
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.graph.generators import poisson_random_graph
from repro.harness.runner import Run, execute
from repro.observability import (
    NULL_RECORDER,
    OBSERVE_PRESETS,
    MetricsRegistry,
    NullRecorder,
    ObservabilityData,
    ObserveSpec,
    SpanRecorder,
    export_artifacts,
    levels_digest,
    result_digests,
    to_chrome_trace,
    trace_digest,
    validate_chrome_trace,
)
from repro.runtime.trace import MessageEvent, TraceRecorder
from repro.session import BfsSession
from repro.types import SYSTEM_PRESETS, GraphSpec, GridShape, SystemSpec, resolve_system

#: The cross-version reference workload (ROADMAP / CI determinism job).
REFERENCE = GraphSpec(n=20_000, k=8.0, seed=7)


@pytest.fixture(scope="module")
def reference_observed():
    """One fully observed run of the reference workload."""
    graph = poisson_random_graph(REFERENCE)
    return distributed_bfs(graph, (4, 4), 0, observe="full")


@pytest.fixture(scope="module")
def small_observed():
    """A fully observed run over a small graph (fast per-test reuse)."""
    graph = poisson_random_graph(GraphSpec(n=400, k=8, seed=11))
    return distributed_bfs(graph, (2, 2), 0, observe="full")


class TestObserveSpec:
    def test_presets(self):
        assert ObserveSpec.parse("off") == ObserveSpec()
        assert ObserveSpec.parse("spans") == ObserveSpec(spans=True)
        assert ObserveSpec.parse("messages") == ObserveSpec(messages=True)
        assert ObserveSpec.parse("full") == ObserveSpec(spans=True, messages=True)
        assert set(OBSERVE_PRESETS) == {"off", "spans", "messages", "full"}

    def test_none_is_off(self):
        spec = ObserveSpec.parse(None)
        assert not spec.active

    def test_spec_passthrough(self):
        spec = ObserveSpec(spans=True)
        assert ObserveSpec.parse(spec) is spec

    def test_duck_typed(self):
        class Custom:
            spans = True
            messages = False

        spec = ObserveSpec.parse(Custom())
        assert spec == ObserveSpec(spans=True)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            ObserveSpec.parse("verbose")

    def test_bad_object_rejected(self):
        with pytest.raises(ConfigurationError):
            ObserveSpec.parse(42)

    def test_active(self):
        assert not ObserveSpec().active
        assert ObserveSpec(spans=True).active
        assert ObserveSpec(messages=True).active


class _FakeClock:
    def __init__(self):
        self.elapsed = 0.0


class TestSpanRecorder:
    def test_hierarchy(self):
        clock = _FakeClock()
        rec = SpanRecorder(clock)
        run = rec.begin("bfs", cat="run")
        clock.elapsed = 1.0
        level = rec.begin("level 0", cat="level", level=0)
        phase = rec.begin("expand", cat="phase")
        clock.elapsed = 2.0
        rec.end(phase)
        rec.end(level, frontier=7)
        rec.end(run)
        assert run.parent == -1
        assert level.parent == run.sid
        assert phase.parent == level.sid
        assert rec.children_of(run) == [level]
        assert level.args == {"level": 0, "frontier": 7}
        assert phase.sim_begin == 1.0 and phase.sim_end == 2.0
        assert phase.sim_duration == 1.0
        assert phase.wall_duration >= 0.0

    def test_end_pops_forgotten_children(self):
        rec = SpanRecorder(_FakeClock())
        outer = rec.begin("outer", cat="level")
        rec.begin("inner", cat="phase")
        rec.end(outer)
        after = rec.begin("next", cat="level")
        assert after.parent == -1

    def test_context_manager(self):
        rec = SpanRecorder(_FakeClock())
        with rec.span("expand", cat="phase") as span:
            pass
        assert rec.spans == [span]

    def test_phase_totals(self):
        clock = _FakeClock()
        rec = SpanRecorder(clock)
        for dt in (1.0, 2.0):
            span = rec.begin("expand")
            clock.elapsed += dt
            rec.end(span)
        assert rec.phase_totals() == {"expand": 3.0}
        assert rec.phase_totals("wall")["expand"] >= 0.0
        with pytest.raises(ValueError):
            rec.phase_totals("cpu")

    def test_by_cat(self):
        rec = SpanRecorder(_FakeClock())
        rec.end(rec.begin("a", cat="round"))
        rec.end(rec.begin("b", cat="phase"))
        assert [s.name for s in rec.by_cat("round")] == ["a"]


class TestNullRecorder:
    def test_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert SpanRecorder.enabled is True

    def test_noops(self):
        rec = NullRecorder()
        assert rec.begin("x") is None
        assert rec.end(None) is None
        assert rec.spans == ()
        assert rec.by_cat("phase") == []
        assert rec.phase_totals() == {}

    def test_shared_handle(self):
        with NULL_RECORDER.span("x") as span:
            assert span is None
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")


class TestEngineSpans:
    def test_span_tree(self, small_observed):
        obs = small_observed.observability
        runs = [s for s in obs.spans if s.cat == "run"]
        levels = [s for s in obs.spans if s.cat == "level"]
        phases = [s for s in obs.spans if s.cat == "phase"]
        rounds = [s for s in obs.spans if s.cat == "round"]
        exchanges = [s for s in obs.spans if s.cat == "exchange"]
        assert len(runs) == 1
        assert len(levels) == small_observed.num_levels
        assert runs[0].args["levels"] == small_observed.num_levels
        by_sid = {s.sid: s for s in obs.spans}
        assert all(s.parent == runs[0].sid for s in levels)
        # phases nest under their level, or under an enclosing phase
        # (e.g. the union inside a fold)
        assert all(by_sid[s.parent].cat in ("level", "phase") for s in phases)
        assert phases and rounds and exchanges
        assert {s.name for s in phases} <= {
            "expand", "fold", "union", "compute", "fault-recovery"
        }

    def test_level_spans_carry_frontier(self, small_observed):
        levels = [s for s in small_observed.observability.spans if s.cat == "level"]
        frontiers = [s.args["frontier"] for s in levels]
        # every level but the last labels at least one vertex
        assert all(f > 0 for f in frontiers[:-1]) and frontiers[-1] == 0

    def test_1d_engine_spans(self, small_graph):
        result = distributed_bfs(
            small_graph, (4, 1), 0, system="bluegene-1d", observe="spans"
        )
        names = {s.name for s in result.observability.spans if s.cat == "phase"}
        assert {"compute", "fold"} <= names
        assert result.observability.messages == []

    def test_phase_totals_bounded_by_elapsed(self, small_observed):
        totals = small_observed.observability.phase_totals("sim")
        assert sum(totals.values()) <= small_observed.elapsed * (
            1 + 1e-9
        ) * len(totals)

    def test_observation_does_not_change_simulation(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        observed = distributed_bfs(small_graph, (2, 2), 0, observe="full")
        assert plain.observability is None
        assert plain.elapsed == observed.elapsed
        assert np.array_equal(plain.levels, observed.levels)
        assert plain.stats.total_messages == observed.stats.total_messages

    def test_bidirectional_observed(self, small_graph):
        from repro.api import bidirectional_bfs

        result = bidirectional_bfs(small_graph, (2, 2), 0, 5, observe="full")
        obs = result.observability
        assert obs is not None and obs.messages
        runs = [s for s in obs.spans if s.cat == "run"]
        assert len(runs) == 1 and runs[0].name == "bidirectional bfs"
        assert runs[0].args["path_length"] == result.path_length

    def test_messages_match_stats(self, small_observed):
        obs = small_observed.observability
        assert len(obs.messages) == small_observed.stats.total_messages
        total = sum(e.num_vertices for e in obs.messages)
        assert total == small_observed.stats.total_processed


class TestColumnarMessages:
    """The message trace is column arrays; events exist once read."""

    def test_unread_trace_builds_no_events(self, monkeypatch):
        built = []

        class Counted(MessageEvent):
            __slots__ = ()

            def __init__(self, *args) -> None:
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr("repro.runtime.trace.MessageEvent", Counted)
        graph = poisson_random_graph(GraphSpec(n=400, k=8, seed=11))
        result = distributed_bfs(graph, (2, 2), 0, observe="messages")
        messages = result.observability.messages
        assert len(messages) == result.stats.total_messages > 0
        assert messages and not built
        assert sum(e.num_vertices for e in messages) == result.stats.total_processed
        assert len(built) == len(messages)
        # read again: the same objects, none rebuilt
        assert messages[0] is next(iter(messages)) and messages[-1] is messages[len(messages) - 1]
        assert len(built) == len(messages)

    def test_reads_like_a_list(self, small_observed):
        messages = small_observed.observability.messages
        events = list(messages)
        assert messages == events and events == list(messages.snapshot())
        assert messages != events[:-1] and messages != events[::-1]
        assert messages[3] == events[3] and messages[2:5] == events[2:5]
        assert all(isinstance(e, MessageEvent) for e in events)
        assert trace_digest(messages) == trace_digest(events)

    def test_snapshot_does_not_grow(self):
        comm = build_communicator(GridShape(1, 2), observe="messages")
        one = np.array([0]), np.array([1]), np.arange(3), np.array([0]), np.array([3])
        comm.exchange_arrays(*one, "fold")
        taken = comm.obs_trace.events.snapshot()
        comm.exchange_arrays(*one, "expand")
        assert len(taken) == 1 and len(comm.obs_trace.events) == 2
        assert [e.phase for e in comm.obs_trace.events] == ["fold", "expand"]

    def test_helpers_equal_the_event_loops(self, tmp_path):
        """Analyses and exports computed from the columns say what the
        loops over event objects said — ties between pairs included."""
        comm = build_communicator(GridShape(2, 2))
        trace = TraceRecorder(comm).install()
        rng = np.random.default_rng(4)
        for phase in ("expand", "fold", "expand"):
            # equal sizes: the busiest pair is a tie, broken by appearance
            pairs = rng.permutation(16)[:9]
            bounds = np.arange(0, 50, 5)
            comm.exchange_arrays(
                pairs // 4, pairs % 4, np.arange(45), bounds[:-1], bounds[1:], phase
            )
        events = list(trace.events)
        sent = np.zeros(4, dtype=np.int64)
        volumes: dict[str, int] = {}
        totals: dict[tuple[int, int], int] = {}
        for e in events:
            sent[e.src] += e.num_vertices
            volumes[e.phase] = volumes.get(e.phase, 0) + e.num_vertices
            totals[(e.src, e.dst)] = totals.get((e.src, e.dst), 0) + e.num_vertices
        (src, dst), volume = max(totals.items(), key=lambda item: item[1])
        assert trace.per_rank_sent().tolist() == sent.tolist()
        assert list(trace.per_phase_volume().items()) == list(volumes.items())
        assert trace.busiest_pair() == (src, dst, volume)
        assert sorted(totals.values())[-2] == volume  # it was a tie
        trace.to_csv(tmp_path / "t.csv")
        trace.to_json(tmp_path / "t.json")
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            f"{e.time:.9f},{e.src},{e.dst},{e.num_vertices},{e.raw_bytes},"
            f"{e.encoded_bytes},{e.phase}"
            for e in events
        ]
        assert (tmp_path / "t.json").read_text() == json.dumps(
            [asdict(e) for e in events], indent=0
        )


class TestPerfettoExport:
    def test_reference_workload_validates(self, reference_observed):
        doc = reference_observed.observability.to_chrome_trace()
        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        # one named track per rank that actually sent or received a message
        messages = reference_observed.observability.messages
        touched = {e.src for e in messages} | {e.dst for e in messages}
        thread_names = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        rank_tracks = {e["tid"] for e in thread_names if e["pid"] == 1}
        assert rank_tracks == touched
        # the 4x4 reference run exercises every rank
        assert len(rank_tracks) == 16
        slices = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(slices) == len(reference_observed.observability.spans)
        assert len(instants) == len(reference_observed.observability.messages)
        assert all("wall_us" in e["args"] for e in slices)

    def test_flow_events_pair_up(self, small_observed):
        doc = small_observed.observability.to_chrome_trace()
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        cross_rank = [e for e in small_observed.observability.messages
                      if e.src != e.dst]
        assert len(starts) == len(cross_rank)

    def test_empty_trace_validates(self):
        doc = to_chrome_trace()
        validate_chrome_trace(doc)
        assert doc["traceEvents"] == []

    def test_spans_only_trace_validates(self):
        rec = SpanRecorder(_FakeClock())
        rec.end(rec.begin("bfs", cat="run"))
        doc = to_chrome_trace(rec.spans)
        validate_chrome_trace(doc)
        assert [e["ph"] for e in doc["traceEvents"]].count("X") == 1

    def test_self_send_only_trace(self):
        events = [MessageEvent(0.5, 2, 2, 10, 40, 40, "fold")]
        doc = to_chrome_trace((), events)
        validate_chrome_trace(doc)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "i" in phases  # the instant is kept
        assert "s" not in phases and "f" not in phases  # no arrow to itself

    def test_idle_ranks_get_no_track(self):
        events = [MessageEvent(0.5, 3, 7, 10, 40, 40, "expand")]
        doc = to_chrome_trace((), events, nranks=4096)
        validate_chrome_trace(doc)
        tracks = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        }
        assert tracks == {3, 7}

    def test_write_trace(self, small_observed, tmp_path):
        path = tmp_path / "trace.json"
        small_observed.observability.write_trace(path)
        validate_chrome_trace(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "doc",
        [
            {"events": []},
            {"traceEvents": {}},
            {"traceEvents": [{"name": "x", "pid": 0, "tid": 0}]},
            {"traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1.0, "dur": 0}
            ]},
            {"traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0}
            ]},
            {"traceEvents": [
                {"name": "x", "ph": "s", "pid": 0, "tid": 0, "ts": 0.0, "id": 1}
            ]},
        ],
        ids=["no-array", "non-list", "no-ph", "neg-ts", "no-dur", "unmatched-flow"],
    )
    def test_invalid_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            validate_chrome_trace(doc)


class TestMetricsRegistry:
    def test_from_result_matches_stats(self, small_observed):
        reg = MetricsRegistry.from_result(small_observed)
        stats = small_observed.stats
        assert reg.value("bfs_messages_total") == stats.total_messages
        assert reg.value("bfs_bytes_total", kind="raw") == stats.total_bytes
        assert reg.value("bfs_bytes_total", kind="encoded") == stats.total_encoded_bytes
        assert reg.value("bfs_levels_total") == len(stats.levels)
        assert reg.value("bfs_seconds_total", bucket="total") == small_observed.elapsed
        # per-level samples sum to the totals
        per_level = sum(
            reg.value("bfs_level_messages", level=s.level) for s in stats.levels
        )
        assert per_level == stats.total_messages

    def test_fault_samples(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, faults="mild")
        reg = MetricsRegistry.from_result(result)
        assert "bfs_fault_injected_total" in reg.names()
        assert reg.value("bfs_fault_injected_total") == result.faults.injected

    def test_value_sums_matching_labels(self):
        reg = MetricsRegistry()
        reg.record("m", 1.0, level=0)
        reg.record("m", 2.0, level=1)
        assert reg.value("m") == 3.0
        assert reg.value("m", level=1) == 2.0

    def test_csv_json_round_trip_schema_equality(self, small_observed, tmp_path):
        reg = MetricsRegistry.from_result(small_observed)
        csv_path = tmp_path / "metrics.csv"
        json_path = tmp_path / "metrics.json"
        reg.to_csv(csv_path)
        reg.to_json(json_path)
        from_csv = MetricsRegistry.read_csv(csv_path)
        from_json = MetricsRegistry.read_json(json_path)
        # identical schema AND identical values through both formats
        assert from_csv.rows() == from_json.rows() == reg.rows()
        assert from_csv.samples == from_json.samples == reg.samples

    def test_round_trip_empty(self, tmp_path):
        reg = MetricsRegistry()
        reg.to_csv(tmp_path / "m.csv")
        reg.to_json(tmp_path / "m.json")
        assert MetricsRegistry.read_csv(tmp_path / "m.csv").samples == []
        assert MetricsRegistry.read_json(tmp_path / "m.json").samples == []


class TestDigests:
    def test_repeat_runs_identical(self, small_graph):
        a = distributed_bfs(small_graph, (2, 2), 0, observe="full")
        b = distributed_bfs(small_graph, (2, 2), 0, observe="full")
        # wall clocks differ between the runs; digests must not see them
        assert result_digests(a) == result_digests(b)

    def test_trace_key_requires_messages(self, small_graph):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        observed = distributed_bfs(small_graph, (2, 2), 0, observe="full")
        assert "trace" not in result_digests(plain)
        assert "trace" in result_digests(observed)

    def test_different_runs_differ(self, small_graph, sparse_graph):
        a = result_digests(distributed_bfs(small_graph, (2, 2), 0))
        b = result_digests(distributed_bfs(sparse_graph, (2, 2), 0))
        assert a["levels"] != b["levels"]
        assert a["combined"] != b["combined"]

    def test_levels_digest_sensitivity(self):
        base = np.array([0, 1, 2, -1], dtype=np.int32)
        tweaked = base.copy()
        tweaked[3] = 3
        assert levels_digest(base) != levels_digest(tweaked)
        assert levels_digest(base) == levels_digest(base.copy())


class TestSystemSpecObserve:
    def test_axis_validation(self):
        assert SystemSpec(observe="full").observe == "full"
        with pytest.raises(ConfigurationError):
            SystemSpec(observe="everything")
        with pytest.raises(ConfigurationError):
            SystemSpec(observe=3.5)

    def test_axis_accepts_spec_object(self):
        spec = SystemSpec(observe=ObserveSpec(spans=True))
        assert spec.observe.spans is True

    def test_resolve_override(self):
        spec = resolve_system("bluegene-2d", observe="spans")
        assert spec.observe == "spans"
        assert resolve_system("bluegene-2d").observe == "off"

    def test_observed_preset(self):
        assert SYSTEM_PRESETS["bluegene-2d-observed"].observe == "full"

    def test_build_communicator_observe(self):
        comm = build_communicator(GridShape(2, 2), observe="spans")
        assert comm.observe == ObserveSpec(spans=True)
        assert comm.obs.enabled and comm.obs_trace is None
        plain = build_communicator(GridShape(2, 2))
        assert plain.obs is NULL_RECORDER and plain.obs_trace is None

    def test_session_observe(self, small_graph):
        session = BfsSession(small_graph, (2, 2), observe="spans")
        result = session.bfs(0)
        assert result.observability is not None
        assert result.observability.spans and not result.observability.messages

    def test_experiment_observe_column(self):
        run = Run(
            "obs", GraphSpec(n=150, k=5, seed=1), GridShape(2, 2),
            system=SystemSpec(observe="spans"),
        )
        outcome = execute(run)
        assert outcome.results[0].observability is not None
        assert outcome.row()["observe"] == "spans"


class TestArtifacts:
    def test_export_artifacts(self, small_observed, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        written = export_artifacts(
            small_observed, trace_out=trace, metrics_out=metrics
        )
        assert written == [trace, metrics]
        validate_chrome_trace(json.loads(trace.read_text()))
        assert MetricsRegistry.read_json(metrics).samples

    def test_trace_requires_observed_run(self, small_graph, tmp_path):
        plain = distributed_bfs(small_graph, (2, 2), 0)
        with pytest.raises(ValueError):
            export_artifacts(plain, trace_out=tmp_path / "t.json")
        # metrics need no observability
        export_artifacts(plain, metrics_out=tmp_path / "m.csv")
        assert (tmp_path / "m.csv").exists()

    def test_observability_data_defaults(self):
        data = ObservabilityData()
        validate_chrome_trace(data.to_chrome_trace())
        assert data.phase_totals() == {}


class TestCli:
    def test_bfs_writes_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.csv"
        code = cli_main([
            "bfs", "--n", "300", "--k", "6", "--seed", "2", "--grid", "2x2",
            "--source", "0", "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        validate_chrome_trace(json.loads(trace.read_text()))
        assert MetricsRegistry.read_csv(metrics).value("bfs_messages_total") > 0
        assert str(trace) in capsys.readouterr().out

    def test_bidir_observe(self, tmp_path):
        trace = tmp_path / "trace.json"
        code = cli_main([
            "bidir", "--n", "300", "--k", "6", "--seed", "2", "--grid", "2x2",
            "--source", "0", "--target", "5", "--trace-out", str(trace),
        ])
        assert code == 0
        validate_chrome_trace(json.loads(trace.read_text()))

    def test_digest_subcommand_deterministic(self, capsys):
        argv = ["digest", "--n", "300", "--k", "6", "--seed", "2",
                "--grid", "2x2", "--observe", "full"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first
        lines = dict(line.split() for line in first.strip().splitlines())
        assert set(lines) == {"levels", "stats", "clock", "trace", "combined"}
        assert all(len(d) == 64 for d in lines.values())
