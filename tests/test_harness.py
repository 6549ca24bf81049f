"""Tests for the reproduction harness: the runner, sweeps over it, reports."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bfs.options import BfsOptions
from repro.harness.report import format_series, format_table
from repro.harness.runner import Run, draw_pairs, execute
from repro.types import GraphSpec, GridShape


def tiny_run(**overrides) -> Run:
    graph = GraphSpec(n=200, k=6, seed=1)
    defaults = dict(
        name="tiny", graph=graph, grid=GridShape(2, 2),
        pairs=tuple(draw_pairs(graph, "tiny", 2)),
    )
    defaults.update(overrides)
    return Run(**defaults)


class TestRunExperiment:
    def test_basic_run(self):
        outcome = execute(tiny_run())
        row = outcome.row()
        assert len(outcome.results) == row["searches"] == 2
        assert row["mean_time_s"] > 0
        assert row["mean_comm_s"] >= 0
        assert row["mean_compute_s"] > 0
        assert row["mean_time_s_ci"] > 0 and row["seed"] == 1

    def test_deterministic(self):
        a = execute(tiny_run()).row()
        b = execute(tiny_run()).row()
        assert a == b

    def test_pinned_source_target(self):
        result = execute(tiny_run(pairs=((0, 5),))).results[0]
        assert result.source == 0
        assert result.target == 5

    def test_pinned_source_full_search(self):
        outcome = execute(tiny_run(pairs=((3, None),)))
        assert outcome.results[0].target is None
        assert outcome.row()["mean_time_s_ci"] == 0.0  # one search: no spread

    def test_1d_layout(self):
        row = execute(tiny_run(grid=GridShape(4, 1), system="bluegene-1d")).row()
        assert row["mean_time_s"] > 0 and row["layout"] == "1d"

    def test_redundancy_metric(self):
        row = execute(tiny_run(opts=BfsOptions(fold_collective="union-ring"))).row()
        assert 0.0 <= row["redundancy"] < 1.0


class TestSweep:
    """A sweep is a comprehension over ``dataclasses.replace`` of one Run."""

    def test_graph_overrides(self):
        base = tiny_run(pairs=((0, None),))
        rows = [
            execute(replace(base, graph=replace(base.graph, n=n))).row() for n in (100, 300)
        ]
        assert [r["n"] for r in rows] == [100, 300]
        assert rows[0]["k"] == 6  # untouched

    def test_field_overrides(self):
        row = execute(replace(tiny_run(), grid=GridShape(1, 4), system="bluegene-1d")).row()
        assert (row["rows"], row["cols"], row["layout"]) == (1, 4, "1d")

    def test_names(self):
        assert execute(replace(tiny_run(), name="a")).row()["name"] == "a"


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["P", "time"], [[1, 0.5], [128, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("P")
        assert "128" in lines[3]

    def test_format_table_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        text = format_series("2-D (k=10)", [0, 1], [5, 10])
        assert text == "2-D (k=10): (0, 5), (1, 10)"

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], [1])

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000012], [123456.0], [1.5], [0]])
        assert "1.200e-05" in text
        assert "1.235e+05" in text
