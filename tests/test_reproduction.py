"""The reproduction table: pinned rows, honest system columns, one partition per cell."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from repro.bfs.options import BfsOptions
from repro.harness import views
from repro.harness.figures import FIGURES
from repro.harness.runner import Run, execute
from repro.partition.two_d import TwoDPartition
from repro.types import SYSTEM_PRESETS, GraphSpec, GridShape, resolve_system

PINNED = json.loads((Path(__file__).parent / "data" / "reproduction_rows.json").read_text())


@pytest.fixture(scope="module")
def quick_rows():
    return {fig.id: fig.rows("quick") for fig in FIGURES.values()}


class TestTable:
    def test_every_entry_has_both_tiers_and_a_status(self):
        for fig in FIGURES.values():
            assert set(fig.points) == {"quick", "full"}, fig.id
            assert fig.status in {"executed", "scaled-down", "analytic-only"}, fig.id
            assert f"{fig.id}/quick" in PINNED and f"{fig.id}/full" in PINNED, fig.id

    def test_claim_ids_are_unique_and_tiered(self):
        claims = [claim for fig in FIGURES.values() for claim in fig.claims]
        assert len({claim.id for claim in claims}) == len(claims)
        assert all(set(claim.tiers) <= {"quick", "full"} and claim.tiers for claim in claims)
        # the scorecard is the 23 quick claims (nine on the paper's figures and
        # analytic checks, 14 on the codec, sieve, direction, fault and chaos
        # entries); every figure is asserted at full
        assert sum("quick" in claim.tiers for claim in claims) == 23
        assert all(any("full" in c.tiers for c in fig.claims) for fig in FIGURES.values())

    def test_results_dir_is_the_quick_tier_of_every_entry(self):
        """``results/`` is ``repro-bfs reproduce --out results/``: three files per id,
        and nothing no entry regenerates."""
        results = Path(__file__).resolve().parent.parent / "results"
        assert {path.name for path in results.iterdir()} == {
            f"{name}{suffix}" for name in FIGURES for suffix in (".txt", ".csv", ".vl.json")
        }

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_quick_rows_match_parent(self, name, quick_rows):
        """Bit for bit the pinned rows: what the figure functions and scripts each entry
        replaced produced before they were deleted."""
        pinned = PINNED[f"{name}/quick"]
        assert views.pin_rows(quick_rows[name], pinned) == pinned

    def test_executed_rows_carry_seed_searches_and_cis(self, quick_rows):
        for name, rows in quick_rows.items():
            if FIGURES[name].status == "analytic-only":
                continue
            for row in rows:
                assert "seed" in row, name
                if "mean_time_s" in row:
                    assert (row["mean_time_s_ci"] > 0) == (row["searches"] > 1), name
                    assert all(f"{key}_ci" in row for key in ("mean_comm_s", "redundancy")), name


class TestSystemColumns:
    @pytest.mark.parametrize("preset", sorted(SYSTEM_PRESETS))
    def test_row_describes_the_system_that_ran(self, preset):
        """``bluegene-1d`` used to export the 2d layout, ``mcr-2d`` the bluegene machine."""
        spec = SYSTEM_PRESETS[preset]
        grid = GridShape(4, 1) if spec.layout == "1d" else GridShape(2, 2)
        outcome = execute(Run(preset, GraphSpec(n=120, k=5, seed=1), grid, system=preset))
        row = outcome.row()
        assert outcome.session.system == spec
        assert row["layout"] == spec.layout
        assert row["machine"] == spec.machine
        assert row["mapping"] == spec.mapping
        assert row["wire"] == spec.wire
        assert row["observe"] == spec.observe
        assert row["sieve"] is False
        assert row["faults"] == "none"

    def test_sieve_column_reads_the_options(self):
        """The sieve is an engine switch: the row reports ``opts.use_sieve``."""
        run = Run("s", GraphSpec(n=120, k=5, seed=1), GridShape(2, 2),
                  opts=BfsOptions(use_sieve=True))
        assert execute(run).row()["sieve"] is True

    def test_faults_column_names_the_preset(self):
        run = Run("f", GraphSpec(n=120, k=5, seed=1), GridShape(2, 2),
                  system=resolve_system(faults="mild"))
        assert execute(run).row()["faults"] == "mild"


class TestOnePartitionPerCell:
    def test_table1_partitions_once_per_grid(self, monkeypatch):
        """Three searches on each of four grids of one graph: four partitions."""
        built = []
        init = TwoDPartition.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TwoDPartition, "__init__", counting)
        grids = [(2, 4), (4, 2), (8, 1), (1, 8)]
        rows = FIGURES["table1"].sweep(dict(grids=grids, blocks=[(100, 8.0)], searches=3), 0)
        assert [row["searches"] for row in rows] == [3] * 4
        assert len(built) == len(grids)


class TestViews:
    def test_write_figure_emits_text_csv_and_vega_lite(self, tmp_path):
        fig = FIGURES["fig4c"]
        rows = views.write_figure(fig, tmp_path)
        text = (tmp_path / "fig4c.txt").read_text()
        assert text.splitlines()[0] == (
            "fig4c: Fig 4.c bi-directional vs uni-directional search "
            "[scaled-down; tier quick; seed 0]"
        )
        with (tmp_path / "fig4c.csv").open() as fh:
            exported = list(csv.DictReader(fh))
        assert [float(r["bi_s"]) for r in exported] == [r["bi_s"] for r in rows]
        assert {"seed", "searches", "mean_time_s_ci", "layout", "machine"} <= set(exported[0])
        spec = json.loads((tmp_path / "fig4c.vl.json").read_text())
        assert spec["$schema"].endswith("vega-lite/v5.json")
        assert spec["data"]["values"] == json.loads(json.dumps(rows))
        assert spec["spec"]["encoding"]["x"]["field"] == "p"
        assert spec["repeat"] == ["mean_time_s", "bi_s", "bi_over_uni"]

    def test_failed_claim_is_reported_not_raised(self):
        fig = FIGURES["fig4a-p256"]
        rows = fig.rows("quick")  # a 4x4 point is not the P=256 claim
        verdicts = views.check_claims(fig, rows, "full")
        assert [v.passed for v in verdicts] == [False, True]
        assert "FAIL" in views.format_scorecard(verdicts)
