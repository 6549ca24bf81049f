"""Smoke + shape tests for the FIGURES sweeps at small design points."""

from __future__ import annotations

import pytest

from repro.harness.figures import FIGURES
from repro.harness.runner import square_grid
from repro.types import GridShape


def sweep(name: str, seed: int = 0, **points) -> list[dict]:
    return FIGURES[name].sweep(points, seed)


class TestSquareGrid:
    def test_perfect_square(self):
        assert square_grid(16) == GridShape(4, 4)

    def test_rectangular(self):
        assert square_grid(8) == GridShape(2, 4)

    def test_prime(self):
        assert square_grid(7) == GridShape(1, 7)


class TestFig4a:
    def test_weak_scaling_points(self):
        rows = sweep("fig4a", p=[1, 4, 16], vpr=200, k=8.0, searches=1)
        assert [r["p"] for r in rows] == [1, 4, 16]
        assert all(r["n"] == 200 * r["p"] for r in rows)
        assert all(r["mean_time_s"] > 0 for r in rows)

    def test_comm_small_relative_to_compute(self):
        """The paper's Figure 4.a observation: comm << compute."""
        row = sweep("fig4a", p=[16], vpr=400, k=10.0, searches=2)[0]
        assert row["mean_comm_s"] < row["mean_compute_s"]


class TestFig4b:
    def test_volume_grows_with_path_length(self):
        rows = sweep("fig4b", seed=1, n=3000, k=8.0, p=4)
        distances = [r["path_length"] for r in rows]
        volumes = [r["volume"] for r in rows]
        assert distances == sorted(distances)
        # volume at the farthest distance dwarfs the nearest
        assert volumes[-1] > 3 * volumes[0]


class TestFig4c:
    def test_bidirectional_wins(self):
        for row in sweep("fig4c", p=[4, 16], vpr=300, k=10.0, searches=2):
            assert row["bi_s"] < row["mean_time_s"]


class TestFig5:
    def test_strong_scaling_speedup(self):
        rows = sweep("fig5", n=4000, k=10.0, p=[1, 4, 16], searches=1)
        assert rows[1]["mean_time_s"] < rows[0]["mean_time_s"]  # parallelism helps
        assert rows[0]["speedup"] == 1.0 < rows[1]["speedup"]


class TestTable1:
    def test_topology_rows(self):
        grids = [(2, 4), (4, 2), (8, 1), (1, 8)]
        rows = sweep("table1", grids=grids, blocks=[(150, 8.0)], searches=1)
        by_grid = {r["name"]: r for r in rows}
        assert list(by_grid) == ["2x4", "4x2", "8x1", "1x8"]
        # 8x1: expand-only communication; 1x8: fold-only.
        assert by_grid["8x1"]["fold_msg_len"] == 0
        assert by_grid["1x8"]["expand_msg_len"] == 0

    def test_mixed_p_rejected(self):
        with pytest.raises(ValueError):
            sweep("table1", grids=[(2, 2), (2, 4)], blocks=[(100, 8.0)], searches=2)


class TestFig6:
    def test_series_shapes(self):
        rows = sweep("fig6a", n=1200, p=4, k=[8.0])
        assert sum(r["volume_1d"] for r in rows) > 0
        assert sum(r["volume_2d"] for r in rows) > 0

    def test_unreachable_target_exhausts(self):
        """With an unreachable target both searches run past the diameter."""
        rows = sweep("fig6a", n=1200, p=4, k=[8.0])
        assert [r["level"] for r in rows] == list(range(len(rows)))
        assert sum(r["volume_2d"] > 0 for r in rows) >= 3

    def test_crossover_bundle(self):
        row = sweep("fig6b", n=20_000, p=16)[0]
        assert row["k_star"] > 1
        assert row["gap_below"] < 0 < row["gap_above"]
        assert row["volume_1d"] > 0 and row["volume_2d"] > 0


class TestFig7:
    def test_redundancy_rows(self):
        rows = sweep("fig7", p=[4, 16], designs=[(250, 10.0)])
        assert [r["p"] for r in rows] == [4, 16]
        for row in rows:
            assert 0.0 <= row["redundancy_pct"] < 100.0

    def test_higher_degree_more_redundancy(self):
        low_k, high_k = sweep("fig7", p=[16], designs=[(250, 10.0), (50, 40.0)])
        assert high_k["redundancy_pct"] > low_k["redundancy_pct"]
