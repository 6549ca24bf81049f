"""Tests for the repro-bfs command-line interface (driven in-process)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestGenerate:
    def test_poisson(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        assert main(["generate", "--out", str(out), "--n", "500", "--k", "6"]) == 0
        assert out.exists()
        assert "n=500" in capsys.readouterr().out

    def test_rmat(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        code = main(
            ["generate", "--out", str(out), "--rmat", "--scale", "8", "--edge-factor", "4"]
        )
        assert code == 0
        assert "n=256" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra", [["--n", "500"], ["--k", "6"], ["--n", "500", "--k", "6"]]
    )
    def test_rmat_rejects_poisson_parameters(self, tmp_path, extra):
        # --n/--k were silently ignored under --rmat; now they error clearly
        argv = ["generate", "--out", str(tmp_path / "g.npz"), "--rmat",
                "--scale", "8", *extra]
        with pytest.raises(SystemExit, match="--scale"):
            main(argv)
        assert not (tmp_path / "g.npz").exists()


class TestBfs:
    def test_generated_graph(self, capsys):
        assert main(["bfs", "--n", "800", "--k", "8", "--source", "0"]) == 0
        out = capsys.readouterr().out
        assert "BFS from 0" in out
        assert "volume/level" in out

    def test_stored_graph(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        main(["generate", "--out", str(path), "--n", "400", "--k", "6"])
        assert main(["bfs", "--graph", str(path), "--grid", "2x2", "--source", "3"]) == 0

    def test_with_target(self, capsys):
        assert main(["bfs", "--n", "500", "--k", "8", "--source", "0", "--target", "99"]) == 0
        assert "target 99" in capsys.readouterr().out

    def test_validate_flag(self, capsys):
        code = main(["bfs", "--n", "400", "--k", "6", "--source", "1", "--validate"])
        assert code == 0
        assert "validation OK" in capsys.readouterr().out

    def test_1d_layout_and_collectives(self, capsys):
        code = main(
            ["bfs", "--n", "300", "--k", "5", "--grid", "4x1", "--layout", "1d",
             "--fold", "bruck", "--no-sent-cache"]
        )
        assert code == 0

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["bfs", "--grid", "four-by-four"])

    def test_rmat_graph_kind(self, capsys):
        code = main(
            ["bfs", "--graph-kind", "rmat", "--scale", "9", "--edge-factor", "4",
             "--grid", "2x2", "--source", "0"]
        )
        assert code == 0
        assert "BFS from 0" in capsys.readouterr().out

    @pytest.mark.parametrize("direction", ["hybrid", "bottom-up", "model"])
    def test_direction_flags(self, direction, capsys):
        code = main(
            ["bfs", "--graph-kind", "rmat", "--scale", "9", "--edge-factor", "4",
             "--grid", "2x2", "--source", "0", "--direction", direction,
             "--alpha", "4", "--beta", "16"]
        )
        assert code == 0
        assert "BFS from 0" in capsys.readouterr().out

    def test_model_direction_needs_generated_graph(self, tmp_path):
        path = tmp_path / "g.npz"
        main(["generate", "--out", str(path), "--n", "400", "--k", "6"])
        with pytest.raises(SystemExit, match="model"):
            main(["bfs", "--graph", str(path), "--direction", "model"])


class TestBidir:
    def test_search(self, capsys):
        code = main(["bidir", "--n", "600", "--k", "8", "--source", "0", "--target", "500"])
        assert code == 0
        assert "bi-directional BFS 0->500" in capsys.readouterr().out


class TestCrossover:
    def test_paper_point(self, capsys):
        assert main(["crossover", "--n", "4e7", "--p", "400"]) == 0
        out = capsys.readouterr().out
        assert "k = 31." in out


class TestFigure:
    @pytest.mark.parametrize("name", ["fig4c", "fig7"])
    def test_quick_figures(self, name, capsys):
        assert main(["figure", "--name", name]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "--name", "fig99"])


class TestFigureExtra:
    def test_fig6(self, capsys):
        assert main(["figure", "--name", "fig6a"]) == 0
        out = capsys.readouterr().out
        assert "1d volume" in out and "2d volume" in out

    def test_fig5(self, capsys):
        assert main(["figure", "--name", "fig5"]) == 0
        assert "time(s)" in capsys.readouterr().out

    def test_fig4a(self, capsys):
        assert main(["figure", "--name", "fig4a"]) == 0
        out = capsys.readouterr().out
        assert "comm(s)" in out and "tier quick; seed 0" in out

    def test_any_table_id_at_either_tier(self, capsys, tmp_path):
        assert main(["figure", "--name", "memory", "--tier", "full"]) == 0
        assert "[analytic-only; tier full]" in capsys.readouterr().out
        assert main(["figure", "--name", "buffers", "--out", str(tmp_path)]) == 0
        assert {p.name for p in tmp_path.iterdir()} == {
            "buffers.txt", "buffers.csv", "buffers.vl.json"
        }


class TestReproduce:
    def test_every_figure_becomes_three_files(self, capsys, tmp_path):
        from repro.harness.figures import FIGURES

        assert main(["reproduce", "--out", str(tmp_path)]) == 0
        assert {p.name for p in tmp_path.iterdir()} == {
            f"{name}{suffix}" for name in FIGURES for suffix in (".txt", ".csv", ".vl.json")
        }
        assert f"all artifacts in {tmp_path}/" in capsys.readouterr().out


class TestScorecard:
    def test_all_claims_pass(self, capsys):
        assert main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "23/23 claims reproduced" in out
        assert "FAIL" not in out
