"""Documentation guards: README code blocks must actually run, docs exist."""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def python_blocks(path: pathlib.Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_exists_with_key_sections(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for heading in ("## Install", "## Quickstart", "## Architecture",
                        "## Tests and benchmarks"):
            assert heading in readme

    def test_python_blocks_execute(self):
        """Every fenced python block in the README runs in one shared
        namespace (later blocks may use earlier blocks' variables)."""
        blocks = python_blocks(ROOT / "README.md")
        assert len(blocks) >= 3
        namespace: dict = {}
        for block in blocks:
            # shrink the demo graph so the doc test stays fast
            code = block.replace("n=20_000", "n=2_000").replace("19_999", "1_999")
            exec(compile(code, "<readme>", "exec"), namespace)  # noqa: S102

    def test_examples_listed_exist(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for mentioned in re.findall(r"python (examples/\w+\.py)", readme):
            assert (ROOT / mentioned).exists(), mentioned


class TestOtherDocs:
    @pytest.mark.parametrize(
        "name", ["DESIGN.md", "EXPERIMENTS.md", "docs/API.md", "docs/PERFORMANCE.md",
                 "docs/SERVER.md", "LICENSE", "CITATION.cff"]
    )
    def test_docs_exist(self, name):
        assert (ROOT / name).exists()

    def test_design_covers_every_figure(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for exp in ("Fig 4a", "Fig 4b", "Fig 4c", "Fig 5", "Table 1", "Fig 6a",
                    "Fig 6b", "Fig 7"):
            assert exp in design, exp

    def test_experiments_covers_every_figure(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for exp in ("Figure 4.a", "Figure 4.b", "Figure 4.c", "Figure 5",
                    "Table 1", "Figure 6", "Figure 7"):
            assert exp in experiments, exp

    def test_experiments_status_table_is_the_tables_own(self):
        """The status table is generated from FIGURES, never retyped."""
        from repro.harness.views import status_table

        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        embedded = experiments.split("<!-- status-table:begin -->")[1]
        assert embedded.split("<!-- status-table:end -->")[0].strip() == status_table()

    def test_every_bench_file_mentioned_in_experiments_or_design(self):
        """...and every id of the reproduction table, as `id`."""
        from repro.harness.figures import FIGURES

        docs = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8") + (
            ROOT / "DESIGN.md"
        ).read_text(encoding="utf-8")
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in docs, bench.name
        for name in FIGURES:
            assert f"`{name}`" in docs, name
