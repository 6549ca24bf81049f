"""The test configuration keeps hypothesis's failure reports readable."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """Under the repo's warning filters, a failing ``@given`` test fails
    (exit 1) and names its falsifying example, instead of the report
    hook's imports turning the run into an INTERNALERROR (exit 3)."""
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 10
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
