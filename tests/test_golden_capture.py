"""``golden_capture.py``: field-scoped recapture on a temporary golden file.

``--recapture KEY --fields F`` rewrites only the named fields of each
row, prints them ``old -> new``, and refuses — writing nothing, exiting
non-zero — when any other field of a recaptured row moved.
"""

from __future__ import annotations

import json

import pytest

from tests import golden_capture

ROWS = {
    "a": {"levels": "L", "stats": "S0", "elapsed": "E"},
    "b": {"levels": "M", "stats": "T0"},
}


def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(ROWS, indent=1) + "\n")
    return path


def recapture(path, row, *args):
    golden_capture.main(
        ["--recapture", "a", *args], configs={"a": lambda: row}, path=path
    )


def test_only_the_named_fields_are_rewritten(tmp_path, capsys):
    path = golden_file(tmp_path)
    recapture(path, {"levels": "L", "stats": "S1", "elapsed": "E"}, "--fields", "stats")
    assert json.loads(path.read_text()) == {
        "a": {"levels": "L", "stats": "S1", "elapsed": "E"},
        "b": ROWS["b"],
    }
    assert "a.stats: 'S0' -> 'S1'" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row",
    [
        {"levels": "L2", "stats": "S1", "elapsed": "E"},  # another field moved
        {"levels": "L", "stats": "S1"},  # a field vanished
        {"levels": "L", "stats": "S1", "elapsed": "E", "trace": "X"},  # one appeared
    ],
)
def test_a_moved_field_outside_the_list_writes_nothing(tmp_path, capsys, row):
    path = golden_file(tmp_path)
    before = path.read_text()
    with pytest.raises(SystemExit) as excinfo:
        recapture(path, row, "--fields", "stats")
    assert excinfo.value.code == 1
    assert path.read_text() == before
    assert "nothing written" in capsys.readouterr().out


def test_without_fields_the_whole_row_is_recaptured(tmp_path):
    path = golden_file(tmp_path)
    recapture(path, {"levels": "L2"})
    assert json.loads(path.read_text())["a"] == {"levels": "L2"}


def test_fields_need_recapture(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        golden_capture.main(["--fields", "stats"], configs={}, path=golden_file(tmp_path))
    assert excinfo.value.code == 2
