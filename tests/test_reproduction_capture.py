"""``reproduction_capture.py``: column-scoped recapture on a temporary pin file.

``--recapture KEY --fields F`` rewrites only the named columns of each
pinned row, prints the moved ones ``old -> new``, and refuses — writing
nothing, exiting non-zero — when any other pinned column, or the row
count, moved.
"""

from __future__ import annotations

import json

import pytest

from tests import reproduction_capture

PINS = {
    "a/full": [{"p": 1, "time": "T0", "comm": "C"}, {"p": 4, "time": "T1", "comm": "D"}],
    "b/full": [{"p": 1, "time": "U"}],
}


def pin_file(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(PINS, indent=1) + "\n")
    return path


def recapture(path, rows, *args):
    reproduction_capture.main(
        ["--recapture", "a/full", *args], captures={"a/full": lambda: rows}, path=path
    )


def test_only_the_named_columns_are_rewritten(tmp_path, capsys):
    path = pin_file(tmp_path)
    rows = [{"p": 1, "time": "T9", "comm": "C"}, {"p": 4, "time": "T1", "comm": "D"}]
    recapture(path, rows, "--fields", "time")
    assert json.loads(path.read_text()) == {"a/full": rows, "b/full": PINS["b/full"]}
    out = capsys.readouterr().out
    assert "a/full[0].time: 'T0' -> 'T9'" in out
    assert "a/full[1]" not in out


def test_a_column_the_entry_does_not_pin_is_ignored(tmp_path):
    path = pin_file(tmp_path)
    rows = [{"p": 1, "time": "T9", "comm": "C", "extra": 1},
            {"p": 4, "time": "T1", "comm": "D", "extra": 2}]
    recapture(path, rows, "--fields", "time")
    assert json.loads(path.read_text())["a/full"][0] == {"p": 1, "time": "T9", "comm": "C"}


@pytest.mark.parametrize(
    "rows",
    [
        # another pinned column moved
        [{"p": 1, "time": "T9", "comm": "X"}, {"p": 4, "time": "T1", "comm": "D"}],
        # a pinned column vanished
        [{"p": 1, "time": "T9"}, {"p": 4, "time": "T1", "comm": "D"}],
        # a row vanished
        [{"p": 1, "time": "T9", "comm": "C"}],
    ],
)
def test_a_move_outside_the_list_writes_nothing(tmp_path, capsys, rows):
    path = pin_file(tmp_path)
    before = path.read_text()
    with pytest.raises(SystemExit) as excinfo:
        recapture(path, rows, "--fields", "time")
    assert excinfo.value.code == 1
    assert path.read_text() == before
    assert "nothing written" in capsys.readouterr().out


def test_without_fields_the_whole_entry_is_recaptured(tmp_path):
    path = pin_file(tmp_path)
    recapture(path, [{"p": 2}])
    assert json.loads(path.read_text())["a/full"] == [{"p": 2}]


@pytest.mark.parametrize(
    "argv",
    [
        ["--fields", "time"],  # --fields needs --recapture
        ["--recapture", "c/full"],  # not pinned
        ["--add", "a/full"],  # already pinned
    ],
)
def test_bad_requests_are_refused(tmp_path, argv):
    path = pin_file(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        reproduction_capture.main(argv, captures={"a/full": list}, path=path)
    assert excinfo.value.code == 2
    assert json.loads(path.read_text()) == PINS
