"""Pin the rows of the reproduction table — append-only.

``tests/data/reproduction_rows.json`` holds, per ``<figure id>/<tier>``,
the rows ``FIGURES[id]`` must reproduce bit for bit (floats via ``repr``).
The entries of PR 18 were captured on its **parent commit** from the
per-figure builders, scorecard and ``bench_*`` scripts that PR deleted, so
they prove the table moved no number.  A new figure's rows are pinned from
the table itself, on the commit that adds it; existing entries are never
recomputed and keep their bytes:

    PYTHONPATH=src python tests/reproduction_capture.py            # missing keys
    PYTHONPATH=src python tests/reproduction_capture.py --add fig9/quick

Recompute an existing entry only when an intentional simulated-behaviour
change lands, and name it and the columns it is meant to move:

    PYTHONPATH=src python tests/reproduction_capture.py --recapture fig5/full \\
        --fields mean_time_s speedup

Only the named columns are rewritten, each moved value printed as
``old -> new``; if any *other* pinned column of a recaptured entry
changed (or its row count did), the script names it, writes nothing and
exits non-zero — the change moved more than it claimed.

Only the printed columns are pinned (not their ``*_ci`` companions).
"""

from __future__ import annotations

import argparse
import json
from functools import partial
from pathlib import Path

from repro.harness.figures import FIGURES
from repro.harness.views import pin_rows

PINNED = Path(__file__).resolve().parent / "data" / "reproduction_rows.json"


def _capture(fig_id: str, tier: str) -> list[dict[str, object]]:
    """``FIGURES[fig_id]``'s rows on ``tier``, as the JSON pins them."""
    fig = FIGURES[fig_id]
    keys = [k for _h, k, _s in fig.columns if not k.endswith("_ci")]
    rows = fig.rows(tier)
    return pin_rows(rows, [keys] * len(rows))


def _moved(key: str, old: list[dict], new: list[dict], fields: list[str]):
    """``(moved outside fields, merged rows)``: the named fields of ``new``
    written over ``old``, printing each one that moved.  Only the columns
    ``old`` pins are compared: a column it does not pin cannot move."""
    if len(old) != len(new):
        return [f"{key}: {len(old)} rows -> {len(new)}"], old
    moved, merged = [], []
    for idx, (was, now) in enumerate(zip(old, new)):
        for field in was:
            if was[field] == now.get(field):
                continue
            change = f"{key}[{idx}].{field}: {was[field]!r} -> {now.get(field)!r}"
            if field in fields:
                print(change)
            else:
                moved.append(change)
        merged.append({**was, **{f: now[f] for f in fields if f in was and f in now}})
    return moved, merged


def main(
    argv: list[str] | None = None, *, captures: dict | None = None, path: Path = PINNED
) -> None:
    """Run the capture; ``captures`` (key -> rows thunk) and ``path``
    default to the real table and JSON (a test passes its own)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--add", nargs="+", metavar="ID/TIER", default=None,
        help="capture only these keys (each must be absent from the JSON)",
    )
    parser.add_argument(
        "--recapture", nargs="+", metavar="ID/TIER", default=[],
        help="recompute these pinned keys in place",
    )
    parser.add_argument(
        "--fields", nargs="+", metavar="FIELD", default=None,
        help="with --recapture: rewrite only these columns of each row and "
        "fail if any other column changed",
    )
    args = parser.parse_args(argv)
    if args.fields is not None and not args.recapture:
        parser.error("--fields only applies to --recapture")
    if captures is None:
        captures = {
            f"{fig}/{tier}": partial(_capture, fig, tier)
            for fig in FIGURES for tier in ("quick", "full")
        }

    pinned = json.loads(path.read_text()) if path.exists() else {}
    if args.add is not None:
        new = args.add
    elif args.recapture:
        new = []
    else:
        new = [key for key in captures if key not in pinned]
    refused = [key for key in new if key in pinned or key not in captures]
    if refused:
        parser.error(f"already pinned, or no such figure/tier: {refused}")
    refused = [key for key in args.recapture if key not in pinned or key not in captures]
    if refused:
        parser.error(f"not pinned yet (use --add), or no such figure/tier: {refused}")

    moved = []
    for key in [*args.recapture, *new]:
        rows = captures[key]()
        if args.fields is not None and key in args.recapture:
            outside, rows = _moved(key, pinned[key], rows, args.fields)
            moved += outside
        pinned[key] = rows
        print(f"captured {key}")
    if moved:
        print("fields outside --fields changed; nothing written:", *moved, sep="\n  ")
        raise SystemExit(1)
    path.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {path} ({len(new)} added, {len(args.recapture)} recaptured)")


if __name__ == "__main__":
    main()
