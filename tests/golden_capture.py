"""Capture golden digests of the scheduling hot paths — append-only.

``tests/data/schedule_digests.json`` pins the byte-identity matrix of
test_sparse_schedule.py.  A golden only proves something when it was
produced by the code *before* the change it guards, so new keys must be
captured on the **parent commit** of the PR that adds them: add the key
to ``CONFIGS`` first, run this script while ``src/`` is still the
parent's (or with ``PYTHONPATH`` pointing at a checkout of the parent),
then make the change and watch the test hold.

By default only keys missing from the JSON are computed and appended;
existing entries are never recomputed and keep their bytes:

    PYTHONPATH=src python tests/golden_capture.py            # missing keys
    PYTHONPATH=src python tests/golden_capture.py --add KEY [KEY ...]

Recompute an existing key only when an intentional simulated-behaviour
change lands, and name it:

    PYTHONPATH=src python tests/golden_capture.py --recapture KEY [KEY ...]

When the change is meant to move only some fields of a row (say the
``stats`` digest, because a counter started counting), name them too:

    PYTHONPATH=src python tests/golden_capture.py --recapture KEY [KEY ...] \\
        --fields stats

Only the named fields are rewritten, each printed as ``old -> new``; if
any *other* field of a recaptured row changed, the script names it, writes
nothing and exits non-zero — the change moved more than it claimed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "schedule_digests.json"


def main(
    argv: list[str] | None = None, *, configs: dict | None = None, path: Path = GOLDEN
) -> None:
    """Run the capture; ``configs`` / ``path`` default to the real matrix
    and JSON (a test passes its own)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--add", nargs="+", metavar="KEY", default=None,
        help="capture only these keys (each must be absent from the JSON)",
    )
    parser.add_argument(
        "--recapture", nargs="+", metavar="KEY", default=[],
        help="recompute these existing keys in place",
    )
    parser.add_argument(
        "--fields", nargs="+", metavar="FIELD", default=None,
        help="with --recapture: rewrite only these fields of each row and "
        "fail if any other field changed",
    )
    args = parser.parse_args(argv)
    if args.fields is not None and not args.recapture:
        parser.error("--fields only applies to --recapture")

    if configs is None:
        sys.path.insert(0, str(HERE))
        from test_sparse_schedule import CONFIGS as configs

    golden = json.loads(path.read_text()) if path.exists() else {}
    if args.add is not None:
        present = [key for key in args.add if key in golden]
        if present:
            parser.error(f"already captured (use --recapture): {present}")
        new = args.add
    elif args.recapture:
        new = []
    else:
        new = [key for key in configs if key not in golden]
    absent = [key for key in args.recapture if key not in golden]
    if absent:
        parser.error(f"not captured yet (use --add): {absent}")
    unknown = [key for key in [*new, *args.recapture] if key not in configs]
    if unknown:
        parser.error(f"no such configuration: {unknown}")

    # dicts keep insertion order: recaptured keys stay in place, new keys
    # land at the end, every other entry is written back as it was read
    moved = []
    for key in [*args.recapture, *new]:
        row = configs[key]()
        if args.fields is not None and key in args.recapture:
            old = golden[key]
            moved += [
                f"{key}.{field}: {old.get(field)!r} -> {row.get(field)!r}"
                for field in sorted(set(old) | set(row))
                if field not in args.fields and old.get(field) != row.get(field)
            ]
            for field in args.fields:
                print(f"{key}.{field}: {old.get(field)!r} -> {row.get(field)!r}")
            row = {**old, **{f: row[f] for f in args.fields if f in row}}
        golden[key] = row
        print(f"captured {key}")
    if moved:
        print("fields outside --fields changed; nothing written:", *moved, sep="\n  ")
        raise SystemExit(1)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {path} ({len(new)} added, {len(args.recapture)} recaptured)")


if __name__ == "__main__":
    main()
