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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "schedule_digests.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--add", nargs="+", metavar="KEY", default=None,
        help="capture only these keys (each must be absent from the JSON)",
    )
    parser.add_argument(
        "--recapture", nargs="+", metavar="KEY", default=[],
        help="recompute these existing keys in place",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from test_sparse_schedule import CONFIGS

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.add is not None:
        present = [key for key in args.add if key in golden]
        if present:
            parser.error(f"already captured (use --recapture): {present}")
        new = args.add
    elif args.recapture:
        new = []
    else:
        new = [key for key in CONFIGS if key not in golden]
    absent = [key for key in args.recapture if key not in golden]
    if absent:
        parser.error(f"not captured yet (use --add): {absent}")
    unknown = [key for key in [*new, *args.recapture] if key not in CONFIGS]
    if unknown:
        parser.error(f"no such configuration: {unknown}")

    # dicts keep insertion order: recaptured keys stay in place, new keys
    # land at the end, every other entry is written back as it was read
    for key in [*args.recapture, *new]:
        golden[key] = CONFIGS[key]()
        print(f"captured {key}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(new)} added, {len(args.recapture)} recaptured)")


if __name__ == "__main__":
    main()
