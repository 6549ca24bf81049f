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

Only the printed columns are pinned (not their ``*_ci`` companions).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.harness.figures import FIGURES
from repro.harness.views import pin_rows

PINNED = Path(__file__).resolve().parent / "data" / "reproduction_rows.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--add", nargs="+", metavar="ID/TIER", default=None,
        help="capture only these keys (each must be absent from the JSON)",
    )
    args = parser.parse_args(argv)
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    known = [f"{fig}/{tier}" for fig in FIGURES for tier in ("quick", "full")]
    new = args.add if args.add is not None else [key for key in known if key not in pinned]
    refused = [key for key in new if key in pinned or key not in known]
    if refused:
        parser.error(f"already pinned, or no such figure/tier: {refused}")
    for key in new:
        fig_id, tier = key.split("/")
        fig = FIGURES[fig_id]
        keys = [k for _h, k, _s in fig.columns if not k.endswith("_ci")]
        rows = fig.rows(tier)
        pinned[key] = pin_rows(rows, [keys] * len(rows))
        print(f"captured {key}")
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {PINNED} ({len(new)} added)")


if __name__ == "__main__":
    main()
