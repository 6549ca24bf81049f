"""Compare two ``bench/out/result.json`` files, cell by cell.

    python3 bench/compare.py A.json B.json      # A = parent, B = change

One row per workload x end-to-end metric: both values, the ratio B/A with
its base, and a verdict against the metric's bound —

* ``better`` / ``worse``: B moved past the bound in that direction,
* ``within-bound``: it did not,
* ``unresolved``: either side's round-to-round spread is wider than the
  bound, so a move of that size could not be told from noise,
* ``exact`` / ``CHANGED``: simulated-clock and byte metrics must repeat
  bit for bit for one seed (not on ``serve-open``, whose batching follows
  host timing).

Exits 1 on any ``worse`` or ``CHANGED``, or when either run had failed ops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXACT = ("sim_ms_per_traversal", "wire_kb_per_traversal")
TIMING_DEPENDENT = ("serve-open",)


def verdict(workload: str, name: str, a: dict, b: dict) -> str:
    if name in EXACT and workload not in TIMING_DEPENDENT:
        return "exact" if a["value"] == b["value"] else "CHANGED"
    bound = a["bound"]
    change = b["value"] / a["value"] - 1.0
    if a["better"] == "higher":
        change = -change
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within-bound"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Markdown table rows and whether the comparison passes."""
    rows = ["| workload | metric | unit | A | B | B/A (base A) | bound | verdict |",
            "|---|---|---|---|---|---|---|---|"]
    ok = True
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"][workload]
        ok = ok and not entry_a["failed"] and not entry_b["failed"]
        for name, cell_a in entry_a["end_to_end"].items():
            cell_b = entry_b["end_to_end"][name]
            word = verdict(workload, name, cell_a, cell_b)
            ok = ok and word not in ("worse", "CHANGED")
            rows.append(
                f"| {workload} | {name} | {cell_a['unit']} | {cell_a['value']:.6g} "
                f"| {cell_b['value']:.6g} | {cell_b['value'] / cell_a['value']:.3f} "
                f"(base {cell_a['value']:.6g}) | {cell_a['bound']:.2f} | {word} |")
    return rows, ok


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    if any(a[k] != b[k] for k in ("seed", "smoke", "seconds")):
        sys.exit("the two runs used different seeds, sizes or lengths; nothing to compare")
    rows, ok = compare(a, b)
    print("\n".join(rows))
    print(f"\nA = {a['commit'][:12]}  B = {b['commit'][:12]}  seed {a['seed']}  "
          f"runs of {a['seconds']} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
