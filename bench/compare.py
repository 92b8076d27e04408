#!/usr/bin/env python3
"""Compare two ledgers: ``python3 bench/compare.py OLD.json NEW.json``.

One row per (workload, end-to-end metric) with both medians, quartiles and
the bound fixed in OLD.  Verdicts:

* ``worse``       NEW's median is worse than OLD's by more than the bound;
* ``unresolved``  not worse, but either side's inter-quartile spread is wider
                  than the bound, so "unchanged" cannot be claimed -- unless
                  every NEW run reads better than every OLD run (``better``);
* ``better``      NEW's median is better by more than OLD's own spread
                  (the distance between its quartiles);
* ``same``        anything else.

Exit code 1 on any ``worse`` or on a higher failed-ops share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.stats import quartiles  # noqa: E402

SCHEMA = "repro-bench-ledger/1"


def load_ledger(path: Path) -> dict:
    ledger = json.loads(Path(path).read_text())
    if ledger.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {ledger.get('schema')!r} is not "
                         f"{SCHEMA!r}")
    return ledger


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """Classify NEW against OLD for one (workload, metric) pair."""
    sign = 1.0 if better == "lower" else -1.0
    old_q1, old_median, old_q3 = quartiles(old)
    new_q1, new_median, new_q3 = quartiles(new)
    scale = abs(old_median)
    worsening = sign * (new_median - old_median) / scale
    if worsening > bound:
        return "worse"
    old_spread = (old_q3 - old_q1) / scale
    new_spread = (new_q3 - new_q1) / abs(new_median)
    if max(old_spread, new_spread) > bound:
        every_new_better = max(new) < min(old) if better == "lower" \
            else min(new) > max(old)
        return "better" if every_new_better else "unresolved"
    return "better" if -worsening > old_spread else "same"


def failed_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(old: dict, new: dict) -> List[dict]:
    rows = []
    for name, entry in old["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None or not entry["runs"] or not new_entry["runs"]:
            continue
        for metric, spec in old["end_to_end"].items():
            old_values = [run["metrics"][metric] for run in entry["runs"]]
            new_values = [run["metrics"][metric] for run in new_entry["runs"]]
            rows.append({
                "workload": name, "metric": metric, "unit": spec["unit"],
                "bound": spec["bound"],
                "old": quartiles(old_values), "new": quartiles(new_values),
                "verdict": verdict(old_values, new_values, spec["better"],
                                   spec["bound"]),
            })
        old_failed, new_failed = (failed_share(entry["runs"]),
                                  failed_share(new_entry["runs"]))
        rows.append({
            "workload": name, "metric": "failed_ops_share", "unit": "share",
            "bound": 0.0, "old": (old_failed,) * 3, "new": (new_failed,) * 3,
            "verdict": "worse" if new_failed > old_failed else "same",
        })
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<22} {'old q1/med/q3':>36} "
             f"{'new q1/med/q3':>36} {'bound':>6}  verdict"]
    for row in rows:
        old = "/".join(f"{v:.4g}" for v in row["old"])
        new = "/".join(f"{v:.4g}" for v in row["new"])
        lines.append(f"{row['workload']:<16} {row['metric']:<22} {old:>36} "
                     f"{new:>36} {row['bound']:>6.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(load_ledger(Path(argv[0])), load_ledger(Path(argv[1])))
    print(render(rows))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("  ".join(f"{name}: {count}" for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
