#!/usr/bin/env python3
"""Compare the saved reports of two directories value by value.

Usage:
    python scripts/report_drift.py DIR_A DIR_B

DIR_A and DIR_B hold reports under the same file names, such as those
`report_digest.py --save DIR` writes for two checkouts at the same
(suite, trials, seed).  Records are paired in order, and each record has
two sides, lhs and rhs.  For each inequality id one line gives the sides
that differ out of all its sides, the largest relative difference
|a - b| / max(|a|, |b|) over them, the number of sides of B that fall
more than 1e-12 relative below A with the worst such fall
(a - b) / max(|a|, |b|), and the number of records whose status changed;
a last line totals them.  The exit status is 1 when any record's
status changed or any side fell, so a drift that must move no verdict
and lower no value is a command that fails.  Reports that do not pair
up (a file on one side only, or records of another id or fingerprint)
exit with 2.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Drift:
    changed: int = 0          # sides that differ
    sides: int = 0
    max_rel: float = 0.0
    falls: int = 0            # sides of B more than FALL_REL below A
    worst_fall: float = 0.0
    status_changes: int = 0

    def add(self, other: "Drift") -> None:
        self.changed += other.changed
        self.sides += other.sides
        self.max_rel = max(self.max_rel, other.max_rel)
        self.falls += other.falls
        self.worst_fall = max(self.worst_fall, other.worst_fall)
        self.status_changes += other.status_changes


FALL_REL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _records(path: Path) -> list:
    return json.loads(path.read_text(encoding="utf-8"))["records"]


def drift(dir_a: Path, dir_b: Path) -> dict:
    """{inequality id: Drift} over every report the two directories share."""
    names = sorted(p.name for p in dir_a.glob("*.json"))
    other = sorted(p.name for p in dir_b.glob("*.json"))
    if not names or names != other:
        raise ValueError(f"reports do not pair up: {names} against {other}")
    out: dict = {}
    for name in names:
        recs_a, recs_b = _records(dir_a / name), _records(dir_b / name)
        if len(recs_a) != len(recs_b):
            raise ValueError(f"{name}: {len(recs_a)} records against {len(recs_b)}")
        for ra, rb in zip(recs_a, recs_b):
            if (ra["inequality_id"], ra["fingerprint"]) != (rb["inequality_id"], rb["fingerprint"]):
                raise ValueError(f"{name}: record {ra['inequality_id']} {ra['fingerprint']} "
                                 f"against {rb['inequality_id']} {rb['fingerprint']}")
            entry = out.setdefault(ra["inequality_id"], Drift())
            for side in ("lhs", "rhs"):
                entry.sides += 1
                if ra[side] != rb[side]:
                    rel = _rel(ra[side], rb[side])
                    entry.changed += 1
                    entry.max_rel = max(entry.max_rel, rel)
                    if rb[side] < ra[side] and rel > FALL_REL:
                        entry.falls += 1
                        entry.worst_fall = max(entry.worst_fall, rel)
            entry.status_changes += ra["status"] != rb["status"]
    return dict(sorted(out.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args()
    try:
        rows = drift(args.dir_a, args.dir_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = Drift()
    for entry in rows.values():
        total.add(entry)
    width = max(len(rid) for rid in rows)
    print(f"{'id':<{width}}  {'sides_changed':>13}  {'max_rel_diff':>12}  {'falls':>5}  "
          f"{'worst_fall':>10}  status_changes")
    for rid, e in [*rows.items(), ("total", total)]:
        print(f"{rid:<{width}}  {f'{e.changed}/{e.sides}':>13}  {e.max_rel:>12.2e}  "
              f"{e.falls:>5}  {e.worst_fall:>10.2e}  {e.status_changes:>14}")
    return 1 if total.status_changes or total.falls else 0


if __name__ == "__main__":
    sys.exit(main())
