"""Record and report types for the verification harness, plus JSON I/O.

A SuiteReport is deterministic given (suite, trials, seed, tol): records
are merged in trial order and all floats serialize via repr, so two runs
differ only in wall_time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

PASS = "pass"
REFINED = "refined-pass"
FAIL = "fail"


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated inequality instance; slack = rhs - lhs."""

    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    status: str
    fingerprint: dict


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    tol: float
    opt_tol: float
    records: list
    summary: dict
    wall_time: float = 0.0

    def ok(self) -> bool:
        return all(entry["ok"] for entry in self.summary.values())


def summarize(records, required_rates: dict) -> dict:
    """Per-inequality aggregation, one group of records per id: counts,
    pass rate, and the slack and fingerprint of the group's first record
    of minimum slack.  An inequality is ok when its pass rate (refined
    passes count) reaches its required rate (1.0 unless statistical).
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault(rec.inequality_id, []).append(rec)
    out = {}
    for rid, group in sorted(groups.items()):
        fails = sum(rec.status == FAIL for rec in group)
        worst = min(group, key=lambda rec: rec.slack)
        rate = (len(group) - fails) / len(group)
        required = required_rates.get(rid, 1.0)
        out[rid] = {"trials": len(group), "passes": len(group) - fails,
                    "refined": sum(rec.status == REFINED for rec in group), "fails": fails,
                    "min_slack": worst.slack, "min_slack_fingerprint": worst.fingerprint,
                    "pass_rate": rate, "required_pass_rate": required, "ok": rate >= required}
    return out


def slack_histogram(slacks) -> dict:
    """np.histogram of slacks in 20 bins as plain data: bin_edges and bin_counts."""
    counts, edges = np.histogram(slacks, bins=20)
    return {"bin_edges": [float(e) for e in edges], "bin_counts": [int(c) for c in counts]}


def _shallow_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def report_to_json(report: SuiteReport) -> str:
    """The report as JSON, the bytes of json.dumps(asdict(report)) without
    asdict's deep copy of every record."""
    data = _shallow_dict(report)
    data["records"] = [_shallow_dict(rec) for rec in report.records]
    return json.dumps(data, indent=1, sort_keys=True)


def write_report(report: SuiteReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
        fh.write("\n")
