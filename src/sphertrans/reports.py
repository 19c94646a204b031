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
    """Per-inequality aggregation: counts, pass rate, minimum slack.

    An inequality is ok when its pass rate (refined passes count) reaches
    its required rate (1.0 unless the claim is statistical).
    """
    out: dict = {}
    for rec in records:
        entry = out.setdefault(
            rec.inequality_id,
            {
                "trials": 0,
                "passes": 0,
                "refined": 0,
                "fails": 0,
                "min_slack": None,
                "min_slack_fingerprint": None,
            },
        )
        entry["trials"] += 1
        if rec.status == FAIL:
            entry["fails"] += 1
        else:
            entry["passes"] += 1
            if rec.status == REFINED:
                entry["refined"] += 1
        if entry["min_slack"] is None or rec.slack < entry["min_slack"]:
            entry["min_slack"] = rec.slack
            entry["min_slack_fingerprint"] = rec.fingerprint
    for rid, entry in out.items():
        required = required_rates.get(rid, 1.0)
        rate = entry["passes"] / entry["trials"] if entry["trials"] else 0.0
        entry["pass_rate"] = rate
        entry["required_pass_rate"] = required
        entry["ok"] = rate >= required
    return dict(sorted(out.items()))


def slack_histogram(slacks, bins: int = 20) -> dict:
    """np.histogram of slacks as plain data: bin_edges and bin_counts."""
    counts, edges = np.histogram(slacks, bins=bins)
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
