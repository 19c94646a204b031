"""Correctness gate: what every benchmark run must reproduce.

A miss is one line of text naming what went wrong; the run counts one
failed operation per miss and exits nonzero when there is any.
"""

from __future__ import annotations

import math
from dataclasses import replace

from sphertrans import norms, reports

OPT_TOL = 1e-6      # the suites' slack for optimized sides
TOL = 1e-8          # the suites' slack for closed-form sides

# The documented red case (acceptance criterion 2): the diagonal pair's
# hypo-p-norm is 2^(1/p - 1/2) > 1 for p < 2, so exactly these records fail.
KNOWN_RED = {"sharp.diag_pair.hypo": (1.0, 1.5)}


def _le(lhs: float, rhs: float, tol: float) -> bool:
    return lhs <= rhs + tol * (1.0 + abs(rhs))


def report_misses(report) -> list:
    """Summary `ok` against the expected value, and the known-red records."""
    misses = []
    for rid, entry in report.summary.items():
        expected = rid not in KNOWN_RED
        if entry["ok"] != expected:
            misses.append(f"{report.suite}: {rid} ok={entry['ok']}, expected {expected}")
    for rid, red_ps in KNOWN_RED.items():
        if rid not in report.summary:
            continue
        failing = sorted(rec.fingerprint.get("p") for rec in report.records
                         if rec.inequality_id == rid and rec.status == reports.FAIL)
        if failing != sorted(red_ps):
            misses.append(f"{report.suite}: {rid} fails at p={failing}, "
                          f"expected exactly p={list(red_ps)}")
    return misses


def report_bytes(report) -> str:
    """The report JSON with wall_time zeroed, as write_report would emit it."""
    return reports.report_to_json(replace(report, wall_time=0.0))


def byte_misses(reference: dict, report, label: str) -> list:
    """Compare a report's bytes with the first serial report of its suite."""
    text = report_bytes(report)
    expected = reference.setdefault(report.suite, text)
    if text != expected:
        return [f"{label} {report.suite}: report JSON differs from the first "
                f"serial run ({len(text)} vs {len(expected)} bytes)"]
    return []


def query_misses(query, t) -> list:
    """Reference checks on one norms query (a workloads.QueryResult) of tuple t."""
    if query.error is not None:
        return [f"query d={query.d} n={query.n}: raised {query.error}"]
    misses = []
    rows = query.rows
    label = f"query d={query.d} n={query.n}"
    hypo2 = rows["schatten_hypo_norm[p=2]"]
    gram = norms.schatten_hypo_norm_gram(t)
    if abs(hypo2 - gram) > OPT_TOL * (1.0 + gram):
        misses.append(f"{label}: hypo-2-norm {hypo2!r} vs Gram closed form {gram!r}")
    gap = query.cross_gap
    w = rows["joint_numerical_radius"]
    if gap is None or not gap <= OPT_TOL * (1.0 + w):
        misses.append(f"{label}: radius routes a and b differ by {gap!r}")
    norm = rows["spherical_norm"]
    upper = min(norm, rows["euclidean_norm"])
    if not (_le(norm / (2.0 * math.sqrt(query.d)), w, TOL) and _le(w, upper, TOL)):
        misses.append(f"{label}: radius {w!r} outside [||T||/(2 sqrt d), "
                      f"min(||T||, ||T||_e)] = [{norm / (2.0 * math.sqrt(query.d))!r}, "
                      f"{upper!r}]")
    return misses
