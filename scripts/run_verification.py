#!/usr/bin/env python3
"""Run every verification suite at full scale and write JSON reports.

Usage:
    python scripts/run_verification.py [--out results] [--seed 42] [--workers N]

Produces one report per suite plus a tightness-histogram file, and prints
a one-line summary per suite.  Exit code 0 iff all suites pass (the
sharpness suite is expected to report two genuine failures for the
diagonal-pair hypo-norm equality below p = 2; see README).
"""

import argparse
import json
import sys
from pathlib import Path

from sphertrans.reports import tightness_stats, write_report
from sphertrans.suites import SUITE_NAMES, SuiteConfig, default_trials, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None,
                        help="override the per-suite default trial counts")
    args = parser.parse_args()
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for suite in SUITE_NAMES:
        cfg = SuiteConfig(
            trials=default_trials(suite) if args.trials is None else args.trials,
            seed=args.seed,
            workers=args.workers,
        )
        report = run_suite(suite, cfg)
        write_report(report, out / f"{suite}.json")
        with open(out / f"{suite}.tightness.json", "w", encoding="utf-8") as fh:
            json.dump(tightness_stats(report), fh, indent=1, sort_keys=True)
        fails = sum(e["fails"] for e in report.summary.values())
        print(
            f"{suite:>9}: {'ok' if report.ok() else 'FAIL'} "
            f"({report.trials} trials, {len(report.records)} records, "
            f"{fails} failing records, {report.wall_time:.1f}s)"
        )
        all_ok = all_ok and report.ok()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
