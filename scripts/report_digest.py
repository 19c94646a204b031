#!/usr/bin/env python3
"""Print one sha256 per verification suite and seed of its report JSON.

Usage:
    python scripts/report_digest.py [--suite s3 --suite zero ...] [--trials 300] \
        [--seed 42 --seed 7 ...] [--workers N] [--save DIR] [--expect FILE]

Each line reads `suite seed digest`.  The digest covers the report
exactly as write_report stores it, with wall_time set to 0, so two
checkouts that print the same digest for a (suite, trials, seed) produce
byte-identical reports.  Without --suite every suite is digested
(sharpness always runs one trial); without --trials each suite runs its
default trial count (suites.default_trials); without --seed the seed is
42.  --workers sets run_suite's worker count, which also sets where its
blocks of trials begin and end; without it run_suite picks its own (see
resolve_workers).  A report is the same at every worker count, so the
digests are too.  The library is imported from the src/ directory next
to this script, so running the script of another checkout digests that
checkout.  With --save DIR each digested report is also written,
wall_time 0, as DIR/<suite>-<seed>.json; scripts/report_drift.py
compares two such directories value by value.  With --expect FILE, a
file of lines in this script's own format (another checkout's output,
say), each digest that differs from FILE's or is missing from it prints
`MISMATCH suite seed` on stderr, and the script exits 1 after the last
digest if any did.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphertrans.reports import report_to_json, write_report  # noqa: E402
from sphertrans.suites import SUITE_NAMES, SuiteConfig, default_trials, run_suite  # noqa: E402


def report_digest(suite: str, trials: int, seed: int, save: Path | None = None,
                  workers: int | None = None) -> str:
    report = run_suite(suite, SuiteConfig(trials=trials, seed=seed, workers=workers))
    report.wall_time = 0.0
    if save is not None:
        write_report(report, save / f"{suite}-{seed}.json")
    return hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="append", choices=SUITE_NAMES,
                        help="suite to digest; repeat for several (default: all)")
    parser.add_argument("--trials", type=int,
                        help="trials per suite (default: each suite's default count)")
    parser.add_argument("--seed", type=int, action="append",
                        help="suite seed; repeat for several (default: 42)")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="run_suite's worker count (default: its own choice)")
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="also write each report as DIR/<suite>-<seed>.json")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="exit 1 unless each digest equals its `suite seed digest` "
                             "line in FILE")
    args = parser.parse_args()
    expected = None
    if args.expect is not None:
        try:
            rows = [line.split() for line in args.expect.read_text().splitlines() if line.strip()]
        except OSError as exc:
            parser.error(f"--expect: {exc}")
        if any(len(row) != 3 for row in rows):
            parser.error(f"--expect: a line of {args.expect} is not `suite seed digest`")
        expected = {(suite, seed): digest for suite, seed, digest in rows}
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    if any(seed < 0 for seed in args.seed or ()):
        parser.error("--seed must be at least 0")
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    mismatched = False
    for seed in args.seed or [SuiteConfig.seed]:
        for suite in args.suite or SUITE_NAMES:
            trials = default_trials(suite) if args.trials is None else args.trials
            digest = report_digest(suite, trials, seed, args.save, args.workers)
            print(f"{suite} {seed} {digest}", flush=True)
            if expected is not None and expected.get((suite, str(seed))) != digest:
                print(f"MISMATCH {suite} {seed}", file=sys.stderr, flush=True)
                mismatched = True
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
