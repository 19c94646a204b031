import hashlib
import re
import subprocess
import sys
from pathlib import Path

from sphertrans.reports import report_to_json
from sphertrans.suites import SUITE_NAMES, SuiteConfig, run_suite

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"


def test_digest_smoke_every_suite():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--trials", "2", "--seed", "42"],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    digests = dict(line.split() for line in out.splitlines())
    assert list(digests) == list(SUITE_NAMES)
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in digests.values())
    # the digest is of the report with wall_time zeroed, so a serial
    # in-process run of the same (suite, trials, seed) reproduces it
    report = run_suite("s3", SuiteConfig(trials=2, seed=42, workers=1))
    report.wall_time = 0.0
    assert digests["s3"] == hashlib.sha256(report_to_json(report).encode()).hexdigest()
