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
        [sys.executable, str(SCRIPT), "--trials", "2", "--seed", "42", "--seed", "7"],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert [(suite, seed) for suite, seed, _ in rows] == \
        [(suite, seed) for seed in ("42", "7") for suite in SUITE_NAMES]
    digests = {(suite, int(seed)): h for suite, seed, h in rows}
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in digests.values())
    assert digests[("s3", 42)] != digests[("s3", 7)]
    # the digest is of the report with wall_time zeroed, so a serial
    # in-process run of the same (suite, trials, seed) reproduces it
    for seed in (42, 7):
        report = run_suite("s3", SuiteConfig(trials=2, seed=seed, workers=1))
        report.wall_time = 0.0
        expected = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digests[("s3", seed)] == expected
