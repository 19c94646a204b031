import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_digest_without_trials_runs_each_suite_at_its_default_count():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--suite", "zero", "--suite", "sharpness"],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    digests = [line.split() for line in out.splitlines()]
    expected = []
    for suite, trials in (("zero", 100), ("sharpness", 1)):
        report = run_suite(suite, SuiteConfig(trials=trials, seed=42, workers=1))
        report.wall_time = 0.0
        expected.append([suite, "42", hashlib.sha256(report_to_json(report).encode()).hexdigest()])
    assert digests == expected


def test_digest_is_the_same_at_one_and_two_workers():
    """The workers set the block boundaries; a 40-trial equality run holds
    several trials of one shape in a block at either count."""
    digests = [subprocess.run(
        [sys.executable, str(SCRIPT), "--suite", "equality", "--trials", "40",
         "--workers", str(workers)],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout for workers in (1, 2)]
    assert digests[0] == digests[1]
    assert re.fullmatch(r"equality 42 [0-9a-f]{64}\n", digests[0])
    bad = subprocess.run([sys.executable, str(SCRIPT), "--trials", "1", "--workers", "0"],
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "--workers must be at least 1" in bad.stderr


@pytest.mark.parametrize("args,message", [
    (("--trials", "0"), "--trials must be at least 1"),
    (("--seed", "42", "--seed", "-3"), "--seed must be at least 0"),
])
def test_digest_rejects_a_bad_trial_count_or_seed_before_any_suite_runs(args, message):
    """A usage error exits 2, apart from the 1 of a digest MISMATCH."""
    bad = subprocess.run([sys.executable, str(SCRIPT), "--suite", "zero", *args],
                         capture_output=True, text=True, timeout=60)
    assert (bad.returncode, bad.stdout) == (2, "") and message in bad.stderr
    assert "Traceback" not in bad.stderr


def _sharpness_digests(*extra):
    return subprocess.run([sys.executable, str(SCRIPT), "--suite", "sharpness", "--trials", "1",
                           *extra], capture_output=True, text=True, timeout=600)


def test_expect_passes_saved_digests_and_flags_an_edited_or_missing_one(tmp_path):
    saved = _sharpness_digests()
    assert saved.returncode == 0
    expect = tmp_path / "digests.txt"
    expect.write_text(saved.stdout)
    same = _sharpness_digests("--expect", str(expect))
    assert (same.returncode, same.stdout, same.stderr) == (0, saved.stdout, "")

    suite, seed, digest = saved.stdout.split()
    expect.write_text(f"{suite} {seed} {digest[::-1]}\n")
    edited = _sharpness_digests("--expect", str(expect), "--seed", "42", "--seed", "7")
    assert edited.returncode == 1
    assert edited.stdout.splitlines()[0] == saved.stdout.strip()
    # a digest missing from the file is a mismatch too
    assert edited.stderr.splitlines() == ["MISMATCH sharpness 42", "MISMATCH sharpness 7"]

    expect.write_text(f"{suite} {seed}\n")
    for path in (expect, tmp_path / "missing.txt"):
        bad = _sharpness_digests("--expect", str(path))
        assert (bad.returncode, bad.stdout) == (2, "") and "--expect: " in bad.stderr


DRIFT = SCRIPT.parent / "report_drift.py"


def _drift_run(dir_a, dir_b):
    return subprocess.run([sys.executable, str(DRIFT), str(dir_a), str(dir_b)],
                          capture_output=True, text=True, timeout=60)


def _drift_rows(dir_a, dir_b, code=0):
    run = _drift_run(dir_a, dir_b)
    assert run.returncode == code, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["id", "sides_changed", "max_rel_diff", "falls", "worst_fall",
                                "status_changes"]
    return {rid: (sides, float(rel), int(falls), float(worst), int(status))
            for rid, sides, rel, falls, worst, status in (line.split() for line in lines[1:])}


def test_drift_shows_exactly_the_edited_side(tmp_path):
    saved = tmp_path / "a"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--suite", "s3", "--trials", "2", "--save", str(saved)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    path = saved / "s3-42.json"
    report = json.loads(path.read_text())
    assert report["wall_time"] == 0
    same = _drift_rows(saved, saved)
    assert same["total"][1:] == (0.0, 0, 0.0, 0)
    assert all(row[0].startswith("0/") for row in same.values())

    edited = tmp_path / "b"
    shutil.copytree(saved, edited)
    record = next(r for r in report["records"] if r["rhs"])
    record["rhs"] *= 1.0 + 1e-12
    (edited / path.name).write_text(json.dumps(report))
    rows = _drift_rows(saved, edited)
    rid = record["inequality_id"]
    moved = {k: v for k, v in rows.items() if not v[0].startswith("0/")}
    assert set(moved) == {rid, "total"}
    assert moved[rid][0].startswith("1/") and moved["total"][0].startswith("1/")
    assert moved[rid][1] == pytest.approx(1e-12, rel=1e-3)
    assert moved["total"][2:] == (0, 0.0, 0)        # a rise is not a fall


def test_drift_counts_the_sides_that_fall(tmp_path):
    saved = tmp_path / "a"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--suite", "s3", "--trials", "2", "--save", str(saved)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    path = saved / "s3-42.json"
    report = json.loads(path.read_text())
    edited = tmp_path / "b"
    shutil.copytree(saved, edited)
    sided = [r for r in report["records"] if r["lhs"] and r["rhs"]]
    fallen, tiny = sided[0], sided[-1]
    fallen["rhs"] *= 1.0 - 1e-9
    tiny["lhs"] *= 1.0 - 1e-13                      # below the 1e-12 threshold
    (edited / path.name).write_text(json.dumps(report))
    rows = _drift_rows(saved, edited, code=1)
    assert rows[fallen["inequality_id"]][2] == 1
    assert rows[fallen["inequality_id"]][3] == pytest.approx(1e-9, rel=1e-3)
    assert rows["total"][0].startswith("2/")
    assert rows["total"][2:] == (1, rows[fallen["inequality_id"]][3], 0)


def test_drift_fails_on_a_status_change(tmp_path):
    saved = tmp_path / "a"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--suite", "s3", "--trials", "2", "--save", str(saved)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    path = saved / "s3-42.json"
    report = json.loads(path.read_text())
    edited = tmp_path / "b"
    shutil.copytree(saved, edited)
    record = report["records"][0]
    assert record["status"] == "pass"
    record["status"] = "fail"
    (edited / path.name).write_text(json.dumps(report))
    rows = _drift_rows(saved, edited, code=1)
    assert rows[record["inequality_id"]][4] == 1
    assert rows["total"] == ("0/" + rows["total"][0].split("/")[1], 0.0, 0, 0.0, 1)

    (edited / path.name).unlink()
    unpaired = _drift_run(saved, edited)
    assert unpaired.returncode == 2 and "do not pair up" in unpaired.stderr
