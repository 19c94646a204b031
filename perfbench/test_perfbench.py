"""Tests of the benchmark itself: the gate, the metric names, tiny runs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphertrans.reports import FAIL, PASS, InequalityRecord, SuiteReport, summarize  # noqa: E402
from sphertrans.suites import REQUIRED_RATES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _report(suite, records):
    return SuiteReport(suite=suite, seed=1, trials=1, tol=1e-8, opt_tol=1e-6,
                       records=records,
                       summary=summarize(records, REQUIRED_RATES), wall_time=1.0)


def _sharpness_records(statuses):
    return [InequalityRecord("sharp.diag_pair.hypo", 1.0, 1.0, 0.0, status, {"p": p})
            for p, status in statuses.items()]


def test_gate_flags_a_flipped_status():
    good = [InequalityRecord("sp.chain.lower", 1.0, 2.0, 1.0, PASS, {"p": 2.0})]
    assert gate.report_misses(_report("s3", good)) == []
    flipped = [replace(good[0], status=FAIL)]
    assert gate.report_misses(_report("s3", flipped))


def test_gate_expects_exactly_the_known_red_records():
    red = {1.0: FAIL, 1.5: FAIL, 2.0: PASS, 3.0: PASS}
    assert gate.report_misses(_report("sharpness", _sharpness_records(red))) == []
    extra_fail = {**red, 3.0: FAIL}
    assert gate.report_misses(_report("sharpness", _sharpness_records(extra_fail)))
    healed = {**red, 1.5: PASS}
    assert gate.report_misses(_report("sharpness", _sharpness_records(healed)))


def test_gate_flags_a_byte_mismatch_but_not_wall_time():
    records = [InequalityRecord("sp.chain.lower", 1.0, 2.0, 1.0, PASS, {"p": 2.0})]
    reference: dict = {}
    first = _report("s3", records)
    assert gate.byte_misses(reference, first, "serial") == []
    assert gate.byte_misses(reference, replace(first, wall_time=9.0), "pool") == []
    changed = _report("s3", [replace(records[0], lhs=1.0000000001)])
    assert gate.byte_misses(reference, changed, "pool")


@pytest.fixture(scope="module")
def query():
    inputs = workloads.make_inputs("norms-query", 1, tiny=True)
    t = inputs.tuples[0]
    return workloads.norms_query(t, inputs.query_opt), t


def test_gate_passes_a_real_query(query):
    result, t = query
    assert gate.query_misses(result, t) == []


@pytest.mark.parametrize("change", [
    {"cross_gap": 1e-3},
    {"cross_gap": None},
    {"rows": {"schatten_hypo_norm[p=2]": 0.5}},
    {"rows": {"joint_numerical_radius": 10.0}},
    {"rows": {"joint_numerical_radius": 1e-6}},
    {"error": "RuntimeError('boom')"},
])
def test_gate_flags_a_reference_miss(query, change):
    result, t = query
    if "rows" in change:
        change = {"rows": {**result.rows, **change["rows"]}}
    assert gate.query_misses(replace(result, **change), t)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    inputs = workloads.make_inputs(workload, 3, tiny=True)
    for workers in (1, None):
        rep = workloads.run_rep(inputs, workers)
        assert rep.errors == []
        assert rep.reports and rep.wall_s > 0.0
        assert all(gate.report_misses(r) == [] for r in rep.reports)
        assert all(gate.query_misses(q, t) == [] for q, t in zip(rep.queries, inputs.tuples))


def _traced(inputs):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        workloads.run_rep(inputs, 1, tracer)
    finally:
        patches.undo()
    return tracer


def test_traced_counts_repeat_exactly():
    inputs = workloads.make_inputs("s4-schatten", 5, tiny=True)
    first, second = _traced(inputs), _traced(inputs)
    assert first.counts == second.counts
    assert first.calls == second.calls
    assert first.counts["lapack.eigvalsh.matrices"] > 0
    assert first.calls["optimize.sphere_optimize"] > 0


def test_tracing_restores_the_library():
    import numpy
    from sphertrans import norms, suites
    before = (numpy.linalg.svd, norms.sphere_optimize, suites.hypo_norm, suites.run_suite)
    _traced(workloads.make_inputs("closed-form", 1, tiny=True))
    assert (numpy.linalg.svd, norms.sphere_optimize, suites.hypo_norm,
            suites.run_suite) == before


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    proc = _run(["--workload", "closed-form", "--seed", "2", "--seconds", "0",
                 "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    everything = {m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert set(printed) <= everything
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "closed-form", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_tripped_gate_fails_the_run(monkeypatch, capsys):
    import run
    monkeypatch.setattr(gate, "report_misses", lambda report: ["fabricated miss"])
    code = run.main(["--workload", "closed-form", "--seed", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
