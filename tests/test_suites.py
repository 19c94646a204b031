import collections
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sphertrans import suites
from sphertrans.norms import schatten_spherical_norm
from sphertrans.reports import report_to_json, tightness_stats
from sphertrans.suites import (
    INEQUALITIES,
    SUITE_NAMES,
    TABLE,
    Row,
    SuiteConfig,
    _Store,
    _trial_records,
    fuzz_inequality,
    resolve_workers,
    run_suite,
    sharp_diag_pair,
)
from sphertrans.transforms import lambda_mean_from_polar
from sphertrans.tuples import spherical_polar


SRC = Path(__file__).resolve().parent.parent / "src" / "sphertrans"


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time": [^,}\n]+', '"wall_time": 0', text)


def _shorten_first_estimates(monkeypatch, name, factor, only=None, always=False):
    """Patch the suites' estimator `name` so that unescalated calls (every
    call if always) on the tuples whose arrays are in only, or on every
    tuple, return factor times the value; returns a Counter of escalated
    calls per tuple array."""
    real = getattr(suites, name)
    escalated = collections.Counter()

    def short(t, *args, **kwargs):
        est = real(t, *args, **kwargs)
        config = [a for a in args if hasattr(a, "grid_points")][0]
        key = t.array.tobytes()
        if config.grid_points:
            escalated[key] += 1
            if not always:
                return est
        if only is None or key in only:
            return replace(est, value=factor * est.value)
        return est

    monkeypatch.setattr(suites, name, short)
    return escalated


def _judge(check, lhs, rhs, tol):
    row = Row("x", "sharpness", check, lambda s, i: lhs(s), lambda s, i: rhs(s),
              "test row", tol=tol)
    return _Store("sharpness", SuiteConfig(trials=1), 0).record(row)


class TestRegistry:
    def test_every_id_belongs_to_one_suite(self):
        for rid, info in INEQUALITIES.items():
            assert info["suite"] in SUITE_NAMES, rid
            assert info["description"]

    def test_emitted_ids_are_registered(self):
        for suite, trials in (("s2", 3), ("s3", 3), ("s4", 3), ("equality", 3),
                              ("zero", 3), ("sharpness", 1)):
            rep = run_suite(suite, SuiteConfig(trials=trials, workers=1))
            for rec in rep.records:
                assert rec.inequality_id in INEQUALITIES
                assert INEQUALITIES[rec.inequality_id]["suite"] == suite

    def test_registry_covers_all_emitted(self):
        emitted = set()
        for suite, trials in (("s2", 4), ("s3", 4), ("s4", 6), ("equality", 3),
                              ("zero", 3), ("sharpness", 1)):
            rep = run_suite(suite, SuiteConfig(trials=trials, workers=1))
            emitted |= {rec.inequality_id for rec in rep.records}
        missing = set(INEQUALITIES) - emitted
        assert not missing, f"registered but never emitted: {missing}"

    def test_each_id_written_once(self):
        assert len(TABLE) == len(INEQUALITIES) == 61
        source = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
        written = {rid: source.count(f'"{rid}"') for rid in INEQUALITIES}
        assert all(count == 1 for count in written.values()), written


class TestSuiteRuns:
    @pytest.mark.parametrize("suite,trials", [("s2", 12), ("s3", 40), ("s4", 12),
                                              ("equality", 25), ("zero", 30)])
    def test_small_runs_pass(self, suite, trials):
        rep = run_suite(suite, SuiteConfig(trials=trials, workers=1))
        failing = {rid: e for rid, e in rep.summary.items() if not e["ok"]}
        assert rep.ok(), failing

    def test_summary_counts_are_consistent(self):
        rep = run_suite("s3", SuiteConfig(trials=10, workers=1))
        for entry in rep.summary.values():
            assert entry["trials"] == entry["passes"] + entry["fails"]

    def test_sharpness_known_failures(self):
        rep = run_suite("sharpness", SuiteConfig(trials=1, workers=1))
        failing = {
            (r.inequality_id, r.fingerprint["p"])
            for r in rep.records
            if r.status == "fail"
        }
        # the diagonal-pair hypo-norm equality genuinely fails below p = 2
        # (true value 2^(1/p - 1/2)); everything else must pass
        assert failing == {("sharp.diag_pair.hypo", 1.0), ("sharp.diag_pair.hypo", 1.5)}
        for rec in rep.records:
            if rec.status == "fail":
                expected = 2.0 ** (1.0 / rec.fingerprint["p"] - 0.5)
                assert rec.lhs == pytest.approx(expected, abs=1e-8)

    def test_determinism_serial_vs_parallel(self):
        cfg1 = SuiteConfig(trials=16, workers=1)
        cfg2 = SuiteConfig(trials=16, workers=2)
        a = report_to_json(run_suite("s3", cfg1))
        b = report_to_json(run_suite("s3", cfg2))
        assert _strip_wall_time(a) == _strip_wall_time(b)

    def test_determinism_repeat(self):
        cfg = SuiteConfig(trials=8, workers=1)
        a = report_to_json(run_suite("zero", cfg))
        b = report_to_json(run_suite("zero", cfg))
        assert _strip_wall_time(a) == _strip_wall_time(b)

    def test_report_json_roundtrip(self):
        rep = run_suite("s3", SuiteConfig(trials=5, workers=1))
        doc = json.loads(report_to_json(rep))
        assert doc["suite"] == "s3"
        assert doc["trials"] == 5
        assert len(doc["records"]) == len(rep.records)
        assert set(doc["summary"]) == set(rep.summary)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("s9", SuiteConfig(trials=1))

    def test_ensemble_override(self):
        rep = run_suite("s3", SuiteConfig(trials=6, workers=1, ensemble="ginibre"))
        for rec in rep.records:
            assert rec.fingerprint.get("ensemble", "ginibre") == "ginibre"


class TestS3LambdaGrid:
    @pytest.mark.parametrize("trial", range(6))
    def test_batched_grid_equals_per_lambda_norms(self, trial):
        """Each lambda-mean norm read from the batched SVD of the grid is the
        Schatten norm of that lambda mean, bit for bit."""
        cfg = SuiteConfig(trials=6, seed=4242)
        recs = _trial_records("s3", cfg, trial)
        tup = _Store("s3", cfg, trial).T
        polar = spherical_polar(tup)
        grid_ids = {"sp.lambda_mean.scaled_convex": None,
                    "s2norm.lambda_mean.min_bound": 2.0}
        checked = 0
        for rec in recs:
            if rec.inequality_id in grid_ids:
                fp = rec.fingerprint
                p = grid_ids[rec.inequality_id] or fp["p"]
                lam_mean = lambda_mean_from_polar(tup, polar, fp["lambda"])
                assert rec.lhs == schatten_spherical_norm(lam_mean, p), (fp, p)
                checked += 1
        assert checked == 22


class TestS2LambdaAliases:
    def test_aliased_lambda_means_equal_their_names(self):
        cfg = SuiteConfig(trials=12, seed=42)
        for trial in range(cfg.trials):
            s = _Store("s2", cfg, trial)
            for lam, name in suites._LAMBDA_ALIASES.items():
                assert np.array_equal(s._build(lam).array, s.tup(name).array), \
                    (trial, lam)

    def test_one_s2_trial_makes_13_hypo_norm_calls(self, monkeypatch):
        # 5 named tuples (T, aluthge, heinz, mean, duggal) plus the 8
        # lambda means not aliased to one of them; no check escalates here
        calls = collections.Counter()
        real = suites.hypo_norm

        def counted(t, *args, **kwargs):
            calls[t.array.tobytes()] += 1
            return real(t, *args, **kwargs)

        monkeypatch.setattr(suites, "hypo_norm", counted)
        recs = _trial_records("s2", SuiteConfig(trials=1, seed=42), 0)
        assert all(r.status == "pass" for r in recs)
        assert sum(calls.values()) == 13
        assert set(calls.values()) == {1}


class TestOneSpectrumPerTuple:
    @pytest.mark.parametrize("suite", ["s3", "s2"])
    def test_each_stacked_column_is_factorized_once(self, monkeypatch, suite):
        """Over one trial (for s3 one with p != 2) every named tuple's stacked
        column has one SVD for its spectrum, and T one more, with vectors,
        for its polar decomposition; the other lambda means share a batched
        SVD.  In s2 each of the six Heinz products is also factorized once,
        though its norm is read both at the operator norm and at p."""
        cfg = SuiteConfig(trials=1, seed=42)
        trial = next(k for k in range(20) if _Store(suite, cfg, k).p != 2.0)
        s = _Store(suite, cfg, trial)
        names = ("T", "T.dug", "T.alu", "T.hz", "T.mean")
        columns = {s.tup(name).stacked().tobytes(): name for name in names}
        if suite == "s2":
            columns.update({m.tobytes(): f"triple.{k}" for k, m in s.triple.products.items()})
        calls = collections.Counter()
        real = np.linalg.svd

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.tobytes() in columns:
                calls[columns[a.tobytes()], kwargs.get("compute_uv", True)] += 1
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        _trial_records(suite, cfg, trial)
        assert calls == {**{(name, False): 1 for name in columns.values()}, ("T", True): 1}


class TestCheckHelpers:
    def test_plain_pass_fail(self):
        recs = [_judge("le", lambda s: 1.0, lambda s: 2.0, "tol"),
                _judge("le", lambda s: 2.0, lambda s: 1.0, "tol")]
        assert [r.status for r in recs] == ["pass", "fail"]
        assert recs[0].slack == pytest.approx(1.0)
        assert recs[1].slack == pytest.approx(-1.0)

    def test_escalation_rescues_underconverged_rhs(self, monkeypatch):
        # the column pair's hypo-2-norm is 1; its first estimate reads 0.5
        _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", 0.5)
        rec = _judge("le", lambda s: 1.0, lambda s: s.hypo("column", 2.0), "opt_tol")
        assert rec.status == "refined-pass"
        assert rec.rhs == pytest.approx(1.0, abs=1e-8)

    def test_escalation_cannot_rescue_genuine_violation(self, monkeypatch):
        _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", 0.5)
        rec = _judge("le", lambda s: 2.0, lambda s: s.hypo("column", 2.0), "opt_tol")
        assert rec.status == "fail"

    def test_equality_check_escalation(self, monkeypatch):
        _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", 0.9)
        recs = [_judge("eq", lambda s: s.hypo("column", 2.0), lambda s: 1.0, 1e-8),
                _judge("eq", lambda s: 0.9, lambda s: 1.0, 1e-8)]
        assert [r.status for r in recs] == ["refined-pass", "fail"]

    def test_underconverged_hypo_norm_fixed_by_escalation(self):
        # escalation never loses value and reaches the reference optimum
        # even from a minimal-start configuration
        from sphertrans.ensembles import random_tuple
        from sphertrans.norms import hypo_norm
        from sphertrans.optimize import OptimizerConfig

        t = random_tuple(3, 4, 77)
        weak_cfg = OptimizerConfig(n_random_starts=1, seed=13)
        weak = hypo_norm(t, weak_cfg).value
        strong = hypo_norm(t, weak_cfg.escalated()).value
        reference = hypo_norm(t).value
        assert weak <= strong + 1e-12
        assert abs(strong - reference) <= 1e-7


class TestEscalation:
    def test_later_reads_see_the_escalated_value(self, monkeypatch):
        # s4 trial 0 at seed 42 has p = 2; its hypo-2-norm first reads 0.6x
        _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", 0.6)
        recs = {r.inequality_id: r
                for r in _trial_records("s4", SuiteConfig(trials=1, seed=42), 0)}
        assert recs["spr.radius_le_hypo"].status == "refined-pass"
        escalated = recs["spr.radius_le_hypo"].rhs
        assert recs["spr.hypo_le_norm"].lhs == escalated
        assert recs["s2r.chain.a"].rhs == escalated / np.sqrt(2.0)
        assert recs["s2r.chain.d"].lhs == escalated

    @pytest.mark.parametrize("always", [False, True])
    def test_a_quantity_escalates_once_per_trial(self, monkeypatch, always):
        # the hypo-norms of T and its duggal transform read 0.6x (before
        # escalation, or always), so the lambda-mean convex row fails at
        # most lambdas until escalation rescues it, or for good
        cfg = SuiteConfig(trials=1, seed=42)
        probe = _Store("s2", cfg, 0)
        t_key, dug_key = probe.T.array.tobytes(), probe.tup("T.dug").array.tobytes()
        escalated = _shorten_first_estimates(monkeypatch, "hypo_norm", 0.6,
                                             only={t_key, dug_key}, always=always)
        statuses = [r.status for r in _trial_records("s2", cfg, 0)
                    if r.inequality_id == "hyponorm.lambda_mean.convex"]
        assert escalated == {t_key: 1, dug_key: 1}
        if always:
            assert statuses.count("fail") >= 2
        else:
            assert statuses.count("refined-pass") == 1
            assert "fail" not in statuses

    def test_pool_failure_warns_and_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no process slots")

        monkeypatch.setattr(suites, "ProcessPoolExecutor", no_pool)
        cfg = SuiteConfig(trials=6, workers=2)
        with pytest.warns(RuntimeWarning, match="OSError: no process slots"):
            pooled = run_suite("s3", cfg)
        serial = run_suite("s3", replace(cfg, workers=1))
        assert _strip_wall_time(report_to_json(pooled)) == \
            _strip_wall_time(report_to_json(serial))

    def test_malformed_worker_count_warns(self, monkeypatch):
        monkeypatch.setenv(suites.WORKERS_ENV, "two")
        with pytest.warns(RuntimeWarning, match="SPHERTRANS_WORKERS='two'"):
            assert resolve_workers(None) == (os.cpu_count() or 1)
        monkeypatch.setenv(suites.WORKERS_ENV, "3")
        assert resolve_workers(None) == 3


class TestTightnessStats:
    def test_histogram_shape(self):
        rep = run_suite("s3", SuiteConfig(trials=10, workers=1))
        stats = tightness_stats(rep, bins=10)
        assert set(stats) == {r.inequality_id for r in rep.records}
        for entry in stats.values():
            assert len(entry["bin_counts"]) == 10
            assert len(entry["bin_edges"]) == 11
            assert sum(entry["bin_counts"]) == entry["count"]
            assert entry["min"] <= entry["mean"] <= entry["max"]


class TestFuzz:
    def test_fuzz_returns_witness(self):
        suite, records, witness, fingerprint = fuzz_inequality(
            "sp.heinz_r0.mean", SuiteConfig(trials=8, workers=1)
        )
        assert suite == "s3"
        assert len(records) == 8
        assert witness is not None
        assert witness.d == fingerprint["d"]
        assert witness.n == fingerprint["n"]

    def test_fuzz_witness_reproduces_min_slack(self):
        cfg = SuiteConfig(trials=6, workers=1)
        _, records, witness, fingerprint = fuzz_inequality("sp.chain.middle", cfg)
        worst = min(records, key=lambda r: r.slack)
        assert worst.fingerprint == fingerprint
        # replaying the trial regenerates the identical tuple
        _, _, witness2, _ = fuzz_inequality("sp.chain.middle", cfg)
        for a, b in zip(witness, witness2):
            assert np.array_equal(a, b)

    def test_fuzz_scalar_inequality_gives_triple(self):
        _, records, witness, _ = fuzz_inequality(
            "heinz_scalar.lower", SuiteConfig(trials=3, workers=1)
        )
        assert witness is not None
        assert witness.d == 3  # (A, B, X) packed as a 3-tuple document

    @pytest.mark.parametrize("rid", ["zero.generic.nonvanishing", "zero.mean.nonzero",
                                     "sharp.diag_pair.scaled_snorm", "sharp.diag_pair.hypo"])
    def test_fuzz_witness_is_the_rows_object(self, rid):
        _, _, witness, fingerprint = fuzz_inequality(rid, SuiteConfig(trials=6, workers=1))
        if rid.startswith("sharp."):
            assert np.array_equal(witness.array, sharp_diag_pair().array)
        else:
            assert (witness.d, witness.n) == (fingerprint["d"], fingerprint["n"])

    def test_fuzz_unknown_id(self):
        with pytest.raises(KeyError):
            fuzz_inequality("nope.x", SuiteConfig(trials=1))
