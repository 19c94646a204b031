import collections
import json
import os
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from sphertrans import blocks, suites
from sphertrans.errors import InvalidParameterError
from sphertrans.norms import schatten_spherical_norm
from sphertrans.reports import report_to_json
from sphertrans.suites import (
    INEQUALITIES,
    SUITE_NAMES,
    TABLE,
    Row,
    SuiteConfig,
    _Store,
    _block_records,
    fuzz_inequality,
    resolve_workers,
    run_suite,
    sharp_diag_pair,
)
from sphertrans.transforms import lambda_mean
from sphertrans.tuples import OperatorTuple


SRC = Path(__file__).resolve().parent.parent / "src" / "sphertrans"


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time": [^,}\n]+', '"wall_time": 0', text)


# the batched entry point a block uses for the first estimates of each
# estimator that has one
_FIRST_BATCH = {"hypo_norm": "_hypo_p_norms", "joint_numerical_radius": "_radius_vector_routes"}


def _shorten_first_estimates(monkeypatch, name, factor, only=None, always=False):
    """Patch the suites' estimator `name`, and its _FIRST_BATCH entry
    point if it has one, so that unescalated estimates (every estimate if
    always) of the tuples whose arrays are in only, or of every tuple,
    return factor times the value; returns a Counter of escalated calls
    per tuple array."""
    escalated = collections.Counter()

    def shorten(t, config, est):
        key = t.array.tobytes()
        if config.grid_points:
            escalated[key] += 1
            if not always:
                return est
        if only is None or key in only:
            return replace(est, value=factor * est.value)
        return est

    def config_of(args):
        return [a for a in args if hasattr(a, "grid_points")][0]

    real = getattr(suites, name)
    monkeypatch.setattr(suites, name, lambda t, *args: shorten(t, config_of(args), real(t, *args)))
    if name in _FIRST_BATCH:
        real_batch = getattr(suites, _FIRST_BATCH[name])

        def short_batch(ts, *args):
            return [shorten(t, config_of(args), est) for t, est in zip(ts, real_batch(ts, *args))]

        monkeypatch.setattr(suites, _FIRST_BATCH[name], short_batch)
    return escalated


def _bare_tup(store, name) -> OperatorTuple:
    """A named tuple of a store that no block filled, built by blocks.stacks
    as its block builds it."""
    (_, built), = blocks.stacks([store], [name])
    return OperatorTuple(matrices=built[name][0])


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
        # 40 trials make one serial block and eight pooled blocks of five,
        # and a block holds several trials of one shape
        for suite in ("s3", "equality", "zero"):
            cfg1 = SuiteConfig(trials=40, workers=1)
            cfg2 = SuiteConfig(trials=40, workers=2)
            a = report_to_json(run_suite(suite, cfg1))
            b = report_to_json(run_suite(suite, cfg2))
            assert _strip_wall_time(a) == _strip_wall_time(b), suite

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

    @pytest.mark.parametrize("suite", ["s3", "sharpness"])
    def test_report_json_is_the_asdict_dump(self, suite):
        rep = run_suite(suite, SuiteConfig(trials=3, workers=1))
        assert report_to_json(rep) == json.dumps(asdict(rep), indent=1, sort_keys=True)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("s9", SuiteConfig(trials=1))

    @pytest.mark.parametrize("tol, opt_tol", [(1e-8, 1e-6), (1e-6, 1e-6), (1e-5, 1e-5)])
    def test_opt_tol_is_tol_floored_at_1e_6(self, tol, opt_tol):
        assert SuiteConfig(trials=1, tol=tol).opt_tol == opt_tol

    def test_opt_tol_is_not_settable(self):
        with pytest.raises(TypeError):
            SuiteConfig(trials=1, opt_tol=1e-3)

    def test_report_carries_the_computed_opt_tol(self):
        rep = run_suite("sharpness", SuiteConfig(trials=1, tol=1e-5, workers=1))
        assert (rep.tol, rep.opt_tol) == (1e-5, 1e-5)

    def test_ensemble_override(self):
        rep = run_suite("s3", SuiteConfig(trials=6, workers=1, ensemble="ginibre"))
        for rec in rep.records:
            assert rec.fingerprint.get("ensemble", "ginibre") == "ginibre"

    @pytest.mark.parametrize("suite, ensemble", [("zero", "nilpotent"), ("equality", "ginibre"),
                                                 ("sharpness", "ginibre"), ("s3", "gaussian")])
    def test_ensemble_rejected_where_unread_or_unknown(self, suite, ensemble):
        with pytest.raises(InvalidParameterError, match=f"ensemble='{ensemble}'"):
            run_suite(suite, SuiteConfig(trials=1, workers=1, ensemble=ensemble))


def _record_bits(records) -> list:
    return [(r.inequality_id, r.lhs.hex(), r.rhs.hex(), r.slack.hex(), r.status, r.fingerprint)
            for r in records]


class TestBlocks:
    @pytest.mark.parametrize("seed", [42, 4242])
    @pytest.mark.parametrize("suite,trials", [("s3", 40), ("equality", 40), ("zero", 40),
                                              ("s2", 8), ("s4", 8)])
    def test_records_do_not_depend_on_the_block(self, suite, trials, seed):
        """Blocks of one trial, of seven and of the whole run give the same
        records, float for float."""
        cfg = SuiteConfig(trials=trials, seed=seed)

        def in_blocks(size):
            return _record_bits(rec for lo in range(0, trials, size)
                                for rec in _block_records(suite, cfg,
                                                          range(lo, min(lo + size, trials))))

        whole = in_blocks(trials)
        assert in_blocks(1) == whole
        assert in_blocks(7) == whole

    @pytest.mark.parametrize("trials,workers,sizes", [
        (300, 1, [100] * 3), (250, 1, [100, 100, 50]), (300, 2, [37] * 8 + [4]),
        (40, 2, [5] * 8), (8, 2, [1] * 8), (8, 1, [8]), (1, 1, [1])])
    def test_blocks_cover_the_trials_in_order(self, trials, workers, sizes):
        blocks = suites._trial_blocks(trials, workers)
        assert [len(b) for b in blocks] == sizes
        assert [k for b in blocks for k in b] == list(range(trials))

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_block_spectra_are_exactly_the_spectra_rows_read(self, monkeypatch, suite):
        # a block computes no spectrum that no row reads, and a row reads
        # no spectrum that its block left to be computed on first read
        read = set()
        real = _Store.spectrum

        def spy(store, name):
            assert ("spectrum", name) in store.memo
            read.add(name)
            return real(store, name)

        monkeypatch.setattr(_Store, "spectrum", spy)
        cfg = SuiteConfig(trials=3, seed=42)
        _block_records(suite, cfg, range(1 if suite == "sharpness" else cfg.trials))
        assert read == set(suites._SPECTRA[suite])

    def test_a_bare_store_builds_and_factorizes_nothing(self):
        # a read that no block filled fails and names what it read
        s = _Store("s2", SuiteConfig(trials=1, seed=42), 0)
        assert s.tup("T") is s.T
        with pytest.raises(KeyError, match="tup of 'T.alu'"):
            s.tup("T.alu")
        with pytest.raises(KeyError, match="spectrum of 'T'"):
            s.norm("T")
        with pytest.raises(KeyError, match="spectrum of 0.3"):
            s.norm(0.3)
        with pytest.raises(KeyError, match="tup of 'T.mean'"):
            s.hypo(0.5)
        assert s.memo == {}


class TestS3LambdaGrid:
    @pytest.mark.parametrize("trial", range(6))
    def test_batched_grid_equals_per_lambda_norms(self, trial):
        """Each lambda-mean norm read from the batched SVD of the grid is the
        Schatten norm of that lambda mean, bit for bit."""
        cfg = SuiteConfig(trials=6, seed=4242)
        recs = _block_records("s3", cfg, [trial])
        tup = _Store("s3", cfg, trial).T
        grid_ids = {"sp.lambda_mean.scaled_convex": None,
                    "s2norm.lambda_mean.min_bound": 2.0}
        checked = 0
        for rec in recs:
            if rec.inequality_id in grid_ids:
                fp = rec.fingerprint
                p = grid_ids[rec.inequality_id] or fp["p"]
                lam_mean = lambda_mean(tup, fp["lambda"])
                assert rec.lhs == schatten_spherical_norm(lam_mean, p), (fp, p)
                checked += 1
        assert checked == 22


class TestS2LambdaAliases:
    def test_aliased_lambda_means_equal_their_names(self):
        cfg = SuiteConfig(trials=12, seed=42)
        for trial in range(cfg.trials):
            s = _Store("s2", cfg, trial)
            for lam, name in suites._LAMBDA_ALIASES.items():
                assert np.array_equal(_bare_tup(s, lam).array, _bare_tup(s, name).array), \
                    (trial, lam)

    def test_one_s2_trial_makes_13_hypo_norm_calls(self, monkeypatch):
        # 5 named tuples (T, aluthge, heinz, mean, duggal) plus the 8
        # lambda means not aliased to one of them, in one batched ascent;
        # no check escalates here
        calls = collections.Counter()
        batches = []
        real, real_batch = suites.hypo_norm, suites._hypo_p_norms

        def counted(t, *args, **kwargs):
            calls[t.array.tobytes()] += 1
            return real(t, *args, **kwargs)

        def counted_batch(ts, *args, **kwargs):
            batches.append(len(ts))
            calls.update(t.array.tobytes() for t in ts)
            return real_batch(ts, *args, **kwargs)

        monkeypatch.setattr(suites, "hypo_norm", counted)
        monkeypatch.setattr(suites, "_hypo_p_norms", counted_batch)
        recs = _block_records("s2", SuiteConfig(trials=1, seed=42), [0])
        assert all(r.status == "pass" for r in recs)
        assert sum(calls.values()) == 13
        assert set(calls.values()) == {1}
        assert batches == [13]

    def test_batches_are_exactly_the_estimates_an_s2_trial_reads(self, monkeypatch):
        # nothing is estimated in a batch that no row reads, and every
        # operator hypo-norm and joint radius a row reads is in a batch
        read = set()
        real = _Store._sup

        def spy(store, key):
            read.add(key)
            return real(store, key)

        monkeypatch.setattr(_Store, "_sup", spy)
        cfg = SuiteConfig(trials=3, seed=42)
        for trial in range(cfg.trials):
            _block_records("s2", cfg, [trial])
        batched = {(kind, name, None)
                   for kind, names in suites._BATCHES["s2"].items() for name in names}
        assert read == batched


class TestOneSpectrumPerTuple:
    @pytest.mark.parametrize("suite", ["s3", "s2", "equality", "zero"])
    def test_each_stacked_column_is_factorized_once(self, monkeypatch, suite):
        """Over a block of four trials, counting every matrix of a batched
        SVD, each stacked column whose spectrum a row reads has one SVD,
        though s2, s3 and equality read most norms both at p and at the
        operator norm or p = 2.  Each sampled tuple that is transformed has
        one more, with vectors, for its polar decomposition."""
        cfg = SuiteConfig(trials=4, seed=42)
        trials = range(cfg.trials)
        stores = [_Store(suite, cfg, k) for k in trials]
        if suite in ("s2", "s3"):
            assert {s.p for s in stores} - {2.0}
        names = suites._SPECTRA[suite]
        bases = {blocks.name_parts(name)[0] for name in names
                 if isinstance(name, float) or "." in name} - {"triple", "generic"}
        columns = {_bare_tup(s, name).stacked().tobytes(): (k, name)
                   for k, s in zip(trials, stores) for name in (*names, *bases)}
        calls = collections.Counter()
        real = np.linalg.svd

        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            for m in a.reshape(-1, *a.shape[-2:]):
                if m.tobytes() in columns:
                    calls[columns[m.tobytes()], kwargs.get("compute_uv", True)] += 1
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        _block_records(suite, cfg, trials)
        expected = {((k, name), False): 1 for k in trials for name in names}
        expected.update({((k, base), True): 1 for k in trials for base in bases})
        assert calls == expected


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

    def test_eq_above_its_target_fails_without_a_rerun(self, monkeypatch):
        # the diag pair's hypo-1-norm is sqrt(2): its measured lower bound
        # already proves the violation, so no rerun can change the verdict
        escalated = _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", 1.0)
        rec = _judge("eq", lambda s: s.hypo("diag", 1.0), lambda s: 1.0, 1e-8)
        assert rec.status == "fail"
        assert rec.lhs > rec.rhs + 1e-8
        assert escalated == {}

    def test_eq_below_its_target_escalates_once(self, monkeypatch):
        escalated = _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", 1.0)
        rec = _judge("eq", lambda s: s.hypo("diag", 1.0), lambda s: 2.0, 1e-8)
        assert rec.status == "fail"
        assert escalated == {sharp_diag_pair().array.tobytes(): 1}

    @pytest.mark.parametrize("factor", [1.0, 0.5])
    def test_gt_reading_an_optimized_lhs_never_escalates(self, monkeypatch, factor):
        # a larger lhs only moves "rhs > lhs" further from holding
        escalated = _shorten_first_estimates(monkeypatch, "schatten_hypo_norm", factor)
        rec = _judge("gt", lambda s: s.hypo("column", 2.0), lambda s: 0.25, "tol")
        assert rec.status == "fail"
        assert escalated == {}

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
                for r in _block_records("s4", SuiteConfig(trials=1, seed=42), [0])}
        assert recs["spr.radius_le_hypo"].status == "refined-pass"
        escalated = recs["spr.radius_le_hypo"].rhs
        assert recs["spr.hypo_le_norm"].lhs == escalated
        assert recs["s2r.chain.a"].rhs == escalated / np.sqrt(2.0)
        assert recs["s2r.chain.d"].lhs == escalated

    def test_a_short_schatten_radius_escalates_once_per_trial(self, monkeypatch):
        # s4 trials 0-2 at seed 42 draw p = 2, 1.5 and 5; each first
        # Schatten p-radius reads 0.4x, so half the hypo-norm exceeds it
        # until the rerun, which is a fresh run at the escalated config
        cfg = SuiteConfig(trials=3, seed=42)
        stores = [_Store("s4", cfg, k) for k in range(3)]
        reruns = [suites.schatten_numerical_radius(s.T, s.p, cfg.opt.escalated()).value
                  for s in stores]
        escalated = _shorten_first_estimates(monkeypatch, "schatten_numerical_radius", 0.4)
        recs = [r for r in _block_records("s4", cfg, range(3))
                if r.inequality_id == "spr.half_hypo_le_radius"]
        assert [s.p for s in stores] == [2.0, 1.5, 5.0]
        assert [r.status for r in recs] == ["refined-pass"] * 3
        assert [r.rhs for r in recs] == reruns
        assert escalated == {s.T.array.tobytes(): 1 for s in stores}

    def test_a_short_joint_radius_escalates_through_both_routes(self, monkeypatch):
        # only T.hz's first radius (route a, from the block's batch) reads
        # 0.4x: the aluthge row escalates it once, through
        # joint_numerical_radius, and the mean row reads the escalated value
        cfg = SuiteConfig(trials=1, seed=42)
        hz = _bare_tup(_Store("s2", cfg, 0), "T.hz")
        rerun = suites.joint_numerical_radius(hz, cfg.opt.escalated()).value
        escalated = _shorten_first_estimates(monkeypatch, "joint_numerical_radius", 0.4,
                                             only={hz.array.tobytes()})
        recs = {r.inequality_id: r for r in _block_records("s2", cfg, [0])}
        aluthge, mean = recs["radius.monotone.aluthge"], recs["radius.monotone.mean"]
        assert escalated == {hz.array.tobytes(): 1}
        assert (aluthge.status, aluthge.rhs) == ("refined-pass", rerun)
        assert (mean.status, mean.lhs) == ("pass", rerun)

    @pytest.mark.parametrize("always", [False, True])
    def test_a_quantity_escalates_once_per_trial(self, monkeypatch, always):
        # the hypo-norms of T and its duggal transform read 0.6x (before
        # escalation, or always), so the lambda-mean convex row fails at
        # most lambdas until escalation rescues it, or for good
        cfg = SuiteConfig(trials=1, seed=42)
        probe = _Store("s2", cfg, 0)
        t_key, dug_key = probe.T.array.tobytes(), _bare_tup(probe, "T.dug").array.tobytes()
        escalated = _shorten_first_estimates(monkeypatch, "hypo_norm", 0.6,
                                             only={t_key, dug_key}, always=always)
        statuses = [r.status for r in _block_records("s2", cfg, [0])
                    if r.inequality_id == "hyponorm.lambda_mean.convex"]
        assert escalated == {t_key: 1, dug_key: 1}
        if always:
            assert statuses.count("fail") >= 2
        else:
            assert statuses.count("refined-pass") == 1
            assert "fail" not in statuses

    def test_a_larger_estimate_never_lowers_an_eq_or_gt_lhs(self, monkeypatch):
        # escalation skips an "eq" above its target and every "gt" because a
        # larger estimate can only raise their lhs: each optimized read of
        # such a row is served at v, then alone at 2v, and the lhs must not
        # fall; the rhs, which never escalates, must read no optimized value
        v, served = 0.75, {}

        def serve(store, key):
            store.reads.append(key)
            return served.get(key, v)

        monkeypatch.setattr(_Store, "_sup", serve)
        cfg = SuiteConfig(trials=1, seed=42)
        stores = {}
        reading = set()
        for row in TABLE:
            if row.check == "le":
                continue
            if row.suite not in stores:
                stores[row.suite] = s = _Store(row.suite, cfg, 0)
                blocks.fill_spectra([s], suites._SPECTRA[row.suite])
            s = stores[row.suite]
            for value, _ in suites._index(s, row.index):
                served.clear()
                s.reads = []
                lhs = float(row.lhs(s, value))
                keys, s.reads = s.reads, []
                row.rhs(s, value)
                assert s.reads == [], (row.id, value)
                for key in dict.fromkeys(keys):
                    reading.add(row.id)
                    served.clear()
                    served[key] = 2 * v
                    assert float(row.lhs(s, value)) >= lhs, (row.id, value, key)
        assert reading >= {"sharp.column_pair.hypo", "sharp.diag_pair.hypo"}

    @pytest.mark.parametrize("seed", [42, 6, 4242])
    def test_a_sharpness_run_reruns_nothing(self, monkeypatch, seed):
        # the red diag-pair records fail on their lower bound, and every
        # other record holds, so no estimate runs with a screening grid
        configs = []
        for name in ("hypo_norm", "schatten_hypo_norm", "joint_numerical_radius",
                     "schatten_numerical_radius"):
            real = getattr(suites, name)

            def spy(*args, real=real, **kwargs):
                configs.extend(a for a in (*args, *kwargs.values()) if hasattr(a, "grid_points"))
                return real(*args, **kwargs)

            monkeypatch.setattr(suites, name, spy)
        cfg = SuiteConfig(trials=1, workers=1, opt=replace(suites._SUITE_OPT, seed=seed))
        rep = run_suite("sharpness", cfg)
        assert configs and all(c.grid_points == 0 for c in configs)
        fails = [r for r in rep.records if r.status == "fail"]
        assert [(r.inequality_id, r.fingerprint["p"]) for r in fails] == \
            [("sharp.diag_pair.hypo", 1.0), ("sharp.diag_pair.hypo", 1.5)]
        assert all(r.lhs > r.rhs + 1e-8 for r in fails)

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

    def test_the_worker_count_is_the_option_else_the_cpu_count(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == (os.cpu_count() or 1)


class TestFuzz:
    def test_fuzz_returns_witness(self):
        report, records, witness, fingerprint = fuzz_inequality(
            "sp.heinz_r0.mean", SuiteConfig(trials=8, workers=1)
        )
        assert (report.suite, report.trials) == ("s3", 8)
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
