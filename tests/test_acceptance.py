"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full run takes a
few minutes; the randomized suites dominate.

Criterion 2 checks the diagonal-pair example against its true
hypo-p-norm max(1, 2^(1/p - 1/2)) for every p in the grid: the supremum
of (|l1|^p + |l2|^p)^(1/p) over the Euclidean unit sphere is 1 for
p >= 2 and 2^(1/p - 1/2) > 1 for p < 2 (attained at
l1 = l2 = 1/sqrt(2), and confirmed here by an independent dense-grid
search).  An optimizer that falls short at p < 2, for instance one stuck
at the vertex l = (1, 0), makes the criterion fail.
"""

import time

import numpy as np
import pytest

from sphertrans import norms, transforms
from sphertrans.ensembles import random_tuple
from sphertrans.optimize import OptimizerConfig, grid_supremum
from sphertrans.suites import (
    SuiteConfig,
    run_suite,
    sharp_column_pair,
    sharp_diag_pair,
)
from sphertrans.tuples import block_embedding

from conftest import hypo_oracle, schatten_norm

P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
SEED = 42


def _line(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


def _mixed_tuple(k: int, dmax=4, nmax=6, ensembles=("ginibre", "contraction")):
    rng = np.random.default_rng([SEED, k])
    d = int(rng.integers(1, dmax + 1))
    n = int(rng.integers(2, nmax + 1))
    return random_tuple(d, n, rng, ensembles[k % len(ensembles)])


class TestCriterion1ColumnPairSharpness:
    def test_column_pair_values(self):
        t0 = time.perf_counter()
        tup = sharp_column_pair()
        errs = {}
        for p in P_GRID:
            errs[p] = (
                abs(norms.schatten_spherical_norm(tup, p) - np.sqrt(2.0)),
                abs(norms.schatten_hypo_norm(tup, p).value - 1.0),
            )
        elapsed = time.perf_counter() - t0
        worst = max(max(pair) for pair in errs.values())
        ok = worst <= 1e-8 and elapsed < 1.0
        _line("1 column-pair sharpness", ok,
              f"max deviation {worst:.2e}, runtime {elapsed:.2f}s")
        assert worst <= 1e-8
        assert elapsed < 1.0


class TestCriterion2DiagPairSharpness:
    def test_diag_pair_values(self):
        t0 = time.perf_counter()
        tup = sharp_diag_pair()
        # sup (|l1|^p + |l2|^p)^(1/p) over the unit sphere: 1 for p >= 2,
        # 2^(1/p - 1/2) (at l1 = l2 = 1/sqrt(2)) for p < 2
        true_hypo = {p: max(1.0, 2.0 ** (1.0 / p - 0.5)) for p in P_GRID}
        scaled_errs = {}
        hypo_vals = {}
        for p in P_GRID:
            scaled_errs[p] = abs(
                norms.schatten_spherical_norm(tup, p) / 2.0 ** (1.0 / p) - 1.0
            )
            hypo_vals[p] = norms.schatten_hypo_norm(tup, p).value
        elapsed = time.perf_counter() - t0
        bad = {p: v for p, v in hypo_vals.items() if abs(v - true_hypo[p]) > 1e-8}
        ok = not bad and max(scaled_errs.values()) <= 1e-8 and elapsed < 1.0
        detail = ", ".join(f"p={p:g}: hypo={v:.9f}, true {true_hypo[p]:.9f}"
                           for p, v in sorted(bad.items()))
        _line("2 diagonal-pair sharpness", ok,
              detail or f"all within 1e-8, runtime {elapsed:.2f}s")
        assert max(scaled_errs.values()) <= 1e-8
        assert elapsed < 1.0
        # independent oracle for the true values
        for p in P_GRID:
            brute = grid_supremum(hypo_oracle(tup, p), 2, n_points=10_000)
            assert brute == pytest.approx(true_hypo[p], abs=1e-6)
        assert not bad, "hypo-p-norm deviates from its true value: " + detail


class TestCriterion3OperatorNormSuite:
    def test_suite_s2_500_trials(self):
        t0 = time.perf_counter()
        rep = run_suite("s2", SuiteConfig(trials=500, seed=SEED, dmax=4, nmax=6))
        elapsed = time.perf_counter() - t0
        failing = {rid: e for rid, e in rep.summary.items() if not e["ok"]}
        _line("3 operator-norm suite", rep.ok(),
              f"{len(rep.records)} records, {len(failing)} failing ids, "
              f"runtime {elapsed:.0f}s (target 300s)")
        expected_families = (
            "opnorm.heinz_r0.refine", "opnorm.heinz_interp.geom",
            "opnorm.lambda_mean.lower", "hyponorm.heinz_r0.refine",
            "hyponorm.lambda_mean.lower", "radius.monotone.aluthge",
            "heinz_scalar.lower", "heinz_scalar.refine",
        )
        for rid in expected_families:
            assert rid in rep.summary, rid
        assert rep.ok(), failing


class TestCriterion4SchattenNormSuite:
    def test_suite_s3_500_trials(self):
        t0 = time.perf_counter()
        rep = run_suite("s3", SuiteConfig(trials=500, seed=SEED, dmax=4, nmax=6))
        elapsed = time.perf_counter() - t0
        failing = {rid: e for rid, e in rep.summary.items() if not e["ok"]}
        _line("4 Schatten-norm suite", rep.ok(),
              f"{len(rep.records)} records, {len(failing)} failing ids, "
              f"runtime {elapsed:.0f}s (target 300s)")
        for rid in ("sp.lambda_mean.scaled_convex", "s2norm.duggal.dim_bound",
                    "s2norm.lambda_mean.min_bound", "sp.heinz_r0.refine",
                    "sp.heinz_interp.geom", "sp.chain.cap"):
            assert rid in rep.summary, rid
        assert rep.ok(), failing


class TestCriterion5SchattenRadiusSuite:
    def test_suite_s4_300_trials(self):
        t0 = time.perf_counter()
        rep = run_suite("s4", SuiteConfig(trials=300, seed=SEED, dmax=4, nmax=6))
        elapsed = time.perf_counter() - t0
        failing = {rid: e for rid, e in rep.summary.items() if not e["ok"]}
        _line("5 Schatten-radius suite", rep.ok(),
              f"{len(rep.records)} records, {len(failing)} failing ids, "
              f"runtime {elapsed:.0f}s (target 600s)")
        for rid in ("spr.radius_le_hypo", "spr.half_hypo_le_radius",
                    "spr.hypo_lower.p_small", "spr.hypo_lower.p_large",
                    "s2r.chain.a", "psd.power_sum.concave",
                    "psd.power_sum.convex"):
            assert rid in rep.summary, rid
        assert rep.ok(), failing


class TestCriterion6EqualityCases:
    def test_equality_suite_100_trials(self):
        rep = run_suite("equality", SuiteConfig(trials=100, seed=SEED))
        summary = rep.summary
        fwd = summary["eq.heinz_mean.normal_forward"]
        fwd_inv = summary["eq.aluthge_heinz.invertible_forward"]
        gap = summary["eq.heinz_mean.nonnormal_gap"]
        ok = rep.ok()
        _line("6 equality cases", ok,
              f"normal equality {fwd['passes']}/{fwd['trials']}, "
              f"invertible equality {fwd_inv['passes']}/{fwd_inv['trials']}, "
              f"non-normal strict gap rate {gap['pass_rate']:.2f} "
              f"(statistical, needs >= 0.95)")
        assert fwd["trials"] == 100 and fwd["pass_rate"] == 1.0
        assert fwd_inv["trials"] == 100 and fwd_inv["pass_rate"] == 1.0
        assert gap["pass_rate"] >= 0.95
        assert ok, {rid: e for rid, e in summary.items() if not e["ok"]}


class TestCriterion7ZeroEquivalence:
    def test_zero_suite_100_trials(self):
        rep = run_suite("zero", SuiteConfig(trials=100, seed=SEED))
        summary = rep.summary
        ok = rep.ok()
        sq = summary["zero.nilpotent.square_zero"]
        alu = summary["zero.square_zero.aluthge_vanishes"]
        hz = summary["zero.square_zero.heinz_vanishes"]
        conv = summary["zero.generic.nonvanishing"]
        _line("7 zero equivalence", ok,
              f"square-zero residuals {sq['passes']}/100 <= 1e-12, "
              f"aluthge vanishing {alu['passes']}/100, heinz vanishing "
              f"{hz['passes']}/100, generic converse {conv['passes']}/100")
        assert sq["pass_rate"] == 1.0
        assert alu["pass_rate"] == 1.0 and hz["pass_rate"] == 1.0
        assert conv["pass_rate"] == 1.0
        assert ok


class TestCriterion8OracleEquivalence:
    def test_gram_closed_form_agreement(self):
        worst = 0.0
        for k in range(200):
            tup = _mixed_tuple(k)
            opt = norms.schatten_hypo_norm(
                tup, 2.0, OptimizerConfig(n_random_starts=8)
            ).value
            closed = norms.schatten_hypo_norm_gram(tup)
            worst = max(worst, abs(opt - closed))
        ok = worst <= 1e-6
        _line("8a hypo-2-norm vs Gram closed form", ok,
              f"200 tuples, max gap {worst:.2e}")
        assert ok

    def test_radius_route_agreement(self):
        worst = 0.0
        for k in range(200):
            tup = _mixed_tuple(k, nmax=5)
            est = norms.joint_numerical_radius(tup, OptimizerConfig(n_random_starts=8))
            worst = max(worst, est.cross_gap)
        ok = worst <= 1e-6
        _line("8b radius route cross-check", ok,
              f"200 tuples, max |a - b| {worst:.2e}")
        assert ok

    def test_hypo_norm_vs_dense_grid(self):
        worst = 0.0
        for k in range(50):
            rng = np.random.default_rng([SEED, 7000 + k])
            n = int(rng.integers(2, 4))
            tup = random_tuple(2, n, rng, "ginibre")
            est = norms.hypo_norm(tup).value
            brute = grid_supremum(hypo_oracle(tup), 2, n_points=10_000)
            worst = max(worst, abs(est - brute))
        ok = worst <= 1e-6
        _line("8c hypo-norm vs dense grid", ok,
              f"50 tuples (d=2, n<=3), max gap {worst:.2e}")
        assert ok


class TestCriterion9StructuralIdentities:
    def test_500_random_tuples(self):
        worst = {"norm_transfer": 0.0, "p_transfer": 0.0, "direct_sum": 0.0,
                 "polar": 0.0, "endpoints": 0.0}
        for k in range(500):
            rng = np.random.default_rng([SEED, 9000 + k])
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 7))
            ens = ("ginibre", "contraction", "nilpotent")[k % 3]
            tup = random_tuple(d, n, rng, ens)
            p = float((1.0, 1.5, 2.0, 3.0, 5.0)[k % 5])
            scale = 1.0 + norms.spherical_norm(tup)

            blocks = block_embedding(tup)
            polar = tup.polar
            # operator-norm transfer: ||T|| = ||column block|| = ||sum T*T||^(1/2)
            worst["norm_transfer"] = max(
                worst["norm_transfer"],
                abs(norms.spherical_norm(tup) - np.linalg.norm(blocks.t_block, 2)),
            )
            # Schatten transfer: tuple p-norm = ||P||_p = block p-norm
            sp = norms.schatten_spherical_norm(tup, p)
            worst["p_transfer"] = max(
                worst["p_transfer"],
                abs(sp - schatten_norm(polar.p, p)),
                abs(sp - schatten_norm(blocks.t_block, p)),
            )
            # direct-sum p-norm over the tuple's coordinates
            block = np.zeros((d * n, d * n), dtype=complex)
            for i, m in enumerate(tup):
                block[i * n:(i + 1) * n, i * n:(i + 1) * n] = m
            direct = sum(schatten_norm(m, p) ** p for m in tup) ** (1.0 / p)
            worst["direct_sum"] = max(
                worst["direct_sum"], abs(schatten_norm(block, p) - direct)
            )
            # polar invariants
            recon = max(
                np.linalg.norm(v @ polar.p - m, 2) for v, m in zip(polar.v, tup)
            )
            svv = sum(np.conj(v.T) @ v for v in polar.v)
            q = polar.eigvecs[:, polar.eigvals > polar.rank_tol]
            proj = np.linalg.norm(svv - q @ np.conj(q.T), 2)
            gram = sum(np.conj(m.T) @ m for m in tup)
            psq = np.linalg.norm(polar.p @ polar.p - gram, 2) / (
                1.0 + np.linalg.norm(gram, 2)
            )
            contraction = max(0.0, np.linalg.norm(np.vstack(polar.v), 2) - 1.0)
            worst["polar"] = max(
                worst["polar"], recon / scale, proj, psq, contraction
            )
            # endpoint identities of the transforms
            def dist(a, b):
                return max(
                    np.linalg.norm(x - y, 2) for x, y in zip(a, b)
                ) / scale

            dug = transforms.duggal(tup)
            mean = [(m + g) / 2.0 for m, g in zip(tup, dug)]
            worst["endpoints"] = max(
                worst["endpoints"],
                dist(transforms.generalized_aluthge(tup, 0.0), tup),
                dist(transforms.generalized_aluthge(tup, 1.0), dug),
                dist(transforms.heinz(tup, 0.5), transforms.generalized_aluthge(tup, 0.5)),
                dist(transforms.heinz(tup, 0.0), mean),
                dist(transforms.lambda_mean(tup, 0.0), dug),
                dist(transforms.lambda_mean(tup, 1.0), tup),
                dist(transforms.lambda_mean(tup, 0.5), mean),
                np.linalg.norm(polar.p_power(0.0) - np.eye(n), 2),
            )
        ok = max(worst.values()) <= 1e-9
        _line("9 structural identities", ok,
              ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
        assert max(worst.values()) <= 1e-9, worst
