import numpy as np
import pytest

from sphertrans import linalg, norms, optimize
from sphertrans.ensembles import random_tuple
from sphertrans.norms import combination, hypo_norm
from sphertrans.optimize import (
    BallPoint,
    OptimizerConfig,
    gauge_fix,
    grid_supremum,
    power_step,
    sphere_optimize,
)


class TestBallPoint:
    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            BallPoint(np.array([1.0, 1.0]))

    def test_accepts_boundary(self):
        bp = BallPoint(np.array([1.0, 0.0]))
        assert bp.d == 2


class TestGauge:
    def test_first_coefficient_made_real_nonnegative(self):
        lam = np.array([np.exp(1j * 0.7), 0.3j])
        out = gauge_fix(lam)
        assert out[0].imag == pytest.approx(0.0, abs=1e-15)
        assert out[0].real > 0
        assert np.abs(np.abs(out) - np.abs(lam)).max() < 1e-15

    def test_falls_back_to_first_nonzero(self):
        lam = np.array([0.0, 1j])
        out = gauge_fix(lam)
        assert out[1] == pytest.approx(1.0)


class TestSphereOptimize:
    def test_constant_objective(self):
        est = sphere_optimize(lambda rows: np.full(len(rows), 3.25), 3,
                              OptimizerConfig(n_random_starts=4),
                              ascend=lambda rows: (np.full(len(rows), 3.25), rows))
        assert est.value == 3.25
        assert est.converged
        assert est.spread == pytest.approx(0.0)

    def test_d_one_collapses_to_single_point(self):
        calls = []

        def obj(rows):
            calls.append(np.array(rows))
            return np.abs(rows[:, 0])

        est = sphere_optimize(obj, 1)
        assert est.value == 1.0
        assert len(calls) == 1
        assert est.argmax.coeffs[0] == pytest.approx(1.0)

    def test_known_quadratic_maximum(self):
        # sup of |2 lam_1 + lam_2| over the ball is sqrt(5), a rank-one case
        c = np.array([2.0, 1.0])

        def obj(rows):
            return np.abs(rows @ c)

        def ascend(rows):
            z = rows @ c
            return np.abs(z), power_step(rows, np.conj(z)[:, None] * c)

        est = sphere_optimize(obj, 2, OptimizerConfig(n_random_starts=8), ascend=ascend)
        assert est.value == pytest.approx(np.sqrt(5.0), abs=1e-7)

    def test_step_length_ignores_the_phase_of_the_next_row(self):
        # the step reaches the maximizer at once but returns it with an
        # arbitrary phase, like an eigenvector; rows must still retire on
        # the step tolerance within a few iterations, not on the stall rule
        c = np.array([2.0, 1.0])
        rng = np.random.default_rng(3)

        def obj(rows):
            return np.abs(rows @ c)

        def ascend(rows):
            z = rows @ c
            phases = np.exp(2j * np.pi * rng.random(len(rows)))[:, None]
            return np.abs(z), phases * power_step(rows, np.conj(z)[:, None] * c)

        est = sphere_optimize(obj, 2, OptimizerConfig(n_random_starts=8, max_iters=4),
                              ascend=ascend)
        assert est.converged
        assert est.value == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_value_is_objective_at_argmax(self):
        t = random_tuple(3, 4, 21)
        est = hypo_norm(t)
        direct = linalg.operator_norm(combination(t, est.argmax.coeffs))
        assert abs(est.value - direct) <= 1e-12

    def test_deterministic_given_seed(self):
        t = random_tuple(3, 5, 33)
        a = hypo_norm(t, OptimizerConfig(seed=7))
        b = hypo_norm(t, OptimizerConfig(seed=7))
        assert a.value == b.value
        assert np.array_equal(a.argmax.coeffs, b.argmax.coeffs)

    def test_gauge_fixed_argmax(self):
        t = random_tuple(2, 3, 5)
        est = hypo_norm(t)
        lead = est.argmax.coeffs[np.argmax(np.abs(est.argmax.coeffs) > 1e-12)]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)

    def test_phase_dependent_objective_needs_ascent_and_no_polish(self):
        def obj(rows):
            return np.abs(rows[:, 0].real)

        with pytest.raises(ValueError):
            sphere_optimize(obj, 2, OptimizerConfig(), phase_invariant=False)

    def test_warm_start_is_used(self):
        t = random_tuple(2, 4, 8)
        full = hypo_norm(t)
        warm = hypo_norm(
            t,
            OptimizerConfig(n_random_starts=0),
            warm_starts=[full.argmax.coeffs],
        )
        assert warm.value >= full.value - 1e-10


class TestGridOracle:
    def test_matches_optimizer_on_small_tuples(self):
        for seed in range(6):
            t = random_tuple(2, 2, seed)
            est = hypo_norm(t)

            def obj(lam):
                return linalg.operator_norm(combination(t, lam))

            brute = grid_supremum(obj, 2, n_points=10_000)
            assert abs(est.value - brute) <= 1e-6
            # optimizer value is a lower bound of the supremum
            assert est.value <= brute + 1e-6

    def test_d1_shortcut(self):
        assert grid_supremum(lambda lam: float(np.abs(lam[0])), 1) == 1.0

    def test_general_d_random_grid(self):
        def obj(lam):
            return abs(lam[0] + lam[1] + lam[2])

        brute = grid_supremum(obj, 3, n_points=4000, seed=1)
        assert brute == pytest.approx(np.sqrt(3.0), abs=5e-3)


class TestEscalation:
    def test_escalated_config_grows(self):
        cfg = OptimizerConfig(n_random_starts=8)
        esc = cfg.escalated()
        assert esc.n_random_starts >= 256
        assert esc.grid_points >= 100_000

    def test_grid_screening_runs(self):
        t = random_tuple(2, 2, 12)
        cfg = OptimizerConfig(n_random_starts=2, grid_points=500)
        est = hypo_norm(t, cfg)
        base = hypo_norm(t)
        assert est.value == pytest.approx(base.value, abs=1e-8)

    def test_screens_batch_objectives_in_few_calls(self, monkeypatch):
        """A 20k-point screen hands each estimator's objective 2-D batches
        only, a few calls each, route (a) included."""
        calls = []
        real = optimize.sphere_optimize

        def counted(objective, *args, **kwargs):
            def obj(rows):
                calls.append(np.ndim(rows))
                return objective(rows)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(norms, "sphere_optimize", counted)
        t = random_tuple(2, 3, 12)
        cfg = OptimizerConfig(n_random_starts=2, grid_points=20_000)
        norms.joint_numerical_radius(t, cfg, route="a")
        norms.hypo_norm(t, cfg)
        norms.schatten_numerical_radius(t, 2.0, cfg)
        assert calls and set(calls) == {2}
        assert len(calls) <= 20
