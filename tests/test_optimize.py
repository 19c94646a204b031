import numpy as np
import pytest

from sphertrans import norms, optimize
from sphertrans.ensembles import random_tuple
from sphertrans.errors import InvalidParameterError
from sphertrans.norms import hypo_norm, schatten_hypo_norm
from sphertrans.optimize import (
    BallPoint,
    OptimizerConfig,
    gauge_fix,
    grid_supremum,
    power_step,
    sphere_optimize,
)

from conftest import combination, hypo_oracle, schatten_norm


class TestBallPoint:
    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            BallPoint(np.array([1.0, 1.0]))

    def test_accepts_boundary(self):
        bp = BallPoint(np.array([1.0, 0.0]))
        assert np.array_equal(bp.coeffs, [1.0, 0.0])


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    @pytest.mark.parametrize("t", [random_tuple(2, 2, 31), random_tuple(3, 4, 21)],
                             ids=["d2n2", "d3n4"])
    def test_value_is_objective_at_argmax(self, t, p):
        est = schatten_hypo_norm(t, p)
        direct = schatten_norm(combination(t, est.argmax.coeffs), p)
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


class TestGridOracle:
    def test_matches_optimizer_on_small_tuples(self):
        for seed in range(6):
            t = random_tuple(2, 2, seed)
            est = hypo_norm(t)
            brute = grid_supremum(hypo_oracle(t), 2, n_points=10_000)
            assert abs(est.value - brute) <= 1e-6
            # optimizer value is a lower bound of the supremum
            assert est.value <= brute + 1e-6

    def test_d1_shortcut(self):
        assert grid_supremum(lambda lam: np.abs(lam[:, 0]), 1) == 1.0

    def test_general_d_random_grid(self):
        def obj(lam):
            return np.abs(lam.sum(axis=1))

        brute = grid_supremum(obj, 3, n_points=4000, seed=1)
        assert brute == pytest.approx(np.sqrt(3.0), abs=5e-3)

    @pytest.mark.parametrize("d,levels", [(1, 1), (2, 7), (3, 7)])
    def test_one_objective_call_per_grid_level(self, d, levels):
        batches = []

        def obj(lam):
            assert lam.ndim == 2 and lam.shape[1] == d
            batches.append(len(lam))
            return np.abs(lam.sum(axis=1))

        grid_supremum(obj, d, n_points=400, zoom=6)
        assert len(batches) == levels


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["n_random_starts", "grid_points", "max_iters", "seed"])
    def test_negative_field_raises(self, field):
        with pytest.raises(InvalidParameterError, match=field):
            OptimizerConfig(**{field: -1})

    def test_zero_fields_are_valid(self):
        cfg = OptimizerConfig(n_random_starts=0, grid_points=0, max_iters=0, seed=0)
        assert cfg.escalated().n_random_starts == 256


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
        real, real_batch = optimize.sphere_optimize, optimize.sphere_optimize_batch

        def counted(objective, *args, **kwargs):
            def obj(rows):
                calls.append(np.ndim(rows))
                return objective(rows)
            return real(obj, *args, **kwargs)

        def counted_batch(objective, *args, **kwargs):
            def obj(rows, blocks):
                calls.append(np.ndim(rows))
                return objective(rows, blocks)
            return real_batch(obj, *args, **kwargs)

        monkeypatch.setattr(norms, "sphere_optimize", counted)
        monkeypatch.setattr(norms, "sphere_optimize_batch", counted_batch)
        t = random_tuple(2, 3, 12)
        cfg = OptimizerConfig(n_random_starts=2, grid_points=20_000)
        norms._radius_vector_route(t, cfg)
        norms.hypo_norm(t, cfg)
        norms.schatten_numerical_radius(t, 2.0, cfg)
        assert calls and set(calls) == {2}
        assert len(calls) <= 20


class TestBatchDraws:
    """sphere_optimize_batch draws its random points once per batch, and
    every owner's estimate is still that of a run of its own."""

    @pytest.mark.parametrize("phase_invariant", [True, False])
    def test_one_draw_per_batch_and_estimates_unchanged(self, monkeypatch, phase_invariant):
        # |c_b . lam| and |Re(c_b . lam)|, ascended by the dual step
        cs = np.array([[2.0, 1.0, 0.5j], [0.3, -1.0j, 1.0], [1.0, 1.0, 1.0]])

        def values(c, rows):
            z = rows @ c
            return np.abs(z if phase_invariant else z.real), z

        def objective(c):
            return lambda rows: values(c, rows)[0]

        def ascend(c):
            def step(rows):
                vals, z = values(c, rows)
                sign = np.conj(z) / np.where(vals > 0, np.abs(z), 1.0) if phase_invariant \
                    else np.sign(z.real)
                return vals, power_step(rows, sign[:, None] * c)
            return step

        def batched(make):
            def per_block(rows, blocks, *state):
                parts = [make(cs[b])(rows[sl]) for b, sl in blocks]
                if make is objective:
                    return np.concatenate(parts)
                return (np.concatenate([v for v, _ in parts]),
                        np.vstack([nxt for _, nxt in parts]), None)
            return per_block

        cfg = OptimizerConfig(n_random_starts=4, grid_points=300, seed=5)
        draws = []
        real_rng = np.random.default_rng

        def counted(*args, **kwargs):
            draws.append(args)
            return real_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        ests = optimize.sphere_optimize_batch(batched(objective), 3, len(cs), cfg,
                                              ascend=batched(ascend),
                                              phase_invariant=phase_invariant)
        assert draws == [(cfg.seed,)]
        for c, est in zip(cs, ests):
            alone = sphere_optimize(objective(c), 3, cfg, ascend=ascend(c),
                                    phase_invariant=phase_invariant)
            assert est.argmax.coeffs.tobytes() == alone.argmax.coeffs.tobytes()
            assert (est.value, est.starts, est.converged, est.spread, est.iterations,
                    est.evaluations) == (alone.value, alone.starts, alone.converged,
                                         alone.spread, alone.iterations, alone.evaluations)
            assert est.value == pytest.approx(np.linalg.norm(c), rel=1e-9)
