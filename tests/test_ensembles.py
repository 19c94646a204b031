import numpy as np
import pytest

from sphertrans import ensembles
from sphertrans.norms import spherical_norm
from sphertrans.predicates import classify, is_normal_tuple
from sphertrans.suites import SuiteConfig, _Store
from sphertrans.tuples import OperatorTuple, product_of, spherical_polar


class TestRandomTuple:
    def test_shapes(self):
        t = ensembles.random_tuple(3, 4, 0)
        assert t.d == 3 and t.n == 4

    def test_deterministic_given_seed(self):
        a = ensembles.random_tuple(2, 3, 123)
        b = ensembles.random_tuple(2, 3, 123)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_scalar_case(self):
        t = ensembles.random_tuple(1, 1, 7)
        assert t.d == 1 and t.n == 1

    def test_nilpotent_two_by_two_square_zero(self):
        for seed in range(10):
            t = ensembles.random_tuple(3, 2, seed, "nilpotent")
            square = OperatorTuple(matrices=product_of(t.array, t.array))
            assert spherical_norm(square) <= 1e-12

    def test_nilpotent_larger_n_has_singular_defect(self):
        t = ensembles.random_tuple(2, 5, 3, "nilpotent")
        polar = spherical_polar(t)
        assert polar.rank < t.n

    def test_contraction_normalized(self):
        t = ensembles.random_tuple(3, 4, 9, "contraction")
        assert spherical_norm(t) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError):
            ensembles.random_tuple(1, 2, 0, "cauchy")


class TestCommutingTuple:
    def test_commutation_residual(self):
        for seed in range(8):
            t = ensembles.random_commuting_tuple(3, 5, seed)
            assert classify(t, 1e-10).commuting.residual <= 1e-10

    def test_generically_not_normal(self):
        hits = sum(
            is_normal_tuple(ensembles.random_commuting_tuple(2, 4, seed)).flag
            for seed in range(10)
        )
        assert hits == 0

    @pytest.mark.parametrize("seed", [42, 4242])
    def test_equality_suite_draws_are_far_from_normal(self, seed):
        """eq.heinz_mean.nonnormal_gap claims a strict gap for non-normal
        commuting tuples and has no gate for a normal draw.  Over 300
        equality trials, each drawn comm is non-normal by at least 1e3 times
        is_normal_tuple's tolerance; the least margin seen over 3,000 trials
        at each of three seeds was 4.3e5."""
        cfg = SuiteConfig(trials=300, seed=seed)
        results = [is_normal_tuple(_Store("equality", cfg, k).comm) for k in range(cfg.trials)]
        assert not any(r.flag for r in results)
        assert min(r.residual / r.tol for r in results) >= 1e3


class TestNormalTuple:
    def test_classifies_normal(self):
        for seed in range(8):
            t = ensembles.random_normal_tuple(3, 4, seed)
            assert is_normal_tuple(t).flag

    def test_min_defect_keeps_p_invertible(self):
        for seed in range(8):
            t = ensembles.random_normal_tuple(2, 5, seed, min_defect=0.05)
            polar = spherical_polar(t)
            assert polar.eigvals[0] >= 0.05 * polar.eigvals[-1] * 0.999

    def test_min_defect_bounds_the_eigenvalue_ratio_of_p_squared(self):
        # the bound is on P^2 = sum T_i* T_i; P's own ratio is the square root of P^2's
        for seed in range(8):
            t = ensembles.random_normal_tuple(3, 4, seed, min_defect=0.5)
            vals = spherical_polar(t).eigvals
            assert vals[0] ** 2 >= 0.5 * vals[-1] ** 2 * (1 - 1e-12)

    def test_min_defect_that_no_draw_meets_returns_the_last_draw(self):
        # at seed 0 the best P^2 ratio over 64 draws of two diagonals of size 6 is 0.53
        t = ensembles.random_normal_tuple(2, 6, 0, min_defect=0.999)
        rng = np.random.default_rng(0)
        u = ensembles._haar_unitary(rng, 6)
        diags = [ensembles._complex_gaussian(rng, 2, 6) for _ in range(64)][-1]
        for mat, diag in zip(t, diags):
            assert np.allclose(mat, (u * diag) @ u.conj().T, rtol=0, atol=1e-14)


class TestRandomPsd:
    def test_psd(self):
        for seed in range(5):
            p = ensembles.random_psd(4, seed)
            assert np.linalg.eigvalsh(p)[0] >= -1e-12
            assert np.allclose(p, np.conj(p.T))
