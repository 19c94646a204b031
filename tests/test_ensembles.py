import numpy as np
import pytest

from sphertrans import ensembles
from sphertrans.norms import spherical_norm
from sphertrans.predicates import classify, is_normal_tuple
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


class TestRandomPsd:
    def test_psd(self):
        for seed in range(5):
            p = ensembles.random_psd(4, seed)
            assert np.linalg.eigvalsh(p)[0] >= -1e-12
            assert np.allclose(p, np.conj(p.T))
