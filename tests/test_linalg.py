import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import linalg
from sphertrans.errors import (
    InvalidParameterError,
    InvalidPError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
)

from conftest import cmat, random_matrix, random_psd_matrix


class TestHermitianEig:
    def test_identity(self):
        eig = linalg.hermitian_eig(np.eye(2))
        assert np.allclose(eig.values, [1.0, 1.0])
        assert np.allclose(eig.vectors @ np.conj(eig.vectors.T), np.eye(2))

    def test_diagonal_sorted_ascending(self):
        eig = linalg.hermitian_eig(np.diag([2.0, 0.0]))
        assert np.allclose(eig.values, [0.0, 2.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 5)
        a = (a + np.conj(a.T)) / 2
        eig = linalg.hermitian_eig(a)
        recon = (eig.vectors * eig.values) @ np.conj(eig.vectors.T)
        assert linalg.operator_norm(recon - a) <= 1e-10 * linalg.operator_norm(a)
        assert linalg.operator_norm(
            np.conj(eig.vectors.T) @ eig.vectors - np.eye(5)
        ) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            linalg.hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            linalg.hermitian_eig(cmat([[0, 1], [0, 0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eig(np.array([[np.nan, 0], [0, 1.0]]))


class TestPsdPower:
    def test_diagonal_square_root(self):
        out = linalg.psd_power(np.diag([2.0, 0.0]), 0.5)
        assert np.allclose(out, np.diag([np.sqrt(2.0), 0.0]), atol=1e-14)

    def test_power_zero_is_identity_even_for_singular_input(self):
        out = linalg.psd_power(np.diag([2.0, 0.0]), 0.0)
        assert np.array_equal(out, np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), t=st.floats(0.05, 0.95))
    def test_semigroup(self, seed, t):
        rng = np.random.default_rng(seed)
        p = random_psd_matrix(rng, 4)
        prod = linalg.psd_power(p, t) @ linalg.psd_power(p, 1.0 - t)
        assert linalg.operator_norm(prod - p) <= 1e-9 * max(
            linalg.operator_norm(p), 1e-30
        )

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            linalg.psd_power(np.diag([1.0, -0.5]), 0.5)

    def test_clips_tiny_negativity(self):
        p = np.diag([1.0, -1e-13])
        out = linalg.psd_power(p, 0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_exponent_outside_unit_interval(self):
        with pytest.raises(InvalidParameterError):
            linalg.psd_power(np.eye(2), 1.5)

    def test_any_power_rejects_negative_or_nan_exponent(self):
        for r in (-0.5, np.nan):
            with pytest.raises(InvalidParameterError):
                linalg.psd_power_any(np.eye(2), r)

    def test_any_power_matches_eig_route(self):
        rng = np.random.default_rng(11)
        p = random_psd_matrix(rng, 4)
        cube = linalg.psd_power_any(p, 3.0)
        assert linalg.operator_norm(cube - p @ p @ p) <= 1e-10

    def test_all_powers_from_one_factorization(self, monkeypatch):
        rng = np.random.default_rng(13)
        p = random_psd_matrix(rng, 4)
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        powers = linalg.psd_powers(p)
        for r in (0.0, 0.3, 1.0, 2.5):
            assert np.array_equal(powers(r), linalg.psd_power_any(p, r))
        assert len(calls) == 1 + 4
        with pytest.raises(NotPSDError):
            linalg.psd_powers(np.diag([1.0, -0.5]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]))
    def test_power_sum_comparisons_for_psd_families(self, seed, d, p):
        rng = np.random.default_rng(seed)
        family = [random_psd_matrix(rng, 4) for _ in range(d)]
        total = sum(family)
        total = (total + np.conj(total.T)) / 2
        r_concave = float(rng.uniform(0.05, 0.95))
        r_convex = float(rng.uniform(1.0, 3.0))
        lhs = linalg.schatten_norm(linalg.psd_power_any(total, r_concave), p)
        rhs = linalg.schatten_norm(
            sum(linalg.psd_power_any(m, r_concave) for m in family), p
        )
        assert lhs <= rhs + 1e-9
        lhs = linalg.schatten_norm(linalg.psd_power_any(total, r_convex), p)
        rhs = linalg.schatten_norm(
            sum(linalg.psd_power_any(m, r_convex) for m in family), p
        )
        assert lhs <= d ** (r_convex - 1.0) * rhs + 1e-9


class TestNorms:
    def test_schatten_rank_one_diagonal_all_p(self):
        a = np.diag([np.sqrt(2.0), 0.0])
        for p in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
            assert linalg.schatten_norm(a, p) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_schatten_identity(self):
        for n, p in ((2, 1.0), (3, 2.0), (4, 3.0)):
            assert linalg.schatten_norm(np.eye(n), p) == pytest.approx(
                n ** (1.0 / p), rel=1e-14
            )

    def test_p_monotonicity_against_direct_singular_sums(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 4)
        s = np.linalg.svd(a, compute_uv=False)
        ps = (1.0, 1.5, 2.0, 3.0, 5.0)
        direct = [float(np.sum(s**p)) ** (1.0 / p) for p in ps]
        computed = [linalg.schatten_norm(a, p) for p in ps]
        assert np.allclose(direct, computed, rtol=1e-12)
        for small, large in zip(computed[1:], computed[:-1]):
            assert linalg.operator_norm(a) <= small + 1e-12
            assert small <= large + 1e-12

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(9)
        a = random_matrix(rng, 5)
        for p in (1.0, 2.0, 3.5):
            assert linalg.schatten_norm(a, p) == pytest.approx(
                linalg.schatten_norm(np.conj(a.T), p), rel=1e-12
            )

    def test_rejects_p_below_one(self):
        for p in (0.5, np.nan):
            with pytest.raises(InvalidPError):
                linalg.schatten_norm(np.eye(2), p)

    def test_p_inf_is_the_top_singular_value(self):
        s = np.array([3.0, 2.0, 2.0, 0.0])
        assert linalg.schatten_from_singulars(s, np.inf) == 3.0
        assert linalg.schatten_from_singulars(np.zeros(3), np.inf) == 0.0

    def test_operator_norm_is_top_singular_value(self):
        a = cmat([[0, 3], [0, 0]])
        assert linalg.operator_norm(a) == pytest.approx(3.0)

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert linalg.operator_norm(z) == 0.0
        assert linalg.schatten_norm(z, 2.0) == 0.0


class TestSvdAndParts:
    def test_svd_reconstruction(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 5)
        u, s, vh = linalg.svd(a)
        assert linalg.operator_norm((u * s) @ vh - a) <= 1e-10 * linalg.operator_norm(a)

    def test_real_part_exactly_hermitian(self):
        rng = np.random.default_rng(4)
        a = random_matrix(rng, 4)
        h = linalg.real_part(a)
        assert np.array_equal(h, np.conj(h.T))
        assert np.allclose(h, (a + np.conj(a.T)) / 2)

    def test_trace(self):
        assert linalg.trace(cmat([[1, 5], [7, 2j]])) == pytest.approx(1 + 2j)
