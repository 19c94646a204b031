import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import linalg
from sphertrans.errors import InvalidPError, NotPSDError

from conftest import random_matrix, random_psd_matrix, schatten_norm


class TestHermitianEig:
    """psd_powers factorizes its input as eigh(hermitian_part(P)) and reads
    the clip and the negativity check off the ascending spectrum."""

    def test_identity(self):
        powers = linalg.psd_powers(np.eye(2))
        for r in (0.5, 1.0, 2.0):
            assert np.allclose(powers(r), np.eye(2), atol=1e-15)

    def test_diagonal_sorted_ascending(self):
        # in either diagonal order, the lowest eigenvalue is the one checked
        # against the clip and the highest sets it
        for order in (1, -1):
            out = linalg.psd_powers(np.diag([2.0, -1e-13][::order]))(0.5)
            assert np.allclose(out, np.diag([np.sqrt(2.0), 0.0][::order]), atol=1e-12)
            with pytest.raises(NotPSDError):
                linalg.psd_powers(np.diag([2.0, -0.5][::order]))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        p = random_psd_matrix(rng, 5)
        recon = linalg.psd_powers(p)(1.0)
        assert np.linalg.norm(recon - p, 2) <= 1e-10 * np.linalg.norm(p, 2)


class TestStacks:
    """psd_powers of a (k, n, n) stack gives each matrix bit for bit what it
    gets alone, and rejects a stack with one indefinite matrix."""

    def test_stacked_powers_equal_each_matrix_alone(self):
        rng = np.random.default_rng(9)
        mats = [random_psd_matrix(rng, 4) for _ in range(5)]
        mats[2] = np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex)      # singular
        powers = linalg.psd_powers(np.stack(mats))
        alone = [linalg.psd_powers(m) for m in mats]
        exps = np.array([0.0, 0.5, 0.3, 1.0, 2.5])
        for r in (0.0, 0.5, 0.37):
            assert all(got.tobytes() == one(r).tobytes() for got, one in zip(powers(r), alone))
        assert all(got.tobytes() == one(float(e)).tobytes()
                   for got, one, e in zip(powers(exps), alone, exps))
        assert np.array_equal(powers(exps)[0], np.eye(4))

    def test_stack_with_one_bad_matrix_raises(self):
        good = np.eye(2)
        with pytest.raises(NotPSDError):
            linalg.psd_powers(np.stack([good, np.diag([1.0, -0.5])]))


class TestPsdPower:
    def test_diagonal_square_root(self):
        out = linalg.psd_powers(np.diag([2.0, 0.0]))(0.5)
        assert np.allclose(out, np.diag([np.sqrt(2.0), 0.0]), atol=1e-14)

    def test_power_zero_is_identity_even_for_singular_input(self):
        out = linalg.psd_powers(np.diag([2.0, 0.0]))(0.0)
        assert np.array_equal(out, np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), t=st.floats(0.05, 0.95))
    def test_semigroup(self, seed, t):
        rng = np.random.default_rng(seed)
        p = random_psd_matrix(rng, 4)
        powers = linalg.psd_powers(p)
        prod = powers(t) @ powers(1.0 - t)
        assert np.linalg.norm(prod - p, 2) <= 1e-9 * max(
            np.linalg.norm(p, 2), 1e-30
        )

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            linalg.psd_powers(np.diag([1.0, -0.5]))

    def test_clips_tiny_negativity(self):
        p = np.diag([1.0, -1e-13])
        out = linalg.psd_powers(p)(0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_any_power_matches_eig_route(self):
        rng = np.random.default_rng(11)
        p = random_psd_matrix(rng, 4)
        cube = linalg.psd_powers(p)(3.0)
        assert np.linalg.norm(cube - p @ p @ p, 2) <= 1e-10

    def test_all_powers_from_one_factorization(self, monkeypatch):
        rng = np.random.default_rng(13)
        p = random_psd_matrix(rng, 4)
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        powers = linalg.psd_powers(p)
        for r in (0.0, 0.3, 1.0, 2.5):
            assert np.array_equal(powers(r), linalg.psd_powers(p)(r))
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
        lhs = schatten_norm(linalg.psd_powers(total)(r_concave), p)
        rhs = schatten_norm(
            sum(linalg.psd_powers(m)(r_concave) for m in family), p
        )
        assert lhs <= rhs + 1e-9
        lhs = schatten_norm(linalg.psd_powers(total)(r_convex), p)
        rhs = schatten_norm(
            sum(linalg.psd_powers(m)(r_convex) for m in family), p
        )
        assert lhs <= d ** (r_convex - 1.0) * rhs + 1e-9


class TestNorms:
    """schatten_from_singulars of a matrix's singular values, the one
    Schatten norm of a matrix in the package."""

    def test_schatten_rank_one_diagonal_all_p(self):
        s = np.array([np.sqrt(2.0), 0.0])
        for p in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
            assert linalg.schatten_from_singulars(s, p) == pytest.approx(np.sqrt(2.0),
                                                                         abs=1e-14)

    def test_schatten_identity(self):
        for n, p in ((2, 1.0), (3, 2.0), (4, 3.0)):
            assert linalg.schatten_from_singulars(np.ones(n), p) == pytest.approx(
                n ** (1.0 / p), rel=1e-14
            )

    def test_p_monotonicity_against_direct_singular_sums(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 4)
        s = np.linalg.svd(a, compute_uv=False)
        ps = (1.0, 1.5, 2.0, 3.0, 5.0)
        direct = [float(np.sum(s**p)) ** (1.0 / p) for p in ps]
        computed = [linalg.schatten_from_singulars(s, p) for p in ps]
        assert np.allclose(direct, computed, rtol=1e-12)
        for small, large in zip(computed[1:], computed[:-1]):
            assert np.linalg.norm(a, 2) <= small + 1e-12
            assert small <= large + 1e-12

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(9)
        a = random_matrix(rng, 5)
        s, s_adj = (np.linalg.svd(m, compute_uv=False) for m in (a, linalg.adjoint(a)))
        for p in (1.0, 2.0, 3.5):
            assert linalg.schatten_from_singulars(s, p) == pytest.approx(
                linalg.schatten_from_singulars(s_adj, p), rel=1e-12
            )

    def test_rejects_p_below_one(self):
        for p in (0.5, np.nan):
            with pytest.raises(InvalidPError):
                linalg.schatten_from_singulars(np.ones(2), p)

    def test_p_inf_is_the_top_singular_value(self):
        s = np.array([3.0, 2.0, 2.0, 0.0])
        assert linalg.schatten_from_singulars(s, np.inf) == 3.0
        assert linalg.schatten_from_singulars(np.zeros(3), np.inf) == 0.0
        for p in (1.0, 3.0, np.inf):
            assert linalg.schatten_from_singulars(np.zeros(0), p) == 0.0

    def test_zero_matrix(self):
        s = np.linalg.svd(np.zeros((3, 3), dtype=np.complex128), compute_uv=False)
        assert linalg.schatten_from_singulars(s, 2.0) == 0.0


class TestSvdAndParts:
    def test_real_part_exactly_hermitian(self):
        rng = np.random.default_rng(4)
        a = random_matrix(rng, 4)
        h = linalg.hermitian_part(a)
        assert np.array_equal(h, np.conj(h.T))
        assert np.allclose(h, (a + np.conj(a.T)) / 2)


def _spectra():
    """300 descending spectra of length 5, then an all-zero one."""
    rng = np.random.default_rng(23)
    s = -np.sort(-np.abs(rng.standard_normal((300, 5))), axis=1)
    return np.vstack([s, np.zeros(5)])


class TestMergedKernels:
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_one_spectrum_is_the_stack_kernel(self, p):
        spectra = _spectra()
        rows = linalg.schatten_of_spectra(spectra, p)
        one = np.array([linalg.schatten_from_singulars(s, p) for s in spectra])
        assert np.array_equal(one, [float(linalg.schatten_of_spectra(s, p)) for s in spectra])
        assert one[-1] == 0.0
        if p in (1.0, np.inf):
            assert np.array_equal(one, rows)
        else:
            # a stack takes its 1/p-th power by numpy's vectorized power, which
            # can differ from the scalar power of one spectrum in the last bit;
            # times the top value, that is at most 2 ulps of the norm
            assert np.all(np.abs(one - rows) <= 2.0 * np.spacing(one))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_one_spectrum_keeps_the_top_scaled_formula(self, p):
        for s in _spectra()[:-1]:
            top = float(s[0])
            ref = top if p == np.inf else top * float(np.sum((s / top) ** p)) ** (1.0 / p)
            assert linalg.schatten_from_singulars(s, p) == ref

    def test_hermitian_part_of_a_stack_is_exactly_hermitian(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        h = linalg.hermitian_part(a)
        assert h.shape == a.shape
        assert np.array_equal(h, np.conj(np.swapaxes(h, 1, 2)))
        for m, hm in zip(a, h):
            assert np.array_equal(hm, linalg.hermitian_part(m))
