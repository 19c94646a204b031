import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import predicates, transforms, tuples
from sphertrans.ensembles import random_commuting_tuple, random_normal_tuple, random_tuple
from sphertrans.errors import InvalidParameterError
from sphertrans.norms import spherical_norm
from sphertrans.predicates import is_spherically_quasinormal
from sphertrans.tuples import OperatorTuple, product_of, tuple_from

from conftest import cmat


def tuples_close(a, b, tol=1e-12):
    return max(np.max(np.abs(x - y)) for x, y in zip(a, b)) <= tol


class TestDuggal:
    def test_column_pair(self, sharp_column):
        out = transforms.duggal(sharp_column)
        assert np.allclose(out[0], cmat([[1, 0], [0, 0]]), atol=1e-12)
        assert np.allclose(out[1], 0.0, atol=1e-12)

    def test_commuting_normal_diagonals_fixed(self, diag_pair):
        out = transforms.duggal(diag_pair)
        assert tuples_close(out, diag_pair, 1e-12)

    def test_zero(self):
        zero = OperatorTuple(matrices=np.zeros((2, 2, 2)))
        assert tuples_close(transforms.duggal(zero), zero)


class TestGeneralizedAluthge:
    def test_column_pair_midpoint(self, sharp_column):
        out = transforms.aluthge(sharp_column)
        assert np.allclose(out[0], cmat([[1, 0], [0, 0]]), atol=1e-12)
        assert np.allclose(out[1], 0.0, atol=1e-12)

    def test_endpoint_zero_returns_tuple(self):
        t = random_tuple(3, 4, 2)
        assert tuples_close(transforms.generalized_aluthge(t, 0.0), t, 1e-10)

    def test_endpoint_zero_singular_defect(self, sharp_column):
        out = transforms.generalized_aluthge(sharp_column, 0.0)
        assert tuples_close(out, sharp_column, 1e-10)

    def test_endpoint_one_is_duggal(self):
        t = random_tuple(2, 5, 3)
        assert tuples_close(
            transforms.generalized_aluthge(t, 1.0), transforms.duggal(t), 1e-12
        )

    def test_midpoint_is_aluthge(self):
        t = random_tuple(2, 4, 4)
        assert tuples_close(
            transforms.generalized_aluthge(t, 0.5), transforms.aluthge(t), 1e-14
        )

    def test_rejects_out_of_range(self):
        t = random_tuple(1, 2, 0)
        with pytest.raises(InvalidParameterError):
            transforms.generalized_aluthge(t, 1.1)
        with pytest.raises(InvalidParameterError):
            transforms.generalized_aluthge(t, -0.1)


class TestHeinz:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), t=st.floats(0.0, 1.0))
    def test_symmetry(self, seed, t):
        tup = random_tuple(2, 4, seed)
        a = transforms.heinz(tup, t)
        b = transforms.heinz(tup, 1.0 - t)
        assert tuples_close(a, b, 1e-12)

    def test_column_pair_symmetry_point_values(self, sharp_column):
        a = transforms.heinz(sharp_column, 0.3)
        b = transforms.heinz(sharp_column, 0.7)
        assert tuples_close(a, b, 1e-12)

    def test_midpoint_is_aluthge(self):
        t = random_tuple(3, 3, 8)
        assert tuples_close(
            transforms.heinz(t, 0.5), transforms.aluthge(t), 1e-13
        )

    def test_endpoints_give_mean(self):
        t = random_tuple(2, 4, 9)
        mean = transforms.mean_transform(t)
        assert tuples_close(transforms.heinz(t, 0.0), mean, 1e-10)
        assert tuples_close(transforms.heinz(t, 1.0), mean, 1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            transforms.heinz(random_tuple(1, 2, 0), 2.0)


class TestLambdaMean:
    def test_endpoints(self):
        t = random_tuple(2, 3, 10)
        assert tuples_close(transforms.lambda_mean(t, 0.0), transforms.duggal(t), 1e-13)
        assert tuples_close(transforms.lambda_mean(t, 1.0), t, 1e-13)

    def test_midpoint_is_mean(self):
        t = random_tuple(3, 4, 11)
        assert tuples_close(
            transforms.lambda_mean(t, 0.5), transforms.mean_transform(t), 1e-13
        )

    def test_column_pair_midpoint_values(self, sharp_column):
        out = transforms.lambda_mean(sharp_column, 0.5)
        assert np.allclose(out[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(out[1], cmat([[0, 0], [0.5, 0]]), atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            transforms.lambda_mean(random_tuple(1, 2, 0), -0.2)


class TestFixedPoints:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), t=st.floats(0.0, 1.0))
    def test_normal_tuples_are_fixed(self, seed, t):
        tup = random_normal_tuple(3, 4, seed)
        out = transforms.generalized_aluthge(tup, t)
        assert tuples_close(out, tup, 1e-9 * (1.0 + spherical_norm(tup)))

    def test_spherically_quasinormal_noncommuting_fixed(self):
        # both coordinates commute with the gram sum although they do not commute
        tup = tuple_from(cmat([[0, 1], [0, 0]]), cmat([[0, 0], [1, 0]]))
        assert is_spherically_quasinormal(tup).flag
        for t in (0.0, 0.3, 0.5, 1.0):
            assert tuples_close(transforms.generalized_aluthge(tup, t), tup, 1e-10)


class TestZeroEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4))
    def test_square_zero_tuples_have_vanishing_transforms(self, seed, d):
        tup = random_tuple(d, 2, seed, "nilpotent")
        assert spherical_norm(OperatorTuple(matrices=product_of(tup.array, tup.array))) <= 1e-12
        for t in (0.1, 0.5, 1.0):
            assert spherical_norm(transforms.generalized_aluthge(tup, t)) <= 1e-10
        for t in (0.1, 0.5, 0.9):
            assert spherical_norm(transforms.heinz(tup, t)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_generic_tuples_have_nonvanishing_transforms(self, seed):
        tup = random_tuple(2, 3, seed, "ginibre")
        assert spherical_norm(OperatorTuple(matrices=product_of(tup.array, tup.array))) > 1e-10
        assert spherical_norm(transforms.generalized_aluthge(tup, 0.4)) > 1e-10
        assert spherical_norm(transforms.heinz(tup, 0.4)) > 1e-10

    def test_mean_of_zero_is_zero(self):
        z = OperatorTuple(matrices=np.zeros((2, 3, 3)))
        assert tuples_close(transforms.mean_transform(z), z)


def same_coordinates(tup, mats) -> bool:
    """tup has exactly the coordinates mats, bit for bit."""
    mats = list(mats)
    return tup.d == len(mats) and all(np.array_equal(x, y) for x, y in zip(tup, mats))


class TestMatchesCoordinateLoop:
    """The batched transforms reproduce a loop over the coordinates bit for bit."""

    @pytest.mark.parametrize("seed", range(9))
    def test_transforms(self, seed):
        rng = np.random.default_rng([7, seed])
        ensemble = ("ginibre", "nilpotent", "contraction")[seed % 3]
        tup = random_tuple(int(rng.integers(1, 5)), int(rng.integers(2, 7)), rng, ensemble)
        polar = tup.polar
        dug = [polar.p @ v for v in polar.v]

        def aluthge_loop(s):
            left, right = polar.p_power(s), polar.p_power(1.0 - s)
            return [left @ v @ right for v in polar.v]

        assert same_coordinates(transforms.duggal(tup), dug)
        # 0.3 is a t with 1 - (1 - t) != t in floating point
        for t in (0.0, 0.3, 0.5, 1.0, float(rng.uniform(0.15, 0.85))):
            assert same_coordinates(
                transforms.generalized_aluthge(tup, t), aluthge_loop(t)
            )
            assert same_coordinates(
                transforms.heinz(tup, t),
                [0.5 * (a + b) for a, b in zip(aluthge_loop(t), aluthge_loop(1.0 - t))],
            )
        for lam in (0.0, 0.3, 0.5, 1.0):
            assert same_coordinates(
                transforms.lambda_mean(tup, lam),
                [lam * m + (1.0 - lam) * g for m, g in zip(tup, dug)],
            )
        # the mean is the lambda = 1/2 case: 0.5 T + 0.5 D == 0.5 (T + D)
        assert same_coordinates(
            transforms.mean_transform(tup), [0.5 * (m + g) for m, g in zip(tup, dug)]
        )


class TestSharedPolar:
    def test_one_factorization_per_tuple(self, monkeypatch):
        """Every transform and the classification of one tuple read its
        polar decomposition, computed once."""
        calls = []
        factor = tuples.spherical_polar

        def spy(t):
            calls.append(t)
            return factor(t)

        # every module of the package that binds the function calls the spy
        for name, module in list(sys.modules.items()):
            if name.startswith("sphertrans") and getattr(module, "spherical_polar", None) is factor:
                monkeypatch.setattr(module, "spherical_polar", spy)
        tup = random_commuting_tuple(3, 4, 11)
        transforms.duggal(tup)
        transforms.aluthge(tup)
        transforms.generalized_aluthge(tup, 0.3)
        transforms.heinz(tup, 0.3)
        transforms.mean_transform(tup)
        transforms.lambda_mean(tup, 0.7)
        c = predicates.classify(tup)
        assert c.spherically_quasinormal_block is not None
        assert calls == [tup]


class TestStackKernels:
    """The stack kernels over k same-shape tuples, with one parameter per
    tuple, give each tuple's decomposition and transforms bit for bit."""

    @pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 5), (4, 6)])
    def test_equal_to_each_tuple_alone(self, d, n):
        rng = np.random.default_rng([11, d, n])
        # nilpotent tuples have a singular P, the zero tuple has P = 0
        ts = [random_tuple(d, n, rng, ens)
              for ens in ("ginibre", "nilpotent", "contraction", "nilpotent") * 3]
        ts.append(OperatorTuple(matrices=np.zeros((d, n, n))))
        # exponent-0 rows (P^0 = I) among t > 0 rows, 0.3 with 1 - (1 - t) != t,
        # 0.5 that numpy raises to by sqrt, and 1 with P^(1 - t) = I
        s = np.array([0.0, 0.5, 0.3, 1.0, 0.0, *rng.uniform(size=7), 0.0])
        lam = np.array([0.0, 1.0, 0.5, *rng.uniform(size=10)])
        coords = np.stack([t.array for t in ts])
        polar = tuples.polar_stack(coords)
        dug = transforms.duggal_of(polar)
        stacks = (dug, transforms.aluthge_of(polar, s), transforms.heinz_of(polar, s),
                  transforms.lambda_mean_of(coords, dug, lam), polar.p_power(s))
        ranks = {polar[i].rank for i in range(len(ts))}
        assert {0, n} <= ranks and ranks - {0, n}
        for i, t in enumerate(ts):
            alone = tuples.spherical_polar(t)
            got = polar[i]
            for field in ("v", "p", "eigvals", "eigvecs"):
                assert np.array_equal(getattr(got, field), getattr(alone, field)), field
            assert (got.rank, got.rank_tol) == (alone.rank, alone.rank_tol)
            single = (transforms.duggal(t), transforms.generalized_aluthge(t, float(s[i])),
                      transforms.heinz(t, float(s[i])), transforms.lambda_mean(t, float(lam[i])))
            for stack, one in zip(stacks, single):
                assert stack[i].tobytes() == one.array.tobytes()
            assert stacks[-1][i].tobytes() == alone.p_power(float(s[i])).tobytes()
        assert all(np.array_equal(stacks[-1][i], np.eye(n)) for i in np.flatnonzero(s == 0.0))
