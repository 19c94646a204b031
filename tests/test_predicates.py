import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import linalg, predicates
from sphertrans.norms import euclidean_norm, spherical_norm
from sphertrans.ensembles import random_commuting_tuple, random_normal_tuple, random_tuple
from sphertrans.errors import DimensionMismatchError, OutOfRangeError
from sphertrans.tuples import OperatorTuple, block_embedding, tuple_from

from conftest import cmat, grid_tuples, random_matrix


class TestSingleOperatorPredicates:
    def test_lower_shift_two_by_two(self):
        a = cmat([[0, 0], [1, 0]])
        # [A, A*A] = A, so the quasinormality residual is ||A|| = 1
        quasi = predicates.is_quasinormal_single(a)
        assert not quasi.flag
        assert quasi.residual == pytest.approx(1.0)
        hypo = predicates.is_hyponormal_single(a)
        assert not hypo.flag
        assert hypo.residual == pytest.approx(1.0)
        gap = np.conj(a.T) @ a - a @ np.conj(a.T)
        assert np.allclose(gap, np.diag([1.0, -1.0]))

    def test_upper_shift_not_hyponormal(self):
        a = cmat([[0, 1], [0, 0]])
        gap = np.conj(a.T) @ a - a @ np.conj(a.T)
        assert np.allclose(gap, np.diag([-1.0, 1.0]))
        assert not predicates.is_hyponormal_single(a).flag

    def test_hermitian_is_everything(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 4)
        a = (a + np.conj(a.T)) / 2
        assert predicates.is_normal_single(a).flag
        assert predicates.is_quasinormal_single(a).flag
        assert predicates.is_hyponormal_single(a).flag

    def test_matrix_hyponormal_iff_normal(self):
        # finite-dimensional collapse: the commutator defect has zero trace,
        # so PSD forces it to vanish
        rng = np.random.default_rng(11)
        for k in range(40):
            n = 2 + k % 5
            a = random_matrix(rng, n)
            hypo = predicates.is_hyponormal_single(a)
            normal = predicates.is_normal_single(a)
            if hypo.flag:
                assert normal.residual <= normal.tol


    def test_default_tolerance_is_the_one_tuple_default(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 6):
            a = random_matrix(rng, n)
            tol = predicates.PREDICATE_RTOL * (1.0 + spherical_norm(tuple_from(a)) ** 2)
            for pred in (predicates.is_normal_single, predicates.is_quasinormal_single,
                         predicates.is_hyponormal_single):
                assert pred(a).tol == tol
                assert pred(a, 0.5).tol == 0.5

    def test_rejects_non_square(self):
        for pred in (predicates.is_normal_single, predicates.is_quasinormal_single,
                     predicates.is_hyponormal_single):
            with pytest.raises(DimensionMismatchError):
                pred(np.ones((2, 3)), 0.5)


class TestTuplePredicates:
    def test_commuting_and_normal(self, diag_pair):
        assert predicates.classify(diag_pair).commuting.flag
        assert predicates.is_normal_tuple(diag_pair).flag

    def test_column_pair_not_commuting(self, sharp_column):
        assert not predicates.classify(sharp_column).commuting.flag

    def test_jointly_hyponormal_block_matrix(self, sharp_column):
        # brute-force 4x4 eigenvalue oracle for the block commutator matrix
        t1, t2 = sharp_column[0], sharp_column[1]
        blocks = np.zeros((4, 4), dtype=complex)
        for i, ti in enumerate((t1, t2)):
            for j, tj in enumerate((t1, t2)):
                com = np.conj(tj.T) @ ti - ti @ np.conj(tj.T)
                blocks[2 * i:2 * i + 2, 2 * j:2 * j + 2] = com
        low = float(np.linalg.eigvalsh(blocks)[0])
        res = predicates.is_jointly_hyponormal(sharp_column)
        assert res.residual == pytest.approx(max(0.0, -low), abs=1e-12)
        assert res.flag == (low >= -res.tol)
        # this pair is genuinely not jointly hyponormal
        assert low == pytest.approx((-1.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)
        assert not res.flag

    @pytest.mark.parametrize("d,n", [(1, 2), (3, 4), (4, 3)])
    def test_block_matrix_matches_block_loop(self, d, n):
        t = random_tuple(d, n, 13)
        blocks = np.zeros((d * n, d * n), dtype=complex)
        for i, ti in enumerate(t):
            for j, tj in enumerate(t):
                tj_adj = np.conj(tj.T)
                blocks[i * n:(i + 1) * n, j * n:(j + 1) * n] = tj_adj @ ti - ti @ tj_adj
        expected = (blocks + np.conj(blocks.T)) / 2.0
        assert np.array_equal(predicates.commutator_block_matrix(t), expected)

    def test_normal_tuple_is_jointly_hyponormal(self):
        t = random_normal_tuple(3, 4, 7)
        assert predicates.is_jointly_hyponormal(t).flag

    def test_default_tolerance_refuses_a_tuple_it_cannot_cube(self):
        # past ||T|| ~ 1.3e154 the default tolerance overflows, and past
        # ~5.6e102 the cubic quasinormality residuals do
        t = random_tuple(2, 3, 1)
        for scale in (1e160, 1e120, 2.0 * predicates.MAX_NORM / spherical_norm(t)):
            big = OperatorTuple(matrices=scale * t.array)
            for check in (predicates.classify, predicates.is_normal_tuple,
                          predicates.is_square_zero, predicates.is_jointly_hyponormal):
                for tol in (None, 1e-3):       # an explicit tolerance is no way round
                    with pytest.raises(OutOfRangeError, match="float64"):
                        check(big, tol)
        for single in (predicates.is_normal_single, predicates.is_quasinormal_single):
            for scale in (1e160, 1e150):
                for tol in (None, 1e-3):
                    with pytest.raises(OutOfRangeError):
                        single(scale * t[0], tol)
        # at the bound every residual is finite, without an overflow warning
        large = OperatorTuple(matrices=predicates.MAX_NORM / spherical_norm(t) * t.array)
        c = predicates.classify(large)
        assert c.tol == predicates.PREDICATE_RTOL * (1.0 + spherical_norm(large) ** 2)
        assert np.isfinite(c.spherically_quasinormal.residual)
        assert all(np.isfinite(r.residual) for r in c.coordinate_quasinormal)

    def test_zero_tuple_everything(self):
        z = OperatorTuple(matrices=np.zeros((2, 2, 2)))
        assert predicates.is_jointly_hyponormal(z).flag
        assert predicates.is_spherically_quasinormal(z).flag
        assert predicates.is_square_zero(z).flag


class TestSphericalQuasinormality:
    def test_column_pair_route_a_residual(self, sharp_column):
        # gram sum is diag(2, 0); [T2, diag(2,0)] has norm 2
        res = predicates.is_spherically_quasinormal(sharp_column)
        assert res.residual == pytest.approx(2.0, abs=1e-12)
        assert not res.flag

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3), n=st.integers(2, 5))
    def test_routes_agree_on_commuting_tuples(self, seed, d, n):
        t = random_normal_tuple(d, n, seed)
        a = predicates.is_spherically_quasinormal(t)
        b = predicates.classify(t).spherically_quasinormal_block
        assert a.flag and b.flag

    def test_routes_agree_negative_case(self):
        # commuting but not spherically quasinormal
        base = cmat([[0, 1], [0, 0]])
        t = tuple_from(base, base @ base + 2 * base)
        assert predicates.classify(t).commuting.flag
        a = predicates.is_spherically_quasinormal(t)
        b = predicates.classify(t).spherically_quasinormal_block
        assert not a.flag and not b.flag


class TestImplicationChain:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4), n=st.integers(2, 5))
    def test_normal_implies_spherically_quasinormal_implies_jointly_hyponormal(
        self, seed, d, n
    ):
        t = random_normal_tuple(d, n, seed)
        assert predicates.is_normal_tuple(t).flag
        assert predicates.is_spherically_quasinormal(t).flag
        assert predicates.is_jointly_hyponormal(t).flag


class TestSquareZeroAndProxy:
    def test_square_zero_flags(self):
        nil = random_tuple(3, 2, 5, "nilpotent")
        assert predicates.is_square_zero(nil).flag
        gen = random_tuple(3, 3, 5, "ginibre")
        assert not predicates.is_square_zero(gen).flag

    def test_proxy_invertible_defect(self, diag_pair):
        proxy = predicates.taylor_invertibility_proxy(diag_pair)
        assert proxy.flag
        assert proxy.min_defect_eigenvalue == pytest.approx(1.0)
        assert proxy.note == "necessary condition only"

    def test_proxy_singular_defect(self, sharp_column):
        assert not predicates.taylor_invertibility_proxy(sharp_column).flag

    def test_proxy_zero_tuple(self):
        zero = OperatorTuple(matrices=np.zeros((2, 2, 2)))
        assert not predicates.taylor_invertibility_proxy(zero).flag


class TestClassification:
    def test_classify_aggregates(self, diag_pair):
        c = predicates.classify(diag_pair)
        assert c.commuting.flag
        assert c.normal.flag
        assert c.spherically_quasinormal.flag
        assert c.spherically_quasinormal_block is not None
        assert c.spherically_quasinormal_block.flag
        assert c.jointly_hyponormal.flag
        assert not c.square_zero.flag
        assert c.taylor_proxy.flag
        assert len(c.coordinate_normal) == 2

    def test_classify_noncommuting_skips_block_route(self, sharp_column):
        c = predicates.classify(sharp_column)
        assert not c.commuting.flag
        assert c.spherically_quasinormal_block is None

    def test_an_explicit_tolerance_computes_the_norm_only_past_the_entry_bound(
            self, monkeypatch):
        # the bound sqrt(d) n max|t_ij| >= ||T||
        t = random_tuple(2, 3, 1)
        norms = []
        monkeypatch.setattr(predicates, "spherical_norm",
                            lambda x: norms.append(1) or spherical_norm(x))
        assert predicates.is_square_zero(t, tol=1e-12).tol == 1e-12
        assert norms == []
        below = OperatorTuple(matrices=0.5 * predicates.MAX_NORM / spherical_norm(t) * t.array)
        assert np.sqrt(2) * 3 * np.abs(below.array).max() > predicates.MAX_NORM
        c = predicates.classify(below, 1e-3)
        assert c.tol == 1e-3 and np.isfinite(c.spherically_quasinormal.residual)
        assert norms
        with pytest.raises(OutOfRangeError, match="float64"):
            predicates.classify(OperatorTuple(matrices=1e150 * t.array), 1e-3)

    @staticmethod
    def block_matrix_residual(t):
        """||P_block V_block - V_block P_block||_op on the dn x dn block
        matrices."""
        blocks = block_embedding(t)
        return np.linalg.norm(blocks.p_block @ blocks.v_block
                              - blocks.v_block @ blocks.p_block, 2)

    @classmethod
    def classify_by_predicates(cls, t):
        """classify as separate predicate calls, each computing its own
        residuals, with the block residual from the block matrices."""
        tol = predicates._default_tol(t, None)
        commuting = predicates._result(predicates._commutator_residual(t), tol)
        return predicates.Classification(
            tol=tol,
            commuting=commuting,
            normal=predicates.is_normal_tuple(t, tol),
            jointly_hyponormal=predicates.is_jointly_hyponormal(t, tol),
            spherically_quasinormal=predicates.is_spherically_quasinormal(t, tol),
            spherically_quasinormal_block=(predicates._result(cls.block_matrix_residual(t), tol)
                                           if commuting else None),
            square_zero=predicates.is_square_zero(t, tol),
            taylor_proxy=predicates.taylor_invertibility_proxy(t),
            coordinate_normal=tuple(predicates.is_normal_single(m, tol) for m in t),
            coordinate_quasinormal=tuple(predicates.is_quasinormal_single(m, tol) for m in t),
            coordinate_hyponormal=tuple(predicates.is_hyponormal_single(m, tol) for m in t),
        )

    def test_shared_residuals_equal_separate_predicates(self):
        tuples = grid_tuples() + [random_commuting_tuple(d, n, [d, n])
                                  for d in range(2, 5) for n in range(2, 7)]
        assert sum(predicates.classify(t).commuting.flag for t in tuples) >= 60
        for t in tuples:
            got, ref = predicates.classify(t), self.classify_by_predicates(t)
            block, ref_block = got.spherically_quasinormal_block, ref.spherically_quasinormal_block
            assert replace(got, spherically_quasinormal_block=None) == replace(
                ref, spherically_quasinormal_block=None)
            assert (block is None) == (ref_block is None)
            if ref_block is not None:
                assert block.flag == ref_block.flag and block.tol == ref_block.tol
                assert block.residual == pytest.approx(ref_block.residual, rel=1e-14)

    def test_commuting_tuple_svd_count(self, monkeypatch):
        # one SVD each: the tolerance, the commutator, the coordinate
        # normality and quasinormality defects, quasinormality, the polar
        # decomposition, the block column and the square; separate
        # predicates made 15
        t = random_commuting_tuple(3, 4, 11)
        real, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        predicates.classify(t)
        assert len(calls) == 8


class TestStackFormsMatchCoordinateLoops:
    """The tuple predicates, the coordinate kernels and the Euclidean norm,
    written over the coordinate stack, equal per-coordinate loops of
    numpy's single-matrix operator norm bit for bit."""

    @staticmethod
    def commuting_loop(t):
        residual = 0.0
        for i in range(t.d):
            for j in range(i + 1, t.d):
                residual = max(residual, np.linalg.norm(t[i] @ t[j] - t[j] @ t[i], 2))
        return residual

    @staticmethod
    def coordinate_normal_loop(t):
        return [np.linalg.norm(linalg.adjoint(m) @ m - m @ linalg.adjoint(m), 2) for m in t]

    @staticmethod
    def coordinate_quasinormal_loop(t):
        out = []
        for m in t:
            s = linalg.adjoint(m) @ m
            out.append(np.linalg.norm(m @ s - s @ m, 2))
        return out

    @staticmethod
    def coordinate_hyponormal_loop(t):
        out = []
        for m in t:
            gap = linalg.adjoint(m) @ m - m @ linalg.adjoint(m)
            low = float(np.linalg.eigvalsh((gap + linalg.adjoint(gap)) / 2.0)[0])
            out.append(max(0.0, -low))
        return out

    @classmethod
    def normal_loop(cls, t):
        return max(cls.commuting_loop(t), *cls.coordinate_normal_loop(t))

    @staticmethod
    def square_zero_loop(t):
        return max(np.linalg.norm(x @ y, 2) for x in t for y in t)

    @staticmethod
    def euclidean_loop(t):
        return math.hypot(*(np.linalg.norm(m, 2) for m in t))

    @pytest.mark.parametrize("ensemble", ["ginibre", "nilpotent", "contraction"])
    def test_equal_to_loops(self, ensemble):
        singles = {"normal": predicates.is_normal_single,
                   "quasinormal": predicates.is_quasinormal_single,
                   "hyponormal": predicates.is_hyponormal_single}
        for d in range(1, 5):
            for n in range(2, 7):
                for k in range(3):
                    t = random_tuple(d, n, [d, n, k], ensemble)
                    tol = 1e-9
                    c = predicates.classify(t, tol)
                    assert c.commuting.residual == self.commuting_loop(t)
                    assert predicates.is_normal_tuple(t, tol).residual == self.normal_loop(t)
                    assert predicates.is_square_zero(t, tol).residual == \
                        self.square_zero_loop(t)
                    assert euclidean_norm(t) == self.euclidean_loop(t)
                    for name, single in singles.items():
                        ref = getattr(self, f"coordinate_{name}_loop")(t)
                        assert [r.residual for r in getattr(c, f"coordinate_{name}")] == ref
                        assert [single(m, tol).residual for m in t] == ref
