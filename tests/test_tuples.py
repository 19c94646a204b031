import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import linalg
from sphertrans.ensembles import random_tuple
from sphertrans.errors import DimensionMismatchError
from sphertrans.norms import spherical_norm
from sphertrans.tuples import (
    OperatorTuple,
    block_embedding,
    defect_operator,
    polar_stack,
    product_of,
    spherical_polar,
    tuple_from,
)

from conftest import cmat, schatten_norm


class TestOperatorTuple:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            tuple_from(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            OperatorTuple(matrices=())

    def test_immutability(self):
        t = tuple_from(np.eye(2))
        with pytest.raises(ValueError):
            t[0][0, 0] = 5.0

    def test_stacked_shape(self):
        t = tuple_from(np.eye(3), np.zeros((3, 3)))
        assert t.stacked().shape == (6, 3)


class TestDefectOperator:
    def test_orthogonal_diagonal_pair_gives_identity(self, diag_pair):
        assert np.allclose(defect_operator(diag_pair), np.eye(2), atol=1e-12)

    def test_column_pair(self, sharp_column):
        expected = np.diag([np.sqrt(2.0), 0.0])
        assert np.allclose(defect_operator(sharp_column), expected, atol=1e-12)

    def test_zero_tuple(self):
        zero = OperatorTuple(matrices=np.zeros((3, 2, 2)))
        assert np.allclose(defect_operator(zero), np.zeros((2, 2)))


class TestSphericalPolar:
    def test_column_pair_blocks(self, sharp_column):
        polar = spherical_polar(sharp_column)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(polar.v[0], cmat([[inv_sqrt2, 0], [0, 0]]), atol=1e-12)
        assert np.allclose(polar.v[1], cmat([[0, 0], [inv_sqrt2, 0]]), atol=1e-12)
        svv = sum(np.conj(v.T) @ v for v in polar.v)
        assert np.allclose(svv, np.diag([1.0, 0.0]), atol=1e-12)
        assert polar.rank == 1

    def test_identity_defect_forces_v_equal_t(self, diag_pair):
        polar = spherical_polar(diag_pair)
        for v, m in zip(polar.v, diag_pair):
            assert np.allclose(v, m, atol=1e-12)
        svv = sum(np.conj(v.T) @ v for v in polar.v)
        assert np.allclose(svv, np.eye(2), atol=1e-12)

    def test_stack_reads_the_shape_of_one_tuple(self):
        # four 3-tuples of 5 x 5 matrices
        polar = polar_stack(np.stack([random_tuple(3, 5, seed).array for seed in range(4)]))
        assert (polar.v.shape, polar.p.shape) == ((4, 3, 5, 5), (4, 5, 5))
        assert (polar[2].v.shape, polar[2].p.shape) == ((3, 5, 5), (5, 5))

    def test_zero_tuple(self):
        polar = spherical_polar(OperatorTuple(matrices=np.zeros((2, 3, 3))))
        assert polar.rank == 0
        assert np.allclose(polar.p, 0.0)
        for v in polar.v:
            assert np.allclose(v, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        d=st.integers(1, 4),
        n=st.integers(2, 8),
        ensemble=st.sampled_from(["ginibre", "nilpotent", "contraction"]),
    )
    def test_polar_invariants(self, seed, d, n, ensemble):
        t = random_tuple(d, n, seed, ensemble)
        polar = spherical_polar(t)
        scale = 1.0 + spherical_norm(t)
        # reconstruction
        assert max(
            np.linalg.norm(v @ polar.p - m, 2) for v, m in zip(polar.v, t)
        ) <= 1e-9 * scale
        # initial space = range projection of P at the stored rank cut
        svv = sum(np.conj(v.T) @ v for v in polar.v)
        q = polar.eigvecs[:, polar.eigvals > polar.rank_tol]
        assert np.linalg.norm(svv - q @ np.conj(q.T), 2) <= 1e-9
        # contraction: the stacked V column has norm <= 1
        vcol = np.vstack(polar.v)
        assert np.linalg.norm(vcol, 2) <= 1.0 + 1e-10
        # P equals the PSD square root of the gram sum (well-conditioned form)
        gram = sum(np.conj(m.T) @ m for m in t)
        assert np.linalg.norm(polar.p @ polar.p - gram, 2) <= 1e-9 * (
            1.0 + np.linalg.norm(gram, 2)
        )
        assert np.min(polar.eigvals) >= 0.0


class TestBlockEmbedding:
    def test_single_coordinate_is_the_matrix(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        blocks = block_embedding(tuple_from(m))
        assert np.allclose(blocks.t_block, m)

    def test_column_pair_norms_match_for_all_p(self, sharp_column):
        blocks = block_embedding(sharp_column)
        for p in (1.0, 1.5, 2.0, 3.0, 5.0):
            assert schatten_norm(blocks.t_block, p) == pytest.approx(
                np.sqrt(2.0), abs=1e-10
            )

    def test_structure(self, sharp_column):
        blocks = block_embedding(sharp_column)
        assert np.allclose(blocks.t_block[:2, :2], sharp_column[0])
        assert np.allclose(blocks.t_block[2:, :2], sharp_column[1])
        assert np.allclose(blocks.t_block[:, 2:], 0.0)
        polar = spherical_polar(sharp_column)
        assert np.allclose(blocks.p_block, np.kron(np.eye(2), polar.p))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_norm_transfer_random(self, seed):
        t = random_tuple(3, 4, seed, "ginibre")
        blocks = block_embedding(t)
        gram = sum(np.conj(m.T) @ m for m in t)
        # both sides computed independently
        assert abs(
            np.linalg.norm(blocks.t_block, 2)
            - np.sqrt(np.linalg.norm(gram, 2))
        ) <= 1e-10
        for p in (1.0, 2.0, 3.0):
            assert abs(
                schatten_norm(blocks.t_block, p)
                - schatten_norm(spherical_polar(t).p, p)
            ) <= 1e-10


class TestTupleAlgebra:
    def test_product_with_identity(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((2, 2))
        out = product_of(tuple_from(m).array, tuple_from(np.eye(2)).array)
        assert out.shape == (1, 2, 2)
        assert np.allclose(out[0], m)

    def test_product_ordering_is_outer_inner(self):
        a1, a2 = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        b1, b2 = cmat([[0, 1], [0, 0]]), cmat([[0, 0], [1, 0]])
        out = product_of(tuple_from(a1, a2).array, tuple_from(b1, b2).array)
        expected = [a1 @ b1, a1 @ b2, a2 @ b1, a2 @ b2]
        assert out.shape == (4, 2, 2)
        for got, want in zip(out, expected):
            assert np.allclose(got, want)

    def test_square_of_column_pair(self, sharp_column):
        sq = product_of(sharp_column.array, sharp_column.array)
        expected = [
            cmat([[1, 0], [0, 0]]),
            cmat([[0, 0], [0, 0]]),
            cmat([[0, 0], [1, 0]]),
            cmat([[0, 0], [0, 0]]),
        ]
        assert sq.shape == (4, 2, 2)
        for got, want in zip(sq, expected):
            assert np.allclose(got, want, atol=1e-14)

    def test_adjoint_involution(self):
        t = random_tuple(2, 3, 5)
        back = OperatorTuple(matrices=linalg.adjoint(linalg.adjoint(t.array)))
        for got, want in zip(back, t):
            assert np.array_equal(got, want)


def same_coordinates(t: OperatorTuple, mats) -> bool:
    """t has exactly the coordinates mats, bit for bit."""
    mats = list(mats)
    return t.d == len(mats) and all(np.array_equal(x, y) for x, y in zip(t, mats))


class TestArrayBackedTuple:
    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            OperatorTuple(matrices=())
        with pytest.raises(ValueError):
            tuple_from(np.ones(3))                      # not 2-D
        with pytest.raises(ValueError):
            tuple_from(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            tuple_from(np.zeros((0, 0)))                # empty matrix
        with pytest.raises(ValueError):
            tuple_from(np.eye(2), cmat([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            OperatorTuple(matrices=np.full((2, 3, 3), np.inf))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatchError):
            tuple_from(np.eye(2), np.eye(3))
        with pytest.raises(DimensionMismatchError):
            tuple_from(np.ones((2, 3)), np.ones((2, 3)))   # not square
        with pytest.raises(DimensionMismatchError):
            OperatorTuple(matrices=np.ones((2, 2, 3)))

    def test_array_and_views_are_read_only(self):
        t = random_tuple(3, 4, 0)
        assert t.array.shape == (3, 4, 4)
        assert t.array.dtype == np.complex128
        with pytest.raises(ValueError):
            t.array[0, 0, 0] = 1.0
        for m in t.matrices:
            assert not m.flags.writeable
            assert np.shares_memory(m, t.array)
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_owns_a_copy_of_its_input(self):
        source = np.ones((2, 3, 3))
        t = OperatorTuple(matrices=source)
        source[0, 0, 0] = 5.0
        assert t[0][0, 0] == 1.0
        assert source.flags.writeable

    def test_stacked_is_a_view_of_the_vstack(self):
        t = random_tuple(3, 4, 1, "nilpotent")
        assert np.array_equal(t.stacked(), np.vstack(t.matrices))
        assert np.shares_memory(t.stacked(), t.array)

    @pytest.mark.parametrize("seed", range(8))
    def test_algebra_matches_coordinate_loop(self, seed):
        rng = np.random.default_rng(seed)
        d, e = (int(k) for k in rng.integers(1, 5, size=2))
        n = int(rng.integers(2, 7))
        a = random_tuple(d, n, rng)
        b = random_tuple(d, n, rng, "nilpotent")
        c = random_tuple(e, n, rng, "contraction")
        for t in (a, b):
            assert same_coordinates(OperatorTuple(matrices=linalg.adjoint(t.array)),
                                    [np.conj(x.T) for x in t])
        assert same_coordinates(OperatorTuple(matrices=product_of(a.array, c.array)),
                                [x @ y for x in a for y in c])
        cube = product_of(c.array, product_of(c.array, c.array))
        assert same_coordinates(OperatorTuple(matrices=cube),
                                [x @ (y @ w) for x in c for y in c for w in c])

    @pytest.mark.parametrize("ensemble", ["ginibre", "nilpotent", "contraction"])
    def test_polar_v_matches_coordinate_loop(self, ensemble):
        t = random_tuple(3, 4, 2, ensemble)
        polar = spherical_polar(t)
        keep = polar.eigvals > polar.rank_tol
        inv = np.zeros_like(polar.eigvals)
        inv[keep] = 1.0 / polar.eigvals[keep]
        pinv = (polar.eigvecs * inv) @ np.conj(polar.eigvecs.T)
        assert polar.v.shape == (3, 4, 4)
        assert not polar.v.flags.writeable
        assert all(np.array_equal(v, m @ pinv) for v, m in zip(polar.v, t))
