"""Operator tuples and their canonical spherical polar decomposition.

A d-tuple T = (T_1, ..., T_d) of n x n complex matrices is viewed as the
column operator stacking the T_i.  Its defect operator is
P = sqrt(T_1* T_1 + ... + T_d* T_d), and T_i = V_i P with V the spherical
partial isometry obtained from the spectral pseudoinverse of P.  P has
one numerical route, the SVD of the stacked dn x n column, which never
forms sum T_i* T_i and so does not square its condition number.

An OperatorTuple owns one read-only (d, n, n) complex128 array, validated
once when the tuple is built; its coordinates are views into that array,
and the tuple algebra and the transforms act on the whole array at once.
The tuple also owns its polar decomposition: t.polar is computed on first
read and kept, so every transform, P itself and the block embedding of
one tuple share one factorization.  polar_stack factorizes a stack of
same-shape tuples by one batched SVD; spherical_polar is its one-tuple
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError

RANK_RTOL = 1e-10   # eigenvalues of P below RANK_RTOL * ||P|| count as kernel


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _coordinate_stack(matrices) -> np.ndarray:
    """The coordinates as one fresh read-only (d, n, n) complex128 array."""
    try:
        arr = _frozen(matrices)
    except ValueError:
        shapes = {np.shape(m) for m in matrices}
        if len(shapes) > 1 and all(len(s) == 2 for s in shapes):
            raise DimensionMismatchError(
                f"all coordinates must share one shape, got {sorted(shapes)}"
            ) from None
        raise
    if arr.ndim != 3 or 0 in arr.shape:
        raise ValueError(f"expected one or more non-empty 2-D matrices, got {arr.shape}")
    if arr.shape[1] != arr.shape[2]:
        raise DimensionMismatchError(f"coordinates must be square, got {arr.shape[1:]}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """Immutable d-tuple of square matrices on a common n-dimensional space.

    `array` is the read-only (d, n, n) coordinate stack; `matrices` holds its
    views; `polar` is its spherical polar decomposition, computed once.
    """

    matrices: tuple
    array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = _coordinate_stack(self.matrices)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "matrices", tuple(arr))

    @property
    def d(self) -> int:
        return self.array.shape[0]

    @property
    def n(self) -> int:
        return self.array.shape[1]

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def stacked(self) -> np.ndarray:
        """The dn x n column matrix with the coordinates stacked vertically."""
        return self.array.reshape(-1, self.n)

    @cached_property
    def polar(self) -> SphericalPolar:
        """T_i = V_i P, computed on first read; the tuple is immutable."""
        return spherical_polar(self)


def tuple_from(*mats) -> OperatorTuple:
    return OperatorTuple(matrices=tuple(mats))


def product_of(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coordinates (T_1 S_1, ..., T_1 S_e, ..., T_d S_e), i outer, j
    inner, of the tuple product of a (d, n, n) and an (e, n, n) coordinate
    stack, or of each pair of tuples in two stacks of k tuples; the one
    tuple-product kernel."""
    products = a[..., :, None, :, :] @ b[..., None, :, :, :]      # [i, j] = T_i S_j
    return products.reshape(*a.shape[:-3], -1, *a.shape[-2:])


def defect_operator(t: OperatorTuple) -> np.ndarray:
    """The PSD defect operator P = sqrt(sum_i T_i* T_i): t.polar.p, read-only."""
    return t.polar.p


@dataclass(frozen=True, eq=False)
class SphericalPolar:
    """Canonical decomposition T_i = V_i P.

    P is PSD with spectral data (eigvals ascending, eigvecs unitary);
    rank counts eigenvalues above rank_tol.  sum_i V_i* V_i is the
    orthogonal projection onto range(P).  The decompositions of a stack
    of k tuples (polar_stack) have the same fields with a leading axis of
    length k, rank and rank_tol as arrays; polar[i] is tuple i's.
    """

    v: np.ndarray            # read-only (d, n, n) stack of the V_i
    p: np.ndarray            # PSD defect operator
    rank: int
    rank_tol: float
    eigvals: np.ndarray = field(repr=False)   # of P, ascending, clipped >= 0
    eigvecs: np.ndarray = field(repr=False)

    def __getitem__(self, i) -> SphericalPolar:
        return SphericalPolar(v=self.v[i], p=self.p[i], rank=int(self.rank[i]),
                              rank_tol=float(self.rank_tol[i]),
                              eigvals=self.eigvals[i], eigvecs=self.eigvecs[i])

    def p_power(self, t) -> np.ndarray:
        """P^t from the cached spectrum (P^0 = I convention); for a stack,
        t is one exponent per tuple."""
        return linalg.psd_power_from_eig(self.eigvals, self.eigvecs, t)


def polar_stack(arrays: np.ndarray) -> SphericalPolar:
    """Compute T = V P with V_i = T_i P^+ (spectral pseudoinverse) for each
    tuple of a (k, d, n, n) stack, by one batched SVD.

    P's spectral data comes from the SVD of the stacked dn x n column:
    its singular values are P's eigenvalues computed without forming
    sum T_i* T_i, so roundoff kernels sit at eps level and the rank cut
    at RANK_RTOL * ||P|| separates them cleanly.  Eigenvalues at or
    below the cut are truncated to exact zeros, making fractional powers
    vanish on the numerical kernel.  Each tuple's decomposition is bit
    for bit the one it gets alone.
    """
    k, d, n, _ = arrays.shape
    _, svals, wh = np.linalg.svd(arrays.reshape(k, d * n, n), full_matrices=False)
    pvals = svals[:, ::-1].copy()               # ascending
    q = linalg.adjoint(wh)[..., ::-1]           # matching eigenvector columns
    top = pvals[:, -1]
    tol = RANK_RTOL * np.where(top > 0, top, 0.0)
    keep = pvals > tol[:, None]
    pvals = np.where(keep, pvals, 0.0)
    p = linalg.hermitian_part((q * pvals[:, None, :]) @ linalg.adjoint(q))
    inv = np.zeros_like(pvals)
    inv[keep] = 1.0 / pvals[keep]
    pinv = (q * inv[:, None, :]) @ linalg.adjoint(q)
    v = arrays @ pinv[:, None]
    v.setflags(write=False)
    p.setflags(write=False)
    return SphericalPolar(v=v, p=p, rank=np.count_nonzero(keep, axis=1), rank_tol=tol,
                          eigvals=pvals, eigvecs=q)


def spherical_polar(t: OperatorTuple) -> SphericalPolar:
    """The spherical polar decomposition of one tuple: polar_stack of the
    one-tuple stack."""
    return polar_stack(t.array[None])[0]


@dataclass(frozen=True, eq=False)
class BlockEmbedding:
    """dn x dn block matrices: T_i stacked in the first block column of
    t_block (zeros elsewhere), same for v_block, and p_block = diag(P, ..., P).
    """

    t_block: np.ndarray
    v_block: np.ndarray
    p_block: np.ndarray


def _first_column_block(stack: np.ndarray) -> np.ndarray:
    d, n, _ = stack.shape
    out = np.zeros((d * n, d * n), dtype=np.complex128)
    out[:, :n] = stack.reshape(d * n, n)
    out.setflags(write=False)
    return out


def block_embedding(t: OperatorTuple) -> BlockEmbedding:
    polar = t.polar
    return BlockEmbedding(
        t_block=_first_column_block(t.array),
        v_block=_first_column_block(polar.v),
        p_block=_frozen(np.kron(np.eye(t.d), polar.p)),
    )
