"""Operator tuples and their canonical spherical polar decomposition.

A d-tuple T = (T_1, ..., T_d) of n x n complex matrices is viewed as the
column operator stacking the T_i.  Its defect operator is
P = sqrt(T_1* T_1 + ... + T_d* T_d), and T_i = V_i P with V the spherical
partial isometry obtained from the spectral pseudoinverse of P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError

RANK_RTOL = 1e-10   # eigenvalues of P below RANK_RTOL * ||P|| count as kernel


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """Immutable d-tuple of square matrices on a common n-dimensional space."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(_frozen(linalg.as_matrix(m)) for m in self.matrices)
        if not mats:
            raise ValueError("a tuple needs at least one coordinate")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise DimensionMismatchError(
                    f"all coordinates must be {n}x{n}, got {m.shape}"
                )
        object.__setattr__(self, "matrices", mats)

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def stacked(self) -> np.ndarray:
        """The dn x n column matrix with the coordinates stacked vertically."""
        return np.vstack(self.matrices)


def tuple_from(*mats) -> OperatorTuple:
    return OperatorTuple(matrices=tuple(mats))


def zero_tuple(d: int, n: int) -> OperatorTuple:
    return OperatorTuple(matrices=tuple(np.zeros((n, n)) for _ in range(d)))


def tuple_add(a: OperatorTuple, b: OperatorTuple) -> OperatorTuple:
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatchError("tuples must share d and n")
    return OperatorTuple(matrices=tuple(x + y for x, y in zip(a, b)))


def tuple_scale(c: complex, a: OperatorTuple) -> OperatorTuple:
    return OperatorTuple(matrices=tuple(c * x for x in a))


def adjoint_tuple(t: OperatorTuple) -> OperatorTuple:
    return OperatorTuple(matrices=tuple(linalg.adjoint(m) for m in t))


def tuple_product(t: OperatorTuple, s: OperatorTuple) -> OperatorTuple:
    """(T_1 S_1, ..., T_1 S_n, ..., T_m S_1, ..., T_m S_n), i outer, j inner."""
    if t.n != s.n:
        raise DimensionMismatchError(
            f"tuples act on different spaces: {t.n} vs {s.n}"
        )
    return OperatorTuple(matrices=tuple(a @ b for a in t for b in s))


def tuple_power(t: OperatorTuple, k: int) -> OperatorTuple:
    """T^1 = T, T^(k+1) = T o T^k; the result has d^k coordinates."""
    if k < 1:
        raise ValueError(f"tuple power needs k >= 1, got {k}")
    out = t
    for _ in range(k - 1):
        out = tuple_product(t, out)
    return out


def gram_sum(t: OperatorTuple) -> np.ndarray:
    """sum_i T_i* T_i, symmetrized to be exactly Hermitian."""
    s = np.zeros((t.n, t.n), dtype=np.complex128)
    for m in t:
        s += linalg.adjoint(m) @ m
    return (s + linalg.adjoint(s)) / 2.0


def defect_operator(t: OperatorTuple) -> np.ndarray:
    """P = sqrt(sum_i T_i* T_i), the PSD defect operator of the tuple."""
    return linalg.psd_power(gram_sum(t), 0.5)


@dataclass(frozen=True, eq=False)
class SphericalPolar:
    """Canonical decomposition T_i = V_i P.

    P is PSD with spectral data (eigvals ascending, eigvecs unitary);
    rank counts eigenvalues above rank_tol.  sum_i V_i* V_i is the
    orthogonal projection onto range(P).
    """

    v: tuple                 # d matrices V_i
    p: np.ndarray            # PSD defect operator
    rank: int
    rank_tol: float
    eigvals: np.ndarray = field(repr=False)   # of P, ascending, clipped >= 0
    eigvecs: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.v)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def p_power(self, t: float) -> np.ndarray:
        """P^t from the cached spectrum (P^0 = I convention)."""
        return linalg.psd_power_from_eig(self.eigvals, self.eigvecs, t)

    def range_projection(self) -> np.ndarray:
        """Spectral projection onto range(P) at the stored rank cut."""
        keep = self.eigvals > self.rank_tol
        q = self.eigvecs[:, keep]
        return q @ linalg.adjoint(q)

    def v_tuple(self) -> OperatorTuple:
        return OperatorTuple(matrices=self.v)


def spherical_polar(t: OperatorTuple, rank_rtol: float = RANK_RTOL) -> SphericalPolar:
    """Compute T = V P with V_i = T_i P^+ (spectral pseudoinverse).

    P's spectral data comes from the SVD of the stacked dn x n column:
    its singular values are P's eigenvalues computed without forming
    sum T_i* T_i, so roundoff kernels sit at eps level and the rank cut
    at rank_rtol * ||P|| separates them cleanly.  Eigenvalues at or
    below the cut are truncated to exact zeros, making fractional powers
    vanish on the numerical kernel.
    """
    u, svals, wh = np.linalg.svd(t.stacked(), full_matrices=False)
    pvals = svals[::-1].copy()               # ascending
    q = linalg.adjoint(wh)[:, ::-1]          # matching eigenvector columns
    tol = rank_rtol * (pvals[-1] if pvals[-1] > 0 else 0.0)
    keep = pvals > tol
    pvals = np.where(keep, pvals, 0.0)
    p = (q * pvals) @ linalg.adjoint(q)
    p = (p + linalg.adjoint(p)) / 2.0
    inv = np.zeros_like(pvals)
    inv[keep] = 1.0 / pvals[keep]
    pinv = (q * inv) @ linalg.adjoint(q)
    v = tuple(_frozen(m @ pinv) for m in t)
    return SphericalPolar(
        v=v,
        p=_frozen(p),
        rank=int(np.count_nonzero(keep)),
        rank_tol=tol,
        eigvals=pvals,
        eigvecs=q,
    )


@dataclass(frozen=True, eq=False)
class BlockEmbedding:
    """dn x dn block matrices: T_i stacked in the first block column of
    t_block (zeros elsewhere), same for v_block, and p_block = diag(P, ..., P).
    """

    t_block: np.ndarray
    v_block: np.ndarray
    p_block: np.ndarray


def _first_column_block(mats, n: int, d: int) -> np.ndarray:
    out = np.zeros((d * n, d * n), dtype=np.complex128)
    for i, m in enumerate(mats):
        out[i * n:(i + 1) * n, :n] = m
    return out


def block_embedding(t: OperatorTuple) -> BlockEmbedding:
    polar = spherical_polar(t)
    n, d = t.n, t.d
    p_block = np.kron(np.eye(d), polar.p)
    return BlockEmbedding(
        t_block=_frozen(_first_column_block(t.matrices, n, d)),
        v_block=_frozen(_first_column_block(polar.v, n, d)),
        p_block=_frozen(p_block),
    )
