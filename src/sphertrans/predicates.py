"""Structural classification of tuples and single operators.

Each predicate returns its residual (an operator-norm or eigenvalue
magnitude that vanishes exactly when the property holds) together with
the thresholded flag.  The default tolerance scales with 1 + ||T||^2
since the residuals are quadratic in the entries; the quasinormality ones
are cubic, so every predicate refuses a tuple with ||T|| > MAX_NORM,
whatever its tolerance.  Every predicate
is a stack expression with one batched factorization.  Normality,
quasinormality and hyponormality of a matrix have one (k, n, n) kernel
each: classify applies it to the coordinates, the single-matrix
predicate to the validated 1-tuple (A).  classify also reports the
block-matrix form PV = VP of spherical quasinormality for commuting tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import OutOfRangeError
from .norms import spherical_norm
from .tuples import OperatorTuple, product_of, tuple_from

PREDICATE_RTOL = 1e-9
MAX_NORM = 1e100     # ||T||^3, the scale of the quasinormality residuals, stays finite


@dataclass(frozen=True)
class PredicateResult:
    flag: bool
    residual: float
    tol: float

    def __bool__(self) -> bool:
        return self.flag


def _default_tol(t: OperatorTuple, tol: float | None) -> float:
    """tol, or by default PREDICATE_RTOL (1 + ||T||^2).  At any tol, a
    tuple with ||T|| > MAX_NORM is refused; given a tol, the exact norm
    is computed only when the bound sqrt(d) n max|t_ij| >= ||T|| exceeds
    MAX_NORM."""
    bound_fits = np.abs(t.array).max() <= MAX_NORM / (np.sqrt(t.d) * t.n)
    norm = 0.0 if tol is not None and bound_fits else spherical_norm(t)
    if norm > MAX_NORM:
        raise OutOfRangeError(f"||T|| = {norm:.3e} exceeds {MAX_NORM:.0e}: residuals cubic "
                              "in the entries cannot be computed in float64")
    return PREDICATE_RTOL * (1.0 + norm ** 2) if tol is None else tol


def _result(residual: float, tol: float) -> PredicateResult:
    return PredicateResult(flag=bool(residual <= tol), residual=float(residual), tol=tol)


def _max_operator_norm(stack: np.ndarray) -> float:
    """The largest operator norm in a stack of matrices, by one batched
    SVD; 0 for an empty stack."""
    if stack.size == 0:
        return 0.0
    return float(np.linalg.svd(stack, compute_uv=False)[..., 0].max())


def _commutator_residual(t: OperatorTuple) -> float:
    """max_{i<j} ||T_i T_j - T_j T_i||_op."""
    i, j = np.triu_indices(t.d, 1)
    a = t.array
    return _max_operator_norm(a[i] @ a[j] - a[j] @ a[i])


def _normality_defects(a: np.ndarray) -> np.ndarray:
    """||A_k* A_k - A_k A_k*||_op for each matrix of a (k, n, n) stack."""
    adj = linalg.adjoint(a)
    return np.linalg.svd(adj @ a - a @ adj, compute_uv=False)[:, 0]


def _quasinormality_defects(a: np.ndarray) -> np.ndarray:
    """||A_k (A_k* A_k) - (A_k* A_k) A_k||_op for each matrix of a stack."""
    s = linalg.adjoint(a) @ a
    return np.linalg.svd(a @ s - s @ a, compute_uv=False)[:, 0]


def _hyponormality_defects(a: np.ndarray) -> np.ndarray:
    """The most negative eigenvalue of A_k* A_k - A_k A_k*, clipped at 0."""
    adj = linalg.adjoint(a)
    low = np.linalg.eigvalsh(linalg.hermitian_part(adj @ a - a @ adj))[:, 0]
    return np.where(low < 0.0, -low, 0.0)


def _single(defects, a, tol: float | None) -> PredicateResult:
    """A stack kernel applied to the validated 1-tuple (A)."""
    t = tuple_from(a)
    tol = _default_tol(t, tol)
    return _result(defects(t.array)[0], tol)


def _normal_result(commutator: float, defects: np.ndarray, tol: float) -> PredicateResult:
    """is_normal_tuple from the commutator residual and the coordinate
    normality defects."""
    return _result(max(commutator, float(defects.max())), tol)


def is_normal_single(a, tol: float | None = None) -> PredicateResult:
    """||A*A - AA*||_op."""
    return _single(_normality_defects, a, tol)


def is_normal_tuple(t: OperatorTuple, tol: float | None = None) -> PredicateResult:
    """Commuting and each coordinate normal."""
    tol = _default_tol(t, tol)
    return _normal_result(_commutator_residual(t), _normality_defects(t.array), tol)


def is_quasinormal_single(a, tol: float | None = None) -> PredicateResult:
    """||A (A*A) - (A*A) A||_op, i.e. A commutes with A*A."""
    return _single(_quasinormality_defects, a, tol)


def is_hyponormal_single(a, tol: float | None = None) -> PredicateResult:
    """Residual = most negative eigenvalue of A*A - AA*, clipped at 0."""
    return _single(_hyponormality_defects, a, tol)


def commutator_block_matrix(t: OperatorTuple) -> np.ndarray:
    """The d x d block matrix with block (i, j) = [T_j*, T_i]."""
    ti, tj_adj = t.array[:, None], linalg.adjoint(t.array)[None]
    out = (tj_adj @ ti - ti @ tj_adj).transpose(0, 2, 1, 3).reshape(t.d * t.n, -1)
    return linalg.hermitian_part(out)


def is_jointly_hyponormal(t: OperatorTuple, tol: float | None = None) -> PredicateResult:
    """The block commutator matrix must be PSD on the d-fold direct sum."""
    tol = _default_tol(t, tol)
    low = float(np.linalg.eigvalsh(commutator_block_matrix(t))[0])
    return _result(max(0.0, -low), tol)


def is_spherically_quasinormal(t: OperatorTuple, tol: float | None = None) -> PredicateResult:
    """Each T_i commutes with sum_j T_j* T_j, the Gram product of the
    stacked column (used directly, no square root)."""
    tol = _default_tol(t, tol)
    col = t.stacked()
    s = linalg.adjoint(col) @ col
    return _result(_max_operator_norm(t.array @ s - s @ t.array), tol)


def _block_residual(t: OperatorTuple) -> float:
    """||P_block V_block - V_block P_block||_op, the block-matrix form of
    spherical quasinormality for a commuting tuple.  Its only nonzero
    block column stacks P V_i - V_i P, so this is that dn x n column's
    operator norm."""
    polar = t.polar
    return _max_operator_norm((polar.p @ polar.v - polar.v @ polar.p).reshape(-1, t.n))


def is_square_zero(t: OperatorTuple, tol: float | None = None) -> PredicateResult:
    """All d^2 coordinates of T o T vanish."""
    tol = _default_tol(t, tol)
    return _result(_max_operator_norm(product_of(t.array, t.array)), tol)


@dataclass(frozen=True)
class InvertibilityProxy:
    """Necessary-condition proxy for Taylor invertibility: P invertible.

    flag = (smallest eigenvalue of the defect operator exceeds the rank
    tolerance).  This is NOT claimed to be sufficient.
    """

    flag: bool
    min_defect_eigenvalue: float
    rank_tol: float
    note: str = "necessary condition only"

    def __bool__(self) -> bool:
        return self.flag


def taylor_invertibility_proxy(t: OperatorTuple) -> InvertibilityProxy:
    polar = t.polar
    low = float(polar.eigvals[0])
    return InvertibilityProxy(
        flag=low > polar.rank_tol,
        min_defect_eigenvalue=low,
        rank_tol=polar.rank_tol,
    )


@dataclass(frozen=True)
class Classification:
    """All predicate outcomes for one tuple at a shared tolerance."""

    tol: float
    commuting: PredicateResult
    normal: PredicateResult
    jointly_hyponormal: PredicateResult
    spherically_quasinormal: PredicateResult
    spherically_quasinormal_block: PredicateResult | None  # commuting tuples only
    square_zero: PredicateResult
    taylor_proxy: InvertibilityProxy
    coordinate_normal: tuple
    coordinate_quasinormal: tuple
    coordinate_hyponormal: tuple


def classify(t: OperatorTuple, tol: float | None = None) -> Classification:
    """Every predicate at one tolerance.  The commutator residual and the
    coordinate normality defects are computed once and shared by the
    predicates that read them, so each field equals its predicate's
    result bit for bit."""
    tol = _default_tol(t, tol)
    commutator = _commutator_residual(t)
    defects = _normality_defects(t.array)
    commuting = _result(commutator, tol)
    return Classification(
        tol=tol,
        commuting=commuting,
        normal=_normal_result(commutator, defects, tol),
        jointly_hyponormal=is_jointly_hyponormal(t, tol),
        spherically_quasinormal=is_spherically_quasinormal(t, tol),
        spherically_quasinormal_block=_result(_block_residual(t), tol) if commuting else None,
        square_zero=is_square_zero(t, tol),
        taylor_proxy=taylor_invertibility_proxy(t),
        coordinate_normal=tuple(_result(r, tol) for r in defects),
        coordinate_quasinormal=tuple(_result(r, tol) for r in _quasinormality_defects(t.array)),
        coordinate_hyponormal=tuple(_result(r, tol) for r in _hyponormality_defects(t.array)),
    )
