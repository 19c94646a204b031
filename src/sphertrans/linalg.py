"""Dense complex linear-algebra kernel.

Hermitian eigendecompositions, SVD-based norms, PSD fractional powers.
Everything operates on plain complex128 ndarrays and is pure: no caller
state is mutated, all outputs are fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidPError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    NumericalFailureError,
)

HERM_RTOL = 1e-12        # allowed relative asymmetry in hermitian_eig
PSD_CLIP_RTOL = 1e-12    # eigenvalues in [-clip, 0) are treated as roundoff


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and validate finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def real_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2; exactly Hermitian in floating point."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"real_part needs a square matrix, got {a.shape}")
    return (a + adjoint(a)) / 2.0


def trace(a: np.ndarray) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"trace needs a square matrix, got {a.shape}")
    return complex(np.trace(a))


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = Q diag(values) Q* with values ascending."""

    values: np.ndarray      # real, ascending
    vectors: np.ndarray     # unitary, columns are eigenvectors


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    The input may carry roundoff-level asymmetry; it is symmetrized as
    (A + A*)/2 before factorization.  Asymmetry beyond
    HERM_RTOL * ||A||_op raises NonHermitianError.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"hermitian_eig needs a square matrix, got {a.shape}")
    scale = operator_norm(a)
    asym = operator_norm(a - adjoint(a))
    if asym > HERM_RTOL * scale:
        raise NonHermitianError(
            f"asymmetry {asym:.3e} exceeds {HERM_RTOL:.0e} * ||A|| = {HERM_RTOL * scale:.3e}"
        )
    try:
        vals, vecs = np.linalg.eigh((a + adjoint(a)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigh failed: {exc}") from exc
    return HermitianEig(values=vals, vectors=vecs)


def psd_power_from_eig(values: np.ndarray, vectors: np.ndarray, t: float) -> np.ndarray:
    """Fractional power from a precomputed PSD eigendecomposition.

    Convention: P^0 = I exactly (not the range projection), and 0^t = 0
    for t > 0.  Negative eigenvalues must already be clipped.
    """
    if t == 0.0:
        return np.eye(len(values), dtype=np.complex128)
    powered = np.where(values > 0.0, values, 0.0) ** t
    return (vectors * powered) @ adjoint(vectors)


def psd_powers(p: np.ndarray):
    """r -> P^r for PSD P and r >= 0, every power from one eigendecomposition.
    Eigenvalues in [-clip, 0) with clip = PSD_CLIP_RTOL * ||P||_op are
    clipped to zero; anything more negative raises NotPSDError."""
    eig = hermitian_eig(p)
    vals = eig.values
    clip = PSD_CLIP_RTOL * (vals[-1] if vals[-1] > 0 else 0.0)
    if vals[0] < -clip - np.finfo(float).eps:
        raise NotPSDError(f"eigenvalue {vals[0]:.3e} below -{clip:.3e}")
    vals = np.clip(vals, 0.0, None)
    return lambda r: psd_power_from_eig(vals, eig.vectors, r)


def psd_power(p: np.ndarray, t: float) -> np.ndarray:
    """P^t for PSD P and t in [0, 1], via eigendecomposition, clipped as
    psd_powers documents."""
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(f"power exponent t={t} outside [0, 1]")
    return psd_powers(p)(t)


def psd_power_any(p: np.ndarray, r: float) -> np.ndarray:
    """P^r for PSD P and any r >= 0, same clipping as psd_power.

    psd_power keeps the transform contract (exponent in [0, 1]); this
    helper serves checks that need larger matrix powers.
    """
    if not r >= 0.0:
        raise InvalidParameterError(f"power exponent r={r} must be >= 0")
    return psd_powers(p)(r)


def svd(a: np.ndarray):
    """Full SVD (U, s, Vh) with singular values descending."""
    a = as_matrix(a)
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"svd failed: {exc}") from exc


def singular_values(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"svd failed: {exc}") from exc


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def schatten_from_singulars(s: np.ndarray, p: float) -> float:
    """(sum s_j^p)^(1/p) of descending singular values s, scaled by the top
    value for stability; p = inf gives the top value."""
    if not p >= 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    top = float(s[0]) if len(s) else 0.0
    if top <= 0.0:
        return 0.0
    if p == np.inf:
        return top
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)


def schatten_norm(a: np.ndarray, p: float) -> float:
    """Schatten p-norm from an explicit SVD."""
    return schatten_from_singulars(singular_values(a), p)
