"""Dense complex linear-algebra kernels.

Adjoints, Hermitian parts, PSD fractional powers and Schatten norms of
spectra.  Everything operates on complex128 ndarrays and is pure: no
caller state is mutated, all outputs are fresh arrays.

These kernels validate nothing but the mathematics they need: psd_powers
refuses an indefinite matrix, and schatten_from_singulars an exponent
p < 1.  Data is checked where it enters the program: OperatorTuple (shape,
finiteness), tupledoc (tuple files), the estimators' and the CLI's checks
of p, and run_suite (suite configurations).  Every Hermitian matrix is
factorized as np.linalg.eigh(hermitian_part(x)) or eigvalsh of it, or of a
Gram matrix built in place.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPError, NotPSDError

PSD_CLIP_RTOL = 1e-12    # eigenvalues in [-clip, 0) are treated as roundoff


def adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a square matrix or of each of a stack, unvalidated."""
    return (a + adjoint(a)) / 2.0


def psd_power_from_eig(values: np.ndarray, vectors: np.ndarray, t) -> np.ndarray:
    """Fractional power from a precomputed PSD eigendecomposition, of one
    matrix (values (n,), vectors (n, n), t a float) or of each matrix of a
    stack (values (k, n), vectors (k, n, n), t a float or one exponent per
    matrix).

    Convention: P^0 = I exactly (not the range projection), and 0^t = 0
    for t > 0; a negative eigenvalue counts as 0, so roundoff-level
    negativity needs no clipping before the call.  Each
    matrix's eigenvalues are raised to its exponent as one float, as for a
    single matrix: numpy evaluates x ** 0.5 as sqrt(x), which an array of
    exponents would not.
    """
    n = values.shape[-1]
    stacked = np.ndim(t) > 0
    if not stacked and t == 0.0:
        return np.tile(np.eye(n, dtype=np.complex128), (*values.shape[:-1], 1, 1))
    clipped = np.where(values > 0.0, values, 0.0)
    if stacked:
        exps = np.asarray(t, dtype=float).tolist()
        powered = np.stack([row ** e for row, e in zip(clipped, exps)])
    else:
        powered = clipped ** float(t)
    out = (vectors * powered[..., None, :]) @ adjoint(vectors)
    if stacked:
        out[np.asarray(t) == 0.0] = np.eye(n)
    return out


def psd_powers(p: np.ndarray):
    """r -> P^r for PSD P and r >= 0, every power from one eigendecomposition;
    for a (k, n, n) stack, r -> the k powers, r a float or one exponent per
    matrix, from one batched eigendecomposition.  Eigenvalues in [-clip, 0)
    with clip = PSD_CLIP_RTOL * ||P||_op are clipped to zero; anything more
    negative raises NotPSDError."""
    vals, vecs = np.linalg.eigh(hermitian_part(p))
    top = vals[..., -1]
    clip = PSD_CLIP_RTOL * np.where(top > 0, top, 0.0)
    worst = np.argmax(-clip - vals[..., 0])
    low, clip = vals[..., 0].flat[worst], clip.flat[worst]
    if low < -clip - np.finfo(float).eps:
        raise NotPSDError(f"eigenvalue {low:.3e} below -{clip:.3e}")
    return lambda r: psd_power_from_eig(vals, vecs, r)


def schatten_of_spectra(mags: np.ndarray, p: float) -> np.ndarray:
    """(sum s_j^p)^(1/p) of each row of nonnegative spectra, p in [1, inf],
    unvalidated, scaled by the top value for stability; 0 for a zero or
    empty row.  A stack's final power is numpy's vectorized one, which can
    differ in the last bit from the scalar power of a one-row call."""
    # ndarray methods and no np.where: the one-row case runs once per norm
    top = mags.max(axis=-1, initial=0.0)
    if p == np.inf:
        return top
    safe = top + (top == 0.0)      # a zero row is divided by 1 and stays 0
    return safe * ((mags / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def schatten_from_singulars(s: np.ndarray, p: float) -> float:
    """The Schatten p-norm of one spectrum, p >= 1: schatten_of_spectra of it."""
    if not p >= 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    return float(schatten_of_spectra(s, p))
