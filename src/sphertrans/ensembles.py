"""Random tuple generators for the verification harness.

All generators are deterministic functions of their seed; trial-level
streams should be derived as default_rng([seed, trial]) so results do
not depend on execution order.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .norms import spherical_norm
from .tuples import OperatorTuple

ENSEMBLES = ("ginibre", "nilpotent", "contraction")


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, n, n))
    diag = np.diagonal(r)
    phase = diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))
    return q * np.conj(phase)


def random_tuple(d: int, n: int, seed, ensemble: str = "ginibre") -> OperatorTuple:
    """Draw a random d-tuple of n x n matrices.

    ginibre:     i.i.d. standard complex Gaussian entries scaled by 1/sqrt(n)
    nilpotent:   strictly upper triangular, conjugated by one random unitary
                 (coordinates pairwise multiply to zero when n = 2)
    contraction: ginibre rescaled to spherical norm 1
    """
    rng = _rng(seed)
    if ensemble == "ginibre":
        mats = [_complex_gaussian(rng, n, n) / np.sqrt(n) for _ in range(d)]
    elif ensemble == "nilpotent":
        u = _haar_unitary(rng, n)
        mats = []
        for _ in range(d):
            g = np.triu(_complex_gaussian(rng, n, n), k=1)
            mats.append(u @ g @ linalg.adjoint(u))
    elif ensemble == "contraction":
        base = random_tuple(d, n, rng, "ginibre")
        norm = spherical_norm(base)
        scale = 1.0 / norm if norm > 0 else 1.0
        mats = [scale * m for m in base]
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}; pick from {ENSEMBLES}")
    return OperatorTuple(matrices=tuple(mats))


def random_commuting_tuple(d: int, n: int, seed) -> OperatorTuple:
    """Coordinates are random polynomials (degree < n) of one random matrix."""
    rng = _rng(seed)
    base = _complex_gaussian(rng, n, n)
    top = np.linalg.svd(base, compute_uv=False)[0]
    if top > 0:
        base = base / top
    powers = [np.eye(n, dtype=np.complex128)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ base)
    mats = []
    for _ in range(d):
        coeffs = _complex_gaussian(rng, n)
        mats.append(sum(c * pw for c, pw in zip(coeffs, powers)))
    return OperatorTuple(matrices=tuple(mats))


def random_normal_tuple(
    d: int, n: int, seed, min_defect: float = 0.0
) -> OperatorTuple:
    """T_i = U D_i U* with one random unitary and random complex diagonals.

    With min_defect > 0, diagonals are redrawn until the smallest
    eigenvalue of P^2 = sum T_i* T_i is at least min_defect times its
    largest, so the tuple is kept away from singular P.  When 64 draws
    all miss that bound, as they can for one large diagonal, the last
    draw is returned.
    """
    rng = _rng(seed)
    u = _haar_unitary(rng, n)
    for _ in range(64):
        diags = _complex_gaussian(rng, d, n)
        weights = np.sum(np.abs(diags) ** 2, axis=0)
        if min_defect <= 0.0 or np.min(weights) >= min_defect * np.max(weights):
            break
    mats = [(u * diags[i]) @ linalg.adjoint(u) for i in range(d)]
    return OperatorTuple(matrices=tuple(mats))


def random_psd(n: int, seed) -> np.ndarray:
    """A random PSD matrix G G* / n."""
    rng = _rng(seed)
    g = _complex_gaussian(rng, n, n)
    return linalg.hermitian_part(g @ linalg.adjoint(g) / n)
