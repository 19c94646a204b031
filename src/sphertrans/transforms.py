"""Spherical transforms of an operator tuple.

All transforms are built from the canonical decomposition T_i = V_i P:

    duggal:              P V_i
    generalized aluthge: P^t V_i P^(1-t)        (t in [0, 1], P^0 = I)
    aluthge:             the t = 1/2 case
    heinz:               ((gen. aluthge at t) + (gen. aluthge at 1-t)) / 2
    lambda mean:         lam * T + (1 - lam) * duggal(T)
    mean:                the lam = 1/2 case

Each transform is one numpy expression on the (d, n, n) stack of the V_i
(or of the T_i), with P and its powers broadcast over the coordinates.
The *_of kernels take a decomposition and return coordinates; given the
decompositions of k same-shape tuples (tuples.polar_stack) and one
parameter per tuple, the same expression returns the (k, d, n, n)
coordinates of all k transforms, each bit for bit the transform of its
tuple alone.  The public functions are the one-tuple case, on the
tuple's own t.polar, computed on its first read, so every transform of
one tuple shares one factorization.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .tuples import OperatorTuple, SphericalPolar


def _check_unit_interval(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"{name}={x} outside [0, 1]")


def _left(m: np.ndarray) -> np.ndarray:
    """An (n, n) matrix, or a (k, n, n) stack, broadcast over the coordinates."""
    return m[..., None, :, :]


def duggal_of(polar: SphericalPolar) -> np.ndarray:
    return _left(polar.p) @ polar.v


def aluthge_of(polar: SphericalPolar, s) -> np.ndarray:
    return _left(polar.p_power(s)) @ polar.v @ _left(polar.p_power(1.0 - s))


def heinz_of(polar: SphericalPolar, s) -> np.ndarray:
    # the Aluthge transform at r = 1 - s ends in P^(1-r), and 1 - (1 - s)
    # can miss s by one ulp
    r = 1.0 - s
    p_s, p_r, p_back = (_left(polar.p_power(e)) for e in (s, r, 1.0 - r))
    return 0.5 * (p_s @ polar.v @ p_r + p_r @ polar.v @ p_back)


def lambda_mean_of(coords: np.ndarray, dug: np.ndarray, lam) -> np.ndarray:
    """lam * T + (1 - lam) * D from the coordinates of T and of its Duggal
    transform; lam is a float or an array broadcast against the leading
    axes of the coordinate stacks."""
    lam = np.asarray(lam)[..., None, None, None]
    return lam * coords + (1.0 - lam) * dug


def duggal(t: OperatorTuple) -> OperatorTuple:
    """Spherical Duggal transform (P V_1, ..., P V_d)."""
    return OperatorTuple(matrices=duggal_of(t.polar))


def generalized_aluthge(t: OperatorTuple, s: float) -> OperatorTuple:
    """Coordinates P^s V_i P^(1-s); s = 0 gives T, s = 1 gives duggal(T)."""
    _check_unit_interval("t", s)
    return OperatorTuple(matrices=aluthge_of(t.polar, s))


def aluthge(t: OperatorTuple) -> OperatorTuple:
    """Spherical Aluthge transform, the s = 1/2 interpolant."""
    return generalized_aluthge(t, 0.5)


def heinz(t: OperatorTuple, s: float) -> OperatorTuple:
    """Symmetric average of the generalized Aluthge transforms at s and 1-s."""
    _check_unit_interval("t", s)
    return OperatorTuple(matrices=heinz_of(t.polar, s))


def lambda_mean(t: OperatorTuple, lam: float) -> OperatorTuple:
    """Convex combination lam * T + (1 - lam) * duggal(T)."""
    _check_unit_interval("lambda", lam)
    return OperatorTuple(matrices=lambda_mean_of(t.array, duggal_of(t.polar), lam))


def mean_transform(t: OperatorTuple) -> OperatorTuple:
    """(T + duggal(T)) / 2."""
    return lambda_mean(t, 0.5)
