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
The public functions recompute the polar decomposition internally; the
*_from_polar variants reuse a precomputed SphericalPolar.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .tuples import OperatorTuple, SphericalPolar, spherical_polar


def _check_unit_interval(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"{name}={x} outside [0, 1]")


def duggal_from_polar(polar: SphericalPolar) -> OperatorTuple:
    return OperatorTuple(matrices=polar.p @ polar.v)


def generalized_aluthge_from_polar(polar: SphericalPolar, t: float) -> OperatorTuple:
    _check_unit_interval("t", t)
    return OperatorTuple(matrices=polar.p_power(t) @ polar.v @ polar.p_power(1.0 - t))


def heinz_from_polar(polar: SphericalPolar, t: float) -> OperatorTuple:
    _check_unit_interval("t", t)
    s = 1.0 - t
    p_t, p_s = polar.p_power(t), polar.p_power(s)
    # the Aluthge transform at s ends in P^(1-s), and 1 - (1 - t) can miss
    # t by one ulp; the power is recomputed only then
    p_back = p_t if 1.0 - s == t else polar.p_power(1.0 - s)
    return OperatorTuple(matrices=0.5 * (p_t @ polar.v @ p_s + p_s @ polar.v @ p_back))


def lambda_mean_from_polar(
    t: OperatorTuple, polar: SphericalPolar, lam: float
) -> OperatorTuple:
    _check_unit_interval("lambda", lam)
    return OperatorTuple(matrices=lam * t.array + (1.0 - lam) * (polar.p @ polar.v))


def duggal(t: OperatorTuple) -> OperatorTuple:
    """Spherical Duggal transform (P V_1, ..., P V_d)."""
    return duggal_from_polar(spherical_polar(t))


def generalized_aluthge(t: OperatorTuple, s: float) -> OperatorTuple:
    """Coordinates P^s V_i P^(1-s); s = 0 gives T, s = 1 gives duggal(T)."""
    return generalized_aluthge_from_polar(spherical_polar(t), s)


def aluthge(t: OperatorTuple) -> OperatorTuple:
    """Spherical Aluthge transform, the s = 1/2 interpolant."""
    return generalized_aluthge(t, 0.5)


def heinz(t: OperatorTuple, s: float) -> OperatorTuple:
    """Symmetric average of the generalized Aluthge transforms at s and 1-s."""
    return heinz_from_polar(spherical_polar(t), s)


def lambda_mean(t: OperatorTuple, lam: float) -> OperatorTuple:
    """Convex combination lam * T + (1 - lam) * duggal(T)."""
    return lambda_mean_from_polar(t, spherical_polar(t), lam)


def mean_transform(t: OperatorTuple) -> OperatorTuple:
    """(T + duggal(T)) / 2."""
    return lambda_mean(t, 0.5)
