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
The decomposition is the tuple's own t.polar, computed on its first read,
so every transform of one tuple shares one factorization.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .tuples import OperatorTuple


def _check_unit_interval(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"{name}={x} outside [0, 1]")


def duggal(t: OperatorTuple) -> OperatorTuple:
    """Spherical Duggal transform (P V_1, ..., P V_d)."""
    return OperatorTuple(matrices=t.polar.p @ t.polar.v)


def generalized_aluthge(t: OperatorTuple, s: float) -> OperatorTuple:
    """Coordinates P^s V_i P^(1-s); s = 0 gives T, s = 1 gives duggal(T)."""
    _check_unit_interval("t", s)
    polar = t.polar
    return OperatorTuple(matrices=polar.p_power(s) @ polar.v @ polar.p_power(1.0 - s))


def aluthge(t: OperatorTuple) -> OperatorTuple:
    """Spherical Aluthge transform, the s = 1/2 interpolant."""
    return generalized_aluthge(t, 0.5)


def heinz(t: OperatorTuple, s: float) -> OperatorTuple:
    """Symmetric average of the generalized Aluthge transforms at s and 1-s."""
    _check_unit_interval("t", s)
    polar = t.polar
    r = 1.0 - s
    p_s, p_r = polar.p_power(s), polar.p_power(r)
    # the Aluthge transform at r ends in P^(1-r), and 1 - (1 - s) can miss
    # s by one ulp; the power is recomputed only then
    p_back = p_s if 1.0 - r == s else polar.p_power(1.0 - r)
    return OperatorTuple(matrices=0.5 * (p_s @ polar.v @ p_r + p_r @ polar.v @ p_back))


def lambda_mean(t: OperatorTuple, lam: float) -> OperatorTuple:
    """Convex combination lam * T + (1 - lam) * duggal(T)."""
    _check_unit_interval("lambda", lam)
    return OperatorTuple(matrices=lam * t.array + (1.0 - lam) * (t.polar.p @ t.polar.v))


def mean_transform(t: OperatorTuple) -> OperatorTuple:
    """(T + duggal(T)) / 2."""
    return lambda_mean(t, 0.5)
