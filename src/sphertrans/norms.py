"""Scalar functionals of operator tuples.

Closed-form quantities (spherical, Euclidean and Schatten norms) come
straight from explicit SVDs; P's spectrum is the singular values of the
stacked column.  Supremum quantities (hypo-norms, joint radii) are
estimated with sphere_optimize; each passes a bare minorize-maximize
step derived from the dual element of the norm being maximized, costing
one small batched factorization, and sphere_optimize accelerates it
with SQUAREM.  The operator hypo-norm is the p = inf case of the
Schatten hypo-p-norm, with the dual element taken on the top singular
pair only.

The radii sup_(lam, theta) ||Re(e^{i theta} M(lam))||_p, with
M(lam) = sum lam_k T_k, need no theta sweep: the unit sphere is
invariant under lam -> e^{i theta} lam, so they equal
sup_lam ||Re M(lam)||_p over the ungauged sphere.  One dual-ascent step
serves p in [1, inf].  The joint numerical radius is its p = inf case,
reached by that ascent (route b) or over unit vectors (route a), and
numerical_radius(A) is its d = 1 case.  Every radius is reported under
one contract: argmax is gauge-fixed, theta is the phase the gauge
removed, and value == ||Re(e^{i theta} M(argmax))||_p exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import linalg
from .errors import InvalidPError
from .optimize import (
    BallPoint,
    OptimizerConfig,
    SupremumEstimate,
    gauge_fix,
    power_step,
    sphere_optimize,
)
from .tuples import OperatorTuple, tuple_from

_TWO_PI = 2.0 * np.pi


def spherical_norm(t: OperatorTuple) -> float:
    """||T|| = ||P||, the norm of the column operator: the top singular
    value of the stacked column, the p = inf case of schatten_spherical_norm."""
    return schatten_spherical_norm(t, np.inf)


def euclidean_norm(t: OperatorTuple) -> float:
    """(sum_k ||T_k||^2)^(1/2)."""
    return float(np.sqrt(sum(linalg.operator_norm(m) ** 2 for m in t)))


def schatten_spherical_norm(t: OperatorTuple, p: float) -> float:
    """[tr(P^p)]^(1/p), p in [1, inf], from the singular values of the
    stacked column: P's eigenvalues, without forming sum T_k* T_k."""
    return linalg.schatten_from_singulars(
        np.linalg.svd(t.stacked(), compute_uv=False), p
    )


def _combine(mats: np.ndarray, lam_rows: np.ndarray) -> np.ndarray:
    """sum_k lam[s, k] T_k for each row s."""
    d, n, _ = mats.shape
    return (lam_rows @ mats.reshape(d, n * n)).reshape(-1, n, n)


def combination(t: OperatorTuple, lam: np.ndarray) -> np.ndarray:
    """The single matrix sum_k lam_k T_k."""
    return np.einsum("k,kij->ij", np.asarray(lam, dtype=np.complex128), t.array)


# ---------------------------------------------------------------------------
# Schatten hypo-p-norm: sup ||sum lam_k T_k||_p, p in [1, inf]
# ---------------------------------------------------------------------------

def _batch_schatten(mags: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norms of rows of nonnegative spectra, scaled for stability."""
    top = np.max(mags, axis=-1)
    if p == np.inf:
        return top
    safe = np.where(top > 0.0, top, 1.0)
    vals = safe * np.sum((mags / safe[..., None]) ** p, axis=-1) ** (1.0 / p)
    return np.where(top > 0.0, vals, 0.0)


def _dual_weights(mags: np.ndarray, vals: np.ndarray, p: float) -> np.ndarray:
    """Spectral weights of the dual element of the Schatten p-norm.

    (mags / ||mags||_p)^(p-1), scaled for stability.  At p = inf only one
    largest entry gets weight 1: all-ones weights on tied entries would
    give the dual element norm above 1 and break the minorization.  Rows
    of norm zero get zero weights.
    """
    if p == np.inf:
        w = np.zeros_like(mags)
        w[np.arange(len(mags)), np.argmax(mags, axis=1)] = 1.0
    else:
        top = np.max(mags, axis=1)
        tsafe = np.where(top > 0.0, top, 1.0)
        vsafe = np.where(vals > 0.0, vals, 1.0)
        w = (mags / tsafe[:, None]) ** (p - 1.0) * ((tsafe / vsafe) ** (p - 1.0))[:, None]
    w[vals <= 0.0] = 0.0
    return w


def _hypo_p_norm(
    t: OperatorTuple, p: float, config: OptimizerConfig | None, warm_starts
) -> SupremumEstimate:
    """sup over the coefficient sphere of ||M(lam)||_p, p in [1, inf].

    Minorize-maximize on the dual element W = U diag(w) V* of M = U S V*:
    with a_k = tr(W* T_k) the step lam' = conj(a)/|a| gives
    ||M(lam')||_p >= Re sum lam'_k a_k = |a| >= ||M(lam)||_p.
    """
    mats = t.array
    flat = mats.reshape(t.d, -1)

    def objective(rows):
        return _batch_schatten(np.linalg.svd(_combine(mats, rows), compute_uv=False), p)

    def ascend(rows):
        u, s, vh = np.linalg.svd(_combine(mats, rows))
        vals = _batch_schatten(s, p)
        dual = (u * _dual_weights(s, vals, p)[:, None, :]) @ vh
        a = np.conj(dual).reshape(len(rows), -1) @ flat.T
        return vals, power_step(rows, a)

    return sphere_optimize(objective, t.d, config, ascend=ascend, warm_starts=warm_starts)


def hypo_norm(
    t: OperatorTuple,
    config: OptimizerConfig | None = None,
    warm_starts=(),
) -> SupremumEstimate:
    """sup over the coefficient ball of the operator norm of sum lam_k T_k."""
    return _hypo_p_norm(t, np.inf, config, warm_starts)


def schatten_hypo_norm(
    t: OperatorTuple,
    p: float,
    config: OptimizerConfig | None = None,
    warm_starts=(),
) -> SupremumEstimate:
    """sup over the coefficient ball of the Schatten p-norm of sum lam_k T_k."""
    if not p >= 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    return _hypo_p_norm(t, p, config, warm_starts)


def schatten_hypo_norm_gram(t: OperatorTuple) -> float:
    """Closed form for p = 2: sqrt of the top eigenvalue of the d x d Gram
    matrix G[j, k] = tr(T_k T_j*).  Independent of the optimizer route.
    """
    mats = t.array
    g = np.einsum("kab,jab->jk", mats, np.conj(mats))
    g = (g + np.conj(g.T)) / 2.0
    return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))


# ---------------------------------------------------------------------------
# real-part supremum: sup_lam ||Re M(lam)||_p on the ungauged sphere
# ---------------------------------------------------------------------------

def _real_parts(mats: np.ndarray, lam_rows: np.ndarray) -> np.ndarray:
    """Re M(lam) = (M + M*) / 2 for each row of coefficients."""
    m = _combine(mats, lam_rows)
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0


def _real_part_norms(mats: np.ndarray, lam_rows: np.ndarray, p: float) -> np.ndarray:
    """||Re M(lam)||_p for each row of coefficients."""
    return _batch_schatten(np.abs(np.linalg.eigvalsh(_real_parts(mats, lam_rows))), p)


def _reported_at(est: SupremumEstimate, lam: np.ndarray, value: float) -> SupremumEstimate:
    """est at the coefficients lam, where value = ||Re M(lam)||_p, under
    the radius contract: argmax is lam gauge-fixed, theta the removed phase."""
    gauged = gauge_fix(lam)
    theta = float(np.angle(np.vdot(gauged, lam))) % _TWO_PI
    return replace(est, value=value, argmax=BallPoint(gauged), theta=theta)


def _real_part_sup(
    t: OperatorTuple, p: float, config: OptimizerConfig | None, warm_starts=()
) -> SupremumEstimate:
    """sup over the ungauged unit sphere of ||Re M(lam)||_p, p in [1, inf].

    Each ascent step is minorize-maximize on the Hermitian dual element
    W of H = Re M(lam): ||W||_q = 1 and tr(W H) = ||H||_p, so with
    a_k = tr(W T_k) the step lam' = conj(a)/|a| gives
    ||Re M(lam')||_p >= Re sum lam'_k a_k = |a| >= ||H||_p.
    The objective changes under lam -> e^{i theta} lam, so rows are not
    gauged while they ascend; the winner is reported by _reported_at.
    """
    mats = t.array

    def objective(rows):
        return _real_part_norms(mats, rows, p)

    def ascend(rows):
        h, q = np.linalg.eigh(_real_parts(mats, rows))
        mags = np.abs(h)
        vals = _batch_schatten(mags, p)
        # W = Q diag(sign(h) w) Q*
        wt = np.sign(h) * _dual_weights(mags, vals, p)
        dual = np.einsum("sij,sj,skj->sik", q, wt, np.conj(q))
        a = np.einsum("sij,kji->sk", dual, mats)
        return vals, power_step(rows, a)

    est = sphere_optimize(objective, t.d, config, ascend=ascend,
                          phase_invariant=False, warm_starts=warm_starts)
    return _reported_at(est, est.argmax.coeffs, est.value)


# ---------------------------------------------------------------------------
# numerical radii: p = inf real-part suprema
# ---------------------------------------------------------------------------

def numerical_radius(a: np.ndarray) -> float:
    """omega(A) = sup_theta ||Re(e^{i theta} A)||_op: the d = 1 case of
    the joint numerical radius, by the p = inf real-part ascent."""
    return _real_part_sup(tuple_from(a), np.inf, None).value


def _radius_vector_route(t: OperatorTuple, config: OptimizerConfig) -> SupremumEstimate:
    """Route (a): sup over unit vectors x of |c(x)|, c_k(x) = <T_k x, x>.

    The ascent alternates the optimal coefficient vector lam = conj(c)/|c|
    for fixed x with the top eigenvector of Re M(lam) for fixed lam.  The
    winner is reported at its lam, valued by route (b)'s objective
    ||Re M(lam)||_op >= x* Re M(lam) x = |c(x)|.
    """
    mats = t.array

    def coeffs_for(xs):
        return np.einsum("si,kij,sj->sk", np.conj(xs), mats, xs)

    def ascend(xs):
        c = coeffs_for(xs)
        vals = np.linalg.norm(c, axis=1)
        safe = np.where(vals > 0.0, vals, 1.0)
        _, q = np.linalg.eigh(_real_parts(mats, np.conj(c) / safe[:, None]))
        nxt = q[:, :, -1]
        nxt[vals <= 0.0] = xs[vals <= 0.0]
        return vals, nxt

    est = sphere_optimize(lambda xs: np.linalg.norm(coeffs_for(xs), axis=1), t.n, config,
                          ascend=ascend)
    c = coeffs_for(est.argmax.coeffs[None, :])[0]
    nc = np.linalg.norm(c)
    lam = np.conj(c) / nc if nc > 0 else np.full(t.d, 1.0 / np.sqrt(t.d), dtype=np.complex128)
    return _reported_at(est, lam, float(_real_part_norms(mats, lam[None, :], np.inf)[0]))


def _radius_coeff_route(t: OperatorTuple, config: OptimizerConfig) -> SupremumEstimate:
    """Route (b): sup over the coefficient sphere of omega(sum lam_k T_k).

    omega(M) = sup_theta ||Re(e^{i theta} M)||_op, so this is the p = inf
    case of the real-part ascent.
    """
    return _real_part_sup(t, np.inf, config)


def joint_numerical_radius(
    t: OperatorTuple, config: OptimizerConfig | None = None, route: str = "both"
) -> SupremumEstimate:
    """Joint numerical radius omega(T) = sup_lam omega(sum lam_k T_k).

    route "a" ascends over unit vectors, "b" over the coefficient sphere;
    "both" (default) runs the two, reports the larger with the starts
    summed, and records the gap |a - b| in cross_gap.  Either route is
    reported under the radius contract, with
    value == ||Re(e^{i theta} M(argmax))||_op exactly.
    """
    if route not in ("a", "b", "both"):
        raise ValueError(f"unknown route {route!r}")
    cfg = config or OptimizerConfig()
    runs = []
    if route != "b":
        runs.append(_radius_vector_route(t, cfg))
    if route != "a":
        runs.append(_radius_coeff_route(t, cfg))
    best = max(runs, key=lambda est: est.value)
    gap = abs(runs[0].value - runs[1].value) if len(runs) == 2 else None
    return replace(best, starts=sum(est.starts for est in runs), cross_gap=gap)


# ---------------------------------------------------------------------------
# Schatten p-numerical radius: sup over (lam, theta) of ||Re(e^{i theta} M)||_p
# ---------------------------------------------------------------------------

def schatten_numerical_radius(
    t: OperatorTuple,
    p: float,
    config: OptimizerConfig | None = None,
    warm_starts=(),
) -> SupremumEstimate:
    """omega_{s,p}(T) = sup_(lam, theta) ||Re(e^{i theta} sum lam_k T_k)||_p.

    Computed as sup_lam ||Re M(lam)||_p over the ungauged coefficient
    sphere by one dual ascent (no theta sweep).  argmax is gauge-fixed
    and theta is the phase the gauge removed from the winner, so value
    is the exact evaluation ||Re(e^{i theta} M(argmax))||_p.
    """
    if not p >= 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    return _real_part_sup(t, p, config, warm_starts)
