"""Scalar functionals of operator tuples.

Closed-form quantities (spherical, Euclidean and Schatten norms) come
straight from explicit SVD/eigendecompositions.  Supremum quantities
(hypo-norms, joint radii) are estimated with sphere_optimize; each
passes a bare minorize-maximize step derived from the dual element of
the norm being maximized, costing one small batched factorization, and
sphere_optimize accelerates it with SQUAREM.  The operator hypo-norm is
the p = inf case of the Schatten hypo-p-norm, with the dual element
taken on the top singular pair only.

The radii sup_(lam, theta) ||Re(e^{i theta} M(lam))||_p, with
M(lam) = sum lam_k T_k, need no theta sweep: the unit sphere is
invariant under lam -> e^{i theta} lam, so they equal
sup_lam ||Re M(lam)||_p over the ungauged sphere.  One dual-ascent step
serves p in [1, inf]; the joint numerical radius of the coefficient
route is its p = inf case.  The winner is reported gauge-fixed, with
theta the phase that the gauge removed.
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
from .tuples import OperatorTuple, gram_sum

_TWO_PI = 2.0 * np.pi
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def spherical_norm(t: OperatorTuple) -> float:
    """||T|| = ||sum T_k* T_k||^(1/2), the norm of the column operator."""
    return float(np.sqrt(linalg.operator_norm(gram_sum(t))))


def euclidean_norm(t: OperatorTuple) -> float:
    """(sum_k ||T_k||^2)^(1/2)."""
    return float(np.sqrt(sum(linalg.operator_norm(m) ** 2 for m in t)))


def schatten_spherical_norm(t: OperatorTuple, p: float) -> float:
    """[tr(P^p)]^(1/p), computed from the SVD of the stacked column."""
    if p < 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
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

    def batch_objective(rows):
        return _batch_schatten(np.linalg.svd(_combine(mats, rows), compute_uv=False), p)

    def objective(lam):
        return float(batch_objective(lam[None, :])[0])

    def ascend(rows):
        u, s, vh = np.linalg.svd(_combine(mats, rows))
        vals = _batch_schatten(s, p)
        dual = (u * _dual_weights(s, vals, p)[:, None, :]) @ vh
        a = np.conj(dual).reshape(len(rows), -1) @ flat.T
        return vals, power_step(rows, a)

    return sphere_optimize(
        objective,
        t.d,
        config,
        ascend=ascend,
        batch_objective=batch_objective,
        warm_starts=warm_starts,
    )


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
    if p < 1.0:
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
# numerical radius of a single matrix: sup_theta lam_max(Re(e^{i theta} A))
# ---------------------------------------------------------------------------

def _herm_rotations(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    rotated = np.exp(1j * thetas)[:, None, None] * a[None, :, :]
    return (rotated + np.conj(np.swapaxes(rotated, -1, -2))) / 2.0


def _golden_max(fun, lo: float, hi: float, tol: float):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fun(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fun(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def numerical_radius(
    a: np.ndarray, n_grid: int = 720, theta_tol: float = 1e-10
) -> float:
    """omega(A) via a theta grid plus golden-section refinement."""
    return _radius_witness(a, n_grid, theta_tol)[0]


def _radius_witness(a: np.ndarray, n_grid: int = 720, theta_tol: float = 1e-10):
    """(omega(A), argmax theta, top eigenvector at that theta)."""
    a = linalg.as_matrix(a)
    thetas = np.linspace(0.0, _TWO_PI, n_grid, endpoint=False)
    tops = np.linalg.eigvalsh(_herm_rotations(a, thetas))[:, -1]
    i = int(np.argmax(tops))
    span = _TWO_PI / n_grid

    def g(theta):
        h = _herm_rotations(a, np.array([theta]))[0]
        return float(np.linalg.eigvalsh(h)[-1])

    theta, val = _golden_max(g, thetas[i] - span, thetas[i] + span, theta_tol)
    if tops[i] > val:
        theta, val = float(thetas[i]), float(tops[i])
    h = _herm_rotations(a, np.array([theta]))[0]
    w, q = np.linalg.eigh(h)
    return float(val), float(theta % _TWO_PI), q[:, -1]


# ---------------------------------------------------------------------------
# real-part supremum: sup_lam ||Re M(lam)||_p on the ungauged sphere
# ---------------------------------------------------------------------------

def _real_part_sup(
    t: OperatorTuple, p: float, config: OptimizerConfig | None, warm_starts=()
) -> SupremumEstimate:
    """sup over the ungauged unit sphere of ||Re M(lam)||_p, p in [1, inf].

    Each ascent step is minorize-maximize on the Hermitian dual element
    W of H = Re M(lam): ||W||_q = 1 and tr(W H) = ||H||_p, so with
    a_k = tr(W T_k) the step lam' = conj(a)/|a| gives
    ||Re M(lam')||_p >= Re sum lam'_k a_k = |a| >= ||H||_p.
    The objective changes under lam -> e^{i theta} lam, so rows are not
    gauged while they ascend; the returned argmax is the gauge-fixed
    winner and theta the phase removed, so that
    value == ||Re(e^{i theta} M(argmax))||_p exactly.
    """
    mats = t.array

    def herm(rows):
        m = _combine(mats, rows)
        return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0

    def batch_objective(rows):
        return _batch_schatten(np.abs(np.linalg.eigvalsh(herm(rows))), p)

    def objective(lam):
        return float(batch_objective(lam[None, :])[0])

    def ascend(rows):
        h, q = np.linalg.eigh(herm(rows))
        mags = np.abs(h)
        vals = _batch_schatten(mags, p)
        # W = Q diag(sign(h) w) Q*
        wt = np.sign(h) * _dual_weights(mags, vals, p)
        dual = np.einsum("sij,sj,skj->sik", q, wt, np.conj(q))
        a = np.einsum("sij,kji->sk", dual, mats)
        return vals, power_step(rows, a)

    est = sphere_optimize(
        objective,
        t.d,
        config,
        ascend=ascend,
        batch_objective=batch_objective,
        phase_invariant=False,
        warm_starts=warm_starts,
    )
    winner = est.argmax.coeffs
    lam = gauge_fix(winner)
    theta = float(np.angle(np.vdot(lam, winner))) % _TWO_PI
    return replace(est, argmax=BallPoint(lam), theta=theta)


# ---------------------------------------------------------------------------
# joint numerical radius: two independent estimators
# ---------------------------------------------------------------------------

def _radius_vector_route(t: OperatorTuple, config: OptimizerConfig):
    """Route (a): sup over unit vectors x of (sum_k |<T_k x, x>|^2)^(1/2).

    The ascent alternates the optimal coefficient vector for fixed x with
    the top eigenvector of Re(sum lam_k T_k) for fixed coefficients.
    """
    mats = t.array

    def coeffs_for(x):
        c = np.einsum("si,kij,sj->sk", np.conj(x), mats, x)
        return c

    def objective(x):
        c = coeffs_for(x.reshape(1, -1))[0]
        return float(np.linalg.norm(c))

    def ascend(xs):
        c = coeffs_for(xs)
        vals = np.linalg.norm(c, axis=1)
        safe = np.where(vals > 0.0, vals, 1.0)
        lam = np.conj(c) / safe[:, None]
        m = _combine(mats, lam)
        h = (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0
        _, q = np.linalg.eigh(h)
        nxt = q[:, :, -1]
        nxt[vals <= 0.0] = xs[vals <= 0.0]
        return vals, nxt

    est = sphere_optimize(objective, t.n, config, ascend=ascend)
    x = est.argmax.coeffs
    lam = coeffs_for(x.reshape(1, -1))[0]
    nl = np.linalg.norm(lam)
    lam = np.conj(lam) / nl if nl > 0 else np.ones(t.d, dtype=np.complex128) / np.sqrt(t.d)
    return est, gauge_fix(lam)


def _radius_coeff_route(t: OperatorTuple, config: OptimizerConfig):
    """Route (b): sup over the coefficient sphere of omega(sum lam_k T_k).

    omega(M) = sup_theta ||Re(e^{i theta} M)||_op, so this is the p = inf
    case of the real-part ascent.
    """
    return _real_part_sup(t, np.inf, config)


def joint_numerical_radius(
    t: OperatorTuple, config: OptimizerConfig | None = None, route: str = "both"
) -> SupremumEstimate:
    """Joint numerical radius omega(T).

    route "both" (default) runs the vector-sphere estimator and the
    coefficient-sphere estimator, reports the max, and records the gap
    between the two in cross_gap.  "a" / "b" run a single route.
    """
    cfg = config or OptimizerConfig()
    if route not in ("a", "b", "both"):
        raise ValueError(f"unknown route {route!r}")

    candidates = []
    value_a = value_b = None
    if route in ("a", "both"):
        est_a, lam_a = _radius_vector_route(t, cfg)
        value_a = est_a.value
        candidates.append((lam_a, est_a.converged, est_a.starts, est_a.spread))
    if route in ("b", "both"):
        est_b = _radius_coeff_route(t, cfg)
        value_b = est_b.value
        candidates.append(
            (est_b.argmax.coeffs, est_b.converged, est_b.starts, est_b.spread)
        )

    best = None
    for lam, conv, starts, spread in candidates:
        val, theta, _ = _radius_witness(combination(t, lam))
        if best is None or val > best[0]:
            best = (val, lam, theta, conv, starts, spread)
    value, lam, theta, conv, starts, spread = best
    gap = abs(value_a - value_b) if (value_a is not None and value_b is not None) else None
    total_starts = sum(c[2] for c in candidates)
    return SupremumEstimate(
        value=value,
        argmax=BallPoint(lam),
        starts=total_starts,
        converged=conv,
        spread=spread,
        theta=theta,
        cross_gap=gap,
    )


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
    if p < 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    return _real_part_sup(t, p, config, warm_starts)
