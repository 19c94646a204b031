"""Scalar functionals of operator tuples.

Closed-form quantities (spherical, Euclidean and Schatten norms) come
straight from explicit SVD/eigendecompositions.  Supremum quantities
(hypo-norms, joint radii) are estimated with sphere_optimize; each gets
a monotone ascent step derived from the dual element of the norm being
maximized, so a single iteration costs one small factorization.

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


def _stack(t: OperatorTuple) -> np.ndarray:
    return np.stack(t.matrices)


def _combine(mats: np.ndarray, lam_rows: np.ndarray) -> np.ndarray:
    """sum_k lam[s, k] T_k for each row s."""
    return np.einsum("sk,kij->sij", lam_rows, mats)


def combination(t: OperatorTuple, lam: np.ndarray) -> np.ndarray:
    """The single matrix sum_k lam_k T_k."""
    return np.einsum("k,kij->ij", np.asarray(lam, dtype=np.complex128), _stack(t))


# ---------------------------------------------------------------------------
# hypo-norm: sup ||sum lam_k T_k||_op
# ---------------------------------------------------------------------------

def hypo_norm(
    t: OperatorTuple,
    config: OptimizerConfig | None = None,
    warm_starts=(),
) -> SupremumEstimate:
    """sup over the coefficient ball of the operator norm of sum lam_k T_k."""
    mats = _stack(t)

    def objective(lam):
        return float(np.linalg.svd(combination(t, lam), compute_uv=False)[0])

    def batch_objective(rows):
        return np.linalg.svd(_combine(mats, rows), compute_uv=False)[:, 0]

    def ascend(rows):
        u, s, vh = np.linalg.svd(_combine(mats, rows))
        u1 = np.conj(u[:, :, 0])
        v1 = np.conj(vh[:, 0, :])
        a = np.einsum("si,kij,sj->sk", u1, mats, v1)
        return s[:, 0], power_step(rows, a)

    return sphere_optimize(
        objective,
        t.d,
        config,
        ascend=ascend,
        batch_objective=batch_objective,
        warm_starts=warm_starts,
    )


# ---------------------------------------------------------------------------
# Schatten hypo-p-norm: sup ||sum lam_k T_k||_p
# ---------------------------------------------------------------------------

def _batch_schatten(s: np.ndarray, p: float) -> np.ndarray:
    top = s[:, 0]
    safe = np.where(top > 0.0, top, 1.0)
    vals = safe * np.sum((s / safe[:, None]) ** p, axis=1) ** (1.0 / p)
    return np.where(top > 0.0, vals, 0.0)


def schatten_hypo_norm(
    t: OperatorTuple,
    p: float,
    config: OptimizerConfig | None = None,
    warm_starts=(),
) -> SupremumEstimate:
    """sup over the coefficient ball of the Schatten p-norm of sum lam_k T_k."""
    if p < 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    mats = _stack(t)

    def objective(lam):
        return linalg.schatten_norm(combination(t, lam), p)

    def batch_objective(rows):
        return _batch_schatten(
            np.linalg.svd(_combine(mats, rows), compute_uv=False), p
        )

    def ascend(rows):
        u, s, vh = np.linalg.svd(_combine(mats, rows))
        vals = _batch_schatten(s, p)
        top = np.where(s[:, 0] > 0.0, s[:, 0], 1.0)
        vsafe = np.where(vals > 0.0, vals, 1.0)
        # dual-element weights (s_i / ||M||_p)^(p-1), scaled for stability
        w = (s / top[:, None]) ** (p - 1.0) * (top / vsafe)[:, None] ** (p - 1.0)
        w[vals <= 0.0] = 0.0
        b = np.einsum("sli,klm,sim->ski", np.conj(u), mats, np.conj(vh))
        a = np.einsum("si,ski->sk", w, b)
        return vals, power_step(rows, a)

    return sphere_optimize(
        objective,
        t.d,
        config,
        ascend=ascend,
        batch_objective=batch_objective,
        warm_starts=warm_starts,
    )


def schatten_hypo_norm_gram(t: OperatorTuple) -> float:
    """Closed form for p = 2: sqrt of the top eigenvalue of the d x d Gram
    matrix G[j, k] = tr(T_k T_j*).  Independent of the optimizer route.
    """
    mats = _stack(t)
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

def _batch_herm_schatten(evals: np.ndarray, p: float) -> np.ndarray:
    mags = np.abs(evals)
    top = np.max(mags, axis=-1)
    safe = np.where(top > 0.0, top, 1.0)
    vals = safe * np.sum((mags / safe[..., None]) ** p, axis=-1) ** (1.0 / p)
    return np.where(top > 0.0, vals, 0.0)


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
    cfg = replace(config or OptimizerConfig(), final_polish=False)
    mats = _stack(t)

    def herm(rows):
        m = _combine(mats, rows)
        return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0

    def batch_objective(rows):
        return _batch_herm_schatten(np.linalg.eigvalsh(herm(rows)), p)

    def objective(lam):
        return float(batch_objective(lam[None, :])[0])

    def mm_step(rows):
        h, q = np.linalg.eigh(herm(rows))
        vals = _batch_herm_schatten(h, p)
        mags = np.abs(h)
        if p == np.inf:
            # W = sign(h_top) x x* for the eigenvalue of largest modulus
            wt = np.zeros_like(h)
            idx = (np.arange(len(h)), np.argmax(mags, axis=1))
            wt[idx] = np.sign(h[idx])
        else:
            # W = Q diag(sign(h) |h|^(p-1)) Q* / ||H||_p^(p-1), scaled for stability
            top = np.max(mags, axis=1)
            tsafe = np.where(top > 0.0, top, 1.0)
            vsafe = np.where(vals > 0.0, vals, 1.0)
            wt = (
                np.sign(h)
                * (mags / tsafe[:, None]) ** (p - 1.0)
                * ((tsafe / vsafe) ** (p - 1.0))[:, None]
            )
        dual = np.einsum("sij,sj,skj->sik", q, wt, np.conj(q))
        a = np.einsum("sij,kji->sk", dual, mats)
        size = np.linalg.norm(a, axis=1)
        nxt = rows.copy()
        ok = size > 0.0
        nxt[ok] = np.conj(a[ok]) / size[ok][:, None]
        return vals, nxt

    def ascend(rows):
        # SQUAREM (Varadhan and Roland, 2008).  The bare MM step crawls
        # along the phase orbit when the objective is nearly
        # phase-invariant (nilpotent-like tuples), so extrapolate along
        # two MM steps and take one more MM step from there.  alpha = -1
        # gives back the second step; |alpha| <= 1/|r| bounds the jump.
        # The extrapolated branch is kept only where it is no worse than
        # x1, so the map stays monotone.
        vals, x1 = mm_step(rows)
        v1, x2 = mm_step(x1)
        r = x1 - rows
        v = x2 - x1 - r
        nr = np.linalg.norm(r, axis=1)
        alpha = -nr / np.maximum(np.linalg.norm(v, axis=1), 1e-300)
        alpha = np.minimum(np.maximum(alpha, -1.0 / np.maximum(nr, 1e-300)), -1.0)
        xe = rows - 2.0 * alpha[:, None] * r + (alpha**2)[:, None] * v
        ne = np.linalg.norm(xe, axis=1)
        xe /= np.where(ne > 0.0, ne, 1.0)[:, None]
        ve, x3 = mm_step(xe)
        return vals, np.where(((ve >= v1) & (ne > 0.0))[:, None], x3, x2)

    est = sphere_optimize(
        objective,
        t.d,
        cfg,
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
    mats = _stack(t)

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
        nxt = gauge_fix(q[:, :, -1])
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
