"""Scalar functionals of operator tuples.

Closed-form quantities (spherical, Euclidean and Schatten norms) come
straight from explicit SVDs; P's spectrum is the singular values of the
stacked column.  Supremum quantities (hypo-norms, joint radii) are
estimated with sphere_optimize; each passes a bare minorize-maximize
step, costing one small batched factorization, and sphere_optimize
accelerates it with SQUAREM.  The step is the same for every Schatten
supremum (_dual_element): factor the matrix X(lam) whose p-norm is
maximized as X = L diag(s) R with L, R unitary and s >= 0; its dual
element is W = L diag(w) R, w = (s / ||X||_p)^(p-1), and the step moves
lam to conj(a)/|a| with a_k = tr(W* T_k).  The hypo-p-norm step at
p < inf takes X = M(lam) = sum lam_k T_k from its SVD U S V*, the
real-part step takes X = Re M(lam) from its eigendecomposition
Q diag(h) Q*, as (Q sign(h), |h|, Q*).  The operator hypo-norm is the
p = inf case of the Schatten hypo-p-norm, with the dual element taken on
the top singular pair only, W = u v*.  Its step needs no SVD after an
ascent's first call: each row carries its top right singular vector v
from call to call, refines it by power steps and returns the minorant
||M(lam) v||, never lowered from one step to the next; sphere_optimize
values each winner by the full singular values, which come from
LAPACK's SVD, as every singular value in the package does.
The hypo-p-norms and radius route (a) of several same-shape tuples are
estimated by one batched ascent (_hypo_p_norms, _radius_vector_routes),
each equal to the estimate of its tuple alone; the public estimators are
their one-tuple case.  Every ascent runs on its tuple divided by a power
of two near the largest entry, which is exact, so its estimate scales
with the tuple (_binary_scaled).

The radii sup_(lam, theta) ||Re(e^{i theta} M(lam))||_p, with
M(lam) = sum lam_k T_k, need no theta sweep: the unit sphere is
invariant under lam -> e^{i theta} lam, so they equal
sup_lam ||Re M(lam)||_p over the ungauged sphere, ascended by the
real-part dual-element step for every p in [1, inf].  The joint
numerical radius is its p = inf case: joint_numerical_radius runs that
ascent (route b) and one over unit vectors (route a), each a check on
the other, and reports the larger.
numerical_radius(A) is the d = 1 case.  Every radius is reported under
one contract: argmax is gauge-fixed, theta is the phase the gauge
removed, and value == ||Re(e^{i theta} M(argmax))||_p exactly.

At p = 2 the Schatten hypo-norm and the Schatten radius are exact and
ignore the optimizer config.  ||M(lam)||_2^2 and
||Re M(lam)||_2^2 are quadratic forms in the real and imaginary parts
of the coefficients, so for both the argmax is a top eigenvector of one
2d x 2d real matrix (_quadratic_argmax).  The value is still the
objective evaluated at that argmax, now the true supremum to rounding.
schatten_hypo_norm_gram gives the hypo-2-norm from the d x d complex
Gram matrix instead, so the two check each other.
"""

from __future__ import annotations

import math
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
    sphere_optimize_batch,
)
from .tuples import OperatorTuple, tuple_from

_TWO_PI = 2.0 * np.pi


def spherical_norm(t: OperatorTuple) -> float:
    """||T|| = ||P||, the norm of the column operator: the top singular
    value of the stacked column, the p = inf case of schatten_spherical_norm."""
    return schatten_spherical_norm(t, np.inf)


def euclidean_norm(t: OperatorTuple) -> float:
    """(sum_k ||T_k||^2)^(1/2), every ||T_k|| from one batched SVD, by
    math.hypot, which neither underflows nor overflows where the squares
    would."""
    return math.hypot(*np.linalg.svd(t.array, compute_uv=False)[:, 0].tolist())


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


# ---------------------------------------------------------------------------
# Schatten hypo-p-norm: sup ||sum lam_k T_k||_p, p in [1, inf]
# ---------------------------------------------------------------------------

def _dual_element(left: np.ndarray, mags: np.ndarray, right: np.ndarray, p: float) -> tuple:
    """(||M||_p, conj(W)) for each M = left diag(mags) right of a stack,
    with W = left diag(w) right the dual element of the Schatten p-norm
    at M, p in [1, inf].  mags >= 0, and left and right are unitary, but a
    column of left may be 0 where mags is 0 (eigh's Q sign(h)).

    w = (mags / ||M||_p)^(p-1), scaled for stability, so ||W||_q <= 1 for
    1/p + 1/q = 1 and tr(W* M) = ||M||_p.  At p = inf only one largest
    entry gets weight 1: all-ones weights on tied entries would give W
    norm above 1 and break the minorization.  Rows of norm zero get zero
    weights.

    This is the minorize-maximize step of every Schatten ascent.  Let
    M = X(lam) with X(lam) = sum lam_k T_k, or its Hermitian part for a
    Hermitian W, so that Re tr(W* X(lam)) = Re sum lam_k a_k with
    a_k = tr(W* T_k), which _contract computes from conj(W).  Then the
    step lam' = conj(a)/|a| gives, by Hoelder,
    ||X(lam')||_p >= Re tr(W* X(lam')) = |a| >= Re tr(W* X(lam)) = ||M||_p.
    """
    vals = linalg.schatten_of_spectra(mags, p)
    if p == np.inf:
        w = np.zeros_like(mags)
        w[np.arange(len(mags)), np.argmax(mags, axis=1)] = 1.0
    else:
        top = np.max(mags, axis=1)
        tsafe = np.where(top > 0.0, top, 1.0)
        vsafe = np.where(vals > 0.0, vals, 1.0)
        w = (mags / tsafe[:, None]) ** (p - 1.0) * ((tsafe / vsafe) ** (p - 1.0))[:, None]
    w[vals <= 0.0] = 0.0
    return vals, np.conj((left * w[:, None, :]) @ right)


def _binary_scaled(mats: np.ndarray) -> tuple:
    """(mats / s, s) with s a power of two and the largest entry magnitude
    of mats / s in [1, 2).  The ascents run on mats / s: dividing by s is
    exact, so the argmax does not move, and at unit scale their absolute
    thresholds and the squares in their vector norms neither vanish nor
    overflow.  Values and spreads are multiplied back by _rescaled."""
    scale = math.ldexp(0.5, math.frexp(float(np.max(np.abs(mats))))[1])
    return mats / scale, scale


def _rescaled(est: SupremumEstimate, scale: float) -> SupremumEstimate:
    """An estimate of the supremum for mats / scale, for mats."""
    return replace(est, value=est.value * scale, spread=est.spread * scale)


def _per_owner(fn, stack: np.ndarray, rows: np.ndarray, blocks) -> np.ndarray:
    """fn(stack[b], rows of owner b) for each owner block, stacked in row
    order.  One call per owner, over the rows a one-tuple run would have,
    keeps every row's bits those of that run; one einsum over all owners
    does not."""
    if len(blocks) == 1:
        b, sl = blocks[0]
        return fn(stack[b], rows[sl])
    return np.concatenate([fn(stack[b], rows[sl]) for b, sl in blocks])


def _contract(flat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_s[i, j] T_k[i, j] for each matrix w_s of w, with flat the
    tuple T as a (d, n*n) array."""
    return w.reshape(len(w), -1) @ flat.T


_POWER_STEPS = 2


def _top_right_vectors(m: np.ndarray, v) -> np.ndarray:
    """The top right singular vector of each matrix of the stack m, from
    one full SVD when v is None, else estimated by _POWER_STEPS power
    steps v <- M*M v / ||M*M v|| from the rows of v, which need not be
    unit.  A power step does not lower ||M v|| of a unit v; a row with
    M*M v = 0, so M v = 0, keeps its v."""
    if v is None:
        return np.conj(np.linalg.svd(m)[2][:, 0, :])
    mh = linalg.adjoint(m)
    for _ in range(_POWER_STEPS):
        w = (mh @ (m @ v[:, :, None]))[:, :, 0]
        nw = np.linalg.norm(w, axis=1)
        v = np.where((nw > 0.0)[:, None], w / np.where(nw > 0.0, nw, 1.0)[:, None], v)
    return v


def _hypo_p_norms(ts, p: float, config: OptimizerConfig | None) -> list:
    """sup over the coefficient sphere of ||M(lam)||_p, p in [1, inf], for
    each of the same-shape tuples ts, by one batched ascent.

    At p < inf each step is _dual_element's on the SVD M = U S V*.  Each
    owner's rows are combined and contracted with its own tuple, one gemm
    per owner; one SVD serves every row.  Each tuple is ascended at unit
    scale (_binary_scaled).

    At p = inf the dual element is W = u v* for a unit v and
    u = M v / ||M v||, so a_k = u* T_k v, and the step returns the
    minorant ||M(lam) v|| <= ||M(lam)||, which it never lowers: the
    power steps do not, and ||M(lam') v|| >= |a| >= ||M(lam) v||.  v is
    the ascent's state: each row's v goes to its next step, where
    _top_right_vectors refines it, and SQUAREM extrapolates it with the
    row.  Only an ascent's first step runs a full SVD.  The optimizer
    values each winner by the objective, so every estimate is still the
    exact norm at its argmax.
    """
    scaled = [_binary_scaled(t.array) for t in ts]
    stack = np.stack([mats for mats, _ in scaled])
    flats = stack.reshape(len(ts), ts[0].d, -1)

    def objective(rows, blocks):
        m = _per_owner(_combine, stack, rows, blocks)
        return linalg.schatten_of_spectra(np.linalg.svd(m, compute_uv=False), p)

    def ascend(rows, blocks, v):
        m = _per_owner(_combine, stack, rows, blocks)
        if p == np.inf:
            v = _top_right_vectors(m, v)
            mv = (m @ v[:, :, None])[:, :, 0]
            vals = np.linalg.norm(mv, axis=1)
            u = mv / np.where(vals > 0.0, vals, 1.0)[:, None]
            dual = np.conj(u)[:, :, None] * v[:, None, :]
        else:
            vals, dual = _dual_element(*np.linalg.svd(m), p)
        return vals, power_step(rows, _per_owner(_contract, flats, dual, blocks)), v

    ests = sphere_optimize_batch(objective, ts[0].d, len(ts), config, ascend=ascend)
    return [_rescaled(est, scale) for est, (_, scale) in zip(ests, scaled)]


def hypo_norm(t: OperatorTuple, config: OptimizerConfig | None = None) -> SupremumEstimate:
    """sup over the coefficient ball of the operator norm of sum lam_k T_k."""
    return _hypo_p_norms((t,), np.inf, config)[0]


def schatten_hypo_norm(
    t: OperatorTuple, p: float, config: OptimizerConfig | None = None
) -> SupremumEstimate:
    """sup over the coefficient ball of the Schatten p-norm of sum lam_k T_k.

    At p = 2 the supremum is exact: the argmax is a top eigenvector of
    a 2d x 2d real matrix, and config is not used.
    """
    if not p >= 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    if p == 2.0:
        return _hypo_2_norm(t)
    return _hypo_p_norms((t,), p, config)[0]


def _scaled_gram(rows: np.ndarray) -> tuple:
    """(G, s) for a (k, N) array F: s is the largest entry magnitude of F
    (1 if every entry is 0) and G = conj(F) @ F.T / s^2, Hermitian.
    Dividing F by s before the product keeps G from underflowing or
    overflowing; its eigenvectors do not depend on s, and s^2 restores
    its eigenvalues."""
    scale = float(np.max(np.abs(rows))) or 1.0
    f = rows / scale
    return np.conj(f) @ f.T, scale


def _exact_estimate(value: float, lam: np.ndarray) -> SupremumEstimate:
    """A closed-form supremum: value is the objective at lam."""
    return SupremumEstimate(value=float(value), argmax=BallPoint(lam), starts=0,
                            converged=True, spread=0.0, iterations=0, evaluations=1)


def _quadratic_argmax(e: np.ndarray) -> np.ndarray:
    """lam = z[:d] + i z[d:] for z the argmax over the real unit sphere of
    ||sum_m z_m E_m||_2, e the stack of the 2d matrices E_m: the square is
    z^T R z with R = Re <E_m, E_l>, so z is a top eigenvector of R.  With
    E = (T, iT), sum_m z_m E_m = M(lam)."""
    d = len(e) // 2
    z = np.linalg.eigh(_scaled_gram(e.reshape(2 * d, -1))[0].real)[1][:, -1]
    return z[:d] + 1j * z[d:]


def _hypo_2_norm(t: OperatorTuple) -> SupremumEstimate:
    """The exact Schatten hypo-2-norm: the argmax is _quadratic_argmax of
    E = (T, iT), valued by the ascent's objective."""
    mats = t.array
    lam = gauge_fix(_quadratic_argmax(np.concatenate([mats, 1j * mats])))
    m = _combine(mats, lam[None, :])
    value = linalg.schatten_of_spectra(np.linalg.svd(m, compute_uv=False), 2.0)
    return _exact_estimate(value[0], lam)


def schatten_hypo_norm_gram(t: OperatorTuple) -> float:
    """Closed form for p = 2: sqrt of the top eigenvalue of the d x d Gram
    matrix G[j, k] = tr(T_k T_j*), built on the tuple divided by its
    largest entry.  Independent of the ascent and of the 2d x 2d
    eigenproblem of schatten_hypo_norm at p = 2.
    """
    g, scale = _scaled_gram(t.array.reshape(t.d, -1))
    return scale * float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))


# ---------------------------------------------------------------------------
# real-part supremum: sup_lam ||Re M(lam)||_p on the ungauged sphere
# ---------------------------------------------------------------------------

def _real_part_norms(mats: np.ndarray, lam_rows: np.ndarray, p: float) -> np.ndarray:
    """||Re M(lam)||_p for each row of coefficients."""
    h = linalg.hermitian_part(_combine(mats, lam_rows))
    return linalg.schatten_of_spectra(np.abs(np.linalg.eigvalsh(h)), p)


def _reported_at(est: SupremumEstimate, lam: np.ndarray, value: float) -> SupremumEstimate:
    """est at the coefficients lam, where value = ||Re M(lam)||_p, under
    the radius contract: argmax is lam gauge-fixed, theta the removed phase."""
    gauged = gauge_fix(lam)
    theta = float(np.angle(np.vdot(gauged, lam))) % _TWO_PI
    return replace(est, value=value, argmax=BallPoint(gauged), theta=theta)


def _real_part_sup(t: OperatorTuple, p: float, config: OptimizerConfig | None) -> SupremumEstimate:
    """sup over the ungauged unit sphere of ||Re M(lam)||_p, p in [1, inf].

    Each step is _dual_element's on Re M(lam) = Q diag(h) Q*, factored
    as (Q sign(h), |h|, Q*), so W is Hermitian.  The objective changes
    under lam -> e^{i theta} lam, so rows are not gauged while they
    ascend; the winner is reported by _reported_at.  The ascent runs at
    unit scale (_binary_scaled).  It is a one-tuple sphere_optimize run,
    not a batch: every caller asks for one supremum at a time.
    """
    mats, scale = _binary_scaled(t.array)
    flat = mats.reshape(t.d, -1)

    def objective(rows):
        return _real_part_norms(mats, rows, p)

    def ascend(rows):
        h, q = np.linalg.eigh(linalg.hermitian_part(_combine(mats, rows)))
        vals, dual = _dual_element(q * np.sign(h)[:, None, :], np.abs(h), linalg.adjoint(q), p)
        return vals, power_step(rows, _contract(flat, dual))

    est = _rescaled(sphere_optimize(objective, t.d, config, ascend=ascend,
                                    phase_invariant=False), scale)
    return _reported_at(est, est.argmax.coeffs, est.value)


def _real_part_2_sup(t: OperatorTuple) -> SupremumEstimate:
    """The exact sup over the unit sphere of ||Re M(lam)||_2: the argmax
    is _quadratic_argmax of E = Re(T, iT), reported by _reported_at."""
    mats = t.array
    lam = _quadratic_argmax(linalg.hermitian_part(np.concatenate([mats, 1j * mats])))
    value = float(_real_part_norms(mats, lam[None, :], 2.0)[0])
    return _reported_at(_exact_estimate(value, lam), lam, value)


# ---------------------------------------------------------------------------
# numerical radii: p = inf real-part suprema
# ---------------------------------------------------------------------------

def numerical_radius(a: np.ndarray) -> float:
    """omega(A) = sup_theta ||Re(e^{i theta} A)||_op: the d = 1 case of
    the joint numerical radius, by the p = inf real-part ascent."""
    return _real_part_sup(tuple_from(a), np.inf, None).value


def _radius_vector_routes(ts, config: OptimizerConfig | None) -> list:
    """Route (a) for each of the same-shape tuples ts, by one batched
    ascent: sup over unit vectors x of |c(x)|, c_k(x) = <T_k x, x>.

    The ascent alternates the optimal coefficient vector lam = conj(c)/|c|
    for fixed x with the top eigenvector of Re M(lam) for fixed lam; one
    eigh serves every row.  Each winner is reported at its lam, valued by
    route (b)'s objective ||Re M(lam)||_op >= x* Re M(lam) x = |c(x)|.
    Each tuple is ascended at unit scale (_binary_scaled).
    """
    scaled = [_binary_scaled(t.array) for t in ts]
    stack = np.stack([mats for mats, _ in scaled])

    def objective(xs, blocks):
        return np.linalg.norm(_per_owner(_vector_coeffs, stack, xs, blocks), axis=1)

    def ascend(xs, blocks, state):
        c = _per_owner(_vector_coeffs, stack, xs, blocks)
        vals = np.linalg.norm(c, axis=1)
        safe = np.where(vals > 0.0, vals, 1.0)
        lam = np.conj(c) / safe[:, None]
        _, q = np.linalg.eigh(linalg.hermitian_part(_per_owner(_combine, stack, lam, blocks)))
        nxt = q[:, :, -1]
        nxt[vals <= 0.0] = xs[vals <= 0.0]
        return vals, nxt, None

    ests = sphere_optimize_batch(objective, ts[0].n, len(ts), config, ascend=ascend)
    return [_vector_route_report(_rescaled(est, scale), mats, scale)
            for est, (mats, scale) in zip(ests, scaled)]


def _vector_coeffs(mats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """c_k(x) = <T_k x, x> for each row x of xs."""
    return np.einsum("si,kij,sj->sk", np.conj(xs), mats, xs)


def _vector_route_report(est: SupremumEstimate, mats: np.ndarray,
                         scale: float) -> SupremumEstimate:
    """A route (a) winner x for the tuple scale * mats reported at
    lam = conj(c(x))/|c(x)|."""
    c = _vector_coeffs(mats, est.argmax.coeffs[None, :])[0]
    nc = np.linalg.norm(c)
    lam = np.conj(c) / nc if nc > 0 else np.full(len(mats), 1.0 / np.sqrt(len(mats)),
                                                 dtype=np.complex128)
    return _reported_at(est, lam, float(_real_part_norms(mats, lam[None, :], np.inf)[0]) * scale)


def _radius_vector_route(t: OperatorTuple, config: OptimizerConfig) -> SupremumEstimate:
    """Route (a) for one tuple."""
    return _radius_vector_routes((t,), config)[0]


def _radius_coeff_route(t: OperatorTuple, config: OptimizerConfig) -> SupremumEstimate:
    """Route (b): sup over the coefficient sphere of omega(sum lam_k T_k).

    omega(M) = sup_theta ||Re(e^{i theta} M)||_op, so this is the p = inf
    case of the real-part ascent.
    """
    return _real_part_sup(t, np.inf, config)


def joint_numerical_radius(
    t: OperatorTuple, config: OptimizerConfig | None = None
) -> SupremumEstimate:
    """Joint numerical radius omega(T) = sup_lam omega(sum lam_k T_k): the
    larger estimate of route (a), over unit vectors, and route (b), over
    the coefficient sphere, with the starts, iterations and evaluations of
    both summed and cross_gap = |a - b|."""
    cfg = config or OptimizerConfig()
    runs = (_radius_vector_route(t, cfg), _radius_coeff_route(t, cfg))
    return replace(max(runs, key=lambda est: est.value),
                   starts=sum(est.starts for est in runs),
                   iterations=sum(est.iterations for est in runs),
                   evaluations=sum(est.evaluations for est in runs),
                   cross_gap=abs(runs[0].value - runs[1].value))


# ---------------------------------------------------------------------------
# Schatten p-numerical radius: sup over (lam, theta) of ||Re(e^{i theta} M)||_p
# ---------------------------------------------------------------------------

def schatten_numerical_radius(
    t: OperatorTuple, p: float, config: OptimizerConfig | None = None
) -> SupremumEstimate:
    """omega_{s,p}(T) = sup_(lam, theta) ||Re(e^{i theta} sum lam_k T_k)||_p.

    Computed as sup_lam ||Re M(lam)||_p over the ungauged coefficient
    sphere by one dual ascent (no theta sweep).  argmax is gauge-fixed
    and theta is the phase the gauge removed from the winner, so value
    is the exact evaluation ||Re(e^{i theta} M(argmax))||_p.  At p = 2
    the supremum is exact: the argmax is a top eigenvector of a 2d x 2d
    real matrix, and config is not used.
    """
    if not p >= 1.0:
        raise InvalidPError(f"Schatten exponent p={p} must be >= 1")
    if p == 2.0:
        return _real_part_2_sup(t)
    return _real_part_sup(t, p, config)
