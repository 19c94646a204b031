"""Multistart supremum estimation on the complex unit sphere.

Every hypo-norm and joint-radius quantity in this package is a supremum
of a continuous, absolutely homogeneous objective over the closed
Euclidean unit ball of C^d; by homogeneity the supremum is attained on
the sphere.  sphere_optimize performs deterministic multistart local
ascent there and reports a certified LOWER bound: the returned value is
always an exact evaluation of the objective at the returned point.

Objectives come in two flavours:

* with an ``ascend`` map (a batched monotone improvement step, e.g. the
  power-type step derived from a norm's dual element), the driver
  iterates it to a step tolerance;
* without one, a coordinate pattern search on the gauge-fixed real
  parameterization is used.

The phase gauge makes the first nonzero coefficient real nonnegative,
removing the e^{i phi} redundancy of a phase-invariant objective (the
hypo-norms).  An objective such as ||Re M(lam)||_p that changes under
lam -> e^{i phi} lam is not gauged: its rows start from the best of
four phases, ascend on the full sphere, and the winner is reported as
reached; callers gauge it and report the removed phase themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class BallPoint:
    """A coefficient vector in the closed unit ball of C^d."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(c))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"coefficient norm {norm} exceeds the unit ball")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def d(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class OptimizerConfig:
    """Deterministic multistart settings; all randomness flows from seed."""

    n_random_starts: int = 32
    step_tol: float = 1e-9
    max_iters: int = 120
    seed: int = 42
    grid_points: int = 0        # random screening points prepended as starts
    final_polish: bool = True   # pattern-polish the winning start

    def escalated(self) -> "OptimizerConfig":
        """Heavier rerun used before declaring an inequality violation."""
        return replace(
            self,
            n_random_starts=max(8 * self.n_random_starts, 256),
            grid_points=max(self.grid_points, 100_000),
        )


@dataclass(frozen=True)
class SupremumEstimate:
    """A lower bound of a sphere supremum plus optimizer diagnostics.

    value is the objective evaluated exactly at argmax; spread is the
    max-min range over final values of converged starts (a multimodality
    diagnostic, not an error bar).
    """

    value: float
    argmax: BallPoint
    starts: int
    converged: bool
    spread: float
    theta: float | None = None
    cross_gap: float | None = None


def gauge_fix(lam: np.ndarray) -> np.ndarray:
    """Rotate the phase so the first nonzero coefficient is real >= 0."""
    lam = np.asarray(lam, dtype=np.complex128)
    single = lam.ndim == 1
    l2 = np.atleast_2d(lam)
    mags = np.abs(l2)
    first = np.argmax(mags > _ZERO_TOL, axis=1)
    pivot = l2[np.arange(l2.shape[0]), first]
    pm = np.abs(pivot)
    phase = np.where(pm > _ZERO_TOL, np.conj(pivot) / np.where(pm > 0, pm, 1.0), 1.0)
    out = l2 * phase[:, None]
    return out[0] if single else out


def _normalize_rows(l2: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(l2, axis=1, keepdims=True)
    safe = np.where(norms > _ZERO_TOL, norms, 1.0)
    return l2 / safe


def power_step(current: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Next iterates conj(a)/|a| rowwise; rows with a = 0 are kept fixed."""
    norms = np.linalg.norm(directions, axis=1)
    out = current.copy()
    ok = norms > _ZERO_TOL
    out[ok] = np.conj(directions[ok]) / norms[ok][:, None]
    return gauge_fix(out)


def _axis_starts(d: int) -> np.ndarray:
    """The 2d coordinate starts e_k and i*e_k of the real parameterization."""
    eye = np.eye(d, dtype=np.complex128)
    return np.vstack([eye, 1j * eye])


def _sphere_points(rng: np.random.Generator, count: int, d: int, gauge=True) -> np.ndarray:
    pts = _normalize_rows(rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)))
    return gauge_fix(pts) if gauge else pts


def _evaluate_chunked(objective, batch_objective, points: np.ndarray) -> np.ndarray:
    if batch_objective is not None:
        vals = []
        for lo in range(0, len(points), 8192):
            vals.append(np.asarray(batch_objective(points[lo:lo + 8192]), dtype=float))
        return np.concatenate(vals) if vals else np.zeros(0)
    return np.array([objective(p) for p in points], dtype=float)


def _to_real(lam: np.ndarray) -> np.ndarray:
    return np.concatenate([lam.real, lam.imag])


def _to_complex(u: np.ndarray) -> np.ndarray:
    d = len(u) // 2
    return u[:d] + 1j * u[d:]


def pattern_ascent(objective, lam: np.ndarray, step0: float, step_tol: float,
                   budget: int = 4000):
    """Coordinate pattern search on the gauge-fixed real sphere.

    Returns (value, point, converged); converged means the step size was
    driven below step_tol within the evaluation budget.
    """
    lam = gauge_fix(np.asarray(lam, dtype=np.complex128))
    norm = np.linalg.norm(lam)
    if norm <= _ZERO_TOL:
        lam = np.zeros_like(lam)
        lam[0] = 1.0
    else:
        lam = lam / norm
    best_val = float(objective(lam))
    u = _to_real(lam)
    h = step0
    while h >= step_tol and budget > 0:
        improved = False
        for j in range(len(u)):
            for sgn in (1.0, -1.0):
                cand = u.copy()
                cand[j] += sgn * h
                cn = np.linalg.norm(cand)
                if cn <= _ZERO_TOL:
                    continue
                cand_lam = gauge_fix(_to_complex(cand / cn))
                val = float(objective(cand_lam))
                budget -= 1
                if val > best_val + 1e-15:
                    best_val = val
                    u = _to_real(cand_lam)
                    improved = True
        if not improved:
            h *= 0.5
    return best_val, _to_complex(u), h < step_tol


def sphere_optimize(
    objective,
    d: int,
    config: OptimizerConfig | None = None,
    *,
    ascend=None,
    batch_objective=None,
    phase_invariant=True,
    warm_starts=(),
) -> SupremumEstimate:
    """Estimate sup over the unit sphere of C^d of an objective.

    objective maps a (d,) complex unit vector to a float.  ascend, when
    given, maps a (S, d) batch of unit rows to (values, next rows) with
    values the exact objective at the input rows and the next rows not
    worse (the driver still tracks the best evaluation seen, so a merely
    stationary map stays sound).  batch_objective maps (S, d) to (S,)
    and is used to screen config.grid_points random points and, for an
    objective that is not phase-invariant, the start phases.

    phase_invariant says objective(e^{i phi} lam) == objective(lam).
    Then starts and the winner are gauge-fixed, and for d = 1 the gauge
    collapses the sphere to the single point 1.  Otherwise the objective
    must also satisfy objective(-lam) == objective(lam); ascend is
    required and the pattern polish is not allowed, because the pattern
    search works on the gauge-fixed parameterization.  Each start is
    first moved to the best of its phases e^{i pi j/4}, j = 0..3, all
    screened in one batch, and the winner is returned ungauged.
    """
    cfg = config or OptimizerConfig()
    if not phase_invariant and (ascend is None or cfg.final_polish):
        raise ValueError(
            "an objective that is not phase-invariant needs ascend and final_polish=False"
        )
    if d == 1 and phase_invariant:
        lam = np.ones(1, dtype=np.complex128)
        val = float(objective(lam))
        return SupremumEstimate(
            value=val, argmax=BallPoint(lam), starts=1, converged=True, spread=0.0
        )

    rng = np.random.default_rng(cfg.seed)
    blocks = [_axis_starts(d)]
    if warm_starts:
        warm = np.vstack([np.asarray(w, dtype=np.complex128).reshape(1, -1) for w in warm_starts])
        blocks.append(gauge_fix(_normalize_rows(warm)))
    if cfg.n_random_starts > 0:
        blocks.append(_sphere_points(rng, cfg.n_random_starts, d, phase_invariant))
    if cfg.grid_points > 0:
        pts = _sphere_points(rng, cfg.grid_points, d, phase_invariant)
        vals = _evaluate_chunked(objective, batch_objective, pts)
        top = np.argsort(vals)[::-1][:16]
        blocks.append(pts[top])
    starts = np.vstack(blocks)
    n_starts = len(starts)
    if not phase_invariant:
        # objective(-lam) == objective(lam), so phases in [0, pi) suffice
        phased = starts[:, None, :] * np.exp(1j * np.pi * np.arange(4) / 4)[:, None]
        vals = _evaluate_chunked(objective, batch_objective, phased.reshape(-1, d))
        starts = phased[np.arange(n_starts), np.argmax(vals.reshape(n_starts, 4), axis=1)]

    if ascend is not None:
        best_vals, best_pts, converged = _run_ascent(ascend, starts, cfg)
    else:
        best_vals = np.empty(n_starts)
        best_pts = starts.copy()
        converged = np.zeros(n_starts, dtype=bool)
        for i, lam in enumerate(starts):
            best_vals[i], best_pts[i], converged[i] = pattern_ascent(
                objective, lam, 0.5, cfg.step_tol
            )

    winner = int(np.argmax(best_vals))
    win_pt = best_pts[winner]
    if phase_invariant:
        win_pt = gauge_fix(win_pt)
        win_norm = np.linalg.norm(win_pt)
        if win_norm > _ZERO_TOL:
            win_pt = win_pt / win_norm
        if cfg.final_polish:
            _, win_pt, _ = pattern_ascent(objective, win_pt, 1e-4, 1e-8, budget=600)
    win_conv = bool(converged[winner])
    value = float(objective(win_pt))
    if phase_invariant and value < best_vals[winner]:
        # rounding in the gauge rotation can leave the polish below the ascent
        win_pt = gauge_fix(best_pts[winner] / max(np.linalg.norm(best_pts[winner]), _ZERO_TOL))
        value = float(objective(win_pt))
    conv_vals = best_vals[converged] if converged.any() else best_vals
    spread = float(np.max(conv_vals) - np.min(conv_vals)) if len(conv_vals) else 0.0
    return SupremumEstimate(
        value=value,
        argmax=BallPoint(win_pt),
        starts=n_starts,
        converged=win_conv,
        spread=spread,
    )


_STALL_LIMIT = 6


def _run_ascent(ascend, starts: np.ndarray, cfg: OptimizerConfig):
    """Iterate a monotone batch step; rows retire on small steps or when
    their value plateaus for _STALL_LIMIT consecutive iterations (the step
    direction can dither at nonsmooth points while the value has converged).
    """
    current = starts.copy()
    n = len(current)
    best_vals = np.full(n, -np.inf)
    best_pts = current.copy()
    converged = np.zeros(n, dtype=bool)
    stall = np.zeros(n, dtype=int)
    active = np.arange(n)
    for _ in range(cfg.max_iters):
        vals, nxt = ascend(current[active])
        vals = np.asarray(vals, dtype=float)
        improved = vals > best_vals[active] + 1e-13 * (1.0 + np.abs(vals))
        stall[active] = np.where(improved, 0, stall[active] + 1)
        better = vals > best_vals[active]
        idx = active[better]
        best_vals[idx] = vals[better]
        best_pts[idx] = current[idx]
        steps = np.linalg.norm(nxt - current[active], axis=1)
        retire = (steps < cfg.step_tol) | (stall[active] >= _STALL_LIMIT)
        converged[active[retire]] = True
        keep = ~retire
        current[active[keep]] = nxt[keep]
        active = active[keep]
        if active.size == 0:
            break
    if active.size:
        vals, _ = ascend(current[active])
        vals = np.asarray(vals, dtype=float)
        better = vals > best_vals[active]
        idx = active[better]
        best_vals[idx] = vals[better]
        best_pts[idx] = current[idx]
    return best_vals, best_pts, converged


def grid_supremum(objective, d: int, n_points: int = 10_000, zoom: int = 6, seed: int = 0):
    """Brute-force sphere supremum: dense grid plus local grid zoom.

    Independent cross-check oracle for sphere_optimize; shares no search
    code with it.  For d = 2 the gauge-fixed sphere is the structured
    2-parameter family (cos a, sin a e^{i b}), scanned on a regular grid
    that is repeatedly shrunk around the incumbent.  For other d a
    random grid with Gaussian local resampling is used.
    """
    if d == 1:
        return float(objective(np.ones(1, dtype=np.complex128)))
    if d == 2:
        m = max(8, int(np.sqrt(n_points)))

        def lam_of(a, b):
            return np.array([np.cos(a), np.sin(a) * np.exp(1j * b)])

        lo_a, hi_a = 0.0, np.pi / 2
        lo_b, hi_b = 0.0, 2 * np.pi
        best = -np.inf
        best_ab = (0.0, 0.0)
        for _ in range(zoom + 1):
            aa = np.linspace(lo_a, hi_a, m)
            bb = np.linspace(lo_b, hi_b, m)
            for a in aa:
                for b in bb:
                    val = float(objective(lam_of(a, b)))
                    if val > best:
                        best = val
                        best_ab = (a, b)
            wa = (hi_a - lo_a) * 0.15
            wb = (hi_b - lo_b) * 0.15
            lo_a = max(0.0, best_ab[0] - wa)
            hi_a = min(np.pi / 2, best_ab[0] + wa)
            lo_b = best_ab[1] - wb
            hi_b = best_ab[1] + wb
            m = 15
        return best
    rng = np.random.default_rng(seed)
    pts = _sphere_points(rng, n_points, d)
    vals = np.array([objective(p) for p in pts])
    best_i = int(np.argmax(vals))
    best, center = float(vals[best_i]), pts[best_i]
    sigma = 0.3
    for _ in range(zoom):
        cloud = center[None, :] + sigma * (
            rng.standard_normal((256, d)) + 1j * rng.standard_normal((256, d))
        )
        cloud = gauge_fix(_normalize_rows(cloud))
        cvals = np.array([objective(p) for p in cloud])
        i = int(np.argmax(cvals))
        if cvals[i] > best:
            best, center = float(cvals[i]), cloud[i]
        sigma *= 0.3
    return best
