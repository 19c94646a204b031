"""Multistart supremum estimation on the complex unit sphere.

Every hypo-norm and joint-radius quantity in this package is a supremum
of a continuous, absolutely homogeneous objective over the closed
Euclidean unit ball of C^d; by homogeneity the supremum is attained on
the sphere.  sphere_optimize performs deterministic multistart local
ascent there and reports a certified LOWER bound: the returned value is
always an exact evaluation of the objective at the returned point.

Callers pass a bare minorize-maximize step (a batched map that does not
lower the objective, e.g. the power-type step derived from a norm's dual
element).  The driver accelerates it with SQUAREM and iterates to a step
tolerance; there is no derivative-free search and no polish.

Rows ascend without the phase gauge.  For a phase-invariant objective
(the hypo-norms) the driver rotates each next row to the phase of its
current row, so that extrapolation and the step distance see no
e^{i phi} drift, and gauge-fixes only the winner: its first nonzero
coefficient is made real nonnegative.  An objective such as
||Re M(lam)||_p that changes under lam -> e^{i phi} lam is not gauged:
its rows start from the best of four phases, ascend on the full sphere,
and the winner is reported as reached; callers gauge it and report the
removed phase themselves.
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
    return out


def _axis_starts(d: int) -> np.ndarray:
    """The 2d coordinate starts e_k and i*e_k."""
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

    objective maps a (d,) complex unit vector to a float.  ascend maps an
    (S, d) batch of unit rows to (values, next rows), with values the
    exact objective at the input rows and the next rows not worse.  It is
    required unless the gauge leaves a single point (d = 1 and
    phase_invariant).  The driver accelerates it with SQUAREM and keeps
    the best evaluation seen, so a merely stationary map stays sound.
    batch_objective maps (S, d) to (S,) and is used to screen
    config.grid_points random points and, for an objective that is not
    phase-invariant, the start phases.

    phase_invariant says objective(e^{i phi} lam) == objective(lam).
    Then each next row is rotated to the phase of its current row, the
    starts and the winner are gauge-fixed, and for d = 1 the gauge
    collapses the sphere to the single point 1.  Otherwise the objective
    must also satisfy objective(-lam) == objective(lam): each start is
    first moved to the best of its phases e^{i pi j/4}, j = 0..3, all
    screened in one batch, and the winner is returned ungauged.
    """
    cfg = config or OptimizerConfig()
    if d == 1 and phase_invariant:
        lam = np.ones(1, dtype=np.complex128)
        val = float(objective(lam))
        return SupremumEstimate(
            value=val, argmax=BallPoint(lam), starts=1, converged=True, spread=0.0
        )
    if ascend is None:
        raise ValueError("sphere_optimize needs an ascent map for d > 1")

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

    best_vals, best_pts, converged = _run_ascent(ascend, starts, cfg, phase_invariant)

    winner = int(np.argmax(best_vals))
    win_pt = gauge_fix(best_pts[winner]) if phase_invariant else best_pts[winner]
    conv_vals = best_vals[converged] if converged.any() else best_vals
    return SupremumEstimate(
        value=float(objective(win_pt)),
        argmax=BallPoint(win_pt),
        starts=n_starts,
        converged=bool(converged[winner]),
        spread=float(np.max(conv_vals) - np.min(conv_vals)),
    )


def _align_phase(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate each row by the phase that makes <ref, row> real nonnegative."""
    c = np.einsum("si,si->s", ref, np.conj(rows))
    mag = np.abs(c)
    small = mag <= _ZERO_TOL
    c[small], mag[small] = 1.0, 1.0
    return rows * (c / mag)[:, None]


def _squarem(step, rows: np.ndarray, phase_invariant: bool):
    """One SQUAREM iteration (Varadhan and Roland, 2008) of an MM step.

    The bare step crawls where the objective is nearly flat along some
    direction (nilpotent-like tuples), so extrapolate along two steps and
    take one more step from there.  alpha = -1 gives back the
    second step; |alpha| <= 1/|r| bounds the jump.  The extrapolated
    branch is kept only where it is no worse than the first step, so the
    map stays monotone.  Returns the values at rows and the next rows.
    """
    def mm(x):
        vals, nxt = step(x)
        if phase_invariant:
            nxt = _align_phase(nxt, x)
        return np.asarray(vals, dtype=float), nxt

    vals, x1 = mm(rows)
    v1, x2 = mm(x1)
    r = x1 - rows
    v = x2 - x1 - r
    nr = np.linalg.norm(r, axis=1)
    alpha = -nr / np.maximum(np.linalg.norm(v, axis=1), 1e-300)
    alpha = np.minimum(np.maximum(alpha, -1.0 / np.maximum(nr, 1e-300)), -1.0)
    xe = rows - 2.0 * alpha[:, None] * r + (alpha**2)[:, None] * v
    ne = np.linalg.norm(xe, axis=1)
    xe /= np.where(ne > 0.0, ne, 1.0)[:, None]
    ve, x3 = mm(xe)
    nxt = np.where(((ve >= v1) & (ne > 0.0))[:, None], x3, x2)
    if phase_invariant:
        nxt = _align_phase(nxt, rows)
    return vals, nxt


_STALL_LIMIT = 6


def _run_ascent(step, starts: np.ndarray, cfg: OptimizerConfig, phase_invariant: bool):
    """Iterate the SQUAREM-accelerated step; rows retire on small steps or
    when their value plateaus for _STALL_LIMIT consecutive iterations (the
    step direction can dither at nonsmooth points while the value has
    converged).  For a phase-invariant objective the next rows are phase
    aligned, so the step length is the phase-invariant distance.
    """
    current = starts.copy()
    n = len(current)
    best_vals = np.full(n, -np.inf)
    best_pts = current.copy()
    converged = np.zeros(n, dtype=bool)
    stall = np.zeros(n, dtype=int)
    active = np.arange(n)
    for _ in range(cfg.max_iters):
        vals, nxt = _squarem(step, current[active], phase_invariant)
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
        vals, _ = step(current[active])
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
