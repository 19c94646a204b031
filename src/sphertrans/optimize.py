"""Multistart supremum estimation on the complex unit sphere.

Every hypo-norm and joint-radius quantity in this package is a supremum
of a continuous, absolutely homogeneous objective over the closed
Euclidean unit ball of C^d; by homogeneity the supremum is attained on
the sphere.  sphere_optimize performs deterministic multistart local
ascent there and reports a certified LOWER bound: the returned value is
always an exact evaluation of the objective at the returned point.

Callers pass a batched objective, mapping an (S, d) batch of unit rows
to (S,) values, and a bare minorize-maximize step (a batched map that
does not lower the objective, e.g. the power-type step derived from a
norm's dual element).  The driver accelerates the step with SQUAREM and
iterates to a step tolerance.

Inside the optimizer every step has one protocol:
ascend(rows, blocks, state) -> (values, next rows, state).  state is
None on an ascent's first call and otherwise what the step returned for
the same rows, so a step can carry per-row work from one call to the
next (the operator hypo-norm carries each row's top singular vector).
The values a step returns may be a lower bound of the objective at its
rows, as long as the step does not lower that bound: rows are ranked by
these values, but each winner is valued by the objective, so every
estimate is still exact at its argmax.

sphere_optimize_batch ascends B objectives on C^d at once: the rows of
every owner form one (B*S, d) array, owner-major, and each call of the
objective or step gets all active rows with the (owner, slice) blocks
that split them, so one batched factorization serves them all.  Each
row keeps its own start, SQUAREM step, phase alignment and retirement,
so every owner's estimate equals a run of its objective alone.
sphere_optimize is its B = 1 case.  Each estimate counts its SQUAREM
iterations and the points at which its objective was evaluated.

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

from .errors import InvalidParameterError

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


@dataclass(frozen=True)
class OptimizerConfig:
    """Deterministic multistart settings; all randomness flows from seed."""

    n_random_starts: int = 32
    max_iters: int = 120
    seed: int = 42
    grid_points: int = 0        # random screening points prepended as starts

    def __post_init__(self):
        for name in ("n_random_starts", "max_iters", "seed", "grid_points"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name}={getattr(self, name)} must be >= 0")

    def escalated(self) -> "OptimizerConfig":
        """Heavier rerun of an estimate whose larger value could make a
        failing check hold; a check that a larger value cannot rescue
        fails without it.  The rerun is cold: it starts from this config's
        own draws, not from the first estimate's argmax."""
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
    diagnostic, not an error bar).  The p = 2 Schatten hypo-norm and
    Schatten radius are closed forms that use no config:
    they report starts=0, converged=True, spread=0.0, iterations=0 and
    evaluations=1.
    """

    value: float
    argmax: BallPoint
    starts: int
    converged: bool
    spread: float
    theta: float | None = None
    cross_gap: float | None = None
    iterations: int = 0         # SQUAREM iterations in which a start was still active
    evaluations: int = 0        # points at which the objective or the ascent map was evaluated


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
    """The d coordinate starts e_k."""
    return np.eye(d, dtype=np.complex128)


def _sphere_points(rng: np.random.Generator, count: int, d: int, gauge=True) -> np.ndarray:
    pts = _normalize_rows(rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)))
    return gauge_fix(pts) if gauge else pts


def _evaluate_chunked(objective, points: np.ndarray) -> np.ndarray:
    """The objective at each row of points, 8192 rows per call."""
    return np.concatenate([np.asarray(objective(points[lo:lo + 8192]), dtype=float)
                           for lo in range(0, len(points), 8192)])


def sphere_optimize(
    objective,
    d: int,
    config: OptimizerConfig | None = None,
    *,
    ascend=None,
    phase_invariant=True,
) -> SupremumEstimate:
    """Estimate sup over the unit sphere of C^d of an objective.

    objective maps an (S, d) batch of complex unit rows to their (S,)
    float values.  The driver calls it to screen config.grid_points
    random points, 8192 rows at a time, to pick the start phases of an
    objective that is not phase-invariant, and to value the winner as a
    one-row batch.  ascend maps an (S, d) batch of unit rows to
    (values, next rows), with values the objective at the input rows (or
    a lower bound of it that the step does not lower) and the next rows
    not worse.  It is required unless the gauge leaves a single point
    (d = 1 and phase_invariant), and it carries no state from call to
    call.  sphere_optimize accelerates it with SQUAREM, keeps the best
    evaluation seen, so a merely stationary map stays sound, and values
    the winner by objective.

    phase_invariant says objective(e^{i phi} lam) == objective(lam).
    Then each next row is rotated to the phase of its current row, the
    starts and the winner are gauge-fixed, and for d = 1 the gauge
    collapses the sphere to the single point 1.  Otherwise the objective
    must also satisfy objective(-lam) == objective(lam): each start is
    first moved to the best of its phases e^{i pi j/4}, j = 0..3, all
    screened in one batch, and the winner is returned ungauged.

    This is the one-objective case of sphere_optimize_batch.
    """
    return sphere_optimize_batch(
        lambda rows, blocks: objective(rows), d, 1, config,
        ascend=None if ascend is None else lambda rows, blocks, state: (*ascend(rows), None),
        phase_invariant=phase_invariant)[0]


def sphere_optimize_batch(
    objective,
    d: int,
    count: int,
    config: OptimizerConfig | None = None,
    *,
    ascend=None,
    phase_invariant=True,
) -> list:
    """sphere_optimize for count objectives on C^d at once: one
    SupremumEstimate per owner b = 0..count-1, each equal to a
    sphere_optimize run of owner b's objective alone.

    objective(rows, blocks) acts as in sphere_optimize on rows of several
    owners.  blocks holds one (b, slice) pair per owner present, in row
    order: rows[slice] are owner b's rows.  ascend(rows, blocks, state)
    returns (values, next rows, state).  state is None on the first call
    and otherwise an (S, m) array, one row per row, that SQUAREM carries
    and extrapolates with the rows (or None throughout, for a step that
    carries nothing).  values may be a lower bound of the objective at
    rows that the step does not lower; the rows are ranked by it, but
    each winner is valued by objective.  Every owner starts from the
    same random points, drawn once from config.seed; its screens and its
    rows' ascent, retirement and value are as in a run of its own, so one
    call of the maps (one batched factorization) serves every active row
    of every owner.
    """
    cfg = config or OptimizerConfig()
    if d == 1 and phase_invariant:
        lam = np.ones((count, 1), dtype=np.complex128)
        vals = objective(lam, _blocks(np.arange(count), count))
        return [SupremumEstimate(value=float(v), argmax=BallPoint(lam[b]), starts=1,
                                 converged=True, spread=0.0, iterations=0, evaluations=1)
                for b, v in enumerate(vals)]
    if ascend is None:
        raise ValueError("sphere_optimize needs an ascent map for d > 1")

    draws = _random_draws(d, cfg, phase_invariant)
    starts = [_starts(lambda rows, b=b: objective(rows, ((b, slice(None)),)), d, phase_invariant,
                      draws) for b in range(count)]
    sizes = [len(rows) for rows, _ in starts]
    best_vals, best_pts, converged, life = _run_ascent(
        ascend, np.vstack([rows for rows, _ in starts]), np.repeat(np.arange(count), sizes),
        count, cfg, phase_invariant)

    winners, counts = [], []
    for (_, screened), size, hi in zip(starts, sizes, np.cumsum(sizes).tolist()):
        sl = slice(hi - size, hi)
        vals, conv = best_vals[sl], converged[sl]
        winners.append(sl.start + int(np.argmax(vals)))
        conv_vals = vals[conv] if conv.any() else vals
        # three evaluations per row and iteration, one more for each row
        # still active at the cap, then the screens and the winner's value
        evaluations = 3 * int(life[sl].sum()) + int((~conv).sum()) + screened + 1
        counts.append((size, float(np.max(conv_vals) - np.min(conv_vals)),
                       int(life[sl].max()), evaluations))
    win_pts = best_pts[winners]
    if phase_invariant:
        win_pts = gauge_fix(win_pts)
    values = objective(win_pts, _blocks(np.arange(count), count))
    return [
        SupremumEstimate(value=float(values[b]), argmax=BallPoint(win_pts[b]), starts=n_starts,
                         converged=bool(converged[winners[b]]), spread=spread,
                         iterations=iterations, evaluations=evaluations)
        for b, (n_starts, spread, iterations, evaluations) in enumerate(counts)
    ]


def _random_draws(d: int, cfg: OptimizerConfig, phase_invariant: bool) -> tuple:
    """The random points every owner's starts use, drawn from cfg.seed:
    cfg.n_random_starts starts, the cfg.grid_points screen and d more
    starts.  The last d points are drawn last, so the other draws do not
    depend on them."""
    rng = np.random.default_rng(cfg.seed)
    return tuple(_sphere_points(rng, count, d, phase_invariant) if count > 0 else None
                 for count in (cfg.n_random_starts, cfg.grid_points, d))


def _starts(objective, d: int, phase_invariant: bool, draws: tuple):
    """One owner's start rows and the number of points screened for them:
    the axes, the random starts, the top 16 of the screen by this owner's
    objective and the d last random points (all from draws), each moved
    to its best phase when the objective is not phase-invariant."""
    random, grid, last = draws
    parts = [_axis_starts(d)]
    screened = 0
    if random is not None:
        parts.append(random)
    if grid is not None:
        vals = _evaluate_chunked(objective, grid)
        screened += len(grid)
        top = np.argsort(vals)[::-1][:16]
        parts.append(grid[top])
    parts.append(last)
    starts = np.vstack(parts)
    n_starts = len(starts)
    if not phase_invariant:
        # objective(-lam) == objective(lam), so phases in [0, pi) suffice
        phased = starts[:, None, :] * np.exp(1j * np.pi * np.arange(4) / 4)[:, None]
        vals = _evaluate_chunked(objective, phased.reshape(-1, d))
        screened += len(vals)
        starts = phased[np.arange(n_starts), np.argmax(vals.reshape(n_starts, 4), axis=1)]
    return starts, screened


_ONE_OWNER = ((0, slice(None)),)


def _blocks(owner: np.ndarray, count: int) -> tuple:
    """(b, slice of b's rows) for each owner b in the nondecreasing owner
    index of some rows, b < count."""
    if count == 1:
        return _ONE_OWNER
    ends = np.cumsum(np.bincount(owner, minlength=count)).tolist()
    return tuple((b, slice(lo, hi)) for b, (lo, hi) in enumerate(zip([0, *ends], ends)) if hi > lo)


def _align_phase(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate each row by the phase that makes <ref, row> real nonnegative."""
    c = np.einsum("si,si->s", ref, np.conj(rows))
    mag = np.abs(c)
    small = mag <= _ZERO_TOL
    c[small], mag[small] = 1.0, 1.0
    return rows * (c / mag)[:, None]


def _squarem(step, rows: np.ndarray, blocks: tuple, state, phase_invariant: bool):
    """One SQUAREM iteration (Varadhan and Roland, 2008) of an MM step.

    The bare step crawls where the objective is nearly flat along some
    direction (nilpotent-like tuples), so extrapolate along two steps and
    take one more step from there.  alpha = -1 gives back the
    second step; |alpha| <= 1/|r| bounds the jump.  The extrapolated
    branch is kept only where it is no worse than the first step, so the
    map stays monotone.  The step's state is part of the iterate: rows get
    state, x1 the state returned at rows, and the extrapolated point the
    three states extrapolated with the same alpha (the state returned at
    x1 on an ascent's first call).  The state at x1 alone lags a long
    jump: a carried-vector step would undervalue the extrapolated point
    and reject it at every iteration of a slow tuple.  Returns the values at rows, the next rows and the state of the kept
    branch.
    """
    def mm(x, carried):
        vals, nxt, carried = step(x, blocks, carried)
        if phase_invariant:
            nxt = _align_phase(nxt, x)
        return np.asarray(vals, dtype=float), nxt, carried

    vals, x1, s1 = mm(rows, state)
    v1, x2, s2 = mm(x1, s1)
    r = x1 - rows
    v = x2 - x1 - r
    nr = np.linalg.norm(r, axis=1)
    alpha = -nr / np.maximum(np.linalg.norm(v, axis=1), 1e-300)
    alpha = np.minimum(np.maximum(alpha, -1.0 / np.maximum(nr, 1e-300)), -1.0)

    def extrapolate(y0, y1, y2):
        dy = y1 - y0
        return y0 - 2.0 * alpha[:, None] * dy + (alpha**2)[:, None] * (y2 - y1 - dy)

    xe = extrapolate(rows, x1, x2)
    ne = np.linalg.norm(xe, axis=1)
    xe /= np.where(ne > 0.0, ne, 1.0)[:, None]
    ve, x3, s3 = mm(xe, s2 if state is None else extrapolate(state, s1, s2))
    extrapolated = ((ve >= v1) & (ne > 0.0))[:, None]
    nxt = np.where(extrapolated, x3, x2)
    if s3 is not None:
        s3 = np.where(extrapolated, s3, s2)
    if phase_invariant:
        nxt = _align_phase(nxt, rows)
    return vals, nxt, s3


_STALL_LIMIT = 6
_STEP_TOL = 1e-9


def _run_ascent(step, starts: np.ndarray, owner: np.ndarray, count: int,
                cfg: OptimizerConfig, phase_invariant: bool):
    """Iterate the SQUAREM-accelerated step; rows retire on steps below
    _STEP_TOL or when their value plateaus for _STALL_LIMIT consecutive
    iterations (the step direction can dither at nonsmooth points while
    the value has converged).  For a phase-invariant objective the next
    rows are phase aligned, so the step length is the phase-invariant
    distance.  owner[s] < count is the owner of row s, nondecreasing.
    The step's state is kept for the active rows, subset with them.
    Returns each row's best value and point, whether it retired, and the
    number of iterations it took part in.
    """
    current = starts.copy()
    n = len(current)
    best_vals = np.full(n, -np.inf)
    best_pts = current.copy()
    life = np.zeros(n, dtype=int)       # the iteration a row retired in, from 1
    stall = np.zeros(n, dtype=int)
    active = np.arange(n)
    state = None                        # the step's state of each active row
    for it in range(cfg.max_iters):
        vals, nxt, state = _squarem(step, current[active], _blocks(owner[active], count),
                                    state, phase_invariant)
        improved = vals > best_vals[active] + 1e-13 * (1.0 + np.abs(vals))
        stall[active] = np.where(improved, 0, stall[active] + 1)
        better = vals > best_vals[active]
        idx = active[better]
        best_vals[idx] = vals[better]
        best_pts[idx] = current[idx]
        steps = np.linalg.norm(nxt - current[active], axis=1)
        retire = (steps < _STEP_TOL) | (stall[active] >= _STALL_LIMIT)
        life[active[retire]] = it + 1
        keep = ~retire
        current[active[keep]] = nxt[keep]
        active = active[keep]
        if state is not None:
            state = state[keep]
        if active.size == 0:
            break
    if active.size:
        vals, _, _ = step(current[active], _blocks(owner[active], count), state)
        vals = np.asarray(vals, dtype=float)
        better = vals > best_vals[active]
        idx = active[better]
        best_vals[idx] = vals[better]
        best_pts[idx] = current[idx]
    converged = life > 0
    life[~converged] = cfg.max_iters
    return best_vals, best_pts, converged, life


def grid_supremum(objective, d: int, n_points: int = 10_000, zoom: int = 6, seed: int = 0):
    """Brute-force sphere supremum: dense grid plus local grid zoom.

    Independent cross-check oracle for sphere_optimize; shares no search
    code with it.  objective is batched as in sphere_optimize, an (S, d)
    batch of unit rows to (S,) values, and is called once per grid
    level.  For d = 2 the gauge-fixed sphere is the structured
    2-parameter family (cos a, sin a e^{i b}), scanned on a regular grid
    that is shrunk zoom times around the incumbent.  For other d > 1 a
    random grid of n_points is followed by zoom Gaussian clouds of 256
    points around the incumbent.
    """
    if d == 1:
        return float(objective(np.ones((1, 1), dtype=np.complex128))[0])
    if d == 2:
        m = max(8, int(np.sqrt(n_points)))
        lo_a, hi_a = 0.0, np.pi / 2
        lo_b, hi_b = 0.0, 2 * np.pi
        best = -np.inf
        best_ab = (0.0, 0.0)
        for _ in range(zoom + 1):
            aa, bb = np.meshgrid(np.linspace(lo_a, hi_a, m), np.linspace(lo_b, hi_b, m),
                                 indexing="ij")
            aa, bb = aa.ravel(), bb.ravel()
            vals = objective(np.stack([np.cos(aa), np.sin(aa) * np.exp(1j * bb)], axis=1))
            i = int(np.argmax(vals))
            if vals[i] > best:
                best, best_ab = float(vals[i]), (aa[i], bb[i])
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
    vals = objective(pts)
    best_i = int(np.argmax(vals))
    best, center = float(vals[best_i]), pts[best_i]
    sigma = 0.3
    for _ in range(zoom):
        cloud = center[None, :] + sigma * (
            rng.standard_normal((256, d)) + 1j * rng.standard_normal((256, d))
        )
        cloud = gauge_fix(_normalize_rows(cloud))
        cvals = objective(cloud)
        i = int(np.argmax(cvals))
        if cvals[i] > best:
            best, center = float(cvals[i]), cloud[i]
        sigma *= 0.3
    return best
