"""Randomized verification suites for the transform/norm inequality chains.

Each suite draws independent trials (tuple + parameters), evaluates a
fixed family of inequalities and emits one InequalityRecord per instance.
Trial k of a run with master seed s uses the stream default_rng([s, k]),
so reports are reproducible and independent of worker scheduling.

Checks whose larger side is an optimized supremum use a relaxed slack
(opt_tol) and, on failure, are re-evaluated with an escalated optimizer
(8x starts plus a 100k-point screening grid) before a violation is
declared; optimizer values are lower bounds, so this distinguishes
under-converged suprema from genuine counterexamples.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .ensembles import (
    random_commuting_tuple,
    random_normal_tuple,
    random_psd,
    random_tuple,
)
from .norms import (
    hypo_norm,
    joint_numerical_radius,
    schatten_hypo_norm,
    schatten_numerical_radius,
    schatten_spherical_norm,
    spherical_norm,
)
from .optimize import OptimizerConfig
from .predicates import is_normal_tuple, is_square_zero
from .reports import FAIL, PASS, REFINED, InequalityRecord, SuiteReport, summarize
from .transforms import (
    duggal_from_polar,
    generalized_aluthge_from_polar,
    heinz_from_polar,
    lambda_mean_from_polar,
)
from .tuples import OperatorTuple, spherical_polar, tuple_power

WORKERS_ENV = "SPHERTRANS_WORKERS"

SUITE_NAMES = ("s2", "s3", "s4", "equality", "sharpness", "zero")

_P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0)
_LAMBDA_GRID = tuple(round(0.1 * k, 1) for k in range(11))
_SHARP_P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)

_SUITE_OPT = OptimizerConfig(n_random_starts=8)


@dataclass(frozen=True)
class SuiteConfig:
    """Shared knobs for one suite run."""

    trials: int
    seed: int = 42
    tol: float = 1e-8          # slack scale for closed-form sides
    opt_tol: float = 1e-6      # slack scale for optimized sides
    dmax: int = 4
    nmax: int = 6
    ensemble: str | None = None   # force one ensemble (used by fuzzing)
    workers: int | None = None
    opt: OptimizerConfig = field(default_factory=lambda: _SUITE_OPT)


# ---------------------------------------------------------------------------
# inequality registry
# ---------------------------------------------------------------------------

def _reg(suite, description, artifact="tuple", required_rate=1.0, equality=False):
    return {
        "suite": suite,
        "description": description,
        "artifact": artifact,
        "required_rate": required_rate,
        "equality": equality,
    }


INEQUALITIES = {
    # s2: operator-norm, hypo-norm and radius chains
    "opnorm.heinz_r0.refine": _reg("s2", "interpolated-transform norm below the r0-weighted mix of aluthge and mean norms"),
    "opnorm.heinz_r0.mean": _reg("s2", "r0-weighted mix below the mean-transform norm"),
    "opnorm.heinz_r0.cap": _reg("s2", "mean-transform norm below the tuple norm"),
    "opnorm.heinz_interp.lower": _reg("s2", "aluthge norm below the interpolated-transform norm"),
    "opnorm.heinz_interp.geom": _reg("s2", "interpolated-transform norm below the geometric cross-mean of duggal and tuple norms"),
    "opnorm.heinz_interp.cap": _reg("s2", "geometric cross-mean below the tuple norm"),
    "opnorm.lambda_mean.lower": _reg("s2", "2 sqrt(lam - lam^2) aluthge norm below the lambda-mean norm"),
    "opnorm.lambda_mean.convex": _reg("s2", "lambda-mean norm below the convex mix of tuple and duggal norms"),
    "opnorm.lambda_mean.cap": _reg("s2", "convex mix below the tuple norm"),
    "hyponorm.heinz_r0.refine": _reg("s2", "hypo-norm of interpolated transform below the r0-weighted mix"),
    "hyponorm.heinz_r0.mean": _reg("s2", "r0-weighted hypo-norm mix below the mean-transform hypo-norm"),
    "hyponorm.heinz_r0.cap": _reg("s2", "mean-transform hypo-norm below the tuple norm"),
    "hyponorm.lambda_mean.lower": _reg("s2", "2 sqrt(lam - lam^2) aluthge hypo-norm below the lambda-mean hypo-norm"),
    "hyponorm.lambda_mean.convex": _reg("s2", "lambda-mean hypo-norm below the convex mix of hypo-norms"),
    "hyponorm.lambda_mean.cap": _reg("s2", "convex hypo-norm mix below the tuple norm"),
    "radius.monotone.aluthge": _reg("s2", "radius of aluthge transform below radius of interpolated transform"),
    "radius.monotone.mean": _reg("s2", "radius of interpolated transform below radius of mean transform"),
    "heinz_scalar.lower": _reg("s2", "twice the balanced product norm below the two-sided interpolated product norm", artifact="heinz_triple"),
    "heinz_scalar.upper": _reg("s2", "two-sided interpolated product norm below ||AX + XB||", artifact="heinz_triple"),
    "heinz_scalar.refine": _reg("s2", "two-sided interpolated product norm below its r0-weighted refinement", artifact="heinz_triple"),
    "heinz_scalar.refine_cap": _reg("s2", "r0-weighted refinement below ||AX + XB||", artifact="heinz_triple"),
    "heinz_scalar.geom_interp": _reg("s2", "one-sided interpolated product norm below the geometric mean of ||AX|| and ||XB||", artifact="heinz_triple"),
    # s3: Schatten-p chains
    "sp.lambda_mean.scaled_convex": _reg("s3", "lambda-mean p-norm below (lam + (1-lam) d^(1/p)) times the tuple p-norm"),
    "s2norm.duggal.dim_bound": _reg("s3", "duggal 2-norm below sqrt(n) times the tuple 2-norm"),
    "s2norm.lambda_mean.min_bound": _reg("s3", "lambda-mean 2-norm below (lam + (1-lam) sqrt(min(n,d))) times the tuple 2-norm"),
    "sp.heinz_r0.refine": _reg("s3", "interpolated-transform p-norm below the r0-weighted mix"),
    "sp.heinz_r0.mean": _reg("s3", "r0-weighted p-norm mix below the mean-transform p-norm"),
    "sp.heinz_r0.cap": _reg("s3", "mean-transform p-norm below (1 + d^(1/p))/2 times the tuple p-norm"),
    "sp.heinz_interp.lower": _reg("s3", "aluthge p-norm below the interpolated-transform p-norm"),
    "sp.heinz_interp.geom": _reg("s3", "interpolated-transform p-norm below the geometric cross-mean of duggal and tuple p-norms"),
    "sp.heinz_interp.cap": _reg("s3", "geometric cross-mean below (d^(t/p) + d^((1-t)/p))/2 times the tuple p-norm"),
    "sp.chain.lower": _reg("s3", "aluthge p-norm below the interpolated-transform p-norm (combined chain)"),
    "sp.chain.middle": _reg("s3", "interpolated-transform p-norm below the mean-transform p-norm"),
    "sp.chain.cap": _reg("s3", "mean-transform p-norm below (1 + d^(1/p))/2 times the tuple p-norm (combined chain)"),
    # s4: Schatten p-radius chains and PSD power sums
    "spr.radius_le_hypo": _reg("s4", "Schatten p-radius below the Schatten hypo-p-norm"),
    "spr.hypo_le_norm": _reg("s4", "Schatten hypo-p-norm below the tuple p-norm"),
    "spr.half_hypo_le_radius": _reg("s4", "half the Schatten hypo-p-norm below the Schatten p-radius"),
    "spr.hypo_lower.p_small": _reg("s4", "d^(-1/p) times the tuple p-norm below the hypo-p-norm (p < 2)"),
    "spr.hypo_lower.p_large": _reg("s4", "d^(-1/2) times the tuple p-norm below the hypo-p-norm (p >= 2)"),
    "s2r.chain.a": _reg("s4", "(2d)^(-1/2) tuple 2-norm below 2^(-1/2) hypo-2-norm"),
    "s2r.chain.b": _reg("s4", "2^(-1/2) hypo-2-norm below the Schatten 2-radius"),
    "s2r.chain.c": _reg("s4", "Schatten 2-radius below the hypo-2-norm"),
    "s2r.chain.d": _reg("s4", "hypo-2-norm below the tuple 2-norm"),
    "psd.power_sum.concave": _reg("s4", "p-norm of (sum A_k)^r below p-norm of sum A_k^r for 0 < r < 1", artifact="psd_family"),
    "psd.power_sum.convex": _reg("s4", "p-norm of (sum A_k)^r below d^(r-1) times p-norm of sum A_k^r for r >= 1", artifact="psd_family"),
    # equality cases
    "eq.heinz_mean.normal_forward": _reg("equality", "normal tuples: interpolated-transform p-norm equals the mean-transform p-norm", artifact="normal_tuple", equality=True),
    "eq.aluthge_heinz.invertible_forward": _reg("equality", "normal tuples with invertible defect: aluthge p-norm equals the interpolated-transform p-norm", artifact="invertible_normal_tuple", equality=True),
    "eq.heinz_mean.nonnormal_gap": _reg("equality", "non-normal commuting tuples: strict gap between interpolated and mean p-norms (statistical)", artifact="commuting_tuple", required_rate=0.95),
    "eq.scalar_heinz.intertwined.sum": _reg("equality", "AX = XB forces equality of the two-sided interpolated product p-norm with ||AX + XB||_p", artifact="heinz_triple", equality=True),
    "eq.scalar_heinz.intertwined.half": _reg("equality", "AX = XB forces equality of twice the balanced product p-norm with the two-sided interpolated p-norm", artifact="heinz_triple", equality=True),
    "eq.scalar_heinz.generic_gap.sum": _reg("equality", "generic triples: strict gap in the second scalar inequality (statistical)", artifact="heinz_triple", required_rate=0.95),
    "eq.scalar_heinz.generic_gap.half": _reg("equality", "generic triples: strict gap in the first scalar inequality (statistical)", artifact="heinz_triple", required_rate=0.95),
    # zero equivalence
    "zero.nilpotent.square_zero": _reg("zero", "nilpotent ensemble at n = 2 has vanishing tuple square"),
    "zero.square_zero.aluthge_vanishes": _reg("zero", "square-zero tuples: interpolated aluthge transform vanishes"),
    "zero.square_zero.heinz_vanishes": _reg("zero", "square-zero tuples: interpolated heinz transform vanishes"),
    "zero.generic.nonvanishing": _reg("zero", "generic tuples: square and transforms all nonvanishing"),
    "zero.mean.nonzero": _reg("zero", "generic nonzero tuples have nonzero mean transform"),
    # sharpness fixtures
    "sharp.column_pair.snorm": _reg("sharpness", "column-pair example: tuple p-norm equals sqrt(2) for every p", equality=True),
    "sharp.column_pair.hypo": _reg("sharpness", "column-pair example: hypo-p-norm equals 1 for every p", equality=True),
    "sharp.diag_pair.scaled_snorm": _reg("sharpness", "diagonal-pair example: 2^(-1/p) times the tuple p-norm equals 1", equality=True),
    "sharp.diag_pair.hypo": _reg("sharpness", "diagonal-pair example: hypo-p-norm equals 1 (true value is 2^(1/p - 1/2) for p < 2)", equality=True),
}

REQUIRED_RATES = {rid: info["required_rate"] for rid, info in INEQUALITIES.items()}


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------

def _check_le(recs, rid, lhs, rhs, fingerprint, tol, escalate=None):
    """Record lhs <= rhs + tol * (1 + |rhs|); on failure, escalate() may
    recompute the right side with a heavier optimizer before judging."""
    lhs, rhs = float(lhs), float(rhs)
    if lhs <= rhs + tol * (1.0 + abs(rhs)):
        status = PASS
    elif escalate is not None:
        rhs = float(escalate())
        status = REFINED if lhs <= rhs + tol * (1.0 + abs(rhs)) else FAIL
    else:
        status = FAIL
    recs.append(InequalityRecord(rid, lhs, rhs, rhs - lhs, status, fingerprint))


def _check_eq(recs, rid, value, target, fingerprint, tol, escalate=None):
    """Record |value - target| <= tol (absolute); equality-style check."""
    value, target = float(value), float(target)
    if abs(value - target) <= tol:
        status = PASS
    elif escalate is not None:
        value = float(escalate())
        status = REFINED if abs(value - target) <= tol else FAIL
    else:
        status = FAIL
    recs.append(
        InequalityRecord(rid, value, target, target - value, status, fingerprint)
    )


def _check_gt(recs, rid, value, threshold, fingerprint):
    """Record value > threshold (statistical strictness checks)."""
    value = float(value)
    status = PASS if value > threshold else FAIL
    recs.append(
        InequalityRecord(rid, threshold, value, value - threshold, status, fingerprint)
    )


# ---------------------------------------------------------------------------
# trial samplers (shared with fuzz replay)
# ---------------------------------------------------------------------------

def _trial_rng(cfg: SuiteConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, trial])


def _sample_dims(cfg: SuiteConfig, rng) -> tuple[int, int]:
    return int(rng.integers(1, cfg.dmax + 1)), int(rng.integers(2, cfg.nmax + 1))


def _sample_tuple(cfg: SuiteConfig, rng):
    d, n = _sample_dims(cfg, rng)
    if cfg.ensemble is not None:
        ens = cfg.ensemble
    else:
        ens = ("ginibre", "ginibre", "contraction", "nilpotent")[int(rng.integers(4))]
    return random_tuple(d, n, rng, ens), d, n, ens


def _sample_heinz_triple(rng, n):
    a = random_psd(n, rng)
    b = random_psd(n, rng)
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return a, b, x


def _uinorm(y, kind, p):
    return linalg.operator_norm(y) if kind == "op" else linalg.schatten_norm(y, p)


# ---------------------------------------------------------------------------
# suite s2: operator-norm, hypo-norm and radius chains
# ---------------------------------------------------------------------------

def _s2_trial(cfg: SuiteConfig, trial: int, artifacts=None):
    rng = _trial_rng(cfg, trial)
    t_tuple, d, n, ens = _sample_tuple(cfg, rng)
    t = float(rng.uniform(0.0, 1.0))
    nu = float(rng.uniform(0.0, 1.0))
    p = float(_P_GRID[int(rng.integers(len(_P_GRID)))])
    base = {"seed": cfg.seed, "trial": trial, "d": d, "n": n, "ensemble": ens}
    if artifacts is not None:
        artifacts["tuple"] = t_tuple
    recs = []

    polar = spherical_polar(t_tuple)
    t_alu = generalized_aluthge_from_polar(polar, 0.5)
    t_heinz = heinz_from_polar(polar, t)
    t_mean = lambda_mean_from_polar(t_tuple, polar, 0.5)
    t_dug = duggal_from_polar(polar)
    r0 = min(t, 1.0 - t)

    n_t = spherical_norm(t_tuple)
    n_dug = spherical_norm(t_dug)
    n_alu = spherical_norm(t_alu)
    n_hz = spherical_norm(t_heinz)
    n_mean = spherical_norm(t_mean)
    fp = {**base, "t": t}

    mix = 2.0 * r0 * n_alu + (1.0 - 2.0 * r0) * n_mean
    _check_le(recs, "opnorm.heinz_r0.refine", n_hz, mix, fp, cfg.tol)
    _check_le(recs, "opnorm.heinz_r0.mean", mix, n_mean, fp, cfg.tol)
    _check_le(recs, "opnorm.heinz_r0.cap", n_mean, n_t, fp, cfg.tol)

    geom = 0.5 * (n_dug ** t * n_t ** (1.0 - t) + n_dug ** (1.0 - t) * n_t ** t)
    _check_le(recs, "opnorm.heinz_interp.lower", n_alu, n_hz, fp, cfg.tol)
    _check_le(recs, "opnorm.heinz_interp.geom", n_hz, geom, fp, cfg.tol)
    _check_le(recs, "opnorm.heinz_interp.cap", geom, n_t, fp, cfg.tol)

    lam_means = {
        lam: lambda_mean_from_polar(t_tuple, polar, lam) for lam in _LAMBDA_GRID
    }
    for lam, t_lam in lam_means.items():
        n_lam = spherical_norm(t_lam)
        fpl = {**base, "lambda": lam}
        _check_le(
            recs, "opnorm.lambda_mean.lower",
            2.0 * np.sqrt(max(lam - lam * lam, 0.0)) * n_alu, n_lam, fpl, cfg.tol,
        )
        convex = lam * n_t + (1.0 - lam) * n_dug
        _check_le(recs, "opnorm.lambda_mean.convex", n_lam, convex, fpl, cfg.tol)
        _check_le(recs, "opnorm.lambda_mean.cap", convex, n_t, fpl, cfg.tol)

    # hypo-norm chains; every estimate keeps its argmax as escalation warm start
    esc_cache: dict = {}

    def hypo_val(key, tup):
        if key not in esc_cache:
            esc_cache[key] = hypo_norm(tup, cfg.opt)
        return esc_cache[key].value

    def hypo_esc(key, tup):
        est = esc_cache[key]
        better = hypo_norm(
            tup, cfg.opt.escalated(), warm_starts=[est.argmax.coeffs]
        )
        esc_cache[key] = max(est, better, key=lambda e: e.value)
        return esc_cache[key].value

    h_t = hypo_val("t", t_tuple)
    h_dug = hypo_val("dug", t_dug)
    h_alu = hypo_val("alu", t_alu)
    h_hz = hypo_val("hz", t_heinz)
    h_mean = hypo_val("mean", t_mean)

    hmix = 2.0 * r0 * h_alu + (1.0 - 2.0 * r0) * h_mean

    def hmix_esc():
        return 2.0 * r0 * hypo_esc("alu", t_alu) + (1.0 - 2.0 * r0) * hypo_esc("mean", t_mean)

    _check_le(recs, "hyponorm.heinz_r0.refine", h_hz, hmix, fp, cfg.opt_tol, hmix_esc)
    _check_le(recs, "hyponorm.heinz_r0.mean", hmix, h_mean, fp, cfg.opt_tol,
              lambda: hypo_esc("mean", t_mean))
    _check_le(recs, "hyponorm.heinz_r0.cap", h_mean, n_t, fp, cfg.tol)

    for lam, t_lam in lam_means.items():
        fpl = {**base, "lambda": lam}
        h_lam = hypo_val(("lam", lam), t_lam)
        _check_le(
            recs, "hyponorm.lambda_mean.lower",
            2.0 * np.sqrt(max(lam - lam * lam, 0.0)) * h_alu, h_lam, fpl, cfg.opt_tol,
            lambda lam=lam, t_lam=t_lam: hypo_esc(("lam", lam), t_lam),
        )
        hconvex = lam * h_t + (1.0 - lam) * h_dug
        _check_le(
            recs, "hyponorm.lambda_mean.convex", h_lam, hconvex, fpl, cfg.opt_tol,
            lambda lam=lam: lam * hypo_esc("t", t_tuple) + (1.0 - lam) * hypo_esc("dug", t_dug),
        )
        _check_le(recs, "hyponorm.lambda_mean.cap", hconvex, n_t, fpl, cfg.tol)

    # radius monotonicity along the interpolation
    rad_cache: dict = {}

    def rad_val(key, tup):
        if key not in rad_cache:
            rad_cache[key] = joint_numerical_radius(tup, cfg.opt, route="a")
        return rad_cache[key].value

    def rad_esc(key, tup):
        est = rad_cache[key]
        better = joint_numerical_radius(tup, cfg.opt.escalated(), route="both")
        rad_cache[key] = max(est, better, key=lambda e: e.value)
        return rad_cache[key].value

    w_alu = rad_val("alu", t_alu)
    w_hz = rad_val("hz", t_heinz)
    w_mean = rad_val("mean", t_mean)
    _check_le(recs, "radius.monotone.aluthge", w_alu, w_hz, fp, cfg.opt_tol,
              lambda: rad_esc("hz", t_heinz))
    _check_le(recs, "radius.monotone.mean", w_hz, w_mean, fp, cfg.opt_tol,
              lambda: rad_esc("mean", t_mean))

    # scalar two-sided product-norm checks on a random PSD pair
    a, b, x = _sample_heinz_triple(rng, n)
    if artifacts is not None:
        artifacts["heinz_triple"] = OperatorTuple(matrices=(a, b, x))
    ea = linalg.hermitian_eig(a)
    eb = linalg.hermitian_eig(b)
    av = np.clip(ea.values, 0.0, None)
    bv = np.clip(eb.values, 0.0, None)

    def apow(s):
        return linalg.psd_power_from_eig(av, ea.vectors, s)

    def bpow(s):
        return linalg.psd_power_from_eig(bv, eb.vectors, s)

    half = apow(0.5) @ x @ bpow(0.5)
    two_sided = apow(nu) @ x @ bpow(1.0 - nu) + apow(1.0 - nu) @ x @ bpow(nu)
    one_sided = apow(nu) @ x @ bpow(1.0 - nu)
    outer = a @ x + x @ b
    r0n = min(nu, 1.0 - nu)
    for kind in ("op", "p"):
        fph = {**base, "nu": nu, "norm": kind if kind == "op" else p}
        lo = 2.0 * _uinorm(half, kind, p)
        mid = _uinorm(two_sided, kind, p)
        hi = _uinorm(outer, kind, p)
        refined = 4.0 * r0n * _uinorm(half, kind, p) + (1.0 - 2.0 * r0n) * hi
        _check_le(recs, "heinz_scalar.lower", lo, mid, fph, cfg.tol)
        _check_le(recs, "heinz_scalar.upper", mid, hi, fph, cfg.tol)
        _check_le(recs, "heinz_scalar.refine", mid, refined, fph, cfg.tol)
        _check_le(recs, "heinz_scalar.refine_cap", refined, hi, fph, cfg.tol)
        _check_le(
            recs, "heinz_scalar.geom_interp",
            _uinorm(one_sided, kind, p),
            _uinorm(a @ x, kind, p) ** nu * _uinorm(x @ b, kind, p) ** (1.0 - nu),
            fph, cfg.tol,
        )
    return recs


# ---------------------------------------------------------------------------
# suite s3: Schatten-p norm chains (all closed form)
# ---------------------------------------------------------------------------

def _s3_trial(cfg: SuiteConfig, trial: int, artifacts=None):
    rng = _trial_rng(cfg, trial)
    t_tuple, d, n, ens = _sample_tuple(cfg, rng)
    t = float(rng.uniform(0.0, 1.0))
    p = float(_P_GRID[int(rng.integers(len(_P_GRID)))])
    base = {"seed": cfg.seed, "trial": trial, "d": d, "n": n, "ensemble": ens}
    if artifacts is not None:
        artifacts["tuple"] = t_tuple
    recs = []

    polar = spherical_polar(t_tuple)
    t_alu = generalized_aluthge_from_polar(polar, 0.5)
    t_heinz = heinz_from_polar(polar, t)
    t_mean = lambda_mean_from_polar(t_tuple, polar, 0.5)
    t_dug = duggal_from_polar(polar)
    r0 = min(t, 1.0 - t)
    droot = d ** (1.0 / p)

    s_t = schatten_spherical_norm(t_tuple, p)
    s_dug = schatten_spherical_norm(t_dug, p)
    s_alu = schatten_spherical_norm(t_alu, p)
    s_hz = schatten_spherical_norm(t_heinz, p)
    s_mean = schatten_spherical_norm(t_mean, p)
    s2_t = schatten_spherical_norm(t_tuple, 2.0)
    s2_dug = schatten_spherical_norm(t_dug, 2.0)
    fp = {**base, "t": t, "p": p}

    # the lambda means of the whole grid, stacked, in one batched SVD
    lams = np.array(_LAMBDA_GRID)[:, None, None, None]
    lam_grid = lams * t_tuple.array + (1.0 - lams) * t_dug.array
    lam_svals = np.linalg.svd(lam_grid.reshape(-1, d * n, n), compute_uv=False)
    for lam, svals in zip(_LAMBDA_GRID, lam_svals):
        fpl = {**base, "lambda": lam, "p": p}
        _check_le(
            recs, "sp.lambda_mean.scaled_convex",
            linalg.schatten_from_singulars(svals, p),
            (lam + (1.0 - lam) * droot) * s_t, fpl, cfg.tol,
        )
        _check_le(
            recs, "s2norm.lambda_mean.min_bound",
            linalg.schatten_from_singulars(svals, 2.0),
            (lam + (1.0 - lam) * np.sqrt(min(n, d))) * s2_t, fpl, cfg.tol,
        )
    _check_le(recs, "s2norm.duggal.dim_bound", s2_dug, np.sqrt(n) * s2_t, fp, cfg.tol)

    mix = 2.0 * r0 * s_alu + (1.0 - 2.0 * r0) * s_mean
    _check_le(recs, "sp.heinz_r0.refine", s_hz, mix, fp, cfg.tol)
    _check_le(recs, "sp.heinz_r0.mean", mix, s_mean, fp, cfg.tol)
    _check_le(recs, "sp.heinz_r0.cap", s_mean, 0.5 * (1.0 + droot) * s_t, fp, cfg.tol)

    geom = 0.5 * (s_dug ** t * s_t ** (1.0 - t) + s_dug ** (1.0 - t) * s_t ** t)
    _check_le(recs, "sp.heinz_interp.lower", s_alu, s_hz, fp, cfg.tol)
    _check_le(recs, "sp.heinz_interp.geom", s_hz, geom, fp, cfg.tol)
    _check_le(
        recs, "sp.heinz_interp.cap", geom,
        0.5 * (d ** (t / p) + d ** ((1.0 - t) / p)) * s_t, fp, cfg.tol,
    )

    _check_le(recs, "sp.chain.lower", s_alu, s_hz, fp, cfg.tol)
    _check_le(recs, "sp.chain.middle", s_hz, s_mean, fp, cfg.tol)
    _check_le(recs, "sp.chain.cap", s_mean, 0.5 * (1.0 + droot) * s_t, fp, cfg.tol)
    return recs


# ---------------------------------------------------------------------------
# suite s4: Schatten p-radius chains and PSD power sums
# ---------------------------------------------------------------------------

def _s4_trial(cfg: SuiteConfig, trial: int, artifacts=None):
    rng = _trial_rng(cfg, trial)
    t_tuple, d, n, ens = _sample_tuple(cfg, rng)
    p = float(_P_GRID[int(rng.integers(len(_P_GRID)))])
    base = {"seed": cfg.seed, "trial": trial, "d": d, "n": n, "ensemble": ens}
    fp = {**base, "p": p}
    if artifacts is not None:
        artifacts["tuple"] = t_tuple
    recs = []

    s_t = schatten_spherical_norm(t_tuple, p)
    hy = schatten_hypo_norm(t_tuple, p, cfg.opt)
    w = schatten_numerical_radius(t_tuple, p, cfg.opt)
    state = {"hy": hy, "w": w}

    def hy_esc():
        better = schatten_hypo_norm(
            t_tuple, p, cfg.opt.escalated(), warm_starts=[state["hy"].argmax.coeffs]
        )
        state["hy"] = max(state["hy"], better, key=lambda e: e.value)
        return state["hy"].value

    def w_esc():
        better = schatten_numerical_radius(
            t_tuple, p, cfg.opt.escalated(), warm_starts=[state["w"].argmax.coeffs]
        )
        state["w"] = max(state["w"], better, key=lambda e: e.value)
        return state["w"].value

    _check_le(recs, "spr.radius_le_hypo", w.value, hy.value, fp, cfg.opt_tol, hy_esc)
    _check_le(recs, "spr.hypo_le_norm", hy.value, s_t, fp, cfg.tol)
    _check_le(recs, "spr.half_hypo_le_radius", 0.5 * hy.value, w.value, fp,
              cfg.opt_tol, w_esc)
    if p < 2.0:
        _check_le(recs, "spr.hypo_lower.p_small", s_t / d ** (1.0 / p), hy.value,
                  fp, cfg.opt_tol, hy_esc)
    else:
        _check_le(recs, "spr.hypo_lower.p_large", s_t / np.sqrt(d), hy.value,
                  fp, cfg.opt_tol, hy_esc)
    if p == 2.0:
        s2 = s_t
        _check_le(recs, "s2r.chain.a", s2 / np.sqrt(2.0 * d),
                  hy.value / np.sqrt(2.0), fp, cfg.opt_tol,
                  lambda: hy_esc() / np.sqrt(2.0))
        _check_le(recs, "s2r.chain.b", state["hy"].value / np.sqrt(2.0), w.value,
                  fp, cfg.opt_tol, w_esc)
        _check_le(recs, "s2r.chain.c", state["w"].value, state["hy"].value, fp,
                  cfg.opt_tol, hy_esc)
        _check_le(recs, "s2r.chain.d", state["hy"].value, s2, fp, cfg.tol)

    # PSD power-sum comparisons for a random positive family
    dp = int(rng.integers(1, cfg.dmax + 1))
    family = [random_psd(n, rng) for _ in range(dp)]
    if artifacts is not None:
        artifacts["psd_family"] = OperatorTuple(matrices=tuple(family))
    total = family[0].copy()
    for m in family[1:]:
        total += m
    total = (total + linalg.adjoint(total)) / 2.0
    for rid, r in (
        ("psd.power_sum.concave", float(rng.uniform(0.05, 0.95))),
        ("psd.power_sum.convex", float(rng.uniform(1.0, 3.0))),
    ):
        lhs = linalg.schatten_norm(linalg.psd_power_any(total, r), p)
        rsum = sum(linalg.psd_power_any(m, r) for m in family)
        rhs = linalg.schatten_norm(rsum, p)
        if r >= 1.0:
            rhs = dp ** (r - 1.0) * rhs
        _check_le(recs, rid, lhs, rhs, {**fp, "r": r, "d_family": dp}, cfg.tol)
    return recs


# ---------------------------------------------------------------------------
# equality cases
# ---------------------------------------------------------------------------

def _equality_trial(cfg: SuiteConfig, trial: int, artifacts=None):
    rng = _trial_rng(cfg, trial)
    d, n = _sample_dims(cfg, rng)
    p = float((1.5, 2.0, 3.0, 5.0)[int(rng.integers(4))])
    t = float(rng.uniform(0.15, 0.85))
    if abs(t - 0.5) < 0.05:
        t = 0.35
    base = {"seed": cfg.seed, "trial": trial, "d": d, "n": n, "p": p, "t": t}
    recs = []
    eq_tol = 1e-9

    normal = random_normal_tuple(d, n, rng)
    if artifacts is not None:
        artifacts["normal_tuple"] = normal
    polar = spherical_polar(normal)
    _check_eq(
        recs, "eq.heinz_mean.normal_forward",
        schatten_spherical_norm(heinz_from_polar(polar, t), p),
        schatten_spherical_norm(lambda_mean_from_polar(normal, polar, 0.5), p),
        base, eq_tol,
    )

    inv_normal = random_normal_tuple(d, n, rng, min_defect=0.05)
    if artifacts is not None:
        artifacts["invertible_normal_tuple"] = inv_normal
    polar_inv = spherical_polar(inv_normal)
    _check_eq(
        recs, "eq.aluthge_heinz.invertible_forward",
        schatten_spherical_norm(generalized_aluthge_from_polar(polar_inv, 0.5), p),
        schatten_spherical_norm(heinz_from_polar(polar_inv, t), p),
        base, eq_tol,
    )

    commuting = random_commuting_tuple(d, n, rng)
    if artifacts is not None:
        artifacts["commuting_tuple"] = commuting
    polar_c = spherical_polar(commuting)
    gap = schatten_spherical_norm(lambda_mean_from_polar(commuting, polar_c, 0.5), p) - \
        schatten_spherical_norm(heinz_from_polar(polar_c, t), p)
    if is_normal_tuple(commuting):
        # the strict-gap claim only concerns non-normal samples
        recs.append(InequalityRecord(
            "eq.heinz_mean.nonnormal_gap", 0.0, gap, gap, PASS,
            {**base, "note": "sample was normal, skipped"},
        ))
    else:
        _check_gt(recs, "eq.heinz_mean.nonnormal_gap", gap, 1e-6, base)

    # scalar equality predicates: intertwined triples force equality
    nu = float(rng.uniform(0.1, 0.9))
    if abs(nu - 0.5) < 0.1:
        nu = 0.25
    a = random_psd(n, rng)
    ea = linalg.hermitian_eig(a)
    av = np.clip(ea.values, 0.0, None)
    u = np.linalg.qr(
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    )[0]
    b = np.conj(u.T) @ a @ u
    b = (b + linalg.adjoint(b)) / 2.0
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = sum(cf * np.linalg.matrix_power(a, k) for k, cf in enumerate(coeffs))
    x = c @ u
    if artifacts is not None:
        artifacts["heinz_triple"] = OperatorTuple(matrices=(a, b, x))

    def apow(s):
        return linalg.psd_power_from_eig(av, ea.vectors, s)

    def bpow(s):
        return np.conj(u.T) @ apow(s) @ u

    fpn = {**base, "nu": nu}
    scale_tol = 1e-9 * (1.0 + linalg.schatten_norm(a @ x + x @ b, p))
    two_sided = apow(nu) @ x @ bpow(1.0 - nu) + apow(1.0 - nu) @ x @ bpow(nu)
    _check_eq(
        recs, "eq.scalar_heinz.intertwined.sum",
        linalg.schatten_norm(two_sided, p),
        linalg.schatten_norm(a @ x + x @ b, p),
        fpn, scale_tol,
    )
    _check_eq(
        recs, "eq.scalar_heinz.intertwined.half",
        2.0 * linalg.schatten_norm(apow(0.5) @ x @ bpow(0.5), p),
        linalg.schatten_norm(two_sided, p),
        fpn, scale_tol,
    )

    a2, b2, x2 = _sample_heinz_triple(rng, n)
    e2a = linalg.hermitian_eig(a2)
    e2b = linalg.hermitian_eig(b2)

    def a2pow(s):
        return linalg.psd_power_from_eig(np.clip(e2a.values, 0, None), e2a.vectors, s)

    def b2pow(s):
        return linalg.psd_power_from_eig(np.clip(e2b.values, 0, None), e2b.vectors, s)

    two2 = a2pow(nu) @ x2 @ b2pow(1.0 - nu) + a2pow(1.0 - nu) @ x2 @ b2pow(nu)
    _check_gt(
        recs, "eq.scalar_heinz.generic_gap.sum",
        linalg.schatten_norm(a2 @ x2 + x2 @ b2, p) - linalg.schatten_norm(two2, p),
        1e-6, fpn,
    )
    _check_gt(
        recs, "eq.scalar_heinz.generic_gap.half",
        linalg.schatten_norm(two2, p)
        - 2.0 * linalg.schatten_norm(a2pow(0.5) @ x2 @ b2pow(0.5), p),
        1e-6, fpn,
    )
    return recs


# ---------------------------------------------------------------------------
# zero equivalence
# ---------------------------------------------------------------------------

def _zero_trial(cfg: SuiteConfig, trial: int, artifacts=None):
    rng = _trial_rng(cfg, trial)
    d = int(rng.integers(1, cfg.dmax + 1))
    n = int(rng.integers(2, cfg.nmax + 1))
    t1 = float(rng.uniform(0.05, 1.0))
    t2 = float(rng.uniform(0.05, 0.95))
    base = {"seed": cfg.seed, "trial": trial, "d": d, "t_aluthge": t1, "t_heinz": t2}
    recs = []

    nil = random_tuple(d, 2, rng, "nilpotent")
    if artifacts is not None:
        artifacts["tuple"] = nil
    sq_residual = is_square_zero(nil, tol=1e-12).residual
    fpn = {**base, "n": 2, "ensemble": "nilpotent"}
    _check_eq(recs, "zero.nilpotent.square_zero", sq_residual, 0.0, fpn, 1e-12)
    polar = spherical_polar(nil)
    _check_eq(
        recs, "zero.square_zero.aluthge_vanishes",
        spherical_norm(generalized_aluthge_from_polar(polar, t1)), 0.0, fpn, 1e-10,
    )
    _check_eq(
        recs, "zero.square_zero.heinz_vanishes",
        spherical_norm(heinz_from_polar(polar, t2)), 0.0, fpn, 1e-10,
    )

    gen = random_tuple(d, n, rng, "ginibre")
    if artifacts is not None:
        artifacts["generic_tuple"] = gen
    fpg = {**base, "n": n, "ensemble": "ginibre"}
    polar_g = spherical_polar(gen)
    sq = max(spherical_norm(tuple_power(gen, 2)), 0.0)
    alu = spherical_norm(generalized_aluthge_from_polar(polar_g, t1))
    hz = spherical_norm(heinz_from_polar(polar_g, t2))
    _check_gt(recs, "zero.generic.nonvanishing", min(sq, alu, hz), 1e-8, fpg)
    _check_gt(
        recs, "zero.mean.nonzero",
        spherical_norm(lambda_mean_from_polar(gen, polar_g, 0.5)), 1e-8, fpg,
    )
    return recs


# ---------------------------------------------------------------------------
# sharpness fixtures
# ---------------------------------------------------------------------------

def sharp_column_pair() -> OperatorTuple:
    """d = 2 pair with singular defect: ([[1,0],[0,0]], [[0,0],[1,0]])."""
    return OperatorTuple(matrices=(
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    ))


def sharp_diag_pair() -> OperatorTuple:
    """d = 2 pair with identity defect: (diag(1,0), diag(0,1))."""
    return OperatorTuple(matrices=(
        np.diag([1.0, 0.0]),
        np.diag([0.0, 1.0]),
    ))


def _sharpness_trial(cfg: SuiteConfig, trial: int, artifacts=None):
    column = sharp_column_pair()
    diag = sharp_diag_pair()
    if artifacts is not None:
        artifacts["tuple"] = column
        artifacts["diag_tuple"] = diag
    recs = []
    tol = 1e-8
    for p in _SHARP_P_GRID:
        fp = {"seed": cfg.seed, "trial": trial, "p": p}

        def hypo_escalate(tup=column, p=p):
            return schatten_hypo_norm(tup, p, cfg.opt.escalated()).value

        _check_eq(recs, "sharp.column_pair.snorm",
                  schatten_spherical_norm(column, p), np.sqrt(2.0), fp, tol)
        _check_eq(recs, "sharp.column_pair.hypo",
                  schatten_hypo_norm(column, p, cfg.opt).value, 1.0, fp, tol,
                  escalate=hypo_escalate)
        _check_eq(recs, "sharp.diag_pair.scaled_snorm",
                  schatten_spherical_norm(diag, p) / 2.0 ** (1.0 / p), 1.0, fp, tol)
        _check_eq(recs, "sharp.diag_pair.hypo",
                  schatten_hypo_norm(diag, p, cfg.opt).value, 1.0, fp, tol,
                  escalate=lambda tup=diag, p=p: schatten_hypo_norm(
                      tup, p, cfg.opt.escalated()).value)
    return recs


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

_TRIAL_FUNCS = {
    "s2": _s2_trial,
    "s3": _s3_trial,
    "s4": _s4_trial,
    "equality": _equality_trial,
    "zero": _zero_trial,
    "sharpness": _sharpness_trial,
}

_DEFAULT_TRIALS = {
    "s2": 500,
    "s3": 500,
    "s4": 300,
    "equality": 100,
    "zero": 100,
    "sharpness": 1,
}


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _trial_worker(args):
    suite, cfg, trial = args
    return _TRIAL_FUNCS[suite](cfg, trial)


def run_suite(suite: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one suite; records are merged in trial-index order."""
    if suite not in _TRIAL_FUNCS:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITE_NAMES}")
    if suite == "sharpness":
        cfg = replace(cfg, trials=1)
    started = time.perf_counter()
    args = [(suite, cfg, k) for k in range(cfg.trials)]
    workers = resolve_workers(cfg.workers)
    records: list = []
    if workers > 1 and cfg.trials > 1:
        chunk = max(1, cfg.trials // (workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for batch in pool.map(_trial_worker, args, chunksize=chunk):
                    records.extend(batch)
        except (OSError, RuntimeError):
            records = [rec for a in args for rec in _trial_worker(a)]
    else:
        records = [rec for a in args for rec in _trial_worker(a)]
    return SuiteReport(
        suite=suite,
        seed=cfg.seed,
        trials=cfg.trials,
        tol=cfg.tol,
        opt_tol=cfg.opt_tol,
        records=records,
        summary=summarize(records, REQUIRED_RATES),
        wall_time=time.perf_counter() - started,
    )


def suite_operator_norms(trials: int = 500, **kw) -> SuiteReport:
    return run_suite("s2", SuiteConfig(trials=trials, **kw))


def suite_schatten_norms(trials: int = 500, **kw) -> SuiteReport:
    return run_suite("s3", SuiteConfig(trials=trials, **kw))


def suite_schatten_radii(trials: int = 300, **kw) -> SuiteReport:
    return run_suite("s4", SuiteConfig(trials=trials, **kw))


def suite_equality_cases(trials: int = 100, **kw) -> SuiteReport:
    return run_suite("equality", SuiteConfig(trials=trials, **kw))


def suite_zero_equivalence(trials: int = 100, **kw) -> SuiteReport:
    return run_suite("zero", SuiteConfig(trials=trials, **kw))


def suite_sharpness(**kw) -> SuiteReport:
    return run_suite("sharpness", SuiteConfig(trials=1, **kw))


def default_trials(suite: str) -> int:
    return _DEFAULT_TRIALS[suite]


# ---------------------------------------------------------------------------
# fuzzing: minimum-slack search for one inequality
# ---------------------------------------------------------------------------

def fuzz_inequality(inequality_id: str, cfg: SuiteConfig):
    """Scan trials of the owning suite, keeping only one inequality's records.

    Returns (suite, records, witness_tuple, witness_fingerprint) where the
    witness is the sampled object of the minimum-slack trial.
    """
    info = INEQUALITIES.get(inequality_id)
    if info is None:
        raise KeyError(f"unknown inequality id {inequality_id!r}")
    suite = info["suite"]
    report = run_suite(suite, cfg)
    records = [r for r in report.records if r.inequality_id == inequality_id]
    if not records:
        raise RuntimeError(f"no records produced for {inequality_id!r}")
    worst = min(records, key=lambda r: r.slack)
    artifacts: dict = {}
    _TRIAL_FUNCS[suite](cfg, worst.fingerprint["trial"], artifacts)
    witness = artifacts.get(info["artifact"])
    return suite, records, witness, worst.fingerprint
