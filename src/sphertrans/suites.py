"""Randomized verification suites for the transform/norm inequality chains.

Every check is one row of TABLE: its id, suite and description, its check
kind ("le": lhs <= rhs, "eq": lhs = rhs, "gt": rhs > lhs), its two sides
as expressions over a per-trial store, its tolerance, its index (once,
the lambda grid, the operator/Schatten norm kind or the sharpness p
grid), an optional condition (when, the only gate), the artifact a fuzz
witness returns and the required pass rate.  INEQUALITIES and
REQUIRED_RATES are views of TABLE.

Trial k of a run with master seed s draws its inputs from
default_rng([s, k]) when its store is built.  run_suite evaluates
contiguous blocks of trials, serially or one block per pool task: a
block builds its trials' stores in trial order, then computes every
spectrum its suite's rows read (_SPECTRA) for all of them at once
(blocks.py).  Per sampled tuple and shape, one polar_stack factorizes
the block's tuples, the transforms are stack expressions with each
trial's own exponent, the Heinz products come from batched
eigendecompositions, and the stacked columns of each shape get one
batched SVD.  The block then estimates each s2 trial's 13 operator
hypo-norms, and then its 3 joint radii (_BATCHES), by one batched ascent
each, bit for bit equal to estimating each tuple alone.  Any other
estimate is computed on first read and memoized.  Each value is bit for
bit the one a trial computes alone, so reports are reproducible and
independent of the block size and worker scheduling.

Optimized suprema are lower bounds.  Checks whose optimized side could
fall short use the relaxed slack opt_tol; the s2r.chain rows run only at
p = 2, where both Schatten suprema are exact, and use tol.  One rule
escalates: a failing check escalates, at most once per trial, each
optimized quantity whose larger estimate could make it hold, that is,
those the rhs of "le" read and those the lhs of "eq" read while it is
below its target.  A larger estimate only raises the lhs of "gt", or of
an "eq" above its target, so those fail without a rerun, and the fail is
proved: each measured supremum is a lower bound of the true one.  A
hypo-norm or Schatten estimate reruns from scratch with
max(8 * n_random_starts, 256) starts plus a 100k-point screen; the joint
radius reruns with both routes.  The store keeps the larger estimate,
the check is judged again, and every later read sees the escalated
value.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Callable

import numpy as np

from . import linalg
from .blocks import HeinzTriple, fill_spectra, name_parts
from .ensembles import (
    ENSEMBLES,
    random_commuting_tuple,
    random_normal_tuple,
    random_psd,
    random_tuple,
)
from .errors import InvalidParameterError
from .norms import (
    _hypo_p_norms,
    _radius_vector_routes,
    hypo_norm,
    joint_numerical_radius,
    schatten_hypo_norm,
    schatten_numerical_radius,
)
from .optimize import OptimizerConfig
from .predicates import is_square_zero
from .reports import FAIL, PASS, REFINED, InequalityRecord, SuiteReport, summarize
from .tuples import OperatorTuple

SUITE_NAMES = ("s2", "s3", "s4", "equality", "sharpness", "zero")

_P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0)
_LAMBDA_GRID = tuple(round(0.1 * k, 1) for k in range(11))
_SHARP_P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
# lambda means that are bitwise equal to a named transform (or T itself)
_LAMBDA_ALIASES = {0.0: "T.dug", 0.5: "T.mean", 1.0: "T"}
_LAMBDA_OWN = tuple(lam for lam in _LAMBDA_GRID if lam not in _LAMBDA_ALIASES)
_T_FAMILY = ("T", "T.dug", "T.alu", "T.hz", "T.mean", *_LAMBDA_OWN)
# per suite and kind, the tuples of T's shape whose operator hypo-norms (or
# joint radii) a trial reads; its block estimates them by one batched ascent
_BATCHES = {
    "s2": {"hypo": _T_FAMILY, "radius": ("T.alu", "T.hz", "T.mean")},
}
# per suite, the tuples whose spectra every trial's rows read; a block
# computes them for all its trials at once
_HEINZ_PRODUCTS = ("half", "one_sided", "two_sided", "ax", "xb", "outer")  # of heinz_products
_SPECTRA = {
    "s2": (*_T_FAMILY, *(f"triple.{kind}" for kind in _HEINZ_PRODUCTS)),
    "s3": _T_FAMILY,
    "s4": ("T",),
    "equality": ("normal.hz", "normal.mean", "inv.alu", "inv.hz", "comm.mean", "comm.hz",
                 *(f"{h}.{kind}" for h in ("triple", "generic")
                   for kind in ("half", "two_sided", "outer"))),
    "zero": ("nil.alu", "nil.hz", "gen.sq", "gen.alu", "gen.hz", "gen.mean"),
    "sharpness": ("column", "diag"),
}

_SUITE_OPT = OptimizerConfig(n_random_starts=8)
# the suites whose tuple T _sample_tuple draws, the only reader of SuiteConfig.ensemble
_ENSEMBLE_SUITES = ("s2", "s3", "s4")


@dataclass(frozen=True)
class SuiteConfig:
    """Shared knobs for one suite run."""

    trials: int
    seed: int = 42
    tol: float = 1e-8          # slack scale for closed-form sides
    dmax: int = 4
    nmax: int = 6
    ensemble: str | None = None   # force one ensemble (used by fuzzing)
    workers: int | None = None
    opt: OptimizerConfig = field(default_factory=lambda: _SUITE_OPT)

    @property
    def opt_tol(self) -> float:
        """The slack scale for optimized sides, never below 1e-6."""
        return max(self.tol, 1e-6)


# ---------------------------------------------------------------------------
# trial inputs
# ---------------------------------------------------------------------------

def _trial_rng(cfg: SuiteConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, trial])


def _sample_dims(cfg: SuiteConfig, rng) -> tuple[int, int]:
    return int(rng.integers(1, cfg.dmax + 1)), int(rng.integers(2, cfg.nmax + 1))


def _sample_tuple(s, rng) -> dict:
    """Draw the suite tuple T into the store; returns its fingerprint."""
    s.d, s.n = _sample_dims(s.cfg, rng)
    if s.cfg.ensemble is not None:
        ens = s.cfg.ensemble
    else:
        ens = ("ginibre", "ginibre", "contraction", "nilpotent")[int(rng.integers(4))]
    s.T = random_tuple(s.d, s.n, rng, ens)
    return {"d": s.d, "n": s.n, "ensemble": ens}


def _sample_heinz_triple(rng, n):
    a = random_psd(n, rng)
    b = random_psd(n, rng)
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return a, b, x


def _sample_s2(s, rng, base):
    base = {**base, **_sample_tuple(s, rng)}
    s.t = float(rng.uniform(0.0, 1.0))
    s.r0 = min(s.t, 1.0 - s.t)
    s.nu = float(rng.uniform(0.0, 1.0))
    s.p = float(_P_GRID[int(rng.integers(len(_P_GRID)))])
    s.triple = HeinzTriple(*_sample_heinz_triple(rng, s.n), s.nu)
    s.fp = {"": base, "t": {**base, "t": s.t}, "nu": {**base, "nu": s.nu}}


def _sample_s3(s, rng, base):
    base = {**base, **_sample_tuple(s, rng)}
    s.t = float(rng.uniform(0.0, 1.0))
    s.r0 = min(s.t, 1.0 - s.t)
    s.p = float(_P_GRID[int(rng.integers(len(_P_GRID)))])
    s.fp = {"": {**base, "p": s.p}, "t": {**base, "t": s.t, "p": s.p}}


def _sample_s4(s, rng, base):
    base = {**base, **_sample_tuple(s, rng)}
    s.p = float(_P_GRID[int(rng.integers(len(_P_GRID)))])
    dp = int(rng.integers(1, s.cfg.dmax + 1))
    s.family = [random_psd(s.n, rng) for _ in range(dp)]
    s.r_concave = float(rng.uniform(0.05, 0.95))
    s.r_convex = float(rng.uniform(1.0, 3.0))
    fp = {**base, "p": s.p}
    s.fp = {"": fp,
            "concave": {**fp, "r": s.r_concave, "d_family": dp},
            "convex": {**fp, "r": s.r_convex, "d_family": dp}}


def _sample_equality(s, rng, base):
    d, n = _sample_dims(s.cfg, rng)
    s.p = float((1.5, 2.0, 3.0, 5.0)[int(rng.integers(4))])
    s.t = float(rng.uniform(0.15, 0.85))
    if abs(s.t - 0.5) < 0.05:
        s.t = 0.35
    s.normal = random_normal_tuple(d, n, rng)
    s.inv = random_normal_tuple(d, n, rng, min_defect=0.05)
    s.comm = random_commuting_tuple(d, n, rng)
    nu = float(rng.uniform(0.1, 0.9))
    if abs(nu - 0.5) < 0.1:
        nu = 0.25
    # an intertwined triple: B = U* A U and X = c(A) U give AX = XB
    a = random_psd(n, rng)
    u = np.linalg.qr(
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    )[0]
    b = linalg.hermitian_part(linalg.adjoint(u) @ a @ u)
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = sum(cf * np.linalg.matrix_power(a, k) for k, cf in enumerate(coeffs))
    s.triple = HeinzTriple(a, b, c @ u, nu, u)
    s.generic = HeinzTriple(*_sample_heinz_triple(rng, n), nu)
    base = {**base, "d": d, "n": n, "p": s.p, "t": s.t}
    s.fp = {"": base, "nu": {**base, "nu": nu}}


def _sample_zero(s, rng, base):
    s.d, n = _sample_dims(s.cfg, rng)
    s.t_aluthge = float(rng.uniform(0.05, 1.0))
    s.t = float(rng.uniform(0.05, 0.95))
    s.nil = random_tuple(s.d, 2, rng, "nilpotent")
    s.gen = random_tuple(s.d, n, rng, "ginibre")
    base = {**base, "d": s.d, "t_aluthge": s.t_aluthge, "t_heinz": s.t}
    s.fp = {"nil": {**base, "n": 2, "ensemble": "nilpotent"},
            "gen": {**base, "n": n, "ensemble": "ginibre"}}


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


def _sample_sharpness(s, rng, base):
    s.column = sharp_column_pair()
    s.diag = sharp_diag_pair()
    s.fp = {"": base}


_SAMPLERS = {
    "s2": _sample_s2,
    "s3": _sample_s3,
    "s4": _sample_s4,
    "equality": _sample_equality,
    "zero": _sample_zero,
    "sharpness": _sample_sharpness,
}


# ---------------------------------------------------------------------------
# the per-trial store
# ---------------------------------------------------------------------------

class _Store:
    """One trial: its inputs, drawn eagerly, and every quantity a row reads,
    memoized, with tuples named as blocks.name_parts reads them.

    Its block (_block_records) fills the spectra of the suite's _SPECTRA
    names, the transforms its _BATCHES name and their first estimates.
    tup and spectrum read only those (or a sampled tuple); a read the
    block did not fill raises a KeyError that names it.  norm and hypo
    read the lambda means at 0, 1/2 and 1 under their _LAMBDA_ALIASES
    names.  norm reads every spherical, Schatten and product norm of a
    tuple from one spectrum of its stacked column.  Any other estimate is
    computed on first read.
    """

    t_aluthge = 0.5      # the Aluthge exponent; the zero suite draws its own

    def __init__(self, suite: str, cfg: SuiteConfig, trial: int):
        self.cfg = cfg
        self.memo: dict = {}
        self.reads: list = []        # optimized keys read by the current side
        self.escalated: set = set()
        _SAMPLERS[suite](self, _trial_rng(cfg, trial), {"seed": cfg.seed, "trial": trial})

    def artifact(self, name: str) -> OperatorTuple:
        obj = getattr(self, name)
        if isinstance(obj, HeinzTriple):
            obj = (obj.a, obj.b, obj.x)
        return obj if isinstance(obj, OperatorTuple) else OperatorTuple(matrices=tuple(obj))

    @cached_property
    def droot(self) -> float:
        return self.d ** (1.0 / self.p)

    @cached_property
    def psd_powers(self) -> list:
        """r -> A^r for each matrix A of the PSD family, then for their sum,
        each from one eigendecomposition shared by both exponents."""
        return [linalg.psd_powers(m) for m in (*self.family, sum(self.family))]

    def _memo(self, key, build):
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = build()
        return got

    def _filled(self, key):
        if key not in self.memo:
            raise KeyError(f"the block filled no {key[0]} of {key[1]!r}")
        return self.memo[key]

    def tup(self, name) -> OperatorTuple:
        base, kind = name_parts(name)
        return getattr(self, base) if kind == "" else self._filled(("tup", name))

    def spectrum(self, name) -> np.ndarray:
        """The singular values of a tuple's stacked column, descending."""
        return self._filled(("spectrum", name))

    def norm(self, name, p: float | None = None) -> float:
        """The spherical norm (p None) or Schatten p-norm of a tuple."""
        name = _LAMBDA_ALIASES.get(name, name)
        return self._memo(("norm", name, p), lambda: linalg.schatten_from_singulars(
            self.spectrum(name), np.inf if p is None else p))

    def hypo(self, name, p: float | None = None) -> float:
        """The (Schatten p-) hypo-norm estimate of a tuple."""
        return self._sup(("hypo", _LAMBDA_ALIASES.get(name, name), p))

    def radius(self, name, p: float | None = None) -> float:
        """The joint numerical radius (p None) or Schatten p-radius estimate."""
        return self._sup(("radius", name, p))

    def _sup(self, key) -> float:
        self.reads.append(key)
        return self._memo(key, lambda: self._estimate(key, self.cfg.opt)).value

    def _estimate(self, key, opt: OptimizerConfig):
        kind, name, p = key
        t = self.tup(name)
        if kind == "hypo":
            if p is None:
                return hypo_norm(t, opt)
            return schatten_hypo_norm(t, p, opt)
        if p is None:
            return joint_numerical_radius(t, opt)
        return schatten_numerical_radius(t, p, opt)

    def escalate(self, keys) -> bool:
        """Rerun each optimized quantity in keys that has not escalated in
        this trial, keeping the larger estimate; True if any reran."""
        fresh = [k for k in dict.fromkeys(keys) if k not in self.escalated]
        for key in fresh:
            self.escalated.add(key)
            rerun = self._estimate(key, self.cfg.opt.escalated())
            self.memo[key] = max(self.memo[key], rerun, key=lambda e: e.value)
        return bool(fresh)

    def _sides(self, row, i):
        """Both sides of row at index value i, and the optimized keys whose
        larger estimate could make the row hold: those the rhs of "le"
        read, or the lhs of "eq" while lhs < rhs."""
        reads = self.reads = []
        lhs = float(row.lhs(self, i))
        mark = len(reads)
        rhs = float(row.rhs(self, i))
        if row.check == "le":
            return lhs, rhs, reads[mark:]
        return lhs, rhs, reads[:mark] if row.check == "eq" and lhs < rhs else []

    def _holds(self, row, lhs: float, rhs: float) -> bool:
        if row.check == "gt":
            return rhs > lhs
        tol = row.tol
        tol = getattr(self.cfg, tol) if isinstance(tol, str) \
            else tol(self) if callable(tol) else tol
        if row.check == "le":
            return lhs <= rhs + tol * (1.0 + abs(rhs))
        return abs(lhs - rhs) <= tol

    def record(self, row, i=None, fp=None) -> InequalityRecord:
        """Judge row at index value i with fingerprint fp (default: the
        row's own).  A failing row escalates the estimates whose larger
        value could make it hold (_sides) and is judged again.  A row with
        none, such as "gt" or an "eq" above its target, fails as it stands,
        and that fail is proved: each estimate is an exact value at its
        argmax, a lower bound of its supremum, so a larger one would only
        move the sides further apart."""
        if fp is None:
            fp = self.fp[row.fp]
        lhs, rhs, keys = self._sides(row, i)
        if self._holds(row, lhs, rhs):
            status = PASS
        elif keys and self.escalate(keys):
            lhs, rhs, _ = self._sides(row, i)
            status = REFINED if self._holds(row, lhs, rhs) else FAIL
        else:
            status = FAIL
        return InequalityRecord(row.id, lhs, rhs, rhs - lhs, status, fp)


# ---------------------------------------------------------------------------
# the inequality table
# ---------------------------------------------------------------------------

_ONCE = ((None, None),)
_LAMBDA_ENTRIES = tuple((lam, {"lambda": lam}) for lam in _LAMBDA_GRID)
_SHARP_ENTRIES = tuple((p, {"p": p}) for p in _SHARP_P_GRID)


def _index(s, index) -> tuple:
    """(index value, fingerprint entry) pairs of one index kind."""
    if index == "lambda":
        return _LAMBDA_ENTRIES
    if index == "norm":
        return ((None, {"norm": "op"}), (s.p, {"norm": s.p}))
    return _SHARP_ENTRIES if index == "p" else _ONCE


@dataclass(frozen=True)
class Row:
    """One inequality: lhs <= rhs ("le"), lhs = rhs ("eq") or rhs > lhs
    ("gt"), each side a function (store, index value) -> float.

    tol names a SuiteConfig slack ("tol", "opt_tol"), scaled by 1 + |rhs|,
    or is an absolute bound: a number or a function of the store.  index
    is None (once), "lambda" (the lambda grid), "norm" (operator norm,
    then Schatten p) or "p" (the sharpness p grid).  when(store) is the
    only gate: a trial where it is false records nothing for the row.  fp
    names the store's fingerprint and artifact the sampled object a fuzz
    witness returns.
    """

    id: str
    suite: str
    check: str
    lhs: Callable
    rhs: Callable
    description: str
    tol: object = "tol"
    index: str | None = None
    when: Callable | None = None
    fp: str = ""
    artifact: str = "T"
    required_rate: float = 1.0


def _mix(r0, alu, mean):
    return 2.0 * r0 * alu + (1.0 - 2.0 * r0) * mean


def _geom(t, dug, whole):
    return 0.5 * (dug ** t * whole ** (1.0 - t) + dug ** (1.0 - t) * whole ** t)


def _convex(lam, whole, dug):
    return lam * whole + (1.0 - lam) * dug


def _root(lam):
    return 2.0 * np.sqrt(max(lam - lam * lam, 0.0))


def _refined(s, p):
    r0 = s.triple.r0
    return 4.0 * r0 * s.norm("triple.half", p) + (1.0 - 2.0 * r0) * s.norm("triple.outer", p)


def _power_of_sum(s, r):
    power = s.psd_powers[-1](r)
    return linalg.schatten_from_singulars(np.linalg.svd(power, compute_uv=False), s.p)


def _sum_of_powers(s, r):
    total = sum(power(r) for power in s.psd_powers[:-1])
    return linalg.schatten_from_singulars(np.linalg.svd(total, compute_uv=False), s.p)


def _scale_tol(s):
    return 1e-9 * (1.0 + s.norm("triple.outer", s.p))


TABLE = (
    # s2: operator-norm, hypo-norm and radius chains
    Row("opnorm.heinz_r0.refine", "s2", "le",
        lambda s, i: s.norm("T.hz"), lambda s, i: _mix(s.r0, s.norm("T.alu"), s.norm("T.mean")),
        "interpolated-transform norm below the r0-weighted mix of aluthge and mean norms", fp="t"),
    Row("opnorm.heinz_r0.mean", "s2", "le",
        lambda s, i: _mix(s.r0, s.norm("T.alu"), s.norm("T.mean")), lambda s, i: s.norm("T.mean"),
        "r0-weighted mix below the mean-transform norm", fp="t"),
    Row("opnorm.heinz_r0.cap", "s2", "le",
        lambda s, i: s.norm("T.mean"), lambda s, i: s.norm("T"),
        "mean-transform norm below the tuple norm", fp="t"),
    Row("opnorm.heinz_interp.lower", "s2", "le",
        lambda s, i: s.norm("T.alu"), lambda s, i: s.norm("T.hz"),
        "aluthge norm below the interpolated-transform norm", fp="t"),
    Row("opnorm.heinz_interp.geom", "s2", "le",
        lambda s, i: s.norm("T.hz"), lambda s, i: _geom(s.t, s.norm("T.dug"), s.norm("T")),
        "interpolated-transform norm below the geometric cross-mean of duggal and tuple norms",
        fp="t"),
    Row("opnorm.heinz_interp.cap", "s2", "le",
        lambda s, i: _geom(s.t, s.norm("T.dug"), s.norm("T")), lambda s, i: s.norm("T"),
        "geometric cross-mean below the tuple norm", fp="t"),
    Row("opnorm.lambda_mean.lower", "s2", "le",
        lambda s, i: _root(i) * s.norm("T.alu"), lambda s, i: s.norm(i),
        "2 sqrt(lam - lam^2) aluthge norm below the lambda-mean norm", index="lambda"),
    Row("opnorm.lambda_mean.convex", "s2", "le",
        lambda s, i: s.norm(i), lambda s, i: _convex(i, s.norm("T"), s.norm("T.dug")),
        "lambda-mean norm below the convex mix of tuple and duggal norms", index="lambda"),
    Row("opnorm.lambda_mean.cap", "s2", "le",
        lambda s, i: _convex(i, s.norm("T"), s.norm("T.dug")), lambda s, i: s.norm("T"),
        "convex mix below the tuple norm", index="lambda"),
    Row("hyponorm.heinz_r0.refine", "s2", "le",
        lambda s, i: s.hypo("T.hz"), lambda s, i: _mix(s.r0, s.hypo("T.alu"), s.hypo("T.mean")),
        "hypo-norm of interpolated transform below the r0-weighted mix", tol="opt_tol", fp="t"),
    Row("hyponorm.heinz_r0.mean", "s2", "le",
        lambda s, i: _mix(s.r0, s.hypo("T.alu"), s.hypo("T.mean")), lambda s, i: s.hypo("T.mean"),
        "r0-weighted hypo-norm mix below the mean-transform hypo-norm", tol="opt_tol", fp="t"),
    Row("hyponorm.heinz_r0.cap", "s2", "le",
        lambda s, i: s.hypo("T.mean"), lambda s, i: s.norm("T"),
        "mean-transform hypo-norm below the tuple norm", fp="t"),
    Row("hyponorm.lambda_mean.lower", "s2", "le",
        lambda s, i: _root(i) * s.hypo("T.alu"), lambda s, i: s.hypo(i),
        "2 sqrt(lam - lam^2) aluthge hypo-norm below the lambda-mean hypo-norm",
        tol="opt_tol", index="lambda"),
    Row("hyponorm.lambda_mean.convex", "s2", "le",
        lambda s, i: s.hypo(i), lambda s, i: _convex(i, s.hypo("T"), s.hypo("T.dug")),
        "lambda-mean hypo-norm below the convex mix of hypo-norms",
        tol="opt_tol", index="lambda"),
    Row("hyponorm.lambda_mean.cap", "s2", "le",
        lambda s, i: _convex(i, s.hypo("T"), s.hypo("T.dug")), lambda s, i: s.norm("T"),
        "convex hypo-norm mix below the tuple norm", index="lambda"),
    Row("radius.monotone.aluthge", "s2", "le",
        lambda s, i: s.radius("T.alu"), lambda s, i: s.radius("T.hz"),
        "radius of aluthge transform below radius of interpolated transform",
        tol="opt_tol", fp="t"),
    Row("radius.monotone.mean", "s2", "le",
        lambda s, i: s.radius("T.hz"), lambda s, i: s.radius("T.mean"),
        "radius of interpolated transform below radius of mean transform",
        tol="opt_tol", fp="t"),
    Row("heinz_scalar.lower", "s2", "le",
        lambda s, i: 2.0 * s.norm("triple.half", i), lambda s, i: s.norm("triple.two_sided", i),
        "twice the balanced product norm below the two-sided interpolated product norm",
        index="norm", fp="nu", artifact="triple"),
    Row("heinz_scalar.upper", "s2", "le",
        lambda s, i: s.norm("triple.two_sided", i), lambda s, i: s.norm("triple.outer", i),
        "two-sided interpolated product norm below ||AX + XB||",
        index="norm", fp="nu", artifact="triple"),
    Row("heinz_scalar.refine", "s2", "le",
        lambda s, i: s.norm("triple.two_sided", i), lambda s, i: _refined(s, i),
        "two-sided interpolated product norm below its r0-weighted refinement",
        index="norm", fp="nu", artifact="triple"),
    Row("heinz_scalar.refine_cap", "s2", "le",
        lambda s, i: _refined(s, i), lambda s, i: s.norm("triple.outer", i),
        "r0-weighted refinement below ||AX + XB||",
        index="norm", fp="nu", artifact="triple"),
    Row("heinz_scalar.geom_interp", "s2", "le",
        lambda s, i: s.norm("triple.one_sided", i),
        lambda s, i: s.norm("triple.ax", i) ** s.nu * s.norm("triple.xb", i) ** (1.0 - s.nu),
        "one-sided interpolated product norm below the geometric mean of ||AX|| and ||XB||",
        index="norm", fp="nu", artifact="triple"),
    # s3: Schatten-p chains, all closed form
    Row("sp.lambda_mean.scaled_convex", "s3", "le",
        lambda s, i: s.norm(i, s.p),
        lambda s, i: (i + (1.0 - i) * s.droot) * s.norm("T", s.p),
        "lambda-mean p-norm below (lam + (1-lam) d^(1/p)) times the tuple p-norm",
        index="lambda"),
    Row("s2norm.lambda_mean.min_bound", "s3", "le",
        lambda s, i: s.norm(i, 2.0),
        lambda s, i: (i + (1.0 - i) * np.sqrt(min(s.n, s.d))) * s.norm("T", 2.0),
        "lambda-mean 2-norm below (lam + (1-lam) sqrt(min(n,d))) times the tuple 2-norm",
        index="lambda"),
    Row("s2norm.duggal.dim_bound", "s3", "le",
        lambda s, i: s.norm("T.dug", 2.0), lambda s, i: np.sqrt(s.n) * s.norm("T", 2.0),
        "duggal 2-norm below sqrt(n) times the tuple 2-norm", fp="t"),
    Row("sp.heinz_r0.refine", "s3", "le",
        lambda s, i: s.norm("T.hz", s.p),
        lambda s, i: _mix(s.r0, s.norm("T.alu", s.p), s.norm("T.mean", s.p)),
        "interpolated-transform p-norm below the r0-weighted mix", fp="t"),
    Row("sp.heinz_r0.mean", "s3", "le",
        lambda s, i: _mix(s.r0, s.norm("T.alu", s.p), s.norm("T.mean", s.p)),
        lambda s, i: s.norm("T.mean", s.p),
        "r0-weighted p-norm mix below the mean-transform p-norm", fp="t"),
    Row("sp.heinz_r0.cap", "s3", "le",
        lambda s, i: s.norm("T.mean", s.p), lambda s, i: 0.5 * (1.0 + s.droot) * s.norm("T", s.p),
        "mean-transform p-norm below (1 + d^(1/p))/2 times the tuple p-norm", fp="t"),
    Row("sp.heinz_interp.lower", "s3", "le",
        lambda s, i: s.norm("T.alu", s.p), lambda s, i: s.norm("T.hz", s.p),
        "aluthge p-norm below the interpolated-transform p-norm", fp="t"),
    Row("sp.heinz_interp.geom", "s3", "le",
        lambda s, i: s.norm("T.hz", s.p),
        lambda s, i: _geom(s.t, s.norm("T.dug", s.p), s.norm("T", s.p)),
        "interpolated-transform p-norm below the geometric cross-mean of duggal and tuple p-norms",
        fp="t"),
    Row("sp.heinz_interp.cap", "s3", "le",
        lambda s, i: _geom(s.t, s.norm("T.dug", s.p), s.norm("T", s.p)),
        lambda s, i: 0.5 * (s.d ** (s.t / s.p) + s.d ** ((1.0 - s.t) / s.p)) * s.norm("T", s.p),
        "geometric cross-mean below (d^(t/p) + d^((1-t)/p))/2 times the tuple p-norm", fp="t"),
    Row("sp.chain.lower", "s3", "le",
        lambda s, i: s.norm("T.alu", s.p), lambda s, i: s.norm("T.hz", s.p),
        "aluthge p-norm below the interpolated-transform p-norm (combined chain)", fp="t"),
    Row("sp.chain.middle", "s3", "le",
        lambda s, i: s.norm("T.hz", s.p), lambda s, i: s.norm("T.mean", s.p),
        "interpolated-transform p-norm below the mean-transform p-norm", fp="t"),
    Row("sp.chain.cap", "s3", "le",
        lambda s, i: s.norm("T.mean", s.p), lambda s, i: 0.5 * (1.0 + s.droot) * s.norm("T", s.p),
        "mean-transform p-norm below (1 + d^(1/p))/2 times the tuple p-norm (combined chain)",
        fp="t"),
    # s4: Schatten p-radius chains and PSD power sums
    Row("spr.radius_le_hypo", "s4", "le",
        lambda s, i: s.radius("T", s.p), lambda s, i: s.hypo("T", s.p),
        "Schatten p-radius below the Schatten hypo-p-norm", tol="opt_tol"),
    Row("spr.hypo_le_norm", "s4", "le",
        lambda s, i: s.hypo("T", s.p), lambda s, i: s.norm("T", s.p),
        "Schatten hypo-p-norm below the tuple p-norm"),
    Row("spr.half_hypo_le_radius", "s4", "le",
        lambda s, i: 0.5 * s.hypo("T", s.p), lambda s, i: s.radius("T", s.p),
        "half the Schatten hypo-p-norm below the Schatten p-radius", tol="opt_tol"),
    Row("spr.hypo_lower.p_small", "s4", "le",
        lambda s, i: s.norm("T", s.p) / s.droot, lambda s, i: s.hypo("T", s.p),
        "d^(-1/p) times the tuple p-norm below the hypo-p-norm (p < 2)",
        tol="opt_tol", when=lambda s: s.p < 2.0),
    Row("spr.hypo_lower.p_large", "s4", "le",
        lambda s, i: s.norm("T", s.p) / np.sqrt(s.d), lambda s, i: s.hypo("T", s.p),
        "d^(-1/2) times the tuple p-norm below the hypo-p-norm (p >= 2)",
        tol="opt_tol", when=lambda s: s.p >= 2.0),
    Row("s2r.chain.a", "s4", "le",
        lambda s, i: s.norm("T", s.p) / np.sqrt(2.0 * s.d),
        lambda s, i: s.hypo("T", s.p) / np.sqrt(2.0),
        "(2d)^(-1/2) tuple 2-norm below 2^(-1/2) hypo-2-norm", when=lambda s: s.p == 2.0),
    Row("s2r.chain.b", "s4", "le",
        lambda s, i: s.hypo("T", s.p) / np.sqrt(2.0), lambda s, i: s.radius("T", s.p),
        "2^(-1/2) hypo-2-norm below the Schatten 2-radius", when=lambda s: s.p == 2.0),
    Row("s2r.chain.c", "s4", "le",
        lambda s, i: s.radius("T", s.p), lambda s, i: s.hypo("T", s.p),
        "Schatten 2-radius below the hypo-2-norm", when=lambda s: s.p == 2.0),
    Row("s2r.chain.d", "s4", "le",
        lambda s, i: s.hypo("T", s.p), lambda s, i: s.norm("T", s.p),
        "hypo-2-norm below the tuple 2-norm", when=lambda s: s.p == 2.0),
    Row("psd.power_sum.concave", "s4", "le",
        lambda s, i: _power_of_sum(s, s.r_concave), lambda s, i: _sum_of_powers(s, s.r_concave),
        "p-norm of (sum A_k)^r below p-norm of sum A_k^r for 0 < r < 1",
        fp="concave", artifact="family"),
    Row("psd.power_sum.convex", "s4", "le",
        lambda s, i: _power_of_sum(s, s.r_convex),
        lambda s, i: len(s.family) ** (s.r_convex - 1.0) * _sum_of_powers(s, s.r_convex),
        "p-norm of (sum A_k)^r below d^(r-1) times p-norm of sum A_k^r for r >= 1",
        fp="convex", artifact="family"),
    # equality cases
    Row("eq.heinz_mean.normal_forward", "equality", "eq",
        lambda s, i: s.norm("normal.hz", s.p), lambda s, i: s.norm("normal.mean", s.p),
        "normal tuples: interpolated-transform p-norm equals the mean-transform p-norm",
        tol=1e-9, artifact="normal"),
    Row("eq.aluthge_heinz.invertible_forward", "equality", "eq",
        lambda s, i: s.norm("inv.alu", s.p), lambda s, i: s.norm("inv.hz", s.p),
        "normal tuples with invertible defect: aluthge p-norm equals the "
        "interpolated-transform p-norm", tol=1e-9, artifact="inv"),
    Row("eq.heinz_mean.nonnormal_gap", "equality", "gt",
        lambda s, i: 1e-6, lambda s, i: s.norm("comm.mean", s.p) - s.norm("comm.hz", s.p),
        "non-normal commuting tuples: strict gap between interpolated and mean p-norms "
        "(statistical)", artifact="comm", required_rate=0.95),
    Row("eq.scalar_heinz.intertwined.sum", "equality", "eq",
        lambda s, i: s.norm("triple.two_sided", s.p), lambda s, i: s.norm("triple.outer", s.p),
        "AX = XB forces equality of the two-sided interpolated product p-norm with ||AX + XB||_p",
        tol=_scale_tol, fp="nu", artifact="triple"),
    Row("eq.scalar_heinz.intertwined.half", "equality", "eq",
        lambda s, i: 2.0 * s.norm("triple.half", s.p),
        lambda s, i: s.norm("triple.two_sided", s.p),
        "AX = XB forces equality of twice the balanced product p-norm with the two-sided "
        "interpolated p-norm", tol=_scale_tol, fp="nu", artifact="triple"),
    Row("eq.scalar_heinz.generic_gap.sum", "equality", "gt",
        lambda s, i: 1e-6,
        lambda s, i: s.norm("generic.outer", s.p) - s.norm("generic.two_sided", s.p),
        "generic triples: strict gap in the second scalar inequality (statistical)",
        fp="nu", artifact="generic", required_rate=0.95),
    Row("eq.scalar_heinz.generic_gap.half", "equality", "gt",
        lambda s, i: 1e-6,
        lambda s, i: s.norm("generic.two_sided", s.p) - 2.0 * s.norm("generic.half", s.p),
        "generic triples: strict gap in the first scalar inequality (statistical)",
        fp="nu", artifact="generic", required_rate=0.95),
    # zero equivalence
    Row("zero.nilpotent.square_zero", "zero", "eq",
        lambda s, i: is_square_zero(s.nil, tol=1e-12).residual, lambda s, i: 0.0,
        "nilpotent ensemble at n = 2 has vanishing tuple square",
        tol=1e-12, fp="nil", artifact="nil"),
    Row("zero.square_zero.aluthge_vanishes", "zero", "eq",
        lambda s, i: s.norm("nil.alu"), lambda s, i: 0.0,
        "square-zero tuples: interpolated aluthge transform vanishes",
        tol=1e-10, fp="nil", artifact="nil"),
    Row("zero.square_zero.heinz_vanishes", "zero", "eq",
        lambda s, i: s.norm("nil.hz"), lambda s, i: 0.0,
        "square-zero tuples: interpolated heinz transform vanishes",
        tol=1e-10, fp="nil", artifact="nil"),
    Row("zero.generic.nonvanishing", "zero", "gt",
        lambda s, i: 1e-8,
        lambda s, i: min(max(s.norm("gen.sq"), 0.0), s.norm("gen.alu"), s.norm("gen.hz")),
        "generic tuples: square and transforms all nonvanishing", fp="gen", artifact="gen"),
    Row("zero.mean.nonzero", "zero", "gt",
        lambda s, i: 1e-8, lambda s, i: s.norm("gen.mean"),
        "generic nonzero tuples have nonzero mean transform", fp="gen", artifact="gen"),
    # sharpness fixtures
    Row("sharp.column_pair.snorm", "sharpness", "eq",
        lambda s, i: s.norm("column", i), lambda s, i: np.sqrt(2.0),
        "column-pair example: tuple p-norm equals sqrt(2) for every p",
        tol=1e-8, index="p", artifact="column"),
    Row("sharp.column_pair.hypo", "sharpness", "eq",
        lambda s, i: s.hypo("column", i), lambda s, i: 1.0,
        "column-pair example: hypo-p-norm equals 1 for every p",
        tol=1e-8, index="p", artifact="column"),
    Row("sharp.diag_pair.scaled_snorm", "sharpness", "eq",
        lambda s, i: s.norm("diag", i) / 2.0 ** (1.0 / i), lambda s, i: 1.0,
        "diagonal-pair example: 2^(-1/p) times the tuple p-norm equals 1",
        tol=1e-8, index="p", artifact="diag"),
    Row("sharp.diag_pair.hypo", "sharpness", "eq",
        lambda s, i: s.hypo("diag", i), lambda s, i: 1.0,
        "diagonal-pair example: hypo-p-norm equals 1 (true value is 2^(1/p - 1/2) for p < 2)",
        tol=1e-8, index="p", artifact="diag"),
)

INEQUALITIES = {
    row.id: {"suite": row.suite, "description": row.description,
             "artifact": row.artifact, "required_rate": row.required_rate}
    for row in TABLE
}

REQUIRED_RATES = {row.id: row.required_rate for row in TABLE}

# each suite's rows in table order, consecutive rows of one index together:
# a run of rows emits all its rows at each index value before the next value
_ROW_RUNS = {
    suite: [(index, list(rows)) for index, rows in
            groupby((row for row in TABLE if row.suite == suite), key=lambda r: r.index)]
    for suite in SUITE_NAMES
}


def _block_records(suite: str, cfg: SuiteConfig, trials) -> list:
    """The records of a block of trials, in trial order.  The stores are
    built in trial order, then the block's spectra and the transforms of
    _BATCHES are computed at once, then each trial's _BATCHES estimates,
    one batched ascent per kind."""
    stores = [_Store(suite, cfg, k) for k in trials]
    batches = _BATCHES.get(suite, {})
    fill_spectra(stores, _SPECTRA[suite],
                 [name for names in batches.values() for name in names
                  if name_parts(name)[1] != ""])
    for s in stores:
        for kind, names in batches.items():
            ts = [s.tup(name) for name in names]
            ests = _hypo_p_norms(ts, np.inf, cfg.opt) if kind == "hypo" \
                else _radius_vector_routes(ts, cfg.opt)
            s.memo.update(zip([(kind, name, None) for name in names], ests))
    records = []
    stores.reverse()
    while stores:
        s = stores.pop()        # released once its records are out
        for index, rows in _ROW_RUNS[suite]:
            for value, entry in _index(s, index):
                # the rows at one index value share their fingerprint dicts
                fps = s.fp if entry is None else {k: {**fp, **entry} for k, fp in s.fp.items()}
                records.extend(s.record(row, value, fps[row.fp]) for row in rows
                               if row.when is None or row.when(s))
    return records


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

_DEFAULT_TRIALS = {"s2": 500, "s3": 500, "s4": 300, "equality": 100, "zero": 100, "sharpness": 1}


def resolve_workers(workers: int | None) -> int:
    """workers if given, else the CPU count."""
    return workers if workers is not None else os.cpu_count() or 1


_BLOCK_TRIALS = 100     # at most, so that a block's live stores stay small


def _trial_blocks(trials: int, workers: int) -> list:
    """Contiguous blocks of trial indices: of _BLOCK_TRIALS serially, and
    for a pool of about a quarter of a worker's share, so that the
    workers stay balanced."""
    size = _BLOCK_TRIALS if workers == 1 else min(_BLOCK_TRIALS, max(1, trials // (workers * 4)))
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _trial_worker(args):
    """The records of one block of trials, args = (suite, cfg, trials)."""
    return _block_records(*args)


def check_config(suite: str, cfg: SuiteConfig) -> None:
    """Raise, as run_suite does first, unless cfg is a valid config for suite."""
    if suite not in _ROW_RUNS:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITE_NAMES}")
    if cfg.trials < 1:
        raise InvalidParameterError(f"trials={cfg.trials} must be >= 1")
    if cfg.seed < 0:
        raise InvalidParameterError(f"seed={cfg.seed} must be >= 0")
    if cfg.dmax < 1:
        raise InvalidParameterError(f"dmax={cfg.dmax} must be >= 1")
    if cfg.nmax < 2:
        raise InvalidParameterError(f"nmax={cfg.nmax} must be >= 2")
    if cfg.workers is not None and cfg.workers < 1:
        raise InvalidParameterError(f"workers={cfg.workers} must be >= 1")
    if not 0.0 <= cfg.tol < np.inf:
        raise InvalidParameterError(f"tol={cfg.tol} must be finite and >= 0")
    if cfg.ensemble is not None and suite not in _ENSEMBLE_SUITES:
        raise InvalidParameterError(f"ensemble={cfg.ensemble!r} applies only to suites "
                                    f"{', '.join(_ENSEMBLE_SUITES)}, not {suite}")
    if cfg.ensemble not in (None, *ENSEMBLES):
        raise InvalidParameterError(f"ensemble={cfg.ensemble!r} must be one of "
                                    f"{', '.join(ENSEMBLES)}")


def run_suite(suite: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one suite in blocks of trials; records are merged in
    trial-index order."""
    check_config(suite, cfg)
    if suite == "sharpness":
        cfg = replace(cfg, trials=1)
    started = time.perf_counter()
    workers = min(resolve_workers(cfg.workers), cfg.trials)
    args = [(suite, cfg, block) for block in _trial_blocks(cfg.trials, workers)]
    records: list = []
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for batch in pool.map(_trial_worker, args):
                    records.extend(batch)
        except (OSError, RuntimeError) as exc:
            warnings.warn(f"process pool failed ({type(exc).__name__}: {exc}); "
                          "running the trials serially", RuntimeWarning, stacklevel=2)
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


def default_trials(suite: str) -> int:
    return _DEFAULT_TRIALS[suite]


# ---------------------------------------------------------------------------
# fuzzing: minimum-slack search for one inequality
# ---------------------------------------------------------------------------

def fuzz_inequality(inequality_id: str, cfg: SuiteConfig):
    """Scan trials of the owning suite, keeping only one inequality's records.

    Returns (report, records, witness_tuple, witness_fingerprint): the owning
    suite's report and the row's sampled object in the minimum-slack trial.
    """
    row = next((r for r in TABLE if r.id == inequality_id), None)
    if row is None:
        raise KeyError(f"unknown inequality id {inequality_id!r}")
    report = run_suite(row.suite, cfg)
    records = [r for r in report.records if r.inequality_id == inequality_id]
    if not records:
        raise InvalidParameterError(
            f"trials={report.trials} produced no record of {inequality_id!r}")
    worst = min(records, key=lambda r: r.slack)
    witness = _Store(row.suite, cfg, worst.fingerprint["trial"]).artifact(row.artifact)
    return report, records, witness, worst.fingerprint
