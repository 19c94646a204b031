"""Outside-in tracing of sphertrans for the per-layer metrics.

Every wrapper lives here; no file of the library changes.  install()
replaces the module-level names the library calls through (in every
loaded sphertrans module that binds them, and numpy.linalg.svd / eigh /
eigvalsh) with timing and counting wrappers, and Patches.undo() puts the
originals back.  A name missing from the library is skipped, so the
tracer keeps working when a later refactor deletes a private helper; its
metrics then read 0.

A wrapped call opens a frame on a stack.  On return its duration is
charged to the parent frame, so self time is the span minus the time its
child spans cover.  Span records (name, start, end, parent, root id) are
kept in memory for every boundary except the hot LAPACK, linalg and
optimizer-callable boundaries, which are counted and timed but not
stored one by one.  The root id names the trial ("s2:3") or norms query
("query:1") a span belongs to.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

ESTIMATORS = {
    # library name -> metric name
    "hypo_norm": "hypo_norm",
    "schatten_hypo_norm": "schatten_hypo_norm",
    "_radius_vector_route": "joint_radius_a",
    "_radius_coeff_route": "joint_radius_b",
    "schatten_numerical_radius": "schatten_radius",
}
SIZES = ((2, 2), (3, 5), (4, 6))
CLOSED_NORMS = (
    "spherical_norm",
    "euclidean_norm",
    "schatten_spherical_norm",
    "schatten_hypo_norm_gram",
)
LAPACK = ("svd", "eigh", "eigvalsh")
_OPT_CALLABLES = {
    "ascend": "optimize.ascend",
    "batch_objective": "optimize.batch_objective",
    "polish_objective": "optimize.polish_objective",
}


class Tracer:
    """In-memory spans plus per-name and per-layer aggregates."""

    def __init__(self):
        self.spans: list = []           # [name, start, end, parent index, root]
        self.calls = Counter()
        self.total_s = Counter()        # outermost spans of each name
        self.self_s = Counter()
        self.layer_s = Counter()        # outermost spans of each layer
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.root = None
        self._stack: list = []
        self._depth = Counter()
        self._layer_depth = Counter()

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def layer_depth(self, layer: str) -> int:
        return self._layer_depth[layer]

    def open(self, name: str, layer: str, keep: bool = True) -> list:
        """Start a span; children of an unkept span hang off its kept ancestor."""
        parent = self._stack[-1][4] if self._stack else -1
        start = _clock()
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.root])
        self._depth[name] += 1
        self._layer_depth[layer] += 1
        frame = [name, layer, start, 0.0, index, keep]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        """End a span; returns its duration in seconds."""
        end = _clock()
        name, layer, start, child_s, index, keep = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if keep:
            self.spans[index][2] = end
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_s[name] += duration
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_s[layer] += duration
        return duration

    def write(self, path) -> None:
        """Write the kept spans as JSON: times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, root]
            for name, start, end, parent, root in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "root"],
                       "spans": rows}, fh)


class Patches:
    """Module attributes replaced by wrappers, and how to restore them."""

    def __init__(self):
        self._undo: list = []

    def replace(self, original, wrapper, modules) -> None:
        """Rebind every attribute of modules that is original to wrapper."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def undo(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def _spanned(tracer, fn, name, layer, keep=True, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name, layer, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.close(frame)
        if after is not None:
            after(duration, args, kwargs, result)
        return result
    return wrapper


def _find_config(args, kwargs, config_type):
    for value in (*args, *kwargs.values()):
        if isinstance(value, config_type):
            return value
    return None


def _opt_callable(tracer, fn, name):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        frame = tracer.open(name, "optimize.callables", keep=False)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)
            if name == "optimize.objective":
                if tracer.active("optimize.pattern_ascent"):
                    counts["optimize.polish_evals"] += 1
                elif tracer.active("optimize.screen"):
                    counts["optimize.screen_points"] += 1
                else:
                    counts["optimize.objective_evals"] += 1
            elif name == "optimize.polish_objective":
                counts["optimize.polish_evals"] += 1
            elif name == "optimize.ascend":
                counts["optimize.ascent_iters"] += 1
                counts["optimize.ascent_rows"] += len(args[0])
            else:
                counts["optimize.screen_points"] += len(args[0])
    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap the library's call boundaries; returns the patches to undo."""
    import numpy

    from sphertrans import ensembles, linalg, norms, optimize, reports, suites, transforms, tuples

    patches = Patches()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sphertrans" or name.startswith("sphertrans.")]
    counts = tracer.counts

    def wrap(owner, attr, make, targets=modules):
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: trace target {owner.__name__}.{attr} not found",
                  file=sys.stderr)
            return
        patches.replace(original, make(original), targets)

    def public_functions(mod):
        return [name for name, value in vars(mod).items()
                if callable(value) and not name.startswith("_")
                and getattr(value, "__module__", None) == mod.__name__
                and not isinstance(value, type)]

    # closed-form layers
    wrap(tuples, "spherical_polar",
         lambda f: _spanned(tracer, f, "tuples.spherical_polar", "tuples"))
    for attr in public_functions(transforms):
        wrap(transforms, attr,
             lambda f, a=attr: _spanned(tracer, f, f"transforms.{a}", "transforms"))
    for attr in public_functions(ensembles):
        wrap(ensembles, attr,
             lambda f, a=attr: _spanned(tracer, f, f"ensembles.{a}", "ensembles"))
    for attr in public_functions(linalg):
        wrap(linalg, attr,
             lambda f, a=attr: _spanned(tracer, f, f"linalg.{a}", "linalg", keep=False))
    for attr in CLOSED_NORMS:
        wrap(norms, attr,
             lambda f, a=attr: _spanned(tracer, f, f"norms.closed.{a}", "norms.closed"))

    # supremum estimators
    config_type = optimize.OptimizerConfig

    def estimator(f, metric):
        name = f"norms.{metric}"

        def after(duration, args, kwargs, result):
            t = args[0] if args else None
            if hasattr(t, "d") and hasattr(t, "n"):
                tracer.samples[f"{name}.s.d{t.d}n{t.n}"].append(duration)
            # an escalation is an outermost estimator call with a screening grid
            if tracer.layer_depth("norms.estimators") == 0:
                cfg = _find_config(args, kwargs, config_type)
                if cfg is not None and cfg.grid_points > 0:
                    counts["suites.escalations"] += 1
                    tracer.samples["suites.escalation_s"].append(duration)

        return _spanned(tracer, f, name, "norms.estimators", after=after)

    for attr, metric in ESTIMATORS.items():
        wrap(norms, attr, lambda f, m=metric: estimator(f, m))
    wrap(norms, "joint_numerical_radius",
         lambda f: estimator(f, "joint_numerical_radius"))

    # the optimizer and the callables handed to it
    def sphere_optimize(f):
        @functools.wraps(f)
        def wrapper(objective, *args, **kwargs):
            objective = _opt_callable(tracer, objective, "optimize.objective")
            for key, name in _OPT_CALLABLES.items():
                if kwargs.get(key) is not None:
                    kwargs[key] = _opt_callable(tracer, kwargs[key], name)
            frame = tracer.open("optimize.sphere_optimize", "optimize")
            try:
                est = f(objective, *args, **kwargs)
            finally:
                tracer.close(frame)
            counts["optimize.starts"] += int(est.starts)
            counts["optimize.converged"] += bool(est.converged)
            return est
        return wrapper

    wrap(optimize, "sphere_optimize", sphere_optimize)
    wrap(optimize, "pattern_ascent",
         lambda f: _spanned(tracer, f, "optimize.pattern_ascent", "optimize"))
    wrap(optimize, "_evaluate_chunked",
         lambda f: _spanned(tracer, f, "optimize.screen", "optimize"))

    # run_suite, its trials, and reports
    def trial(f):
        @functools.wraps(f)
        def wrapper(args):
            suite, _, index = args
            outer = tracer.root
            tracer.root = f"{suite}:{index}"
            frame = tracer.open("suites.trial", "suites.trials")
            try:
                return f(args)
            finally:
                tracer.samples["suites.trial_s"].append(tracer.close(frame))
                tracer.root = outer
        return wrapper

    wrap(suites, "_trial_worker", trial)
    wrap(suites, "run_suite",
         lambda f: _spanned(
             tracer, f, "suites.run_suite", "suites",
             after=lambda d, a, k, report: counts.update(
                 {"suites.records": len(report.records)})))
    wrap(reports, "summarize",
         lambda f: _spanned(tracer, f, "reports.summarize", "reports"))
    wrap(reports, "report_to_json",
         lambda f: _spanned(
             tracer, f, "reports.serialize", "reports",
             after=lambda d, a, k, text: counts.update(
                 {"reports.bytes": len(text.encode("utf-8"))})))

    # the numpy.linalg boundary
    def lapack(f, attr):
        name = f"lapack.{attr}"

        @functools.wraps(f)
        def wrapper(a, *args, **kwargs):
            shape = numpy.shape(a)
            frame = tracer.open(name, "lapack", keep=False)
            try:
                return f(a, *args, **kwargs)
            finally:
                tracer.close(frame)
                matrices = math.prod(shape[:-2])
                rows, cols = shape[-2], shape[-1]
                counts[f"{name}.matrices"] += matrices
                counts["lapack.work_n3"] += matrices * rows * cols * min(rows, cols)
        return wrapper

    for attr in LAPACK:
        wrap(numpy.linalg, attr, lambda f, a=attr: lapack(f, a), [numpy.linalg])
    return patches


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced repetition: name -> (value, unit)."""
    c, calls = tracer.counts, tracer.calls
    out: dict = {}
    opt = "optimize.sphere_optimize"
    opt_calls = calls[opt]
    evals = (c["optimize.objective_evals"] + c["optimize.polish_evals"]
             + c["optimize.ascent_rows"] + c["optimize.screen_points"])
    out[f"{opt}.calls"] = (opt_calls, "count")
    out[f"{opt}.ms"] = (_ms(tracer.total_s[opt]), "ms")
    out[f"{opt}.self_ms"] = (_ms(tracer.self_s[opt]), "ms")
    for key in ("ascent_iters", "ascent_rows", "objective_evals", "polish_evals",
                "screen_points", "starts"):
        out[f"optimize.{key}"] = (c[f"optimize.{key}"], "count")
    out["optimize.evals_per_estimate"] = (evals / opt_calls if opt_calls else 0.0, "count")
    out["optimize.converged_share"] = (
        c["optimize.converged"] / opt_calls if opt_calls else 0.0, "ratio")

    for metric in ESTIMATORS.values():
        name = f"norms.{metric}"
        n_calls = calls[name]
        total = _ms(tracer.total_s[name])
        out[f"{name}.calls"] = (n_calls, "count")
        out[f"{name}.ms"] = (total, "ms")
        out[f"{name}.ms_per_call"] = (total / n_calls if n_calls else 0.0, "ms")
        for d, n in SIZES:
            size = f"d{d}n{n}"
            sized = tracer.samples[f"{name}.s.{size}"]
            out[f"{name}.ms_per_call.{size}"] = (
                _ms(sum(sized)) / len(sized) if sized else 0.0, "ms")

    for attr in LAPACK:
        out[f"lapack.{attr}.calls"] = (calls[f"lapack.{attr}"], "count")
        out[f"lapack.{attr}.matrices"] = (c[f"lapack.{attr}.matrices"], "count")
    out["lapack.work_n3"] = (c["lapack.work_n3"], "n3")
    out["lapack.ms"] = (_ms(tracer.layer_s["lapack"]), "ms")

    out["tuples.spherical_polar.calls"] = (calls["tuples.spherical_polar"], "count")
    out["tuples.spherical_polar.ms"] = (_ms(tracer.total_s["tuples.spherical_polar"]), "ms")
    for layer in ("transforms", "ensembles", "linalg", "norms.closed"):
        out[f"{layer}.calls"] = (
            sum(v for k, v in calls.items() if k.startswith(layer + ".")), "count")
        out[f"{layer}.ms"] = (_ms(tracer.layer_s[layer]), "ms")
    out["reports.summarize.ms"] = (_ms(tracer.total_s["reports.summarize"]), "ms")
    out["reports.serialize.ms"] = (_ms(tracer.total_s["reports.serialize"]), "ms")
    out["reports.bytes"] = (c["reports.bytes"], "bytes")

    trial_s = tracer.samples["suites.trial_s"]
    out["suites.driver_self_ms"] = (_ms(tracer.self_s["suites.run_suite"]), "ms")
    out["suites.records"] = (c["suites.records"], "count")
    out["suites.trials"] = (len(trial_s), "count")
    out["suites.trial_ms_p50"] = (_ms(_percentile(trial_s, 0.5)), "ms")
    out["suites.trial_ms_p90"] = (_ms(_percentile(trial_s, 0.9)), "ms")
    out["suites.escalations"] = (c["suites.escalations"], "count")
    out["suites.escalation_ms"] = (_ms(sum(tracer.samples["suites.escalation_s"])), "ms")
    return out
