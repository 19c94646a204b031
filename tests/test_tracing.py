"""The benchmark tracer wraps library names; a name it cannot find makes
its per-layer metrics read 0 without failing the run.  This test fails
when a refactor removes a name that perfbench/tracing.py still wraps."""

import importlib.util
from pathlib import Path

import numpy as np

from sphertrans import norms
from sphertrans.ensembles import random_tuple
from sphertrans.optimize import OptimizerConfig

ROOT = Path(__file__).resolve().parent.parent

# known stale target: the pattern polish was deleted, and the tracer still wraps it
KNOWN_MISSING = ["perfbench: trace target sphertrans.optimize.pattern_ascent not found"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists_but_the_known_stale_one(capsys):
    tracing = _load_tracing()
    svd = np.linalg.svd
    patches = tracing.install(tracing.Tracer())
    try:
        assert np.linalg.svd is not svd
    finally:
        patches.undo()
    assert np.linalg.svd is svd
    missing = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("perfbench: trace target")]
    assert missing == KNOWN_MISSING


def test_schatten_radius_runs_on_sphere_optimize():
    # perfbench's tests pin norms.sphere_optimize and count its calls in
    # s4; the tracer does not wrap sphere_optimize_batch, so a radius
    # ascent moved there would read 0 calls without failing tier-1
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        norms.schatten_numerical_radius(random_tuple(2, 3, 1), 3.0,
                                        OptimizerConfig(n_random_starts=2))
    finally:
        patches.undo()
    assert tracer.calls["optimize.sphere_optimize"] == 1
