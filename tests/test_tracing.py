"""The benchmark tracer wraps library names; a name it cannot find makes
its per-layer metrics read 0 without failing the run.  This test fails
when a refactor removes a name that perfbench/tracing.py still wraps."""

import importlib.util
from pathlib import Path

import numpy as np

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
