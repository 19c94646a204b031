#!/usr/bin/env python3
"""Print the cost per call of each layer at d=3, n=5 as a markdown table.

Usage:
    python scripts/layer_costs.py [--tuples 10] [--repeats 5]

Each row is one layer: spherical_polar, the transforms, the closed-form
Schatten norm and every supremum estimator, called on --tuples ginibre
tuples random_tuple(3, 5, k) with the suites' optimizer config (8 random
starts).  The time is the median over the tuples of the best of
--repeats calls, in ms, and "IQR ms" is the interquartile range of those
per-tuple times, the spread to read a difference between two runs'
medians against.  The transforms row makes the Duggal, Aluthge, Heinz
(t = 0.3) and mean transforms of a tuple whose decomposition is already
computed.  The two "s3 trial" rows make the numerics of one s3 trial
whose T is the tuple: its decomposition, the four transforms, the
lambda grid and the spectra its rows read.  "alone" does one trial at a
time; "in a block" does all --tuples trials at once, as run_suite's
blocks do, and divides the best time by their number, one time and so
no IQR.  iterations and evaluations are the means per call of the
counts each SupremumEstimate carries, so they include the batched
ascents that a tracer wrapping the single-tuple entry points misses;
"-" marks a layer that makes no estimate.  The numerical_radius row is
the ascent numerical_radius runs (the d = 1 real-part supremum, default
config) on the tuple's first matrix, called directly so that its
estimate can be read.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphertrans import blocks, norms, suites, transforms  # noqa: E402
from sphertrans.ensembles import random_tuple  # noqa: E402
from sphertrans.optimize import SupremumEstimate  # noqa: E402
from sphertrans.suites import SuiteConfig  # noqa: E402
from sphertrans.tuples import spherical_polar, tuple_from  # noqa: E402

D, N = 3, 5
CFG = SuiteConfig(trials=1).opt

S3_SPECTRA = suites._SPECTRA["s3"]


def _transforms(t):
    return (transforms.duggal(t), transforms.aluthge(t), transforms.heinz(t, 0.3),
            transforms.mean_transform(t))


def _s3_numerics(stores):
    return blocks.fill_spectra(stores, S3_SPECTRA)


def _s3_trials(ts) -> list:
    """s3 trial stores, trial k with the tuple ts[k] as its T."""
    stores = []
    for k, t in enumerate(ts):
        s = suites._Store("s3", SuiteConfig(trials=len(ts)), k)
        s.T, s.d, s.n = t, t.d, t.n
        stores.append(s)
    return stores


CLOSED_FORM = (
    ("`spherical_polar`", spherical_polar),
    ("transforms (Duggal, Aluthge, Heinz, mean)", _transforms),
    ("`schatten_spherical_norm` (p=3)", lambda t: norms.schatten_spherical_norm(t, 3.0)),
)
ESTIMATORS = (
    ("`hypo_norm`", lambda t: norms.hypo_norm(t, CFG)),
    ("`schatten_hypo_norm` (p=3)", lambda t: norms.schatten_hypo_norm(t, 3.0, CFG)),
    ("`schatten_hypo_norm` (p=2, exact)", lambda t: norms.schatten_hypo_norm(t, 2.0, CFG)),
    ("joint radius, route a", lambda t: norms._radius_vector_route(t, CFG)),
    ("joint radius, route b", lambda t: norms._radius_coeff_route(t, CFG)),
    ("`joint_numerical_radius` (both routes)",
     lambda t: norms.joint_numerical_radius(t, CFG)),
    ("`schatten_numerical_radius` (p=3)",
     lambda t: norms.schatten_numerical_radius(t, 3.0, CFG)),
    (f"`numerical_radius`, n={N}",
     lambda t: norms._real_part_sup(tuple_from(t[0]), np.inf, None)),
)


def _best_ms(fn, t, repeats: int):
    """(best wall time of repeats calls of fn(t) in ms, the last result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(t)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.tuples < 1 or args.repeats < 1:
        print("error: --tuples and --repeats must be at least 1", file=sys.stderr)
        return 2
    ts = [random_tuple(D, N, k, "ginibre") for k in range(args.tuples)]
    print(f"d={D}, n={N}: median over {args.tuples} ginibre tuples of the best of "
          f"{args.repeats} calls, {CFG.n_random_starts} random starts")
    print("| layer | ms per call | IQR ms | iterations | evaluations |")
    print("|-------|-------------|--------|------------|-------------|")
    rows = [(label, [_best_ms(fn, t, args.repeats) for t in ts]) for label, fn in CLOSED_FORM]
    trials = _s3_trials(ts)
    rows.append(("s3 trial numerics, alone",
                 [_best_ms(_s3_numerics, [s], args.repeats) for s in trials]))
    block_ms, _ = _best_ms(_s3_numerics, trials, args.repeats)
    rows.append((f"s3 trial numerics, in a block of {len(ts)}", [(block_ms / len(ts), None)]))
    rows += [(label, [_best_ms(fn, t, args.repeats) for t in ts]) for label, fn in ESTIMATORS]
    for label, runs in rows:
        times = [run[0] for run in runs]
        ms = statistics.median(times)
        iqr = f"{np.subtract(*np.percentile(times, [75, 25])):.2f}" if len(times) > 1 else "-"
        ests = [run[1] for run in runs]
        if isinstance(ests[0], SupremumEstimate):
            counts = [f"{statistics.fmean(getattr(e, name) for e in ests):.1f}"
                      for name in ("iterations", "evaluations")]
        else:
            counts = ["-", "-"]
        print(f"| {label} | {ms:.2f} | {iqr} | {counts[0]} | {counts[1]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
