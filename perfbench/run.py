"""sphertrans benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload s2-opnorm --seed 42 --seconds 25 --trace 0

Run it from the root of a sphertrans checkout; it imports the library
from ./src.  --trace 0 alternates serial (workers=1) and pooled (default
worker count) repetitions of the workload, as many pairs as fit in
--seconds but at least one, and reports the end-to-end metrics.
--trace 1 runs one serial and one pooled repetition untraced, then one
serial repetition under the tracer, and reports the per-layer metrics;
it writes the spans to perfbench/out/.  Both modes check every output (see gate.py), print
one `metric <name> = <value> <unit>` line per metric and end with one
JSON line; the exit code is 1 when the correctness gate trips.
"""

import os

# One BLAS thread per process, so pool workers x BLAS threads <= nproc.
# Set before numpy is imported; the pool children inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
# run_suite's default worker count is the one users get without this variable
os.environ.pop("SPHERTRANS_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7


def _load_library() -> None:
    package = SRC / "sphertrans"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no sphertrans sources at {package}; "
                 "run from the root of a sphertrans checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sphertrans
    if Path(sphertrans.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported sphertrans from {sphertrans.__file__}, "
                 f"not from {package}")


def _environment(pool_workers: int) -> str:
    import numpy
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    env = " ".join(f"{k}={os.environ[k]}" for k in BLAS_ENV)
    return (f"env: nproc={os.cpu_count()} pool_workers={pool_workers} {env} "
            f"numpy={numpy.__version__} openblas={blas} "
            f"python={sys.version.split()[0]}")


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


class Outcome:
    """Gate misses and operation counts over every repetition of a run."""

    def __init__(self, inputs, pool_workers):
        self.inputs = inputs
        self.pool_workers = pool_workers
        self.reference: dict = {}     # suite -> report bytes of the first serial rep
        self.misses: list = []
        self.attempted = 0
        self.fail_records = 0

    def check(self, rep, label: str, compare_bytes: bool = True) -> None:
        """Gate one repetition; compare_bytes also checks its report JSON
        against the first serial repetition's."""
        import gate
        import workloads
        from sphertrans.reports import FAIL

        self.misses += rep.errors
        self.attempted += len(rep.errors)
        for report in rep.reports:
            self.misses += gate.report_misses(report)
            if compare_bytes:
                self.misses += gate.byte_misses(self.reference, report, label)
            self.attempted += len(report.records)
            self.fail_records += sum(rec.status == FAIL for rec in report.records)
        for query, t in zip(rep.queries, self.inputs.tuples):
            found = gate.query_misses(query, t)
            self.misses += found
            self.attempted += 1
            self.fail_records += bool(found)
        if rep.workers is None and rep.child_cpu_s <= 0.0 and \
                workloads.pool_expected(self.inputs, self.pool_workers):
            self.misses.append(f"{label}: run_suite's pool used no child CPU time; "
                               "it fell back to serial")

    def fail_share(self) -> float:
        return self.fail_records / self.attempted if self.attempted else 0.0


def timed_run(inputs, seconds: float, outcome: Outcome) -> dict:
    import workloads

    walls = {1: [], None: []}
    op_s = []
    started = perf_counter()
    pair_s = 0.0
    # start another pair only if it should end within --seconds
    while not walls[1] or perf_counter() - started + pair_s <= seconds:
        pair_started = perf_counter()
        # alternate which side goes first, so drift hits both alike
        order = (1, None) if len(walls[1]) % 2 == 0 else (None, 1)
        for workers in order:
            rep = workloads.run_rep(inputs, workers)
            kind = "serial" if workers == 1 else "pool"
            # gate at once, so memory does not grow with the number of reps;
            # serialising every report would cost more than the closed-form
            # reps, so bytes are compared on the first serial/pooled pair only
            outcome.check(rep, f"{kind} rep {len(walls[workers])}",
                          compare_bytes=not walls[workers])
            walls[workers].append(rep.wall_s)
            if workers == 1:
                op_s += rep.op_s
        pair_s = perf_counter() - pair_started
    n_ops = len(op_s)
    # the highest percentile with at least ten samples beyond it
    if n_ops > 10:
        q_max = 1.0 - 10.0 / n_ops
        value = sorted(op_s)[min(n_ops - 1, int(q_max * n_ops))]
        print(f"note: operation latency p{100 * q_max:.0f} = {1000 * value:.3f} ms "
              f"over {n_ops} operations")
    else:
        print(f"note: {n_ops} operation latencies; no percentile above the median "
              "has ten samples beyond it")
    print(f"note: {len(walls[1])} serial and {len(walls[None])} pooled repetitions")
    return {
        "wall_s": (statistics.median(walls[1]), "s"),
        "wall_s_pool": (statistics.median(walls[None]), "s"),
        "query_ms_p50": (1000.0 * statistics.median(op_s), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(inputs, outcome: Outcome) -> dict:
    import gate
    import tracing
    import workloads

    serial = workloads.run_rep(inputs, 1)
    outcome.check(serial, "serial rep")
    pooled = workloads.run_rep(inputs, None)
    outcome.check(pooled, "pool rep")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = workloads.run_rep(inputs, 1, tracer)
        for report in traced.reports:     # the serialisation users pay for
            gate.report_bytes(report)
    finally:
        patches.undo()
    outcome.check(traced, "traced rep")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{inputs.workload}-seed{inputs.seed}.json"
    tracer.write(path)
    print(f"note: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    metrics = tracing.layer_metrics(tracer)
    metrics["suites.pool_child_cpu_s"] = (pooled.child_cpu_s, "s")
    metrics["suites.pool_efficiency"] = (
        serial.wall_s / (outcome.pool_workers * pooled.wall_s), "ratio")
    metrics["trace.overhead_share"] = ((traced.wall_s - serial.wall_s) / serial.wall_s,
                                       "ratio")
    metrics["repo.src_lines"] = (src_lines(), "lines")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _load_library()
    import workloads
    from sphertrans import suites

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    inputs = workloads.make_inputs(args.workload, args.seed)
    pool_workers = suites.resolve_workers(None)
    print(_environment(pool_workers))
    outcome = Outcome(inputs, pool_workers)
    if args.trace:
        metrics = traced_run(inputs, outcome)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics = {"setup_s": (setup_s, "s"), **timed_run(inputs, args.seconds, outcome)}
    metrics["fail_share"] = (outcome.fail_share(), "ratio")

    for miss in outcome.misses:
        print(f"GATE: {miss}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not outcome.misses,
        "attempted": outcome.attempted,
        "failed": len(outcome.misses),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _declared_metrics(section: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
