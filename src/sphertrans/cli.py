"""Command-line front end.

Subcommands: compute, norms, classify, verify, fuzz.  verify is the one
way to run the verification suites, and --workers the one way to set
their worker count (default: the CPU count).  verify and fuzz check
their parameters, and that their output paths can be written, before
any trial runs.  Handlers raise; main alone prints the error and maps
it to its exit code: 0 success / all checks pass, 1 verification
failures, 2 I/O, parse and library errors, 3 invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import transforms
from .ensembles import ENSEMBLES
from .errors import InvalidParameterError, SphertransError
from .norms import (
    euclidean_norm,
    hypo_norm,
    joint_numerical_radius,
    schatten_hypo_norm,
    schatten_numerical_radius,
    schatten_spherical_norm,
    spherical_norm,
)
from .predicates import classify
from .reports import slack_histogram, write_report
from .suites import (
    SUITE_NAMES,
    SuiteConfig,
    check_config,
    default_trials,
    fuzz_inequality,
    run_suite,
    table_row,
)
from .tupledoc import TupleDocumentError, read_tuple, write_tuple

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_IO = 2
EXIT_PARAMS = 3

# compute's transforms: name -> (function of the tuple, the option it needs or None)
TRANSFORMS = {
    "duggal": (transforms.duggal, None),
    "aluthge": (transforms.aluthge, None),
    "gen-aluthge": (transforms.generalized_aluthge, "t"),
    "heinz": (transforms.heinz, "t"),
    "mean": (transforms.mean_transform, None),
    "lambda-mean": (transforms.lambda_mean, "lambda"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphertrans",
        description="Spherical transforms, joint norms and verification suites "
                    "for matrix tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="apply a spherical transform")
    p_compute.set_defaults(run=_cmd_compute)
    p_compute.add_argument("--input", required=True)
    p_compute.add_argument("--output", required=True)
    p_compute.add_argument("--transform", required=True, choices=tuple(TRANSFORMS))
    p_compute.add_argument("--t", type=float, default=None,
                           help="exponent for gen-aluthge / heinz")
    p_compute.add_argument("--lambda", type=float, default=None, metavar="LAM",
                           help="weight for lambda-mean")

    p_norms = sub.add_parser("norms", help="report all norms and radii")
    p_norms.set_defaults(run=_cmd_norms)
    p_norms.add_argument("--input", required=True)
    p_norms.add_argument("--p", action="append", type=float, default=None,
                         help="Schatten exponent, repeatable (default: 2)")
    p_norms.add_argument("--format", choices=("json", "csv", "table"),
                         default="table")

    p_classify = sub.add_parser("classify", help="structural classification")
    p_classify.set_defaults(run=_cmd_classify)
    p_classify.add_argument("--input", required=True)

    suite_options = argparse.ArgumentParser(add_help=False)
    suite_options.add_argument("--seed", type=int, default=SuiteConfig.seed)
    suite_options.add_argument("--dmax", type=int, default=SuiteConfig.dmax)
    suite_options.add_argument("--nmax", type=int, default=SuiteConfig.nmax)
    suite_options.add_argument("--workers", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run verification suites",
                              parents=[suite_options])
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--suite", default="all",
                          choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=SuiteConfig.tol)
    p_verify.add_argument("--report", default=None,
                          help="write JSON report(s); for --suite all a "
                               "suffix per suite is appended")

    p_fuzz = sub.add_parser("fuzz", help="minimum-slack search for one inequality",
                            parents=[suite_options])
    p_fuzz.set_defaults(run=_cmd_fuzz)
    p_fuzz.add_argument("--inequality-id", required=True)
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--ensemble", default=None, choices=ENSEMBLES,
                        help="force the tuple ensemble of an s2, s3 or s4 row")
    p_fuzz.add_argument("--witness", default=None,
                        help="path for the minimum-slack witness tuple")
    return parser


def _suite_config(args, **fields) -> SuiteConfig:
    return SuiteConfig(seed=args.seed, dmax=args.dmax, nmax=args.nmax,
                       workers=args.workers, **fields)


def _load_tuple(path):
    try:
        return read_tuple(path)
    except (OSError, TupleDocumentError) as exc:
        raise SphertransError(f"cannot read tuple from {path}: {exc}") from exc


def _check_output(path, what: str) -> None:
    """Raise SphertransError unless path can be written: its directory is
    made, and the file is opened for appending, which truncates nothing,
    and removed again if the check made it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SphertransError(f"cannot create the directory of {path}: {exc}") from exc
    existed = path.exists()
    try:
        open(path, "a").close()
        if not existed:
            path.unlink()
    except OSError as exc:
        raise SphertransError(f"cannot write {what} {path}: {exc}") from exc


def _cmd_compute(args) -> int:
    doc = _load_tuple(args.input)
    name = args.transform
    fn, option = TRANSFORMS[name]
    params = () if option is None else (getattr(args, option),)
    if None in params:
        raise InvalidParameterError(f"--{option} is required for {name}")
    out = fn(doc.tuple, *params)
    write_tuple(args.output, out, name=f"{doc.name}.{name}")
    return EXIT_OK


def _norm_rows(t, p_list):
    rows = [
        ("spherical_norm", spherical_norm(t)),
        ("euclidean_norm", euclidean_norm(t)),
        ("hypo_norm", hypo_norm(t).value),
        ("joint_numerical_radius", joint_numerical_radius(t).value),
    ]
    for p in p_list:
        rows.append((f"schatten_spherical_norm[p={p:g}]", schatten_spherical_norm(t, p)))
        rows.append((f"schatten_hypo_norm[p={p:g}]", schatten_hypo_norm(t, p).value))
        rows.append((f"schatten_numerical_radius[p={p:g}]",
                     schatten_numerical_radius(t, p).value))
    return rows


def _cmd_norms(args) -> int:
    doc = _load_tuple(args.input)
    p_list = args.p if args.p else [2.0]
    for p in p_list:
        if not p >= 1.0:
            raise InvalidParameterError(f"--p {p} must be >= 1")
    rows = _norm_rows(doc.tuple, p_list)
    if args.format == "json":
        print(json.dumps({k: v for k, v in rows}, indent=1, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["quantity", "value"])
        writer.writerows(rows)
    else:
        width = max(len(k) for k, _ in rows)
        print(f"tuple: {doc.name} (d={doc.tuple.d}, n={doc.tuple.n})")
        for k, v in rows:
            print(f"  {k:<{width}}  {v:.12g}")
    return EXIT_OK


def _fmt_pred(res) -> str:
    return f"{str(res.flag):<5}  residual={res.residual:.3e}"


def _cmd_classify(args) -> int:
    doc = _load_tuple(args.input)
    c = classify(doc.tuple)
    print(f"tuple: {doc.name} (d={doc.tuple.d}, n={doc.tuple.n})  tol={c.tol:.3e}")
    print(f"  commuting                 {_fmt_pred(c.commuting)}")
    print(f"  normal                    {_fmt_pred(c.normal)}")
    print(f"  spherically quasinormal   {_fmt_pred(c.spherically_quasinormal)}")
    if c.spherically_quasinormal_block is not None:
        print(f"  (block-matrix route)      {_fmt_pred(c.spherically_quasinormal_block)}")
    print(f"  jointly hyponormal        {_fmt_pred(c.jointly_hyponormal)}")
    print(f"  square zero               {_fmt_pred(c.square_zero)}")
    proxy = c.taylor_proxy
    print(
        f"  defect invertible         {str(proxy.flag):<5}  "
        f"min eigenvalue={proxy.min_defect_eigenvalue:.3e}  [{proxy.note}]"
    )
    for i in range(doc.tuple.d):
        print(
            f"  coordinate {i}: normal={c.coordinate_normal[i].flag} "
            f"quasinormal={c.coordinate_quasinormal[i].flag} "
            f"hyponormal={c.coordinate_hyponormal[i].flag}"
        )
    return EXIT_OK


def _print_suite_summary(report) -> None:
    print(f"suite {report.suite}: trials={report.trials} seed={report.seed} "
          f"wall={report.wall_time:.1f}s")
    for rid, entry in report.summary.items():
        mark = "ok " if entry["ok"] else "FAIL"
        extra = f" (required rate {entry['required_pass_rate']:.2f})" \
            if entry["required_pass_rate"] < 1.0 else ""
        print(
            f"  [{mark}] {rid}: {entry['passes']}/{entry['trials']} pass"
            f" ({entry['refined']} refined), min slack {entry['min_slack']:.3e}{extra}"
        )


def _cmd_verify(args) -> int:
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    runs = []
    for name in suites:
        trials = args.trials if args.trials is not None else default_trials(name)
        cfg = _suite_config(args, trials=trials, tol=args.tol)
        check_config(name, cfg)
        path = args.report
        if path and len(suites) > 1:
            path = f"{args.report.removesuffix('.json')}.{name}.json"
        runs.append((name, cfg, path))
    for _, _, path in runs:
        if path:
            _check_output(path, "report")
    all_ok = True
    for name, cfg, path in runs:
        report = run_suite(name, cfg)
        _print_suite_summary(report)
        if path:
            write_report(report, path)
        all_ok = all_ok and report.ok()
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def _cmd_fuzz(args) -> int:
    row = table_row(args.inequality_id)
    cfg = _suite_config(args, trials=args.trials, ensemble=args.ensemble)
    if args.witness:
        check_config(row.suite, cfg)
        _check_output(args.witness, "witness")
    report, records, witness, fingerprint = fuzz_inequality(args.inequality_id, cfg)
    slacks = np.array([r.slack for r in records])
    out = {
        "inequality_id": args.inequality_id,
        "suite": report.suite,
        "trials": report.trials,
        "seed": args.seed,
        "records": len(records),
        "min_slack": float(slacks.min()),
        "max_slack": float(slacks.max()),
        "histogram": slack_histogram(slacks),
        "witness_fingerprint": fingerprint,
    }
    if args.witness:
        write_tuple(args.witness, witness, name=f"witness.{args.inequality_id}")
        out["witness_path"] = args.witness
    print(json.dumps(out, indent=1))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except (OSError, SphertransError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
