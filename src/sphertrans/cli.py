"""Command-line front end.

Subcommands: compute, norms, classify, verify, fuzz.  Exit codes:
0 success / all checks pass, 1 verification failures, 2 I/O or parse
errors, 3 invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import transforms
from .errors import InvalidParameterError, InvalidPError, SphertransError
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
from .reports import write_report
from .suites import (
    SUITE_NAMES,
    INEQUALITIES,
    SuiteConfig,
    default_trials,
    fuzz_inequality,
    run_suite,
)
from .tupledoc import TupleDocumentError, read_tuple, write_tuple

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_IO = 2
EXIT_PARAMS = 3

TRANSFORMS = ("duggal", "aluthge", "gen-aluthge", "heinz", "mean", "lambda-mean")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphertrans",
        description="Spherical transforms, joint norms and verification suites "
                    "for matrix tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="apply a spherical transform")
    p_compute.add_argument("--input", required=True)
    p_compute.add_argument("--output", required=True)
    p_compute.add_argument("--transform", required=True, choices=TRANSFORMS)
    p_compute.add_argument("--t", type=float, default=None,
                           help="exponent for gen-aluthge / heinz")
    p_compute.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="weight for lambda-mean")

    p_norms = sub.add_parser("norms", help="report all norms and radii")
    p_norms.add_argument("--input", required=True)
    p_norms.add_argument("--p", action="append", type=float, default=None,
                         help="Schatten exponent, repeatable (default: 2)")
    p_norms.add_argument("--format", choices=("json", "csv", "table"),
                         default="table")

    p_classify = sub.add_parser("classify", help="structural classification")
    p_classify.add_argument("--input", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--dmax", type=int, default=4)
    p_verify.add_argument("--nmax", type=int, default=6)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--report", default=None,
                          help="write JSON report(s); for --suite all a "
                               "suffix per suite is appended")
    p_verify.add_argument("--workers", type=int, default=None)

    p_fuzz = sub.add_parser("fuzz", help="minimum-slack search for one inequality")
    p_fuzz.add_argument("--inequality-id", required=True)
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=42)
    p_fuzz.add_argument("--ensemble", default=None,
                        choices=("ginibre", "nilpotent", "contraction"))
    p_fuzz.add_argument("--dmax", type=int, default=4)
    p_fuzz.add_argument("--nmax", type=int, default=6)
    p_fuzz.add_argument("--witness", default=None,
                        help="path for the minimum-slack witness tuple")
    p_fuzz.add_argument("--workers", type=int, default=None)
    return parser


def _load_tuple(path):
    try:
        return read_tuple(path)
    except (OSError, TupleDocumentError) as exc:
        print(f"error: cannot read tuple from {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _cmd_compute(args) -> int:
    doc = _load_tuple(args.input)
    name = args.transform
    try:
        if name == "duggal":
            out = transforms.duggal(doc.tuple)
        elif name == "aluthge":
            out = transforms.aluthge(doc.tuple)
        elif name == "mean":
            out = transforms.mean_transform(doc.tuple)
        elif name == "gen-aluthge":
            if args.t is None:
                print("error: --t is required for gen-aluthge", file=sys.stderr)
                return EXIT_PARAMS
            out = transforms.generalized_aluthge(doc.tuple, args.t)
        elif name == "heinz":
            if args.t is None:
                print("error: --t is required for heinz", file=sys.stderr)
                return EXIT_PARAMS
            out = transforms.heinz(doc.tuple, args.t)
        else:
            if args.lam is None:
                print("error: --lambda is required for lambda-mean", file=sys.stderr)
                return EXIT_PARAMS
            out = transforms.lambda_mean(doc.tuple, args.lam)
    except (InvalidParameterError, InvalidPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        write_tuple(args.output, out, name=f"{doc.name}.{name}")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
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
            print(f"error: --p {p} must be >= 1", file=sys.stderr)
            return EXIT_PARAMS
    rows = _norm_rows(doc.tuple, p_list)
    if args.format == "json":
        print(json.dumps({k: v for k, v in rows}, indent=1, sort_keys=True))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["quantity", "value"])
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
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
    all_ok = True
    for name in suites:
        cfg = SuiteConfig(
            trials=args.trials if args.trials is not None else default_trials(name),
            seed=args.seed,
            tol=args.tol,
            opt_tol=max(args.tol, 1e-6),
            dmax=args.dmax,
            nmax=args.nmax,
            workers=args.workers,
        )
        report = run_suite(name, cfg)
        _print_suite_summary(report)
        if args.report:
            path = args.report
            if len(suites) > 1:
                path = f"{args.report.removesuffix('.json')}.{name}.json"
            try:
                write_report(report, path)
            except OSError as exc:
                print(f"error: cannot write report {path}: {exc}", file=sys.stderr)
                return EXIT_IO
        all_ok = all_ok and report.ok()
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def _cmd_fuzz(args) -> int:
    if args.inequality_id not in INEQUALITIES:
        known = ", ".join(sorted(INEQUALITIES))
        print(f"error: unknown inequality id {args.inequality_id!r}; known ids: {known}",
              file=sys.stderr)
        return EXIT_PARAMS
    cfg = SuiteConfig(
        trials=args.trials,
        seed=args.seed,
        dmax=args.dmax,
        nmax=args.nmax,
        ensemble=args.ensemble,
        workers=args.workers,
    )
    suite, records, witness, fingerprint = fuzz_inequality(args.inequality_id, cfg)
    import numpy as np

    slacks = np.array([r.slack for r in records])
    counts, edges = np.histogram(slacks, bins=20)
    out = {
        "inequality_id": args.inequality_id,
        "suite": suite,
        "trials": args.trials,
        "seed": args.seed,
        "records": len(records),
        "min_slack": float(slacks.min()),
        "max_slack": float(slacks.max()),
        "histogram": {
            "bin_edges": [float(e) for e in edges],
            "bin_counts": [int(c) for c in counts],
        },
        "witness_fingerprint": fingerprint,
    }
    if witness is not None and args.witness:
        try:
            write_tuple(args.witness, witness, name=f"witness.{args.inequality_id}")
        except OSError as exc:
            print(f"error: cannot write witness {args.witness}: {exc}", file=sys.stderr)
            return EXIT_IO
        out["witness_path"] = args.witness
    print(json.dumps(out, indent=1))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            code = _cmd_compute(args)
        elif args.command == "norms":
            code = _cmd_norms(args)
        elif args.command == "classify":
            code = _cmd_classify(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        else:
            code = _cmd_fuzz(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_IO
    except (InvalidParameterError, InvalidPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARAMS
    except SphertransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
