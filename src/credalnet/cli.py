"""Batch command-line interface.

Subcommands: ``validate``, ``infer``, ``adsep``, ``vertices``, ``trace``.
Output is line-oriented, one key=value pair per line, stable across runs.
``validate`` lists every issue of a network file; ``infer --lp-dump``
also writes the global program of the query's gamble, in the text form
of :meth:`credalnet.lp.GlobalPolytope.dump`.
Exit codes: 0 success, 1 convergence failure or a reader that closed
standard output (a broken pipe, which prints nothing), 2 validation
error, 3 capability error, 4 hypothesis error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import decompose, fileio, graph, lp, queries
from .errors import (CapabilityError, CredalError, HypothesisError,
                     InputError, ModelError)

EXIT_VALIDATION = 2
EXIT_CAPABILITY = 3
EXIT_HYPOTHESIS = 4
#: the exit code of each kind of error; any other exits with 1
EXIT_CODES = (((InputError, ModelError, OSError), EXIT_VALIDATION),
              (CapabilityError, EXIT_CAPABILITY),
              (HypothesisError, EXIT_HYPOTHESIS))


def _emit(pairs) -> None:
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        print(f"{key}={value}")


def _cmd_validate(args) -> int:
    report = fileio.validate_document(fileio.read_json(args.net))
    if report.ok:
        _emit([("valid", True), ("issues", 0)])
        return 0
    _emit([("valid", False), ("issues", len(report.issues))])
    for i, issue in enumerate(report.issues):
        print(f"issue{i}={issue}")
    return EXIT_VALIDATION


def _cmd_infer(args) -> int:
    net = fileio.load_network(args.net)
    query = fileio.load_query(net, args.query)
    if args.lp_dump:
        text = lp.GlobalPolytope(net).dump(query.target)
        with open(args.lp_dump, "w", encoding="utf-8") as fh:
            fh.write(text)
    result = queries.run_query(net, query)
    _emit(sorted(result.items()))
    return 0


def _cmd_trace(args) -> int:
    net = fileio.load_network(args.net)
    query = fileio.load_query(net, args.query)
    trace: list = []
    result = queries.run_query(net, query, trace=trace)
    _emit(sorted(result.items()))
    sys.stdout.write(decompose.trace_lines(trace))
    return 0


def _parse_node_set(spec: str) -> tuple:
    # the separation tests check the names, in this order
    return tuple(s for s in spec.split(",") if s)


def _cmd_adsep(args) -> int:
    net = fileio.load_network(args.net)
    I = _parse_node_set(args.I)
    S = _parse_node_set(args.S)
    C = _parse_node_set(args.C)
    _emit([
        ("AD(I,S|C)", graph.ad_separated(net.dag, I, S, C)),
        ("AD(S,I|C)", graph.ad_separated(net.dag, S, I, C)),
        ("d(I,S|C)", graph.d_separated(net.dag, I, S, C)),
        ("d(S,I|C)", graph.d_separated(net.dag, S, I, C)),
    ])
    return 0


def _cmd_vertices(args) -> int:
    net = fileio.load_network(args.net)
    points = lp.enumerate_joint_extreme_points(net)
    _emit([("states", " ".join(",".join(t) for t in points[0].states)),
           ("count", len(points))])
    for i, p in enumerate(points):
        print(f"vertex{i}=" + " ".join(repr(x) for x in p.probs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credalnet",
        description="Exact inference in credal networks under epistemic "
                    "irrelevance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a network file")
    p.add_argument("net")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("infer", help="run a query file against a network")
    p.add_argument("net")
    p.add_argument("query")
    p.add_argument("--lp-dump", metavar="PATH",
                   help="write the global program in text form")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("adsep", help="AD- and d-separation verdicts")
    p.add_argument("net")
    p.add_argument("I", help="comma-separated node list")
    p.add_argument("S", help="comma-separated node list")
    p.add_argument("C", help="comma-separated node list")
    p.set_defaults(func=_cmd_adsep)

    p = sub.add_parser("vertices", help="extreme points of the global "
                                        "polytope (desk scale)")
    p.add_argument("net")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("trace", help="run a query and print the reduction "
                                     "audit log")
    p.add_argument("net")
    p.add_argument("query")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # print nothing more: the flush at exit writes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CredalError, OSError) as e:
        print(f"error={e}", file=sys.stderr)
        return next((c for kind, c in EXIT_CODES if isinstance(e, kind)), 1)


if __name__ == "__main__":
    sys.exit(main())
