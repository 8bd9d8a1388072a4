"""Command-line interface: solve, oracle, gen.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 solver invariant
violation.
"""
from __future__ import annotations

import argparse
import json
import sys

from .generators import gen_instance
from .graph import (
    Graph,
    GraphError,
    InvalidCutError,
    ParseError,
    cut_value,
    graph_to_text,
    parse_graph,
)
from .oracle import SizeLimitError, brute_force_min_kcut
from .partition import KTInvariantError
from .pipeline import PipelineConfig, min_kcut

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}")
    try:
        return parse_graph(text)
    except ParseError as exc:
        raise _IOFailure(f"{path}: {exc}")


class _IOFailure(Exception):
    pass


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    cfg = PipelineConfig(trial_cap=args.trial_cap, force_branch=args.force_branch)
    report = min_kcut(g, args.k, cfg)
    # Independent re-validation before printing.
    recomputed = cut_value(g, report.cut)
    if recomputed != report.value:
        raise InvalidCutError(
            f"reported value {report.value} but the cut's value is {recomputed}")
    json.dump(report.to_dict(), sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    cut = brute_force_min_kcut(g, args.k)
    doc = {
        "k": args.k,
        "value": cut.value,
        "components": sorted(map(list, cut.parts())),
        "method": "oracle",
        "branch": None,
        "stats": {},
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_gen(args) -> int:
    params = {}
    for key in ("n", "p", "k", "size", "count", "bridges", "p_in", "p_out",
                "islands"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    try:
        g = gen_instance(args.kind, params, args.seed)
    except (KeyError, ValueError) as exc:
        print(f"error: invalid generator parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = graph_to_text(g)
    try:
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {args.out}: {exc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcut", description="minimum k-cut solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full pipeline")
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--force-branch", choices=["exact", "sparsify"],
                         default=None)
    p_solve.add_argument("--trial-cap", type=int, default=100_000,
                         help="the most candidates a border round keeps")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive reference solver")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a test instance")
    p_gen.add_argument("--kind", required=True,
                       choices=["gnp", "planted", "cycle", "cliques_bridge"])
    p_gen.add_argument("--out", required=True,
                       help="output path, or - for stdout")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--size", type=int)
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--bridges", type=int)
    p_gen.add_argument("--p-in", dest="p_in", type=float)
    p_gen.add_argument("--p-out", dest="p_out", type=float)
    p_gen.add_argument("--islands", type=int)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code.
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KTInvariantError, InvalidCutError) as exc:
        print(f"error: solver invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (GraphError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
