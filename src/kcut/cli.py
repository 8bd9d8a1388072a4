"""Command-line interface: solve, oracle, gen, bench.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 solver invariant
violation, 4 benchmark disagreement.  KCUT_LOG={error|info|debug} controls
stage logging.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time

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
from .suites import get_suite

log = logging.getLogger("kcut")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3
EXIT_DISAGREEMENT = 4


def _setup_logging() -> None:
    level = os.environ.get("KCUT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )


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
    cfg = PipelineConfig(t=args.t, trial_cap=args.trial_cap, seed=args.seed,
                         force_branch=args.force_branch)
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
        "seed": None,
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


def cmd_bench(args) -> int:
    rows = get_suite(args.suite, args.seed)
    cfg = PipelineConfig(seed=args.seed, trial_cap=args.trial_cap)
    out_rows = []
    any_disagree = False
    for idx, row in enumerate(rows):
        log.info("bench row %d: %s (n=%d, k=%d)", idx, row.name,
                 row.graph.n, row.k)
        t0 = time.perf_counter()
        report = min_kcut(row.graph, row.k, cfg)
        elapsed = time.perf_counter() - t0
        # Agreement is recomputed from the raw graph, never trusted from
        # either solver's self-reported value.
        pipeline_value = cut_value(row.graph, report.cut)
        agree = None
        if row.oracle_value is not None:
            agree = pipeline_value == row.oracle_value
            if not agree:
                any_disagree = True
        out_rows.append({
            "row": idx,
            "name": row.name,
            "n": row.graph.n,
            "m": len(row.graph.edges),
            "k": row.k,
            "branch": report.branch,
            "pipeline_value": pipeline_value,
            "oracle_value": row.oracle_value,
            "agree": agree,
            "fallback": report.fallback,
            "seconds": round(elapsed, 4),
        })

    fields = ["row", "name", "n", "m", "k", "branch", "pipeline_value",
              "oracle_value", "agree", "fallback", "seconds"]
    writer = csv.DictWriter(sys.stdout, fieldnames=fields)
    writer.writeheader()
    for r in out_rows:
        writer.writerow(r)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump({"suite": args.suite, "seed": args.seed,
                           "rows": out_rows}, fh, indent=2)
        except OSError as exc:
            raise _IOFailure(f"cannot write {args.out}: {exc}")
    return EXIT_DISAGREEMENT if any_disagree else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcut", description="minimum k-cut solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full pipeline")
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--seed", type=int, default=0,
                         help="reported in the output; the solver is deterministic")
    p_solve.add_argument("--force-branch", choices=["exact", "sparsify"],
                         default=None)
    p_solve.add_argument("--trial-cap", type=int, default=100_000,
                         help="the most candidates a border round keeps")
    p_solve.add_argument("--t", type=int, default=2)
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

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True,
                         choices=["small", "planted", "stress"])
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="JSON output path")
    p_bench.add_argument("--trial-cap", type=int, default=100_000)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _setup_logging()
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
