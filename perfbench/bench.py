"""Closed-loop benchmark of ``kcut.min_kcut``: one caller, one solve at a time.

A run sets the workload up three times (setup_s is the median; each setup is
timed per instance, so that calibration can follow the machine through it),
then solves its instances in order, round-robin, until ``--seconds`` have
passed and each has been solved at least once, checking every answer.  Each
solve starts after a garbage collection and gets a fresh ``Graph`` object, so
neither the last solve's garbage nor a cached graph property carries over
into it.
Times are rescaled to a nominal machine speed (see calibration.py); the raw
wall-clock figures are printed and saved alongside.

The time metrics are taken over per-instance medians, so that a run which
stops part-way through a pass, or solves one instance during a slow spell of
the machine, does not shift them:

- solve_p50_s: the mean of each instance's median solve time over the
  middle half of the instances, those between the p25 and the p75 (the
  interquartile mean).  Not the median itself: that is one instance's
  median, and followed that instance's few solves;
- solve_tail_s: the mean of the same values over the slowest quarter of the
  instances, those at or above the p75 (the printed line gives how many
  instances and solves that is).  A mean over the quarter, not the p75
  itself: the p75 of ten values lies between two instances and followed
  whichever of them came out slower in the run;
- solves_per_s: instances divided by the sum of their median solve times,
  that is, the rate of one pass over the workload.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced solve of each instance, reports the per-layer metrics
of the traced ones and the tracing overhead, and writes the spans.  Every
result is also written, with the environment, under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

import networkx
import numpy

import kcut
from kcut import Graph
import instances
import tracing
from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "solve_p50_s": "s", "solve_tail_s": "s",
             "solves_per_s": "1/s", "failed_frac": "frac", "peak_rss_mb": "MB"}


def environment(workload: str, seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kcut").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Loop:
    """Solve-and-check bookkeeping shared by the untraced and traced loops."""

    def __init__(self, insts: list, pinned: dict, solve):
        self.insts = insts
        self.pinned = pinned
        self.solve = solve
        self.times: list = []       # rescaled to nominal machine speed
        self.raw_times: list = []
        self.failures: list = []
        self.attempted = 0
        self.branches: Counter = Counter()
        self.fallbacks = 0
        self.per_instance: dict = {inst.name: [] for inst in insts}

    def run_one(self, inst, tracer=None) -> float:
        g = Graph(n=inst.graph.n, edges=inst.graph.edges, simple=inst.graph.simple)
        self.attempted += 1
        gc.collect()    # the last solve's garbage is not this solve's work
        reason = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = self.solve(g, inst.k, inst.cfg)
            else:
                with tracer:
                    idx = tracer.open("solve")
                    try:
                        report = self.solve(g, inst.k, inst.cfg)
                    finally:
                        tracer.close(idx)
        except Exception as exc:  # a raising solve is a failed operation
            report = None
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if report is not None:
            reason = instances.check(inst, report, self.pinned.get(inst.name))
            if tracer is not None:
                self.branches[report.branch] += 1
                self.fallbacks += report.branch == "sparsify" and report.fallback
        if reason is not None:
            self.failures.append(f"{inst.name}: {reason}")
        return elapsed

    def _schedule(self, seconds: float):
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(self.insts) or time.perf_counter() < deadline:
            yield self.insts[i % len(self.insts)]
            i += 1

    def untraced(self, seconds: float) -> None:
        clock = Calibration()
        order = []
        for inst in self._schedule(seconds):
            self.raw_times.append(self.run_one(inst))
            order.append(inst.name)
            clock.mark()
        self.times = [dt * f for dt, f in zip(self.raw_times, clock.factors())]
        for name, dt in zip(order, self.times):
            self.per_instance[name].append(dt)
        self.log = {"order": order, "raw_s": self.raw_times,
                    "reference_s": clock.samples}

    def traced(self, seconds: float, tracer) -> tuple:
        """Alternate untraced and traced solves of each instance; returns the
        summed untraced and traced times and the number of pairs."""
        clock = Calibration()
        plain = traced = 0.0
        for inst in self._schedule(seconds):
            plain += self.run_one(inst)
            tracer.solve_id += 1
            traced += self.run_one(inst, tracer)
            clock.mark()
        tracer.scales = clock.factors()
        return plain, traced, len(tracer.scales)


def middle(times: list) -> float:
    """Mean of the values of ``times`` between its p25 and p75, both
    interpolated between order statistics (the interquartile mean)."""
    if len(times) < 2:
        return times[0]
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return statistics.mean([t for t in times if q1 <= t <= q3])


def tail(times: list) -> tuple:
    """(mean of the values of ``times`` at or above its p75, how many there
    are); the p75 is interpolated between order statistics."""
    if len(times) < 2:
        return times[0], 1
    p75 = statistics.quantiles(times, n=4, method="inclusive")[2]
    slow = [t for t in times if t >= p75]
    return statistics.mean(slow), len(slow)


def pinned_values(workload: str, changed: list, reference: dict) -> dict:
    """Pinned best-known values, keyed by instance name, of the instances whose
    generator output still matches its pinned fingerprint.  A relabelling
    keeps every cut value, so they hold for every seed."""
    pins = reference.get(workload, {})
    return {name: pin["value"] for name, pin in pins.items() if name not in changed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, solve=kcut.min_kcut) -> dict:
    """One benchmark run; returns the full result (metrics and details)."""
    changed = []
    reference = {}
    if not tiny:
        reference = instances.load_reference()
        changed = instances.changed_instances(workload, reference)
    pieces = []     # (setup number, raw seconds) per timed piece of work
    clock = Calibration()
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        insts = instances.generate(workload, seed, tiny)
        pieces.append((rep, time.perf_counter() - t0))
        clock.mark()
        for inst in insts:
            t0 = time.perf_counter()
            instances.certify(inst)
            pieces.append((rep, time.perf_counter() - t0))
            clock.mark()
    setup_times = [0.0] * SETUP_REPEATS
    for (rep, dt), f in zip(pieces, clock.factors()):
        setup_times[rep] += dt * f
    loop = Loop(insts, pinned_values(workload, changed, reference), solve)

    details: dict = {"changed_instances": changed, "setup_times_s": setup_times}
    if trace:
        tracer = tracing.Tracer()
        plain, traced, pairs = loop.traced(seconds, tracer)
        metrics = tracing.layer_metrics(
            tracer, pairs, loop.branches["sparsify"], loop.fallbacks)
        metrics = {k: {"value": v, "unit": tracing.layer_unit(k)} for k, v in metrics.items()}
        details.update({
            "traced_solves": pairs,
            "trace_overhead_frac": traced / plain - 1 if plain else 0.0,
            "branches": dict(loop.branches),
        })
        details["tracer"] = tracer
    else:
        loop.untraced(seconds)
        medians = {name: statistics.median(ts) for name, ts in loop.per_instance.items()}
        tail_value, slow = tail(list(medians.values()))
        slower = sorted(medians, key=medians.get)[-slow:]
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_p50_s": middle(list(medians.values())),
            "solve_tail_s": tail_value,
            "solves_per_s": len(medians) / sum(medians.values()),
            "failed_frac": len(loop.failures) / loop.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        details.update({
            "solves": len(loop.times),
            "instances": len(medians),
            "instances_in_tail": slow,
            "solves_in_tail": sum(len(loop.per_instance[name]) for name in slower),
            "raw_solve_p50_s": statistics.median(loop.raw_times),
            "raw_solves_per_s": len(loop.raw_times) / sum(loop.raw_times),
            "per_instance_median_s": medians,
            "solve_log": loop.log,
        })
    details["failures"] = loop.failures[:50]
    return {
        "correct": not loop.failures and not changed,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
        "details": details,
    }


def result_line(result: dict) -> dict:
    """The last line of a run's output.  failed_frac is printed above it but
    left out here: it is 0 on a healthy run, and the line's own ``failed``
    and ``attempted`` carry the same count."""
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v for k, v in result["metrics"].items() if k != "failed_frac"}}


def _write_outputs(result: dict, env: dict, trace: bool) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{int(trace)}"
    details = dict(result["details"])
    tracer = details.pop("tracer", None)
    record = {"env": env, "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": result["metrics"], "details": details}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        spans = {"fields": ["name", "start", "end", "parent", "solve"],
                 "spans": tracer.spans, "counters": dict(tracer.counters)}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment(args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _write_outputs(result, env, bool(args.trace))

    details = result["details"]
    print("env " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"{args.workload} trace_overhead_frac = {details['trace_overhead_frac']:.4f} "
              f"over {details['traced_solves']} traced solves; branches {details['branches']}")
    else:
        print(f"{args.workload} {details['solves']} solves of {details['instances']} "
              f"instances; solve_tail_s is the mean of the instance medians at or "
              f"above their p75, over {details['instances_in_tail']} instances and "
              f"{details['solves_in_tail']} solves; raw wall clock: solve_p50_s = "
              f"{details['raw_solve_p50_s']:.6g} s, solves_per_s = "
              f"{details['raw_solves_per_s']:.6g} 1/s")
    for name in details["changed_instances"]:
        print(f"changed workload: instance {name} differs from its pinned fingerprint")
    for line in details["failures"]:
        print(f"FAILED {line}")
    print(json.dumps(result_line(result)))
    return 0
