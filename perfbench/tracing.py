"""Per-layer tracing from outside the solver.

Each traced layer is a public kcut function, replaced for the duration of a
traced run at the module attribute it is called through (``kcut.pipeline``
imports its layers by name, so those names are patched in ``kcut.pipeline``;
calls made inside a layer are patched in that layer's module).  Spans and
counters are kept in memory and summarised or written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from kcut.islands import STRASSEN_THRESHOLD


def _count_sparsify(c, args, kwargs, result):
    c["sparsify.edges_in"] += len(args[0].edges)
    c["sparsify.edges_out"] += len(result.edges)


def _count_partition(c, args, kwargs, result):
    c["partition.q_over_n_sum"] += len(result[0].blocks) / args[0].n


def _count_borders(c, args, kwargs, result):
    c["borders.trials"] += args[1].trials
    c["borders.candidates"] += len(result)


def _count_matmul(c, args, kwargs, result):
    a, b = args[0], args[1]
    threshold = args[2] if len(args) > 2 else kwargs.get("strassen_threshold",
                                                         STRASSEN_THRESHOLD)
    n, m, p = a.shape[0], a.shape[1], b.shape[1]
    c["islands.matmul_ops"] += n * m * p
    if max(n, m, p) >= threshold:
        c["islands.matmul_strassen_calls"] += 1


# (module, attribute, span name, counter hook).  sv_2approx is bound in two
# modules: the pipeline's approximation and the exact branch's incumbent.
PATCHES = [
    ("kcut.pipeline", "sv_2approx", "approx", None),
    ("kcut.oracle", "sv_2approx", "approx", None),
    ("kcut.oracle", "stoer_wagner_mincut", "approx.sw", None),
    ("kcut.pipeline", "exact_min_kcut", "exact", None),
    ("kcut.pipeline", "kt_partition", "partition", _count_partition),
    ("kcut.partition", "ni_sparsify", "sparsify", _count_sparsify),
    ("kcut.partition", "regularize", "partition.regularize", None),
    ("kcut.partition", "expander_decompose", "partition.decompose", None),
    ("kcut.partition", "trim", "partition.trim", None),
    ("kcut.partition", "shave", "partition.shave", None),
    ("kcut.partition", "shatter", "partition.shatter", None),
    ("kcut.pipeline", "contract", "contract", None),
    ("kcut.pipeline", "enumerate_borders", "borders", _count_borders),
    ("kcut.borders", "contract_random", "borders.contract", None),
    ("kcut.pipeline", "extend_border", "islands.extend", None),
    ("kcut.islands", "solve_r_island", "islands.solve", None),
    ("kcut.islands", "matmul", "islands.matmul", _count_matmul),
]


class Tracer:
    """Spans (name, start, end, parent index, solve id) and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.solve_id = -1
        self.scales: list = []      # machine-speed factor per solve id
        self._stack: list = []
        self._saved: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.solve_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        for module, attr, name, count in PATCHES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, count))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False


def layer_metrics(tracer: Tracer, solves: int, sparsify_solves: int,
                  fallback_solves: int) -> dict:
    """Per-layer figures per traced solve, from the spans and counters; span
    times are rescaled by their solve's machine-speed factor."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, parent, solve in tracer.spans:
        dt = (end - start) * tracer.scales[solve]
        total[name] += dt
        self_time[name] += dt
        calls[name] += 1
        if parent >= 0:
            self_time[tracer.spans[parent][0]] -= dt
    c = tracer.counters
    per = 1.0 / solves

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "solve.s": total["solve"] * per,
        "approx.s": total["approx"] * per,
        "approx.sw_calls": calls["approx.sw"] * per,
        "approx.sw_s": total["approx.sw"] * per,
        "exact.s": total["exact"] * per,
        "exact.calls": calls["exact"] * per,
        "sparsify.s": total["sparsify"] * per,
        "sparsify.edges_kept_frac": ratio(c["sparsify.edges_out"], c["sparsify.edges_in"]),
        "partition.s": total["partition"] * per,
        "partition.regularize_s": total["partition.regularize"] * per,
        "partition.decompose_s": total["partition.decompose"] * per,
        "partition.trim_s": total["partition.trim"] * per,
        "partition.shave_s": total["partition.shave"] * per,
        "partition.shatter_s": total["partition.shatter"] * per,
        "partition.self_s": self_time["partition"] * per,
        "partition.q_over_n": ratio(c["partition.q_over_n_sum"], calls["partition"]),
        "contract.s": total["contract"] * per,
        "borders.s": total["borders"] * per,
        "borders.trials": c["borders.trials"] * per,
        "borders.contract_calls": calls["borders.contract"] * per,
        "borders.contract_s": total["borders.contract"] * per,
        "borders.label_s": self_time["borders"] * per,
        "borders.candidates": c["borders.candidates"] * per,
        "borders.candidates_per_trial": ratio(c["borders.candidates"], c["borders.trials"]),
        "islands.extend_s": total["islands.extend"] * per,
        "islands.extend_calls": calls["islands.extend"] * per,
        "islands.solve_calls": calls["islands.solve"] * per,
        "islands.solve_s": total["islands.solve"] * per,
        "islands.matmul_calls": calls["islands.matmul"] * per,
        "islands.matmul_strassen_calls": c["islands.matmul_strassen_calls"] * per,
        "islands.matmul_s": total["islands.matmul"] * per,
        "islands.matmul_ops": c["islands.matmul_ops"] * per,
        "pipeline.self_s": self_time["solve"] * per,
        "pipeline.floor_frac": ratio(fallback_solves, sparsify_solves),
    }


LAYER_UNITS = {
    "sparsify.edges_kept_frac": "frac",
    "partition.q_over_n": "frac",
    "borders.candidates_per_trial": "frac",
    "pipeline.floor_frac": "frac",
    "islands.matmul_ops": "madd/solve",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s/solve" if name.endswith((".s", "_s")) else "count/solve"
