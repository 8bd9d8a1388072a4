"""End-to-end minimum k-cut solver.

Branches on the 2-approximation value: small values, and values that the
root bound ceil(k * lambda / 2) already certifies optimal, go to the exact
solver (which then returns the 2-approximate cut at once); large ones go
through partition contraction, per-island-count border enumeration, and
island extension, with the 2-approximate cut always kept as a safety floor.
Round i lists the (k - i)-cuts of the contracted graph of value at most
floor(beta_i * lambda_bar) exactly (see ``borders``).  Island extension
is capped at the best value found so far, so it only searches for cuts that
could still replace it.  When the partition contracts nothing and round 0
is not truncated, that round listed every cheapest k-cut of the input
itself, and its first is the optimum with the smallest labels, which no
later round can beat: the rounds stop there.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .borders import BorderParams, enumerate_borders
from .graph import (Graph, GraphError, InvalidCutError, KCut, connected_components, contract,
                    weight_matrix)
from .islands import extend_border
from .oracle import (_zero_value_kcut, exact_min_kcut, kcut_lower_bound,
                     stoer_wagner_mincut, sv_2approx)
from .partition import kt_partition

_THRESHOLD_CONST = 10    # lambda_bar <= 10 * n^(1/3) sends a solve to the exact branch
# Search nodes per border round.  The benchmark's rounds expand at most 96
# and those of the 15 certified blown-up instances (tests/test_pipeline.py
# runs six) at most 18,431; at 200,000 the first forced-sparsify round of
# C_80, which has 82,160 3-cuts of value 3, stops after about 0.4 s on a
# 2-vCPU x86-64 VM.
NODE_BUDGET = 200_000


@dataclass(frozen=True)
class PipelineConfig:
    trial_cap: int = 100_000        # the most candidates a border round keeps
    force_branch: Optional[str] = None   # "exact" | "sparsify"

    def __post_init__(self):
        if self.trial_cap < 1:
            raise ValueError("trial_cap must be >= 1")
        if self.force_branch not in (None, "exact", "sparsify"):
            raise ValueError(f"unknown branch override {self.force_branch!r}")


@dataclass
class SolveReport:
    k: int
    value: int
    cut: KCut
    branch: str                      # disconnected | exact | sparsify
    fallback: bool
    lambda_bar: Optional[int]
    partition_stats: Optional[dict] = None
    border_stats: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "value": self.value,
            "components": sorted(map(list, self.cut.parts())),
            "method": "pipeline",
            "branch": self.branch,
            "fallback": self.fallback,
            "lambda_bar": self.lambda_bar,
            "stats": {
                "partition": self.partition_stats,
                "borders": self.border_stats,
                "timings": self.timings,
            },
        }


def min_kcut(g: Graph, k: int, cfg: PipelineConfig = PipelineConfig()) -> SolveReport:
    """Solve minimum k-cut on a simple graph; see module docstring.

    Unforced, the exact branch runs when lambda_bar <= 10 * n^(1/3) or
    when ceil(k * lambda / 2) >= lambda_bar, lambda being the global min cut
    that sv_2approx memoised on g; the second always holds at k = 2.  A
    forced branch runs whatever the bounds say.
    """
    if not g.simple:
        raise GraphError("the pipeline accepts simple graphs only")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    t0 = time.perf_counter()
    timings: dict = {}

    comps = connected_components(g)
    if len(comps.blocks) >= k:
        cut = _zero_value_kcut(g, k, comps)
        timings["total"] = time.perf_counter() - t0
        return SolveReport(k=k, value=0, cut=cut, branch="disconnected",
                           fallback=False, lambda_bar=None, timings=timings)

    # One weight matrix serves every layer; parts and hosts are its slices.
    w = weight_matrix(g)
    w.flags.writeable = False
    sv_cut = sv_2approx(g, k, w)
    lambda_bar = sv_cut.value
    timings["approx"] = time.perf_counter() - t0
    if lambda_bar < 1:  # zero-value cuts exited above
        raise InvalidCutError(f"2-approximation of a connected graph has value {lambda_bar}")
    lam = stoer_wagner_mincut(g)[0]   # memoised by sv_2approx

    threshold = _THRESHOLD_CONST * g.n ** (1 / 3)
    go_exact = cfg.force_branch == "exact" or (
        cfg.force_branch is None and (
            lambda_bar <= threshold
            or kcut_lower_bound(k, lam) >= lambda_bar))

    if go_exact:
        cut = exact_min_kcut(g, k, incumbent=sv_cut, w=w)
        timings["exact"] = time.perf_counter() - t0 - timings["approx"]
        timings["total"] = time.perf_counter() - t0
        return SolveReport(k=k, value=cut.value, cut=cut, branch="exact",
                           fallback=False, lambda_bar=lambda_bar, timings=timings)

    t1 = time.perf_counter()
    partition, kt_report = kt_partition(g, k, lambda_bar, w)
    gc, cmap = contract(g, partition)
    timings["kt"] = time.perf_counter() - t1

    # Every candidate has canonical labels: sv_2approx numbers its parts by
    # their least vertex, and extend_border canonicalizes its own.
    best_cut = sv_cut
    border_best: Optional[KCut] = None
    border_stats = []
    log2n = math.log2(g.n)
    t2 = time.perf_counter()
    for i in range(k):
        s = k - i
        beta = min(1.0, 1.0 - (1.0 - 2.0 / log2n) * i / k)
        # In round 0 a candidate is its own extension, and lifting keeps
        # the (value, labels) order of canonical labels, so no candidate can
        # beat the first: the round lists only its cheapest cuts, and extends
        # the first of them.
        params = BorderParams(s=s, trials=cfg.trial_cap, lam=lam,
                              budget=NODE_BUDGET, cheapest=i == 0)
        max_border = math.floor(beta * lambda_bar)
        candidates = enumerate_borders(gc, params, max_value=max_border)
        extended = 0
        for cand in candidates:
            if cand.value > best_cut.value:
                break
            # contract numbers blocks by their least vertex, so the gather
            # lifts a canonical labelling of gc to a canonical one of g.
            lifted = KCut.from_labels(g, tuple(cand.labels[c] for c in cmap), s)
            # Inclusive cap: an equal value with smaller labels still wins.
            ext = extend_border(g, lifted, i, max_value=best_cut.value, w=w)
            extended += 1
            if ext is None:
                continue
            if (ext.value, ext.labels) < (best_cut.value, best_cut.labels):
                best_cut = ext
            if border_best is None or ext.value < border_best.value:
                border_best = ext
            if i == 0:
                break
        border_stats.append({
            "i": i, "s": s, "beta": beta, "trials": cfg.trial_cap,
            "candidates": len(candidates), "extended": extended,
            "truncated": candidates.truncated,
        })
        if i == 0 and gc.n == g.n and not candidates.truncated:
            break   # round 0 listed every cheapest k-cut of g itself
    timings["borders"] = time.perf_counter() - t2
    timings["total"] = time.perf_counter() - t0

    fallback = border_best is None or border_best.value > sv_cut.value
    return SolveReport(k=k, value=best_cut.value, cut=best_cut, branch="sparsify",
                       fallback=fallback, lambda_bar=lambda_bar,
                       partition_stats=kt_report, border_stats=border_stats,
                       timings=timings)
