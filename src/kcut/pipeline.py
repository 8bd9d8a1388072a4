"""End-to-end minimum k-cut solver.

Branches on the 2-approximation value: small values, and values that the
root bound ceil(k * lambda / 2) already certifies optimal, go to the exact
solver (which then returns the 2-approximate cut at once); large ones go
through partition contraction, per-island-count border enumeration, and
island extension, with the 2-approximate cut always kept as a safety floor.
Round i lists the (k - i)-cuts of the contracted graph of value at most
floor(beta_i * lambda_bar) exactly (see ``borders``), so the result does
not depend on ``PipelineConfig.seed``.  Island extension is capped at the
best value found so far, so it only searches for cuts that could still
replace it.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .borders import BorderParams, default_trials, enumerate_borders, tau_for
from .graph import (Graph, GraphError, InvalidCutError, KCut, canonical_labels,
                    connected_components, contract)
from .islands import extend_border
from .oracle import (_zero_value_kcut, exact_min_kcut, kcut_lower_bound,
                     stoer_wagner_mincut, sv_2approx)
from .partition import kt_partition

_THRESHOLD_CONST = 10    # lambda_bar <= 10 * n^(1/(t+1)) sends a solve to the exact branch
# Search nodes per border round.  The benchmark's rounds expand at most 96
# and those of the 15 certified blown-up instances (tests/test_pipeline.py
# runs six) at most 18,431; at 200,000 the first forced-sparsify round of
# C_80, which has 82,160 3-cuts of value 3, stops after about 0.4 s on a
# 2-vCPU x86-64 VM.
NODE_BUDGET = 200_000


@dataclass(frozen=True)
class PipelineConfig:
    t: int = 2                      # exact-algorithm exponent knob
    trial_cap: int = 100_000        # caps the candidates a border round keeps
    seed: int = 0                   # accepted and reported; has no effect
    force_branch: Optional[str] = None   # "exact" | "sparsify"
    node_budget: int = NODE_BUDGET  # search nodes a border round may expand

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.node_budget < 0:
            raise ValueError("node_budget must be >= 0")
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
    seed: int
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
            "seed": self.seed,
            "stats": {
                "partition": self.partition_stats,
                "borders": self.border_stats,
                "timings": self.timings,
            },
        }


def min_kcut(g: Graph, k: int, cfg: PipelineConfig = PipelineConfig()) -> SolveReport:
    """Solve minimum k-cut on a simple graph; see module docstring.

    Unforced, the exact branch runs when lambda_bar <= 10 * n^(1/(t+1)) or
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
                           fallback=False, lambda_bar=None, seed=cfg.seed,
                           timings=timings)

    sv_cut = sv_2approx(g, k)
    lambda_bar = sv_cut.value
    timings["approx"] = time.perf_counter() - t0
    if lambda_bar < 1:  # zero-value cuts exited above
        raise InvalidCutError(f"2-approximation of a connected graph has value {lambda_bar}")

    threshold = _THRESHOLD_CONST * g.n ** (1.0 / (cfg.t + 1))
    go_exact = cfg.force_branch == "exact" or (
        cfg.force_branch is None and (
            lambda_bar <= threshold
            or kcut_lower_bound(k, stoer_wagner_mincut(g)[0]) >= lambda_bar))

    if go_exact:
        cut = exact_min_kcut(g, k, incumbent=sv_cut)
        timings["exact"] = time.perf_counter() - t0 - timings["approx"]
        timings["total"] = time.perf_counter() - t0
        return SolveReport(k=k, value=cut.value, cut=cut, branch="exact",
                           fallback=False, lambda_bar=lambda_bar, seed=cfg.seed,
                           timings=timings)

    t1 = time.perf_counter()
    partition, kt_report = kt_partition(g, k, lambda_bar)
    gc, cmap = contract(g, partition)
    timings["kt"] = time.perf_counter() - t1

    best_key = (sv_cut.value, sv_cut.canonical_key())
    best_cut = sv_cut
    random_best: Optional[KCut] = None
    border_stats = []
    lam = stoer_wagner_mincut(g)[0]   # memoised by sv_2approx
    log2n = math.log2(g.n) if g.n >= 2 else 1.0
    t2 = time.perf_counter()
    for i in range(k):
        s = k - i
        beta = min(1.0, max(0.0, 1.0 - (1.0 - 2.0 / log2n) * i / k))
        trials = default_trials(g.n, beta, k, cfg.trial_cap)
        # In round 0 a candidate is its own extension, and lifting keeps
        # the (value, labels) order of canonical labels, so no candidate can
        # beat the first: the round lists only its cheapest cuts, and extends
        # the first of them.
        params = BorderParams(s=s, beta=beta, trials=trials, lam=lam,
                              budget=cfg.node_budget, cheapest=i == 0)
        max_border = math.floor(beta * lambda_bar)
        candidates = enumerate_borders(gc, params, max_value=max_border)
        extended = 0
        for cand in candidates:
            if cand.value > best_key[0]:
                break
            lifted_labels = canonical_labels(
                tuple(cand.labels[cmap[v]] for v in range(g.n)))
            lifted = KCut.from_labels(g, lifted_labels, s)
            # Inclusive cap: an equal value with a smaller key still wins.
            ext = extend_border(g, lifted, i, max_value=best_key[0])
            extended += 1
            if ext is None:
                continue
            key = (ext.value, ext.canonical_key())
            if key < best_key:
                best_key = key
                best_cut = ext
            if random_best is None or ext.value < random_best.value:
                random_best = ext
            if i == 0:
                break
        border_stats.append({
            "i": i, "s": s, "beta": beta, "tau": tau_for(beta, k), "trials": trials,
            "candidates": len(candidates), "extended": extended,
            "truncated": candidates.truncated,
        })
    timings["borders"] = time.perf_counter() - t2
    timings["total"] = time.perf_counter() - t0

    fallback = random_best is None or random_best.value > sv_cut.value
    final = KCut.from_labels(g, canonical_labels(best_cut.labels), k)
    return SolveReport(k=k, value=final.value, cut=final, branch="sparsify",
                       fallback=fallback, lambda_bar=lambda_bar, seed=cfg.seed,
                       partition_stats=kt_report, border_stats=border_stats,
                       timings=timings)
