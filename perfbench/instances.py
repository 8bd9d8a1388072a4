"""Seeded instance sets for the three benchmark workloads, and the answer check.

Every instance is built with ``kcut.generators`` from fixed generator seeds,
so every run solves the same graphs; the workload seed only relabels their
vertices.  A seed that drew new random graphs would also draw new costs: the
median solve time of the G(100, 0.8), k=5 row moved about twice as much from
seed to seed as the machine's noise explains, and runs of one program
disagreed by more than a change to it should move them.  A relabelling keeps
every cut value, so the certified optima and the pinned best-known values
hold for every seed, while the solver's own choices (tie-breaks, seeded
sampling) still differ from seed to seed.  ``certify`` computes,
independently of the solve being checked, the values the check compares
against.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from kcut import (
    Graph,
    InvalidCutError,
    PipelineConfig,
    PlantedInfo,
    brute_force_min_kcut,
    certified_min_kcut,
    cliques_bridge,
    connected_components,
    cut_value,
    cycle_graph,
    gnp_graph,
    graph_to_text,
    planted_instance,
    stoer_wagner_mincut,
    sv_2approx,
)

BRUTE_FORCE_N = 14
# One fixed trial budget for the forced-sparsify rows: large enough that
# contract_random takes over 80% of the solve (77% at 100 trials), small
# enough for about 25 solves in a 30-second run.
CONTRACT_TRIAL_CAP = 150
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Instance:
    name: str
    graph: Graph
    k: int
    cfg: PipelineConfig
    opt: Optional[int] = None          # certified optimum, when one exists
    opt_source: Optional[str] = None   # cycle | planted | brute_force
    sv_value: Optional[int] = None     # independent Saran-Vazirani value
    lam: Optional[int] = None          # global min cut, for the k*lam/2 bound

    def fingerprint(self) -> str:
        text = f"k={self.k}\n{graph_to_text(self.graph)}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def _certified_planted(k, size, p_in, p_out, islands, seed):
    """First certifiable planted instance among derived seeds: (graph, opt)."""
    for attempt in range(200):
        g, info = planted_instance(k, size, p_in, p_out, islands,
                                   seed=seed * 1000 + attempt)
        cert = certified_min_kcut(g, info, k)
        if cert is not None:
            return g, cert[0]
    raise RuntimeError(f"no certifiable planted instance k={k} size={size}")


def _connected_gnp(n, p, seed):
    """First connected G(n, p) among derived seeds, so the row reaches the
    exact branch rather than the zero-value shortcut."""
    for attempt in range(200):
        g = gnp_graph(n, p, seed * 1000 + attempt)
        if len(connected_components(g).blocks) == 1:
            return g
    raise RuntimeError(f"no connected G({n}, {p}) found")


def _chain_opt(size: int, count: int, bridges: int, k: int) -> int:
    """Certified optimum of a clique chain, via the planted certificate."""
    g = cliques_bridge(size, count, bridges)
    clusters = tuple(tuple(range(c * size, (c + 1) * size)) for c in range(count))
    cert = certified_min_kcut(g, PlantedInfo(k=k, clusters=clusters, islands=(), seed=0), k)
    if cert is None:
        raise RuntimeError(f"clique chain {size}x{count} with k={k} is not certifiable")
    return cert[0]


# Each instance's figure is the median of its solves in the run, and on a
# noisy machine that median needs several solves to settle, so the mixes
# are kept small enough for about five solves per instance in 30 seconds.
# Cheap and expensive rows alternate, so a run that stops part-way through a
# pass still sees a representative prefix.
EXACT_SPARSE = {
    "cycles": [(60, 3), (100, 3), (70, 3), (30, 4), (90, 3), (110, 3), (80, 3), (36, 4),
               (40, 4)],
    "chains": [(5, 4, 1, 3), (8, 4, 2, 3), (6, 5, 1, 4), (10, 3, 3, 3)],
    "planted": [(4, 25, 0.9, 0.005, 0), (5, 20, 0.9, 0.002, 0)],
    "planted_draws": 1,
    "small_gnp": [(12, 0.4, 3), (14, 0.4, 3)],
}
# Every (n, p, k) here has a 2-approximation far above 10 * n^(1/3), so it
# takes the sparsify branch unforced.  G(100, 0.8) with k=5 is the one row
# large enough for the Strassen matmul route.
DENSE_SPARSIFY = [(50, 0.85, 5), (100, 0.8, 5), (60, 0.85, 4), (70, 0.85, 5),
                  (100, 0.8, 2), (60, 0.9, 5), (80, 0.85, 4), (100, 0.8, 3),
                  (50, 0.9, 6), (70, 0.8, 3)]
PLANTED_CONTRACT = {"shapes": [(3, 20, 0.9, 0.02, 2), (4, 20, 0.9, 0.01, 3),
                               (3, 22, 0.9, 0.02, 2), (3, 21, 0.9, 0.02, 2)],
                    "draws": 1}

# Reduced mixes for the self-tests: same families, a fraction of the cost.
TINY = {
    "exact_sparse": {"cycles": [(20, 3)], "chains": [(5, 3, 1, 3)],
                     "planted": [(3, 10, 0.9, 0.02, 0)], "planted_draws": 1,
                     "small_gnp": [(10, 0.4, 3)]},
    "dense_sparsify": [(40, 0.85, 3)],
    "planted_contract": {"shapes": [(3, 20, 0.9, 0.02, 2)], "draws": 1},
}


def _exact_sparse(shapes: dict) -> list:
    cfg = PipelineConfig()
    out = []
    for n, k in shapes["cycles"]:
        out.append(Instance(f"cycle_n{n}_k{k}", cycle_graph(n), k, cfg,
                            opt=k, opt_source="cycle"))
    for size, count, bridges, k in shapes["chains"]:
        out.append(Instance(f"chain_{size}x{count}_b{bridges}_k{k}",
                            cliques_bridge(size, count, bridges), k, cfg,
                            opt=_chain_opt(size, count, bridges, k), opt_source="planted"))
    out += _planted(shapes["planted"], shapes["planted_draws"], cfg)
    for j, (n, p, k) in enumerate(shapes["small_gnp"]):
        out.append(Instance(f"gnp_n{n}_k{k}", _connected_gnp(n, p, j), k, cfg))
    return out


def _dense_sparsify(shapes: list) -> list:
    cfg = PipelineConfig()
    return [Instance(f"gnp_n{n}_p{p}_k{k}_{j}", gnp_graph(n, p, j), k, cfg)
            for j, (n, p, k) in enumerate(shapes)]


def _planted(shapes: list, draws: int, cfg: PipelineConfig) -> list:
    out = []
    for d in range(draws):
        for j, (k, size, p_in, p_out, islands) in enumerate(shapes):
            g, opt = _certified_planted(k, size, p_in, p_out, islands, d * 10 + j)
            out.append(Instance(f"planted_k{k}_s{size}_i{islands}_{d}", g, k, cfg,
                                opt=opt, opt_source="planted"))
    return out


WORKLOADS = ("exact_sparse", "dense_sparsify", "planted_contract")


def base(workload: str, tiny: bool = False) -> list:
    """The workload's instances as generated, before any relabelling;
    certified optima filled in where the generator provides a certificate."""
    if workload == "exact_sparse":
        return _exact_sparse(TINY[workload] if tiny else EXACT_SPARSE)
    if workload == "dense_sparsify":
        return _dense_sparsify(TINY[workload] if tiny else DENSE_SPARSIFY)
    if workload == "planted_contract":
        mix = TINY[workload] if tiny else PLANTED_CONTRACT
        cfg = PipelineConfig(force_branch="sparsify", trial_cap=CONTRACT_TRIAL_CAP)
        return _planted(mix["shapes"], mix["draws"], cfg)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's instances for ``seed``: ``base`` with every graph's
    vertices relabelled by a permutation drawn from ``seed``."""
    rng = random.Random(seed)
    return [dataclasses.replace(inst, graph=_relabel(inst.graph, rng))
            for inst in base(workload, tiny)]


def certify(inst: Instance) -> None:
    """Fill in the reference values every solve of ``inst`` is checked against."""
    g, k = inst.graph, inst.k
    inst.sv_value = sv_2approx(g, k).value
    if inst.opt is None and g.n <= BRUTE_FORCE_N:
        inst.opt = brute_force_min_kcut(g, k).value
        inst.opt_source = "brute_force"
    if inst.opt is None:
        inst.lam = stoer_wagner_mincut(g)[0]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def changed_instances(workload: str, reference: dict) -> list:
    """Names of instances whose fingerprint (taken before relabelling) no
    longer matches the pinned one: a generator change shows as a changed
    workload."""
    pinned = reference[workload]
    current = {inst.name: inst.fingerprint() for inst in base(workload)}
    names = sorted(set(pinned) | set(current))
    return [n for n in names
            if n not in pinned or n not in current or pinned[n]["fingerprint"] != current[n]]


def check(inst: Instance, report, pinned_value: Optional[int]) -> Optional[str]:
    """None if the solve's answer is correct, else the reason it is not."""
    g, k, cut = inst.graph, inst.k, report.cut
    if cut.k != k or len(cut.labels) != g.n:
        return f"cut has k={cut.k} and {len(cut.labels)} labels, expected k={k}, n={g.n}"
    try:
        value = cut_value(g, cut)   # also rejects out-of-range labels and empty parts
    except InvalidCutError as exc:
        return f"not a {k}-partition: {exc}"
    if value != report.value or value != cut.value:
        return f"reported value {report.value} but the cut is worth {value}"
    if value > inst.sv_value:
        return f"value {value} worse than the 2-approximation {inst.sv_value}"
    if inst.opt is not None:
        if value != inst.opt:
            return f"value {value} differs from the {inst.opt_source} optimum {inst.opt}"
        return None
    if pinned_value is not None and value > pinned_value:
        return f"value {value} worse than the pinned best-known {pinned_value}"
    bound = math.ceil(k * inst.lam / 2)
    if value < bound:
        return f"value {value} below the lower bound ceil(k*lambda/2) = {bound}"
    return None
