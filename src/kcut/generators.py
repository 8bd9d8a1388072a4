"""Deterministic test-instance generators.

Planted instances keep their construction around so tests and the bench
harness can certify the intended minimum cut without full enumeration.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graph import (Graph, InvalidCutError, KCut, VertexPartition, connected_components,
                    contract, induced_subgraph)
from .oracle import brute_force_min_kcut, stoer_wagner_mincut


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def cliques_bridge(clique_size: int, cliques: int, bridges: int) -> Graph:
    """`cliques` disjoint cliques chained by `bridges` edges between
    consecutive cliques (bridge endpoints cycle through the clique members)."""
    if clique_size < 2 or cliques < 1 or bridges < 0:
        raise ValueError("invalid cliques_bridge parameters")
    n = clique_size * cliques
    edges = []
    for c in range(cliques):
        base = c * clique_size
        edges += [(base + a, base + b) for a, b in combinations(range(clique_size), 2)]
    for c in range(cliques - 1):
        for b in range(bridges):
            u = c * clique_size + (b % clique_size)
            v = (c + 1) * clique_size + (b % clique_size)
            edges.append((u, v))
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class PlantedInfo:
    """Construction record of a planted instance."""

    k: int
    clusters: tuple       # tuple of vertex tuples, contiguous ids
    islands: tuple        # extra degree-1 vertices, highest ids
    seed: int


def planted_instance(k: int, size: int, p_in: float, p_out: float,
                     islands: int = 0, seed: int = 0) -> tuple:
    """k dense clusters plus sparse inter-cluster edges plus optional
    degree-1 island vertices; returns (graph, PlantedInfo).

    Retries derived seeds until the graph is connected and every pair of
    clusters has at least one inter-edge.
    """
    if k < 2 or size < 3:
        raise ValueError("planted instances need k >= 2 and cluster size >= 3")
    n = k * size + islands
    for attempt in range(200):
        rng = random.Random((seed << 16) + attempt)
        edges = []
        clusters = []
        for c in range(k):
            base = c * size
            clusters.append(tuple(range(base, base + size)))
            edges += [(base + a, base + b)
                      for a, b in combinations(range(size), 2)
                      if rng.random() < p_in]
        inter_count = 0
        for c1, c2 in combinations(range(k), 2):
            added = False
            for u in clusters[c1]:
                for v in clusters[c2]:
                    if rng.random() < p_out:
                        edges.append((u, v))
                        added = True
                        inter_count += 1
            if not added:
                u = clusters[c1][rng.randrange(size)]
                v = clusters[c2][rng.randrange(size)]
                edges.append((u, v))
                inter_count += 1
        island_ids = tuple(range(k * size, n))
        for iv in island_ids:
            edges.append((iv, rng.randrange(k * size)))
        g = Graph.from_edges(n, set((min(u, v), max(u, v)) for u, v in edges))
        if len(connected_components(g).blocks) == 1:
            return g, PlantedInfo(k=k, clusters=tuple(clusters),
                                  islands=island_ids, seed=seed)
    raise RuntimeError("could not generate a connected planted instance")


def certified_min_kcut(g: Graph, info: PlantedInfo, k: int):
    """Exact minimum k-cut of a planted instance via the cluster certificate.

    Any k-cut either keeps every cluster whole (so it projects to a k-cut of
    the cluster-contracted graph) or splits some cluster and pays at least
    that cluster's global min cut.  When the contracted optimum is at most
    every cluster's min cut, it is the global optimum.  Returns (value, KCut)
    or None when the certificate does not apply.
    """
    blocks = [list(c) for c in info.clusters] + [[v] for v in info.islands]
    partition = VertexPartition.from_blocks(blocks, g.n)
    gc, cmap = contract(g, partition)
    if k > gc.n:
        return None
    contracted_opt = brute_force_min_kcut(gc, k)
    for cluster in info.clusters:
        sub, _ = induced_subgraph(g, cluster)
        val, _cut = stoer_wagner_mincut(sub)
        if val < contracted_opt.value:
            return None
    labels = tuple(contracted_opt.labels[cmap[v]] for v in range(g.n))
    cut = KCut.from_labels(g, labels, k)
    if cut.value != contracted_opt.value:
        raise InvalidCutError(f"lifted cut has value {cut.value}, contracted optimum "
                              f"{contracted_opt.value}")
    return cut.value, cut


def gen_instance(kind: str, params: dict, seed: int = 0) -> Graph:
    """Dispatch for the CLI's instance kinds."""
    if kind == "cycle":
        return cycle_graph(int(params["n"]))
    if kind == "gnp":
        return gnp_graph(int(params["n"]), float(params["p"]), seed)
    if kind == "cliques_bridge":
        return cliques_bridge(int(params["size"]), int(params["count"]),
                              int(params.get("bridges", 1)))
    if kind == "planted":
        g, _ = planted_instance(int(params["k"]), int(params["size"]),
                                float(params["p_in"]), float(params["p_out"]),
                                int(params.get("islands", 0)), seed)
        return g
    raise ValueError(f"unknown instance kind {kind!r}")
