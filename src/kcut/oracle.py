"""Ground-truth solvers and classical polynomial subroutines.

brute_force_min_kcut / brute_force_r_island are the independent oracles every
other stage is tested against.  exact_min_kcut, the pipeline's exact branch,
runs the same partition search in maximum-adjacency order, seeded with the
sv_2approx cut; sv_2approx and stoer_wagner_mincut are the classical
subroutines the pipeline itself uses.
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

import networkx as nx

from .graph import (
    Graph,
    GraphError,
    InvalidCutError,
    KCut,
    VertexPartition,
    connected_components,
    induced_subgraph,
)

BRUTE_FORCE_KCUT_LIMIT = 14
BRUTE_FORCE_ISLAND_LIMIT = 18


class SizeLimitError(ValueError):
    """Input too large for exhaustive enumeration."""


def _zero_value_kcut(g: Graph, k: int, comps: VertexPartition) -> KCut:
    """Lexicographically smallest 0-value k-cut when g has c >= k components.

    Components come in first-vertex order, so the first c-k+1 share label 0
    and each later one opens the next label.
    """
    shift = len(comps.blocks) - k
    labels = [max(0, i - shift) for i in comps.to_block_index(g.n)]
    return KCut.from_labels(g, labels, k)


def _min_kcut_search(g: Graph, k: int, order: Sequence[int], prune: bool = True,
                     incumbent: Optional[KCut] = None) -> KCut:
    """Restricted-growth-string enumeration of k-part partitions.

    Vertices are assigned in ``order``; among cuts of the minimum value the
    first one found has the lex-smallest label string read in that order.
    With ``prune`` the search skips branches whose partial crossing weight
    already matches or exceeds the best so far (identical results).  An
    ``incumbent`` cut seeds the bound and is returned unchanged unless a
    strictly cheaper cut exists.
    """
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    earlier: list = [[] for _ in range(n)]   # per position: (earlier position, w)
    for u, v, w in g.edges:
        a, b = sorted((pos[u], pos[v]))
        earlier[b].append((a, w))
    best_val = incumbent.value if incumbent is not None else None
    best_labels = None
    labels = [0] * n

    def rec(i: int, used: int, partial: int) -> None:
        nonlocal best_val, best_labels
        if prune and best_val is not None and partial >= best_val:
            return
        if i == n:
            if used == k and (best_val is None or partial < best_val):
                best_val = partial
                best_labels = tuple(labels)
            return
        if used + (n - i) < k:
            return
        for lab in range(min(used, k - 1) + 1):
            add = 0
            for j, w in earlier[i]:
                if labels[j] != lab:
                    add += w
            labels[i] = lab
            rec(i + 1, used + (1 if lab == used else 0), partial + add)
        labels[i] = 0

    rec(0, 0, 0)
    if best_labels is None:
        if incumbent is not None:
            return incumbent
        raise GraphError("no k-part partition exists")
    return KCut.from_labels(g, [best_labels[pos[v]] for v in range(n)], k)


def brute_force_min_kcut(g: Graph, k: int, n_limit: int = BRUTE_FORCE_KCUT_LIMIT) -> KCut:
    """Minimum k-cut by exhaustive set-partition enumeration.

    Ties break to the lexicographically smallest canonical label string.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    if g.n > n_limit:
        raise SizeLimitError(f"n={g.n} exceeds brute-force limit {n_limit}")
    comps = connected_components(g)
    if len(comps.blocks) >= k:
        return _zero_value_kcut(g, k, comps)
    return _min_kcut_search(g, k, range(g.n))


def exact_min_kcut(g: Graph, k: int, incumbent: Optional[KCut] = None) -> KCut:
    """Exact minimum k-cut without a size guard: pruned assignment search.

    A graph with at least k components gets the lex-smallest 0-value cut.
    Otherwise vertices are assigned in maximum-adjacency order, so a label
    that deviates from the already assigned neighbours is charged at once and
    pruning bites early.  ``incumbent`` (a k-cut of g, by default the
    Saran-Vazirani 2-approximation) seeds the bound and is returned unchanged
    when nothing strictly cheaper exists.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    comps = connected_components(g)
    if len(comps.blocks) >= k:
        return _zero_value_kcut(g, k, comps)
    if incumbent is None:
        incumbent = sv_2approx(g, k)
    elif incumbent.k != k or len(incumbent.labels) != g.n:
        raise ValueError(f"incumbent is not a {k}-cut of a {g.n}-vertex graph")
    return _min_kcut_search(g, k, _max_adjacency_order(g), incumbent=incumbent)


def _max_adjacency_order(g: Graph) -> list:
    """Greedy ordering: start at vertex 0, repeatedly append the unplaced
    vertex with maximum edge weight into the placed set (ties to lowest id)."""
    weight_to_placed = [0] * g.n
    placed = [False] * g.n
    order = []
    adj = g.adjacency
    for _ in range(g.n):
        best = None
        for v in range(g.n):
            if placed[v]:
                continue
            key = (-weight_to_placed[v], v)
            if best is None or key < best:
                best = key
        v = best[1]
        placed[v] = True
        order.append(v)
        for u, w in adj[v]:
            if not placed[u]:
                weight_to_placed[u] += w
    return order


def brute_force_r_island(g: Graph, r: int,
                         n_limit: int = BRUTE_FORCE_ISLAND_LIMIT) -> tuple:
    """Exhaustive r-island oracle: minimum over r-subsets of the total weight
    of edges with at least one endpoint in the subset.

    Returns (value, island tuple); ties take the lex-smallest subset.
    """
    if not 1 <= r <= g.n - 1:
        raise ValueError(f"r must be in 1..n-1, got r={r} with n={g.n}")
    if g.n > n_limit:
        raise SizeLimitError(f"n={g.n} exceeds brute-force limit {n_limit}")
    deg = g.degrees
    best = None
    best_set = None
    for subset in combinations(range(g.n), r):
        sset = set(subset)
        internal = sum(w for u, v, w in g.edges if u in sset and v in sset)
        cost = sum(deg[v] for v in subset) - internal
        if best is None or cost < best:
            best = cost
            best_set = subset
    return best, best_set


def stoer_wagner_mincut(g: Graph) -> tuple:
    """Exact global minimum weighted 2-cut; (0, component split) if disconnected."""
    if g.n < 2:
        raise ValueError("stoer_wagner_mincut needs n >= 2")
    comps = connected_components(g)
    if len(comps.blocks) > 1:
        side = set(comps.blocks[0])
        labels = tuple(0 if v in side else 1 for v in range(g.n))
        return 0, KCut.from_labels(g, labels, 2)
    if g.n == 2:
        return g.total_weight, KCut.from_labels(g, (0, 1), 2)
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edges:
        G.add_edge(u, v, weight=w)
    value, (side_a, side_b) = nx.stoer_wagner(G)
    side = set(side_a) if 0 in side_a else set(side_b)
    labels = tuple(0 if v in side else 1 for v in range(g.n))
    cut = KCut.from_labels(g, labels, 2)
    if cut.value != value:
        raise InvalidCutError(f"Stoer-Wagner reported {value}, its cut has value {cut.value}")
    return int(value), cut


def sv_2approx(g: Graph, k: int) -> KCut:
    """Greedy splitting 2-approximation: repeatedly apply the globally
    cheapest minimum 2-cut of any current part's induced subgraph."""
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    parts: list = [tuple(range(g.n))]
    while len(parts) < k:
        best = None  # (cost, part min vertex, part index, side vertex set)
        for idx, part in enumerate(parts):
            if len(part) < 2:
                continue
            sub, back = induced_subgraph(g, part)
            cost, cut2 = stoer_wagner_mincut(sub)
            side = frozenset(back[v] for v in range(sub.n) if cut2.labels[v] == 0)
            key = (cost, part[0])
            if best is None or key < best[0]:
                best = (key, idx, side)
        if best is None:
            raise InvalidCutError(f"no part left to split at {len(parts)} of {k} parts")
        _, idx, side = best
        part = parts.pop(idx)
        parts.append(tuple(v for v in part if v in side))
        parts.append(tuple(v for v in part if v not in side))
    partition = VertexPartition.from_blocks(parts, g.n)
    labels = partition.to_block_index(g.n)
    return KCut.from_labels(g, labels, k)
