"""Reference helpers the tests check the library against.

Nothing in the library calls these: the per-entry merge loop that
``Graph.from_edges`` must reproduce, the graph strategies several test
modules draw from, per-vertex adjacency lists, per-subset conductance, the
scalar splitmix64 stream that ``borders.stream_outputs`` must reproduce, the
scalar union-find of the one-edge-at-a-time references (Karger contraction,
the forest passes, connected components), the Nagamochi-Ibaraki edge ranks
of a maximum-adjacency order, greedy splitting on induced subgraphs, the
listing of every k-cut within a bound that the partition search's list mode
must reproduce, the cut-survival test of a contraction map, Wilson score
bounds, the classical integer matmul, the border bookkeeping of a k-cut,
and two fixed instance sets with known optima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable

import numpy as np
from hypothesis import strategies as st

from kcut.generators import (certified_min_kcut, cliques_bridge, cycle_graph, gnp_graph,
                             planted_instance)
from kcut.graph import (MAX_WEIGHT, Graph, GraphError, KCut, VertexPartition, canonical_labels,
                        induced_subgraph)
from kcut.oracle import brute_force_min_kcut, stoer_wagner_mincut


def from_edges_reference(n: int, pairs: Iterable[tuple]) -> Graph:
    """Build a graph from (u, v) or (u, v, w) entries one entry at a time,
    merging duplicates in a dict and raising GraphError at the first
    offending entry, an entry that takes the running weight total past
    MAX_WEIGHT among them."""
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    merged: dict = {}
    total = 0
    for entry in pairs:
        if len(entry) == 2:
            u, v = entry
            w = 1
        else:
            u, v, w = entry
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex id out of range in edge ({u}, {v})")
        if w < 1:
            raise GraphError(f"edge weight must be positive, got {w}")
        total += w
        if total > MAX_WEIGHT:
            raise GraphError(f"total edge weight {total} overflows the 64-bit weight budget")
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0) + w
    edges = tuple((u, v, merged[(u, v)]) for (u, v) in sorted(merged))
    simple = all(w == 1 for _, _, w in edges)
    return Graph(n=n, edges=edges, simple=simple)


@st.composite
def graphs(draw, max_n=8, min_n=1, max_weight=4, weights=None):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weight = weights if weights is not None else st.integers(1, max_weight)
    drawn = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, drawn)])


@st.composite
def weights_totalling(draw, total, count):
    """``count`` >= 1 weights of at least 1 that sum to ``total``, split at
    sorted cut points, so one draw mixes weights of 1 with weights near the
    total."""
    cuts = sorted(draw(st.lists(st.integers(0, total - count),
                                min_size=count - 1, max_size=count - 1)))
    return [1 + b - a for a, b in zip([0, *cuts], [*cuts, total - count])]


@st.composite
def heavy_graphs(draw, max_n=9, totals=st.one_of(
        st.sampled_from([MAX_WEIGHT, MAX_WEIGHT - 1, MAX_WEIGHT - 2]), st.integers(2**62, MAX_WEIGHT))):
    """Graphs whose weights total MAX_WEIGHT, just below it or anything from
    2^62 up to it, so that totals, degrees, merged weights and cut values
    reach the 64-bit limit."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    weights = draw(weights_totalling(draw(totals), len(chosen)))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


def adjacency(g: Graph) -> tuple:
    """Per-vertex tuple of (neighbour, weight) pairs, sorted by neighbour."""
    adj: list = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return tuple(tuple(sorted(a)) for a in adj)


def conductance(g: Graph, s: Iterable[int]):
    """Boundary weight over min side volume; math.inf if both sides have
    zero volume (then the boundary is necessarily empty)."""
    sset = set(s)
    if not sset or len(sset) >= g.n:
        raise GraphError("conductance needs a proper nonempty vertex subset")
    boundary = 0
    vol_s = 0
    deg = g.degrees
    for v in sset:
        vol_s += deg[v]
    for u, v, w in g.edges:
        if (u in sset) != (v in sset):
            boundary += w
    vol_rest = 2 * g.total_weight - vol_s
    denom = min(vol_s, vol_rest)
    if denom == 0:
        return math.inf
    return Fraction(boundary, denom)


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The splitmix64 finaliser of one 64-bit state."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """One splitmix64 stream, read in order: output j is
    mix64(seed + (j + 1) * GOLDEN)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)


def union_find(n: int) -> tuple:
    """Disjoint sets over 0..n-1 as a (find, union, parent) triple.

    ``find`` uses path halving.  ``union(a, b)`` hangs the higher of the two
    roots under the lower one and returns whether they were in different
    sets, so every parent pointer goes to a lower vertex and a root is the
    lowest vertex of its set.  ``parent`` is the live parent list the
    closures share.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb
        return True

    return find, union, parent


def ni_ranks_reference(g: Graph) -> dict:
    """Nagamochi-Ibaraki rank of every (u, v) pair of simple g, from a
    maximum-adjacency order built one vertex at a time: start at vertex 0,
    then place the unplaced vertex with the most placed neighbours, ties to
    the lowest id.  The edges from a vertex back to the vertices placed
    before it, in placement order, get ranks 1, 2, 3, ..."""
    nbrs: list = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    position: dict = {}
    attach = [0] * g.n
    ranks = {}
    for _ in range(g.n):
        v = min((x for x in range(g.n) if x not in position), key=lambda x: (-attach[x], x))
        position[v] = len(position)
        back = sorted((u for u in nbrs[v] if u in position), key=position.get)
        for r, u in enumerate(back, 1):
            ranks[min(u, v), max(u, v)] = r
        for u in nbrs[v]:
            attach[u] += 1
    return ranks


def sv_2approx_reference(g: Graph, k: int) -> KCut:
    """Greedy splitting on induced copies: each part's min 2-cut is
    ``stoer_wagner_mincut`` on the part's induced subgraph (on g itself for
    the first part), computed once; the part with the least (cost, least
    vertex) splits, and the parts are numbered by their least vertex."""
    parts = [list(range(g.n))]
    cuts: list = []
    while len(parts) < k:
        for part in parts[len(cuts):]:
            if len(part) < 2:
                cuts.append(None)
                continue
            sub = g if len(part) == g.n else induced_subgraph(g, part)[0]
            cost, cut2 = stoer_wagner_mincut(sub)
            cuts.append(((cost, part[0]), cut2.labels))
        idx = min((i for i, c in enumerate(cuts) if c is not None), key=lambda i: cuts[i][0])
        part = parts.pop(idx)
        _, side = cuts.pop(idx)
        parts += [[v for v, s in zip(part, side) if s == 0], [v for v, s in zip(part, side) if s]]
    labels = [0] * g.n
    for label, part in enumerate(sorted(parts)):
        for v in part:
            labels[v] = label
    return KCut.from_labels(g, labels, k)


def list_kcuts_reference(g: Graph, k: int, bound: int) -> list:
    """Every k-cut of g of value at most ``bound``, as sorted (value, labels)
    pairs.  Every label string in 0..k-1 with label 0 first comes from
    itertools.product; a string is kept when each label is at most one above
    every label before it (first-occurrence form) and it uses all k labels,
    and it is valued edge by edge."""
    if not 1 <= k <= g.n:
        return []
    out = []
    for rest in product(range(k), repeat=g.n - 1):
        labels = (0,) + rest
        top = 0
        for x in rest:
            if x > top + 1:
                break
            top = max(top, x)
        else:
            if top == k - 1:
                value = sum(w for u, v, w in g.edges if labels[u] != labels[v])
                if value <= bound:
                    out.append((value, labels))
    return sorted(out)


def cut_survives(cmap: tuple, labels: tuple) -> bool:
    """True iff no super-vertex mixes two sides of the labeled cut."""
    seen: dict = {}
    for v, sup in enumerate(cmap):
        lab = labels[v]
        if sup in seen and seen[sup] != lab:
            return False
        seen[sup] = lab
    return True


def _wilson(successes: int, trials: int, z: float) -> tuple:
    p = successes / trials
    denom = 1 + z * z / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


def wilson_lower(successes: int, trials: int, z: float = 1.959963984540054) -> float:
    """Lower endpoint of the Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0
    return max(0.0, _wilson(successes, trials, z)[0])


def wilson_upper(successes: int, trials: int, z: float = 1.959963984540054) -> float:
    """Upper endpoint of the Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 1.0
    return min(1.0, _wilson(successes, trials, z)[1])


def matmul_cubic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product, classical algorithm."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


@dataclass(frozen=True)
class Border:
    """A (k-|I|)-cut plus the bookkeeping of which singletons merged where."""

    base_cut: KCut
    merged: tuple        # ((island vertex, host part id), ...) sorted
    islands: tuple       # sorted island vertices

    def reconstruct_kcut(self, g: Graph) -> KCut:
        """Re-single every merged island; recovers the original k-cut."""
        labels = list(self.base_cut.labels)
        next_label = self.base_cut.k
        for v, _host in self.merged:
            labels[v] = next_label
            next_label += 1
        return KCut.from_labels(g, labels, next_label)


def borders_of_cut(g: Graph, cut: KCut):
    """Enumerate every border (I, sigma) of a k-cut.

    Yields Border objects; I ranges over subsets of the singleton parts and
    sigma over maps from I to the non-singleton parts.
    """
    parts = cut.parts()
    singleton_parts = [i for i, p in enumerate(parts) if len(p) == 1]
    host_parts = [i for i, p in enumerate(parts) if len(p) >= 2]
    for size in range(len(singleton_parts) + 1):
        for chosen in combinations(singleton_parts, size):
            if size > 0 and not host_parts:
                continue
            for hosts in product(host_parts, repeat=size):
                labels = list(cut.labels)
                for part, host in zip(chosen, hosts):
                    v = parts[part][0]
                    labels[v] = host
                merged = tuple(sorted((parts[p][0], h) for p, h in zip(chosen, hosts)))
                islands = tuple(sorted(parts[p][0] for p in chosen))
                base = KCut.from_labels(g, canonical_labels(labels), cut.k - size)
                yield Border(base_cut=base, merged=merged, islands=islands)


def border_agrees(g: Graph, border: Border, partition: VertexPartition) -> bool:
    """True iff every crossing edge of the border runs between distinct blocks."""
    index = partition.to_block_index(g.n)
    labels = border.base_cut.labels
    for u, v, _ in g.edges:
        if labels[u] != labels[v] and index[u] == index[v]:
            return False
    return True


def small_instances() -> list:
    """(graph, k, optimum) for cycles, clique chains and G(n, p), n <= 12,
    with the optimum from the exhaustive oracle."""
    cases = [(cycle_graph(6), 3), (cycle_graph(8), 2), (cycle_graph(12), 4),
             (cliques_bridge(5, 2, 1), 2), (cliques_bridge(5, 2, 1), 3),
             (cliques_bridge(4, 3, 1), 3)]
    seed = 1000
    for n in (8, 10, 12):
        for p in (0.3, 0.5, 0.8):
            for k in (2, 3):
                cases.append((gnp_graph(n, p, seed), k))
                seed += 1
    return [(g, k, brute_force_min_kcut(g, k).value) for g, k in cases]


def planted_instances() -> list:
    """(graph, k, optimum) for planted clusters, n <= 60: per shape, the
    first instance among 100 seeds whose optimum ``certified_min_kcut``
    certifies."""
    shapes = [(2, 8, 0.9, 0.05, 0), (2, 12, 0.85, 0.03, 1), (3, 8, 0.9, 0.02, 0),
              (3, 10, 0.9, 0.02, 1), (4, 10, 0.95, 0.01, 0), (4, 10, 0.9, 0.01, 2)]
    out = []
    for idx, (k, size, p_in, p_out, islands) in enumerate(shapes):
        for attempt in range(100):
            g, info = planted_instance(k, size, p_in, p_out, islands, seed=100 * idx + attempt)
            cert = certified_min_kcut(g, info, k)
            if cert is not None:
                out.append((g, k, cert[0]))
                break
        else:
            raise RuntimeError("no certifiable planted instance found")
    return out
