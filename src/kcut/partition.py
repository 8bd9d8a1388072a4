"""Vertex partitioning that preserves a border of every minimum k-cut.

Pipeline: forest sparsification -> degree regularization -> expander
decomposition -> trimming -> shaving -> shattering.  The surviving cores
plus all singletons form the partition whose contraction the border-finder
operates on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .graph import (
    Graph,
    GraphError,
    KCut,
    VertexPartition,
    canonical_labels,
    conductance,
    connected_components,
    induced_subgraph,
)
from .sparsify import ni_sparsify

EXACT_CONDUCTANCE_LIMIT = 16
DECOMPOSITION_EDGE_CONST = 10


class KTInvariantError(GraphError):
    """A stage postcondition failed; signals a broken upstream guarantee."""


@dataclass(frozen=True)
class KTParams:
    """Stage parameters derived from (n, k, min degree)."""

    k: int
    epsilon: float           # shaving fraction 1/(k*log2 n), n post-regularization
    gamma: Fraction          # expander parameter 1/delta

    @staticmethod
    def derive(n: int, k: int, delta: int) -> "KTParams":
        eps = 1.0 / (k * math.log2(n)) if n >= 2 else 1.0
        return KTParams(k=k, epsilon=eps, gamma=Fraction(1, max(delta, 1)))


@dataclass
class ClusterState:
    """Clusters C_i, singleton set S, and (after shaving) cores A_i."""

    clusters: list            # list of sorted vertex lists
    singletons: set
    cores: list = field(default_factory=list)


def regularize_threshold(k: int, lambda_bar: int) -> Fraction:
    # 2-approximation variant of the low-degree threshold: with
    # lambda_bar <= 2*opt, removing k-1 vertices below lambda_bar/(2(k-1))
    # would exhibit a k-cut cheaper than the optimum.
    return Fraction(lambda_bar, 2 * (k - 1))


def regularize(g: Graph, k: int, lambda_bar: int) -> tuple:
    """Repeatedly delete vertices of degree below lambda_bar/(2(k-1)).

    Returns (remaining graph, removed original ids in removal order,
    new-id -> old-id map).  Raises if >= k vertices would be removed, which
    would certify lambda_bar below the true optimum.
    """
    if not g.simple:
        raise GraphError("regularization is defined for simple graphs")
    thr = regularize_threshold(k, lambda_bar)
    deg = list(g.degrees)
    alive = [True] * g.n
    removed = []
    adj = g.adjacency
    while True:
        victim = None
        for v in range(g.n):
            if alive[v] and deg[v] < thr:
                victim = v
                break
        if victim is None:
            break
        removed.append(victim)
        if len(removed) >= k:
            raise KTInvariantError(
                f"regularization removed {len(removed)} vertices; "
                f"approximation value {lambda_bar} cannot be valid")
        alive[victim] = False
        for u, w in adj[victim]:
            if alive[u]:
                deg[u] -= w
    keep = [v for v in range(g.n) if alive[v]]
    sub, back = induced_subgraph(g, keep)
    return sub, removed, back


def min_conductance_subset(g: Graph) -> tuple:
    """Exact minimum-conductance proper subset by enumeration (n <= 16).

    Returns (conductance as Fraction or inf, vertex tuple).  Vectorized over
    all subsets containing vertex 0 (conductance is complement-symmetric).
    """
    n = g.n
    if n < 2:
        raise GraphError("conductance needs at least 2 vertices")
    if n > EXACT_CONDUCTANCE_LIMIT:
        raise GraphError(f"exact conductance limited to n <= {EXACT_CONDUCTANCE_LIMIT}")
    masks = np.arange(1, 1 << n, 2, dtype=np.int64)  # bit 0 set
    masks = masks[masks != (1 << n) - 1]
    deg = np.array(g.degrees, dtype=np.int64)
    vol = np.zeros(len(masks), dtype=np.int64)
    for v in range(n):
        vol += deg[v] * ((masks >> v) & 1)
    boundary = np.zeros(len(masks), dtype=np.int64)
    for u, v, w in g.edges:
        boundary += w * (((masks >> u) ^ (masks >> v)) & 1)
    total = int(2 * g.total_weight)
    denom = np.minimum(vol, total - vol)
    finite = denom > 0
    if not finite.any():
        # Edgeless: every subset has zero volume on some side and no boundary.
        return math.inf, (0,)
    cond = np.where(finite, boundary / np.maximum(denom, 1), np.inf)
    idx = int(np.argmin(cond))
    mask = int(masks[idx])
    subset = tuple(v for v in range(n) if (mask >> v) & 1)
    if not finite[idx]:
        return math.inf, subset
    return Fraction(int(boundary[idx]), int(denom[idx])), subset


def is_expander(g: Graph, gamma: Fraction) -> bool:
    """Brute-force certification that every proper subset has conductance >= gamma."""
    if g.n <= 1:
        return True
    cond, _ = min_conductance_subset(g)
    return cond >= gamma


def _fiedler_sweep(g: Graph) -> tuple:
    """Best prefix cut of the Fiedler-vector order; returns (conductance, subset)."""
    n = g.n
    deg = np.array(g.degrees, dtype=np.float64)
    a = np.zeros((n, n))
    for u, v, w in g.edges:
        a[u, v] += w
        a[v, u] += w
    dinv = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    lap = np.eye(n) - (a * dinv).T * dinv
    vals, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1] * dinv
    order = sorted(range(n), key=lambda v: (fiedler[v], v))
    adj = g.adjacency
    in_s = [False] * n
    vol = 0
    boundary = 0
    total = 2 * g.total_weight
    best = None
    for j, v in enumerate(order[:-1]):
        in_s[v] = True
        to_s = sum(w for u, w in adj[v] if in_s[u])
        vol += g.degrees[v]
        boundary += g.degrees[v] - 2 * to_s
        denom = min(vol, total - vol)
        if denom <= 0:
            continue
        cond = Fraction(boundary, denom)
        if best is None or cond < best[0]:
            best = (cond, j)
    if best is None:
        return math.inf, tuple(order[:1])
    return best[0], tuple(sorted(order[: best[1] + 1]))


def expander_decompose(g: Graph, gamma: Fraction) -> VertexPartition:
    """Recursive low-conductance-cut splitting.

    Blocks of size <= 16 are certified gamma-expanders exactly; larger
    blocks stop when the spectral sweep finds no cut below gamma.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    blocks = []

    def recurse(vertices: list) -> None:
        if len(vertices) == 1:
            blocks.append(tuple(vertices))
            return
        sub, back = induced_subgraph(g, vertices)
        comps = connected_components(sub)
        if len(comps.blocks) > 1:
            for comp in comps.blocks:
                recurse([back[v] for v in comp])
            return
        if sub.n <= EXACT_CONDUCTANCE_LIMIT:
            cond, subset = min_conductance_subset(sub)
        else:
            cond, subset = _fiedler_sweep(sub)
        if cond < gamma:
            side = set(subset)
            recurse([back[v] for v in range(sub.n) if v in side])
            recurse([back[v] for v in range(sub.n) if v not in side])
        else:
            blocks.append(tuple(sorted(vertices)))

    for comp in connected_components(g).blocks:
        recurse(list(comp))
    return VertexPartition.from_blocks(blocks, g.n)


def trim(g: Graph, state: ClusterState) -> ClusterState:
    """Move vertices keeping at most 2/5 of their degree inside their cluster
    to the singleton set, lowest id first, until a fixpoint."""
    deg = g.degrees
    adj = g.adjacency
    clusters = [set(c) for c in state.clusters]
    singles = set(state.singletons)
    internal = []
    for c in clusters:
        internal.append({v: sum(w for u, w in adj[v] if u in c) for v in c})
    changed = True
    while changed:
        changed = False
        victim = None
        for ci, c in enumerate(clusters):
            for v in sorted(c):
                if internal[ci][v] * 5 <= 2 * deg[v]:
                    if victim is None or v < victim[1]:
                        victim = (ci, v)
                    break
        if victim is not None:
            ci, v = victim
            clusters[ci].discard(v)
            del internal[ci][v]
            for u, w in adj[v]:
                if u in clusters[ci]:
                    internal[ci][u] -= w
            singles.add(v)
            changed = True
    return ClusterState(
        clusters=[sorted(c) for c in clusters],
        singletons=singles,
        cores=list(state.cores),
    )


def shave(g: Graph, state: ClusterState, epsilon: float) -> ClusterState:
    """One simultaneous pass: vertices losing at least an epsilon fraction of
    their degree outside their cluster move to the singletons; the remainder
    of each cluster becomes its core."""
    deg = g.degrees
    adj = g.adjacency
    singles = set(state.singletons)
    cores = []
    for c in state.clusters:
        cset = set(c)
        core = []
        for v in c:
            internal = sum(w for u, w in adj[v] if u in cset)
            if internal <= (1.0 - epsilon) * deg[v]:
                singles.add(v)
            else:
                core.append(v)
        cores.append(core)
    return ClusterState(clusters=list(state.clusters), singletons=singles, cores=cores)


def shatter(state: ClusterState, k: int) -> ClusterState:
    """Dissolve every core with at most k vertices into singletons."""
    singles = set(state.singletons)
    cores = []
    for core in state.cores:
        if 0 < len(core) <= k:
            singles.update(core)
            cores.append([])
        else:
            cores.append(list(core))
    return ClusterState(clusters=list(state.clusters), singletons=singles, cores=cores)


def _validate_state(h: Graph, post_trim: ClusterState, post_shave: ClusterState,
                    post_shatter: ClusterState, params: KTParams) -> None:
    deg = h.degrees
    adj = h.adjacency
    for c in post_trim.clusters:
        cset = set(c)
        for v in c:
            internal = sum(w for u, w in adj[v] if u in cset)
            if internal * 5 <= 2 * deg[v]:
                raise KTInvariantError(f"trim fixpoint violated at vertex {v}")
    for core, cluster in zip(post_shave.cores, post_shave.clusters):
        cset = set(cluster)
        for v in core:
            internal = sum(w for u, w in adj[v] if u in cset)
            if internal <= (1.0 - params.epsilon) * deg[v]:
                raise KTInvariantError(f"shave condition violated at vertex {v}")
    for core in post_shatter.cores:
        if 0 < len(core) <= params.k:
            raise KTInvariantError("shatter left a small core alive")


def kt_partition(g: Graph, k: int, lambda_bar: int) -> tuple:
    """Full partitioning pipeline; returns (partition of V(g), report dict)."""
    if not g.simple:
        raise GraphError("kt_partition is defined for simple graphs")
    if lambda_bar < 1:
        raise ValueError("lambda_bar must be >= 1 (zero-cut inputs exit earlier)")
    h = ni_sparsify(g, lambda_bar)
    hr, removed, back = regularize(h, k, lambda_bar)
    if hr.n <= 1:
        blocks = [(v,) for v in removed]
        if hr.n == 1:
            blocks.append(tuple(back))
        partition = VertexPartition.from_blocks(blocks, g.n)
        report = _report(partition, removed, 0, 0, 0, 0, KTParams.derive(2, k, 1))
        return partition, report
    delta = hr.min_degree()
    params = KTParams.derive(hr.n, k, delta)
    decomp = expander_decompose(hr, params.gamma)
    state0 = ClusterState(clusters=[list(b) for b in decomp.blocks], singletons=set())
    state1 = trim(hr, state0)
    trimmed = len(state1.singletons)
    state2 = shave(hr, state1, params.epsilon)
    shaved = len(state2.singletons) - trimmed
    state3 = shatter(state2, k)
    shattered = len(state3.singletons) - trimmed - shaved

    _validate_state(hr, state1, state2, state3, params)
    _validate_decomposition(hr, decomp, params.gamma)

    blocks = [tuple(back[v] for v in core) for core in state3.cores if core]
    blocks += [(back[v],) for v in sorted(state3.singletons)]
    blocks += [(v,) for v in removed]
    partition = VertexPartition.from_blocks(blocks, g.n)
    report = _report(partition, removed, len(decomp.blocks), trimmed, shaved, shattered, params)
    return partition, report


def _report(partition, removed, clusters, trimmed, shaved, shattered, params) -> dict:
    return {
        "q": len(partition.blocks),
        "stages": {
            "regularized_removed": len(removed),
            "clusters": clusters,
            "trimmed": trimmed,
            "shaved": shaved,
            "shattered": shattered,
        },
        "params": {"epsilon": float(params.epsilon), "gamma": float(params.gamma)},
    }


def _validate_decomposition(h: Graph, decomp: VertexPartition, gamma: Fraction) -> None:
    inter = 0
    index = decomp.to_block_index(h.n)
    for u, v, w in h.edges:
        if index[u] != index[v]:
            inter += w
    m = h.total_weight
    if m >= 2:
        budget = DECOMPOSITION_EDGE_CONST * float(gamma) * m * math.log2(m)
        if inter > budget:
            raise KTInvariantError(
                f"decomposition cut {inter} edges, budget {budget:.2f}")
    for block in decomp.blocks:
        if 1 < len(block) <= EXACT_CONDUCTANCE_LIMIT:
            sub, _ = induced_subgraph(h, block)
            if not is_expander(sub, gamma):
                raise KTInvariantError(f"block {block} is not a {gamma}-expander")


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
