"""Deterministic r-island solving via subset-graph triangle detection.

An r-island solution is a set of r vertices, each cut off as its own
singleton, minimizing the total number of incident edges.  For r >= 3 the
set is split into three equal subsets; triangles in a profile-filtered
subset graph are detected with integer matrix products, enumerating the
nine weight parameters that pin down the cut value exactly.

Before the search, vertices are pruned by degree.  In a simple graph a set S
costs sum(deg(v) for v in S) - |E(S)|, and |E(S)| <= C(r, 2).  So a vertex v
lies in a set no dearer than a known feasible set (the r lowest-degree
vertices) only if deg(v) + (the r-1 smallest other degrees) - C(r, 2) is at
most that set's cost.  Every optimal set passes, and the padding dummies
(isolated, so free) are always kept: the value and the lex-smallest optimum
are those of the unpruned search.
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from .graph import (
    Graph,
    GraphError,
    InvalidCutError,
    KCut,
    canonical_labels,
    induced_subgraph,
    weight_matrix,
)

STRASSEN_THRESHOLD = 256
_STRASSEN_BASE = 64


def matmul_strassen(a: np.ndarray, b: np.ndarray, base: int = _STRASSEN_BASE) -> np.ndarray:
    """Exact integer product via Strassen recursion; bit-identical to cubic."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    n, m = a.shape
    _, p = b.shape
    if max(n, m, p) <= base:
        return a @ b
    nn, mm, pp = n + (n & 1), m + (m & 1), p + (p & 1)
    ap = np.zeros((nn, mm), dtype=np.int64)
    bp = np.zeros((mm, pp), dtype=np.int64)
    ap[:n, :m] = a
    bp[:m, :p] = b
    h, w, d = nn // 2, mm // 2, pp // 2
    a11, a12 = ap[:h, :w], ap[:h, w:]
    a21, a22 = ap[h:, :w], ap[h:, w:]
    b11, b12 = bp[:w, :d], bp[:w, d:]
    b21, b22 = bp[w:, :d], bp[w:, d:]
    rec = matmul_strassen
    m1 = rec(a11 + a22, b11 + b22, base)
    m2 = rec(a21 + a22, b11, base)
    m3 = rec(a11, b12 - b22, base)
    m4 = rec(a22, b21 - b11, base)
    m5 = rec(a11 + a12, b22, base)
    m6 = rec(a21 - a11, b11 + b12, base)
    m7 = rec(a12 - a22, b21 + b22, base)
    out = np.empty((nn, pp), dtype=np.int64)
    out[:h, :d] = m1 + m4 - m5 + m7
    out[:h, d:] = m3 + m5
    out[h:, :d] = m2 + m4
    out[h:, d:] = m1 - m2 + m3 + m6
    return out[:n, :p]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product; switches to Strassen above the dimension threshold."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if max(a.shape[0], a.shape[1], b.shape[1]) >= STRASSEN_THRESHOLD:
        return matmul_strassen(a, b)
    return a @ b


def _island_cost(adj: np.ndarray, deg: np.ndarray, subset) -> int:
    idx = list(subset)
    internal = int(adj[np.ix_(idx, idx)].sum()) // 2
    return int(deg[idx].sum()) - internal


def _solve_small(g: Graph, r: int) -> tuple:
    """Direct enumeration for r in {1, 2}."""
    deg = g.degrees
    if r == 1:
        best_v = min(range(g.n), key=lambda v: (deg[v], v))
        return deg[best_v], (best_v,)
    best = None
    weight = {(u, v): w for u, v, w in g.edges}
    for u, v in combinations(range(g.n), 2):
        cost = deg[u] + deg[v] - weight.get((u, v), 0)
        if best is None or cost < best[0]:
            best = (cost, (u, v))
    return best


def _subset_stats(adj: np.ndarray, deg: np.ndarray, q: int, n: int) -> tuple:
    subsets = list(combinations(range(n), q))
    x = np.zeros((len(subsets), n), dtype=np.int64)
    for i, s in enumerate(subsets):
        x[i, list(s)] = 1
    xa = x @ adj
    w_in = (xa * x).sum(axis=1) // 2
    w_sv = x @ deg - 2 * w_in
    return subsets, x, xa, w_in, w_sv


def _island_candidates(adj: np.ndarray, deg: np.ndarray, r: int) -> tuple:
    """(upper, kept) for a simple graph: the cost of the r lowest-degree
    vertices, which bounds the optimum, and the increasing ids of the vertices
    that can lie in an r-island set costing at most that.

    The test is deg(v) + (sum of the r-1 smallest degrees other than v) -
    C(r, 2) <= upper.  It always passes when deg(v) is among the r smallest,
    as upper is at least their sum minus C(r, 2); for every other v, the r-1
    smallest other degrees are the r-1 smallest overall.
    """
    order = np.argsort(deg, kind="stable")
    upper = _island_cost(adj, deg, order[:r])
    rest = int(deg[order[:r - 1]].sum())
    return upper, np.flatnonzero(deg + rest - r * (r - 1) // 2 <= upper)


class _TripleSearch:
    """Subset statistics, profile classes and cached pair matrices for the
    triple search over three disjoint q-subsets of the (padded) vertex set.

    ``adj`` is the weight matrix among the searched vertices and ``deg`` their
    degrees in the whole graph, so subset costs count every incident edge.
    """

    def __init__(self, adj: np.ndarray, deg: np.ndarray, r: int):
        self.pad = (-r) % 3
        self.r3 = r + self.pad
        self.q = self.r3 // 3
        self.real_n = len(deg)
        self.n = self.real_n + self.pad  # dummies take the highest ids
        self.adj = np.pad(adj, (0, self.pad))
        self.deg = np.pad(deg, (0, self.pad))
        self.subsets, self.x, self.xa, self.w_in, self.w_sv = _subset_stats(
            self.adj, self.deg, self.q, self.n)
        self.c = self.w_in + self.w_sv
        profiles: dict = {}
        for i, key in enumerate(zip(self.w_in.tolist(), self.w_sv.tolist())):
            profiles.setdefault(key, []).append(i)
        self.profile_keys = sorted(profiles)
        self.profile_members = {k: np.array(v) for k, v in profiles.items()}
        self._pair_cache: dict = {}

    def pair_matrices(self, p1, p2) -> tuple:
        """(pair-weight matrix, disjointness mask) for two profile classes."""
        key = (p1, p2)
        if key not in self._pair_cache:
            f1 = self.profile_members[p1]
            f2 = self.profile_members[p2]
            w = matmul(self.xa[f1], self.x[f2].T)
            overlap = matmul(self.x[f1], self.x[f2].T)
            self._pair_cache[key] = (w, overlap == 0)
        return self._pair_cache[key]

    def sorted_triples(self):
        keys = self.profile_keys
        cost = {k: k[0] + k[1] for k in keys}
        triples = []
        for i1, k1 in enumerate(keys):
            for i2 in range(i1, len(keys)):
                k2 = keys[i2]
                for i3 in range(i2, len(keys)):
                    k3 = keys[i3]
                    triples.append((cost[k1] + cost[k2] + cost[k3], k1, k2, k3))
        triples.sort()
        return triples

    def best_with_witnesses(self, upper: int) -> tuple:
        """One pass over the parameter guesses: the minimum cut value no
        larger than ``upper`` and every island set (sorted tuple) attaining it.

        Pruning uses ``> best`` so that ties are still visited; the witness
        list restarts whenever ``best`` drops.
        """
        best = upper
        witnesses: list = []
        max_pair = self.q * self.q
        for c_sum, p1, p2, p3 in self.sorted_triples():
            if c_sum - 3 * max_pair > best:
                break
            w12, d12 = self.pair_matrices(p1, p2)
            w23, d23 = self.pair_matrices(p2, p3)
            w31, d31 = self.pair_matrices(p3, p1)
            f1 = self.profile_members[p1]
            f2 = self.profile_members[p2]
            f3 = self.profile_members[p3]
            for v12 in np.unique(w12[d12]) if d12.any() else []:
                if c_sum - int(v12) - 2 * max_pair > best:
                    continue
                a12 = (d12 & (w12 == v12)).astype(np.int64)
                for v23 in np.unique(w23[d23]) if d23.any() else []:
                    if c_sum - int(v12) - int(v23) - max_pair > best:
                        continue
                    a23 = (d23 & (w23 == v23)).astype(np.int64)
                    b = matmul(a12, a23)
                    mask = (b > 0) & d31.T
                    if not mask.any():
                        continue
                    v31 = int(w31.T[mask].max())
                    value = c_sum - int(v12) - int(v23) - v31
                    if value > best:
                        continue
                    if value < best:
                        best = value
                        witnesses = []
                    for i1, i3 in zip(*np.nonzero(mask & (w31.T == v31))):
                        mids = np.flatnonzero((a12[i1] > 0) & (a23[:, i3] > 0))
                        s1 = self.subsets[f1[i1]]
                        s3 = self.subsets[f3[i3]]
                        for i2 in mids:
                            s2 = self.subsets[f2[i2]]
                            islands = tuple(sorted(set(s1) | set(s2) | set(s3)))
                            direct = _island_cost(self.adj, self.deg, islands)
                            if direct != value:
                                raise InvalidCutError(
                                    f"island set {islands} costs {direct}, its "
                                    f"parameters give {value}")
                            witnesses.append(islands)
        return best, witnesses


def solve_r_island(g: Graph, r: int) -> tuple:
    """Exact minimum (r+1)-cut with exactly r singleton components.

    Returns (value, island tuple); ties take the lex-smallest island set.
    r >= 3 searches only the vertices that pass the degree test of the module
    docstring against the cost of the r lowest-degree vertices, with their
    whole-graph degrees.  The test is exact because the graph is simple (at
    most C(r, 2) edges inside the set) and an optimal set can always give its
    padding slots to the dummies: r >= 3 pads with isolated dummy vertices to
    a multiple of 3, and the free dummy islands are preferred at ties and
    stripped from the answer.
    """
    if not g.simple:
        raise GraphError("r-island solving is defined for simple graphs")
    if not 1 <= r <= g.n - 1:
        raise ValueError(f"r must be in 1..n-1, got r={r} with n={g.n}")
    if r <= 2:
        return _solve_small(g, r)
    adj = weight_matrix(g)
    deg = adj.sum(axis=1)
    upper, kept = _island_candidates(adj, deg, r)
    search = _TripleSearch(adj[np.ix_(kept, kept)], deg[kept], r)
    value, witnesses = search.best_with_witnesses(upper)
    best_key = None
    for islands in witnesses:
        dummies = sum(1 for v in islands if v >= search.real_n)
        real = tuple(int(kept[v]) for v in islands if v < search.real_n)
        key = (search.pad - dummies, real)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None or best_key[0] != 0:
        raise InvalidCutError("padding must be absorbed by dummy islands")
    return value, best_key[1]


def extend_border(g: Graph, border_cut: KCut, i: int) -> Optional[KCut]:
    """Carve i islands out of the border's non-singleton parts, trying every
    composition of i over the hosts; returns the best resulting (k+i)-cut."""
    if i < 0:
        raise ValueError("island count must be nonnegative")
    if i == 0:
        return border_cut
    parts = border_cut.parts()
    hosts = [(pid, p) for pid, p in enumerate(parts) if len(p) >= 2]
    cache: dict = {}

    def host_solve(part: tuple, cnt: int):
        key = (part, cnt)
        if key not in cache:
            sub, back = induced_subgraph(g, part)
            val, islands = solve_r_island(sub, cnt)
            cache[key] = (val, tuple(back[v] for v in islands))
        return cache[key]

    best = None
    for comp in _compositions(i, [len(p) - 1 for _, p in hosts]):
        labels = list(border_cut.labels)
        next_label = border_cut.k
        for (pid, part), cnt in zip(hosts, comp):
            if cnt == 0:
                continue
            _, islands = host_solve(part, cnt)
            for v in islands:
                labels[v] = next_label
                next_label += 1
        cut = KCut.from_labels(g, canonical_labels(labels), border_cut.k + i)
        key = (cut.value, cut.labels)
        if best is None or key < best[0]:
            best = (key, cut)
    return best[1] if best is not None else None


def _compositions(total: int, caps: list):
    """All ways to write total as a sum over positions with per-position caps."""
    if total == 0:
        yield tuple(0 for _ in caps)
        return
    if not caps:
        return

    def rec(pos: int, left: int, acc: list):
        if pos == len(caps):
            if left == 0:
                yield tuple(acc)
            return
        remaining_cap = sum(caps[pos:])
        if left > remaining_cap:
            return
        for take in range(0, min(caps[pos], left) + 1):
            acc.append(take)
            yield from rec(pos + 1, left - take, acc)
            acc.pop()

    yield from rec(0, total, [])
