"""The paper's r-island route: triangle detection over q-subsets.

The r-set is padded with isolated dummy vertices to a multiple of 3 and
split into three disjoint q-subsets.  Its cost is the three subset costs
minus the edges between each two subsets, so the search guesses two of those
pair weights and finds the triangles of the subset graph that fit the guess
with one integer ``matmul``.  ``TripleSearch`` computes the pair-weight and
disjointness block of each profile-class pair on first use (two ``matmul``
calls) and keeps it in a per-search cache; it visits the class triples in
ascending cost-sum order and bounds a triple only by the largest pair weight
any two q-subsets can have, q².  ``solve_r_island`` runs it on the vertices
the library's degree test keeps, so it must return the library's value and
lex-smallest island set.  For r <= 2, ``_solve_small`` enumerates the
vertices and the vertex pairs one by one over ``Graph.degrees`` and
``Graph.edges``.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from kcut.graph import Graph, GraphError, InvalidCutError, weight_matrix
from kcut.islands import _island_candidates, _island_cost, matmul


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


class TripleSearch:
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
    """``kcut.islands.solve_r_island`` with ``TripleSearch`` as the search."""
    if not g.simple:
        raise GraphError("r-island solving is defined for simple graphs")
    if not 1 <= r <= g.n - 1:
        raise ValueError(f"r must be in 1..n-1, got r={r} with n={g.n}")
    if r <= 2:
        return _solve_small(g, r)
    adj = weight_matrix(g)
    deg = adj.sum(axis=1)
    upper, kept = _island_candidates(adj, deg, r, g.total_weight)
    search = TripleSearch(adj[np.ix_(kept, kept)], deg[kept], r)
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
