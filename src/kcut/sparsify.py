"""Forest-decomposition sparsification for simple graphs.

The union of s edge-disjoint maximal spanning forests keeps at most s*n
edges while preserving the exact crossing edge set of every k-cut of value
at most s.  A forest rejects an edge only when its endpoints are already
joined in that forest, that is when the forest holds another edge at each
endpoint; the forests are edge-disjoint, so an edge with an endpoint of
degree <= s is always kept.  When every edge is such an edge, ni_sparsify
returns its input without building the forests; otherwise they are built in
one scan of the edges, O(m log s) union-find lookups, and the union is a
mask over the input's edge array.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, GraphError, union_find


def _check_input(g: Graph, s: int) -> None:
    if not g.simple:
        raise GraphError("forest decomposition is defined for simple graphs")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def _forest_ids(g: Graph, s: int) -> list:
    """Per edge of g, in sorted order, the forest of ``forest_decomposition``
    that takes it, or s when none does."""
    finds, unions, _ = zip(*(union_find(g.n) for _ in range(s)))
    ids = []
    for u, v, _ in g.edges:
        lo, hi = 0, s
        while lo < hi:
            mid = (lo + hi) // 2
            find = finds[mid]
            if find(u) == find(v):
                lo = mid + 1
            else:
                hi = mid
        if lo < s:
            unions[lo](u, v)
        ids.append(lo)
    return ids


def forest_decomposition(g: Graph, s: int) -> list:
    """s edge-disjoint forests; forest i is a maximal spanning forest of g
    minus forests 1..i-1, built as by s passes over the edges in sorted
    order, but in one scan: each edge joins the first forest that does not
    already connect its endpoints.  An edge enters forest i+1 only when forest
    i connects its endpoints, so "connected in forest i+1" implies "connected
    in forest i", and that first forest is found by binary search."""
    _check_input(g, s)
    forests: list = [[] for _ in range(s + 1)]   # the last holds the rejected edges
    for e, i in zip(g.edges, _forest_ids(g, s)):
        forests[i].append(e)
    return [tuple(f) for f in forests[:s]]


def ni_sparsify(g: Graph, s: int) -> Graph:
    """Union of the s forests: a subgraph with <= s*n edges in which every
    k-cut of g-value <= s keeps its exact crossing edge set.

    Degree certificate: if min(deg u, deg v) <= s for every edge (u, v), no
    forest can reject an edge, the union is g itself, and g is returned.
    Otherwise the union is the rows of g's ``edge_array`` that some forest
    takes, which stay sorted.
    """
    _check_input(g, s)
    edges = g.edge_array
    deg = np.bincount(edges[:, :2].ravel(), minlength=g.n)   # simple: degree = endpoint count
    if (np.minimum(deg[edges[:, 0]], deg[edges[:, 1]]) <= s).all():
        return g
    return Graph._of_array(g.n, edges[np.array(_forest_ids(g, s)) < s], True)
