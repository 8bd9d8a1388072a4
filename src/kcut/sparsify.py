"""Forest-decomposition sparsification for simple graphs.

The union of s edge-disjoint maximal spanning forests keeps at most s*n
edges while preserving the exact crossing edge set of every k-cut of value
at most s.  A forest rejects an edge only when its endpoints are already
joined in that forest, that is when the forest holds another edge at each
endpoint; the forests are edge-disjoint, so an edge with an endpoint of
degree <= s is always kept.  When every edge is such an edge, ni_sparsify
returns its input without building the forests; otherwise they are built in
one scan of the edges, and the union is a mask over the input's edge array.
The scan finds each edge's forest by searching down from a bound, the
smaller number of earlier edges at its two ends; most edges land at the
bound or one below it, so an edge costs a few union-find lookups.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, GraphError


def _check_input(g: Graph, s: int) -> None:
    if not g.simple:
        raise GraphError("forest decomposition is defined for simple graphs")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def _forest_ids(g: Graph, s: int) -> list:
    """Per edge of g, in sorted order, the forest of ``forest_decomposition``
    that takes it, or s when none does.

    That forest is the first that does not join the edge's ends u and v.
    With c(x) the number of earlier edges at x, one of forests 0..c(u) holds
    no edge at u and so does not join u to v: the id is at most
    b = min(c(u), c(v)), and at most the number of forests holding an edge,
    as the next forest is empty (and needs no parent list yet).  Most ids are
    b or just below it, so the search probes b-1, b-2, b-4, ... until a
    forest joins u and v, then bisects the last step.  The path-halving finds
    and the union run inline, with no min/max either: a call per probe would
    cost about as much as the probe.
    """
    n = g.n
    count = [0] * n
    parents: list = []   # per forest holding an edge; pointers go to lower vertices
    ids = []
    for u, v, _ in g.edges:
        cu, cv = count[u], count[v]
        count[u], count[v] = cu + 1, cv + 1
        b = cu if cu < cv else cv
        if b > len(parents):
            b = len(parents)
        hi = b                    # forest hi does not join u and v,
        lo, step, ru = 0, 1, -1   # every forest below lo does
        while lo < hi:
            if step:
                j = b - step
                if j < lo:
                    j = lo
            else:
                j = (lo + hi) // 2
            p = parents[j]
            x = u
            while p[x] != x:
                p[x] = x = p[p[x]]
            y = v
            while p[y] != y:
                p[y] = y = p[p[y]]
            if x == y:
                lo, step = j + 1, 0
            else:
                hi, ru, rv = j, x, y
                step *= 2
        if hi < s:
            if hi == len(parents):
                parents.append(list(range(n)))
                ru, rv = u, v
            elif ru < 0:   # hi = b, never probed
                p = parents[hi]
                ru, rv = u, v
                while p[ru] != ru:
                    p[ru] = ru = p[p[ru]]
                while p[rv] != rv:
                    p[rv] = rv = p[p[rv]]
            if ru < rv:
                parents[hi][rv] = ru
            else:
                parents[hi][ru] = rv
        ids.append(hi)
    return ids


def forest_decomposition(g: Graph, s: int) -> list:
    """s edge-disjoint forests; forest i is a maximal spanning forest of g
    minus forests 1..i-1, built as by s passes over the edges in sorted
    order, but in one scan: each edge joins the first forest that does not
    already connect its endpoints.  An edge enters forest i+1 only when forest
    i connects its endpoints, so "connected in forest i+1" implies "connected
    in forest i", and that first forest is found by a search down from the
    smaller number of earlier edges at the two endpoints, which bounds it.
    Forests past the largest degree stay empty and cost no union-find."""
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
    return Graph._of_array(g.n, np.compress(np.array(_forest_ids(g, s)) < s, edges, axis=0), True)
