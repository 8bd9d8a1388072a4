"""Forest-decomposition sparsification for simple graphs.

The union of s edge-disjoint maximal spanning forests keeps at most s*n
edges while preserving the exact crossing edge set of every k-cut of value
at most s.
"""
from __future__ import annotations

from .graph import Graph, GraphError, union_find


def forest_decomposition(g: Graph, s: int) -> list:
    """s edge-disjoint forests; forest i is a maximal spanning forest of g
    minus forests 1..i-1.  Edges are scanned in sorted order each pass."""
    if not g.simple:
        raise GraphError("forest decomposition is defined for simple graphs")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    remaining = list(g.edges)
    forests = []
    for _ in range(s):
        _, union = union_find(g.n)
        taken = []
        rest = []
        for u, v, w in remaining:
            if union(u, v):
                taken.append((u, v, w))
            else:
                rest.append((u, v, w))
        forests.append(tuple(taken))
        remaining = rest
    return forests


def ni_sparsify(g: Graph, s: int) -> Graph:
    """Union of the s forests: a subgraph with <= s*n edges in which every
    k-cut of g-value <= s keeps its exact crossing edge set."""
    return Graph.from_edges(g.n, (e for f in forest_decomposition(g, s) for e in f))
