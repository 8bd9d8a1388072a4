"""Forest-decomposition sparsification."""
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcut.sparsify
from kcut import Graph, GraphError, connected_components, forest_decomposition, ni_sparsify
from kcut.generators import complete_graph, cycle_graph, gnp_graph, path_graph

from helpers import union_find


def crossing_set(g, labels):
    return {(u, v) for u, v, _ in g.edges if labels[u] != labels[v]}


# --------------------------------------------------------------- forests

def test_tree_input_s2():
    g = path_graph(5)
    f = forest_decomposition(g, 2)
    assert f[0] == g.edges
    assert f[1] == ()


def test_c4_s1():
    f = forest_decomposition(cycle_graph(4), 1)
    assert len(f[0]) == 3


def test_k4_s3():
    f = forest_decomposition(complete_graph(4), 3)
    assert [len(x) for x in f] == [3, 2, 1]
    assert sorted(e for x in f for e in x) == sorted(complete_graph(4).edges)


def test_forests_edge_disjoint():
    g = gnp_graph(9, 0.6, 1)
    f = forest_decomposition(g, 3)
    seen = set()
    for forest in f:
        for e in forest:
            assert e not in seen
            seen.add(e)


def forests_by_passes(g, s):
    """Reference: s passes over the remaining edges in sorted order, one
    fresh union-find per pass."""
    remaining, forests = list(g.edges), []
    for _ in range(s):
        _, union, _ = union_find(g.n)
        taken, rest = [], []
        for e in remaining:
            (taken if union(e[0], e[1]) else rest).append(e)
        forests.append(tuple(taken))
        remaining = rest
    return forests


@st.composite
def simple_graphs(draw, max_n=25):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, [(u, v, 1) for u, v in chosen])


@given(st.one_of(simple_graphs(),
                 st.builds(gnp_graph, st.integers(2, 30), st.sampled_from([0.3, 0.6, 0.9]),
                           st.integers(0, 10_000))),
       st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_one_scan_equals_passes_and_nests(g, s):
    forests = forest_decomposition(g, s)
    assert forests == forests_by_passes(g, s)
    # "connected in forest i+1" implies "connected in forest i", and every
    # edge no forest took is connected in the last forest
    comps = [connected_components(Graph.from_edges(g.n, f)).to_block_index(g.n) for f in forests]
    for i in range(s - 1):
        assert all(comps[i][u] == comps[i][v] for u in range(g.n) for v in range(g.n)
                   if comps[i + 1][u] == comps[i + 1][v])
    taken = {e for f in forests for e in f}
    assert all(comps[-1][u] == comps[-1][v] for u, v, w in g.edges if (u, v, w) not in taken)


def forest_ids_and_bounds(g, forests, s):
    """Per edge in sorted order, the index of the forest holding it (s for
    none), and its bound min(c(u), c(v), s), c(x) the earlier edges at x."""
    where = {e: i for i, f in enumerate(forests) for e in f}
    count = [0] * g.n
    ids, bounds = [], []
    for e in g.edges:
        u, v, _ = e
        ids.append(where.get(e, s))
        bounds.append(min(count[u], count[v], s))
        count[u] += 1
        count[v] += 1
    return ids, bounds


@pytest.mark.parametrize("n, p, seed", [(40, 0.9, 1), (60, 0.8, 2), (100, 0.8, 3)])
def test_one_scan_equals_passes_near_the_degree_bound(n, p, seed):
    # Dense graphs with s just below t = max_min_degree(g), at t - 5, at the
    # smallest degree and at t / 2.  At every s some id lies 2 or more below
    # its bound, so the downward search reaches its bisection; from the
    # smallest degree down, the forests also reject edges.
    g = gnp_graph(n, p, seed)
    t, delta = max_min_degree(g), min(g.degrees)
    rejecting = []
    for s in (t - 1, t - 5, delta, t // 2):
        forests = forest_decomposition(g, s)
        assert forests == forests_by_passes(g, s)
        ids, bounds = forest_ids_and_bounds(g, forests, s)
        assert all(i <= b for i, b in zip(ids, bounds))
        assert max(b - i for i, b in zip(ids, bounds)) >= 2
        if s in ids:
            rejecting.append(s)
    assert rejecting == [delta, t // 2]


def test_forests_past_the_largest_degree_are_empty():
    # Only forests that take an edge get a parent list: s = 10^5 on P_3
    # peaks at about 8 MB (the output's 10^5 empty forests), where one
    # union-find per forest took about 80 MB.
    g = path_graph(3)
    tracemalloc.start()
    try:
        forests = forest_decomposition(g, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert len(forests) == 10**5
    assert forests[0] == g.edges and not any(forests[1:])
    g = gnp_graph(20, 0.5, seed=4)
    s = 10 * max(g.degrees)
    forests = forest_decomposition(g, s)
    assert len(forests) == s and not any(forests[max(g.degrees):])
    assert forests[:max(g.degrees)] == forest_decomposition(g, max(g.degrees))
    assert forests == forests_by_passes(g, s)


def test_rejects_non_simple():
    g = Graph.from_edges(2, [(0, 1, 2)])
    with pytest.raises(GraphError):
        forest_decomposition(g, 1)
    with pytest.raises(ValueError):
        forest_decomposition(path_graph(3), 0)


# --------------------------------------------------------------- sparsify

def test_tree_fixed_point():
    g = path_graph(6)
    assert ni_sparsify(g, 1) == g


def test_k4_s1_spanning_tree():
    h = ni_sparsify(complete_graph(4), 1)
    assert len(h.edges) == 3
    assert len(connected_components(h).blocks) == 1


@given(st.integers(0, 10_000), st.integers(4, 9),
       st.sampled_from([0.3, 0.5, 0.8]), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_sparsifier_properties(seed, n, p, s):
    g = gnp_graph(n, p, seed)
    h = ni_sparsify(g, s)
    # size bound and subgraph property
    assert len(h.edges) <= s * g.n
    assert set(h.edges) <= set(g.edges)
    # connectivity preserved
    assert len(connected_components(h).blocks) == len(connected_components(g).blocks)
    # idempotence
    assert ni_sparsify(h, s) == h


def test_cut_preservation_exhaustive():
    # Every k-cut of value <= s keeps its exact crossing edge set.
    for i in range(25):
        g = gnp_graph(5 + i % 5, [0.3, 0.5, 0.8][i % 3], seed=8000 + i)
        for s in (2, 3):
            h = ni_sparsify(g, s)
            for k in (2, 3):
                if k > g.n:
                    continue
                for labels in product(range(k), repeat=g.n):
                    if len(set(labels)) != k:
                        continue
                    cg = crossing_set(g, labels)
                    if len(cg) <= s:
                        assert cg == crossing_set(h, labels)


# ------------------------------------------------------ degree certificate

def max_min_degree(g):
    """t = max over edges of min(deg u, deg v): for s >= t no forest can
    reject an edge, so the s forests hold every edge of g."""
    deg = g.degrees
    return max(min(deg[u], deg[v]) for u, v, _ in g.edges)


def test_certificate_boundary_matches_forest_union():
    # Every s from 1 to t + 1: the boundary t - 1, t, t + 1, and the small s
    # at which the forests do drop edges.
    dropped = 0
    for i in range(30):
        g = gnp_graph(6 + i % 15, [0.2, 0.5, 0.8][i % 3], seed=9000 + i)
        if not g.edges:
            continue
        t = max_min_degree(g)
        for s in range(1, t + 2):
            union = Graph.from_edges(g.n, (e for f in forest_decomposition(g, s) for e in f))
            assert ni_sparsify(g, s) == union
            if s >= t:
                assert union == g
            dropped += union != g
    assert dropped > 0


def test_certificate_skips_the_forests(monkeypatch):
    calls = []
    forests = kcut.sparsify._forest_ids
    monkeypatch.setattr(kcut.sparsify, "_forest_ids",
                        lambda g, s: calls.append(s) or forests(g, s))
    g = gnp_graph(30, 0.7, seed=3)
    t = max_min_degree(g)
    assert ni_sparsify(g, t) is g
    c9 = cycle_graph(9)
    assert ni_sparsify(c9, 2) is c9
    assert calls == []
    # at s = t - 1 some edge has both degrees above s: the forests run
    ni_sparsify(g, t - 1)
    assert calls == [t - 1]


def test_ni_sparsify_rejects_bad_input():
    with pytest.raises(GraphError):
        ni_sparsify(Graph.from_edges(2, [(0, 1, 2)]), 1)
    with pytest.raises(ValueError):
        ni_sparsify(path_graph(3), 0)
