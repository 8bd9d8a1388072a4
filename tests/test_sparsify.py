"""Nagamochi-Ibaraki sparsification."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcut.oracle
from kcut import Graph, GraphError, connected_components, ni_sparsify
from kcut.generators import complete_graph, cycle_graph, gnp_graph, path_graph
from kcut.graph import weight_matrix

from helpers import ni_ranks_reference, union_find


def crossing_set(g, labels):
    return {(u, v) for u, v, _ in g.edges if labels[u] != labels[v]}


def assert_layer(g, s):
    """Layer s, the edges ni_sparsify keeps at s but not at s - 1, is a
    maximal spanning forest of g minus ni_sparsify(g, s - 1): what one more
    pass of a forest decomposition would take."""
    below = set(ni_sparsify(g, s - 1).edges) if s > 1 else set()
    kept = set(ni_sparsify(g, s).edges)
    assert below <= kept <= set(g.edges)
    find, union, _ = union_find(g.n)
    assert all(union(u, v) for u, v, _ in kept - below)   # a forest
    assert all(find(u) == find(v) for u, v, _ in set(g.edges) - kept)   # maximal


def by_rank(g, s):
    """The reference certificate: g's edges of Nagamochi-Ibaraki rank <= s."""
    ranks = ni_ranks_reference(g)
    return Graph.from_edges(g.n, (e for e in g.edges if ranks[e[:2]] <= s))


# ------------------------------------------------------------ rank layers

def test_tree_input_s2():
    # Edge (0, 1) has both degrees above 2, so the scan runs; every edge of
    # a forest has rank 1.
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (6, 7)])
    for s in (1, 2):
        h = ni_sparsify(g, s)
        assert h == g and h is not g


def test_c4_s1():
    h = ni_sparsify(cycle_graph(4), 1)
    assert len(h.edges) == 3
    assert len(connected_components(h).blocks) == 1


def test_k4_s3():
    assert [len(ni_sparsify(complete_graph(4), s).edges) for s in (1, 2, 3)] == [3, 5, 6]


def test_forests_edge_disjoint():
    # The layers split g's edges into edge-disjoint forests, one per s up
    # to the largest degree.
    g = gnp_graph(9, 0.6, 1)
    top = max(g.degrees)
    kept = [set()] + [set(ni_sparsify(g, s).edges) for s in range(1, top + 1)]
    layers = [b - a for a, b in zip(kept, kept[1:])]
    assert sum(map(len, layers)) == len(g.edges)
    assert set().union(*layers) == set(g.edges)
    for s in range(1, top + 1):
        assert_layer(g, s)


@st.composite
def simple_graphs(draw, max_n=25):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, [(u, v, 1) for u, v in chosen])


def disjoint_union(a, b):
    return Graph.from_edges(a.n + b.n, [*a.edges, *((u + a.n, v + a.n, w) for u, v, w in b.edges)])


gnp = st.builds(gnp_graph, st.integers(2, 30), st.sampled_from([0.3, 0.6, 0.9]),
                st.integers(0, 10_000))


@given(st.one_of(simple_graphs(), gnp, st.builds(disjoint_union, gnp, gnp)))
@settings(max_examples=80, deadline=None)
def test_one_scan_equals_passes_and_nests(g):
    # The one maximum-adjacency scan gives, at every s, what s passes of a
    # forest decomposition give: each layer is a maximal spanning forest of
    # what the lower layers left, on connected and disconnected graphs.
    for s in range(1, max(g.degrees, default=0) + 2):
        assert_layer(g, s)
    assert ni_sparsify(g, max(g.degrees, default=0) + 1) == g


@pytest.mark.parametrize("n, p, seed", [(40, 0.9, 1), (60, 0.8, 2), (100, 0.8, 3)])
def test_one_scan_equals_passes_near_the_degree_bound(n, p, seed):
    # Dense graphs with s just below t = max_min_degree(g), at t - 5, at the
    # smallest degree and at t / 2.  Below t the scan runs; ranks stay near
    # the smallest degree, so it keeps every edge at t - 1 and t - 5 and
    # rejects edges from the smallest degree down.
    g = gnp_graph(n, p, seed)
    t, delta = max_min_degree(g), min(g.degrees)
    rejecting = []
    for s in (t - 1, t - 5, delta, t // 2):
        h = ni_sparsify(g, s)
        assert h is not g
        assert h == by_rank(g, s)
        assert_layer(g, s)
        if h != g:
            rejecting.append(s)
    assert rejecting == [delta, t // 2]


@given(st.one_of(gnp, st.builds(gnp_graph, st.integers(30, 90), st.sampled_from([0.05, 0.2, 0.8]),
                                 st.integers(0, 10_000))), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_sorted_ranks_keep_the_edges_stoer_wagner_ranks_keep(g, s):
    # The ranks come from one sort of the edge rows; Stoer-Wagner's
    # contraction reads the same ranks as running sums (``_contractible``).
    # Given the solve's read-only matrix, ni_sparsify reads it and keeps
    # the same edges.
    w = weight_matrix(g)
    order = np.array(kcut.oracle._max_adjacency_phase(w)[0])
    ii, jj = kcut.oracle._contractible(w, order, s + 1)   # the edges of rank above s
    w[order[ii], order[jj]] = 0
    w[order[jj], order[ii]] = 0
    want = [(u, v, 1) for u, v, _ in g.edges if w[u, v]]
    shared = weight_matrix(g)
    shared.flags.writeable = False
    assert ni_sparsify(g, s).edges == ni_sparsify(g, s, shared).edges == tuple(want)
    assert np.array_equal(shared, weight_matrix(g))


def test_forests_past_the_largest_degree_are_empty():
    # A rank is at most the degree of either end, so layers past the
    # largest degree are empty, whatever s asks for.
    g = path_graph(3)
    assert ni_sparsify(g, 10**5) is g
    g = gnp_graph(20, 0.5, seed=4)
    top = max(g.degrees)
    assert ni_sparsify(g, top) == ni_sparsify(g, 10 * top) == g
    assert max(ni_ranks_reference(g).values()) <= max_min_degree(g)


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
    """t = max over edges of min(deg u, deg v): no rank exceeds it, so for
    s >= t ni_sparsify keeps every edge of g."""
    deg = g.degrees
    return max(min(deg[u], deg[v]) for u, v, _ in g.edges)


def test_certificate_boundary_matches_forest_union():
    # Every s from 1 to t + 1: the boundary t - 1, t, t + 1, and the small s
    # at which the layers do drop edges.
    dropped = 0
    for i in range(30):
        g = gnp_graph(6 + i % 15, [0.2, 0.5, 0.8][i % 3], seed=9000 + i)
        if not g.edges:
            continue
        t = max_min_degree(g)
        for s in range(1, t + 2):
            union = by_rank(g, s)
            assert ni_sparsify(g, s) == union
            if s >= t:
                assert union == g
            dropped += union != g
    assert dropped > 0


def test_certificate_skips_the_forests(monkeypatch):
    calls = []
    phase = kcut.oracle._max_adjacency_phase
    monkeypatch.setattr(kcut.oracle, "_max_adjacency_phase",
                        lambda w: calls.append(len(w)) or phase(w))
    g = gnp_graph(30, 0.7, seed=3)
    t = max_min_degree(g)
    assert ni_sparsify(g, t) is g
    c9 = cycle_graph(9)
    assert ni_sparsify(c9, 2) is c9
    assert calls == []
    # at s = t - 1 some edge has both degrees above s: the scan runs
    ni_sparsify(g, t - 1)
    assert calls == [30]


def test_ni_sparsify_rejects_bad_input():
    with pytest.raises(GraphError):
        ni_sparsify(Graph.from_edges(2, [(0, 1, 2)]), 1)
    with pytest.raises(ValueError):
        ni_sparsify(path_graph(3), 0)
