"""Island discovery: matmul routes, r-island solving, border extension."""
import random

import numpy as np
import pytest

from kcut import (
    Graph,
    GraphError,
    KCut,
    brute_force_min_kcut,
    brute_force_r_island,
    cut_value,
    extend_border,
    matmul,
    solve_r_island,
)
from kcut.generators import (
    cliques_bridge,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    star_graph,
)
import kcut.islands
from kcut.graph import weight_matrix
from kcut.islands import (
    STRASSEN_THRESHOLD,
    _island_candidates,
    _TripleSearch,
    matmul_strassen,
)

import islands_reference
from helpers import matmul_cubic


# -------------------------------------------------------------------- matmul

def test_matmul_identity():
    m = np.array([[3, 1], [4, 1]], dtype=np.int64)
    assert np.array_equal(matmul(np.eye(2, dtype=np.int64), m), m)


def test_matmul_2x2():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([[1, 0], [1, 1]], dtype=np.int64)
    assert np.array_equal(matmul(a, b), np.array([[2, 1], [1, 1]]))


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_strassen_equals_cubic_50x50():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, size=(50, 50)).astype(np.int64)
    b = rng.integers(0, 2, size=(50, 50)).astype(np.int64)
    assert np.array_equal(matmul_strassen(a, b, base=8), matmul_cubic(a, b))


def test_strassen_odd_and_rectangular():
    rng = np.random.default_rng(1)
    for shape in [(7, 13, 5), (33, 17, 29), (1, 9, 1)]:
        a = rng.integers(-50, 50, size=shape[:2]).astype(np.int64)
        b = rng.integers(-50, 50, size=shape[1:]).astype(np.int64)
        assert np.array_equal(matmul_strassen(a, b, base=4), matmul_cubic(a, b))


@pytest.mark.parametrize("size, routed", [(STRASSEN_THRESHOLD, True),
                                           (STRASSEN_THRESHOLD - 1, False)])
def test_matmul_strassen_dispatch(monkeypatch, size, routed):
    calls = []

    def spy(a, b, *args):  # the recursion looks matmul_strassen up again
        calls.append(a.shape)
        return matmul_strassen(a, b, *args)

    monkeypatch.setattr(kcut.islands, "matmul_strassen", spy)
    rng = np.random.default_rng(2)
    a = rng.integers(-9, 9, size=(size, 3)).astype(np.int64)
    b = rng.integers(-9, 9, size=(3, 2)).astype(np.int64)
    assert np.array_equal(matmul(a, b), a @ b)
    assert bool(calls) is routed


# ------------------------------------------------------------- solve_r_island

def test_star_r3():
    assert solve_r_island(star_graph(4), 3) == (3, (1, 2, 3))


def test_p3_r1():
    assert solve_r_island(path_graph(3), 1) == (1, (0,))


def test_k6_r3():
    assert solve_r_island(complete_graph(6), 3) == (12, (0, 1, 2))


def test_r_island_domain_errors():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        solve_r_island(g, 0)
    with pytest.raises(ValueError):
        solve_r_island(g, 4)
    with pytest.raises(Exception):
        solve_r_island(Graph.from_edges(2, [(0, 1, 2)]), 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_r_island_matches_oracle(r):
    rng = random.Random(r)
    for i in range(12):
        n = rng.randint(r + 1, 11)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=100 * r + i)
        value, islands = solve_r_island(g, r)
        ov, oi = brute_force_r_island(g, r)
        assert value == ov
        assert islands == oi
        assert (value, islands) == islands_reference.solve_r_island(g, r)
        assert len(islands) == r
        # returned witness achieves the value
        deg = g.degrees
        internal = sum(w for u, v, w in g.edges if u in islands and v in islands)
        assert sum(deg[v] for v in islands) - internal == value


def test_padding_boundaries():
    # r = 4 pads by 2, r = 5 pads by 1, r = 3 pads by 0
    g = gnp_graph(9, 0.6, 77)
    for r in (3, 4, 5):
        assert solve_r_island(g, r) == brute_force_r_island(g, r)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_degree_prune_drops_hubs(r):
    # Three adjacent hubs 0..2, each joined to most of the cycle 3..16.  A hub
    # is too dear to sit in a set as cheap as the r lowest-degree vertices
    # (only hub 0 still passes, at r = 5), so the search runs on fewer
    # vertices and its ids are mapped back.
    edges = [(3 + v, 3 + (v + 1) % 14) for v in range(14)]
    edges += [(h, 3 + v) for h in range(3) for v in range(14) if (v + h) % 4]
    edges += [(0, 1), (0, 2), (1, 2)]
    g = Graph.from_edges(17, edges)
    adj = weight_matrix(g)
    _, kept = _island_candidates(adj, adj.sum(axis=1), r)
    assert len(kept) < g.n
    assert solve_r_island(g, r) == brute_force_r_island(g, r)


# ------------------------------------------------- triple search vs reference

def _cycle_power(n, d):
    return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in range(1, d + 1)])


def _complete_bipartite(a):
    return Graph.from_edges(2 * a, [(u, a + v) for u in range(a) for v in range(a)])


def _assert_matches_reference(g, r):
    adj = weight_matrix(g)
    deg = adj.sum(axis=1)
    upper, kept = _island_candidates(adj, deg, r)
    sub, sub_deg = adj[np.ix_(kept, kept)], deg[kept]
    value, witnesses = _TripleSearch(sub, sub_deg, r).best_with_witnesses(upper)
    ref_value, ref_witnesses = islands_reference.TripleSearch(
        sub, sub_deg, r).best_with_witnesses(upper)
    assert value == ref_value
    assert sorted(map(tuple, witnesses.tolist())) == sorted(ref_witnesses)
    assert solve_r_island(g, r) == islands_reference.solve_r_island(g, r)


@pytest.mark.parametrize("n, p, seed, r", [
    (20, 0.7, 1, 3), (30, 0.85, 2, 4), (40, 0.9, 3, 5), (50, 0.7, 4, 4),
    (60, 0.85, 5, 5), (45, 0.9, 6, 3), (25, 0.9, 7, 5), (35, 0.7, 8, 5),
    (55, 0.9, 9, 4)])
def test_triple_search_matches_reference_dense(n, p, seed, r):
    _assert_matches_reference(gnp_graph(n, p, seed), r)


@pytest.mark.parametrize("graph", [
    _cycle_power(12, 2), _cycle_power(20, 3), _complete_bipartite(5)],
    ids=["C12^2", "C20^3", "K5,5"])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_triple_search_matches_reference_regular(graph, r):
    # Every vertex passes the degree test, the profile classes are few and
    # large, and many island sets tie for the optimum.
    _assert_matches_reference(graph, r)


def test_r_island_k88_r5():
    # 75,264 witnesses (3,136 distinct sets) tie for the optimum; the
    # lex-smallest is taken over all of them at once.
    g = _complete_bipartite(8)
    assert solve_r_island(g, 5) == brute_force_r_island(g, 5)


@pytest.mark.parametrize("n, p, seed, r, calls", [
    (50, 0.9, 8, 5, 101), (50, 0.85, 0, 4, 184)])
def test_triple_search_matmul_calls(monkeypatch, n, p, seed, r, calls):
    # The class-pair maxima bound every triple and guess; the reference
    # search, which walks every class triple, makes 1,349 and 1,285 here.
    count = [0]
    real_matmul = kcut.islands.matmul

    def counting_matmul(a, b):
        count[0] += 1
        return real_matmul(a, b)

    monkeypatch.setattr(kcut.islands, "matmul", counting_matmul)
    solve_r_island(gnp_graph(n, p, seed), r)
    assert count[0] == calls


def test_triple_search_rejects_weighted_matrix():
    with pytest.raises(GraphError):
        _TripleSearch(np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]]), np.array([2, 3, 1]), 3)


# -------------------------------------------------------------- extend_border

def test_extend_identity_at_zero():
    g = cycle_graph(6)
    cut = KCut.from_labels(g, (0, 0, 0, 1, 1, 1), 2)
    assert extend_border(g, cut, 0) is cut


def test_extend_two_k5_bridge():
    # bridge 2-cut + one island from a K5 = the minimum 3-cut (value 5)
    g = cliques_bridge(5, 2, 1)
    bridge = KCut.from_labels(g, tuple(0 if v < 5 else 1 for v in range(10)), 2)
    ext = extend_border(g, bridge, 1)
    assert ext is not None
    assert ext.k == 3
    assert ext.value == 5
    assert ext.value == brute_force_min_kcut(g, 3).value
    assert ext.value == cut_value(g, ext)


def test_extend_infeasible():
    g = path_graph(4)
    cut = KCut.from_labels(g, (0, 0, 1, 1), 2)
    # each part of size 2 accepts at most 1 island; i=3 has no composition
    assert extend_border(g, cut, 3) is None


def test_extend_value_recomputed():
    g = gnp_graph(10, 0.6, 9)
    cut = KCut.from_labels(g, tuple(0 if v < 5 else 1 for v in range(10)), 2)
    for i in (1, 2):
        ext = extend_border(g, cut, i)
        if ext is not None:
            assert ext.value == cut_value(g, ext)
            assert ext.k == 2 + i
