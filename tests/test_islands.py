"""Island discovery: matmul routes, r-island solving, border extension."""
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Graph,
    GraphError,
    KCut,
    brute_force_min_kcut,
    brute_force_r_island,
    canonical_labels,
    cut_value,
    extend_border,
    matmul,
    min_kcut,
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
from kcut.graph import induced_subgraph, weight_matrix
from kcut.islands import (
    STRASSEN_THRESHOLD,
    _island_candidates,
    _host_islands,
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
    with pytest.raises(ValueError, match="dimension mismatch"):
        matmul_strassen(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


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
    with pytest.raises(ValueError, match="nonnegative"):
        extend_border(g, KCut.from_labels(g, (0, 0, 1, 1), 2), -1)


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
    # r = 3, 4 and 5 cover every residue of r mod 3
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
    _, kept = _island_candidates(adj, adj.sum(axis=1), r, g.total_weight)
    assert len(kept) < g.n
    assert solve_r_island(g, r) == brute_force_r_island(g, r)


# ------------------------------------ branch and bound vs triple-search reference

def _cycle_power(n, d):
    return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in range(1, d + 1)])


def _complete_bipartite(a):
    return Graph.from_edges(2 * a, [(u, a + v) for u in range(a) for v in range(a)])


@pytest.mark.parametrize("n, p, seed, r", [
    (20, 0.7, 1, 3), (30, 0.85, 2, 4), (40, 0.9, 3, 5), (50, 0.7, 4, 4),
    (60, 0.85, 5, 5), (45, 0.9, 6, 3), (25, 0.9, 7, 5), (35, 0.7, 8, 5),
    (55, 0.9, 9, 4)])
def test_triple_search_matches_reference_dense(n, p, seed, r):
    # The library's branch and bound against the paper's triple search.
    g = gnp_graph(n, p, seed)
    assert solve_r_island(g, r) == islands_reference.solve_r_island(g, r)


@pytest.mark.parametrize("graph", [
    _cycle_power(12, 2), _cycle_power(20, 3), _complete_bipartite(5)],
    ids=["C12^2", "C20^3", "K5,5"])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_triple_search_matches_reference_regular(graph, r):
    # Every vertex passes the degree test and many island sets tie for the
    # optimum, so the lex-smallest one must be the first the search reaches.
    assert solve_r_island(graph, r) == islands_reference.solve_r_island(graph, r)


@st.composite
def _simple_graphs(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@given(_simple_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_r_island_matches_brute_force_and_reference(g, data):
    r = data.draw(st.integers(1, g.n - 1), label="r")
    found = solve_r_island(g, r)
    assert found == brute_force_r_island(g, r)
    if r <= 6:  # the reference takes seconds per call beyond
        assert found == islands_reference.solve_r_island(g, r)


@given(_simple_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_capped_r_island_is_uncapped_within_cap(g, data):
    # Caps below, at and above the optimum: the uncapped result when it is
    # within the cap, None otherwise.
    r = data.draw(st.integers(1, g.n - 1), label="r")
    found = solve_r_island(g, r)
    assert found == brute_force_r_island(g, r)
    cap = found[0] + data.draw(st.integers(-4, 3), label="offset")
    assert solve_r_island(g, r, max_value=cap) == (found if found[0] <= cap else None)


def test_cap_shrinks_the_prefilter():
    # The optimum costs 194 and the r lowest-degree vertices 196; a cap at the
    # optimum drops the vertices only the weaker bound let through.
    g = gnp_graph(50, 0.9, 8)
    adj = weight_matrix(g)
    deg = adj.sum(axis=1)
    upper, kept = _island_candidates(adj, deg, 5, g.total_weight)
    capped_upper, capped = _island_candidates(adj, deg, 5, 194)
    assert (upper, capped_upper) == (196, 194)
    assert len(capped) < len(kept) == 37
    assert set(capped.tolist()) <= set(kept.tolist())
    assert solve_r_island(g, 5, max_value=194) == solve_r_island(g, 5) == (194, (0, 3, 4, 14, 32))
    assert solve_r_island(g, 5, max_value=193) is None


def test_r_island_k88_r5():
    # 3,136 distinct sets tie for the optimum.
    g = _complete_bipartite(8)
    assert solve_r_island(g, 5) == brute_force_r_island(g, 5)


@pytest.mark.parametrize("n", [60, 100])
def test_r_island_long_cycle_r10(n):
    # The pair table of the triangle route would need hundreds of GiB here.
    assert solve_r_island(cycle_graph(n), 10) == (11, tuple(range(10)))


@pytest.mark.parametrize("n, p, k, value", [
    (40, 0.5, 9, 105), (60, 0.5, 9, 176), (30, 0.6, 12, 143)])
def test_min_kcut_with_many_islands(n, p, k, value):
    # Each solve ends in one r-island call with r = k - 1 on the whole graph,
    # which took seconds to minutes on the triangle route.
    assert min_kcut(gnp_graph(n, p, 1), k).value == value


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


@pytest.mark.parametrize("labels", [(0, 0, 1, 1, 1), (0, 1, 1, 1, 1)])
def test_extend_rejects_a_weighted_graph(labels):
    # Where the weight-3 edge sits must not decide between an error and a
    # cut: every border of a non-simple graph is refused up front.
    g = Graph.from_edges(5, [(0, 1, 3), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    cut = KCut.from_labels(g, labels, 2)
    for i in (0, 1):
        with pytest.raises(GraphError, match="simple graphs"):
            extend_border(g, cut, i)


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


def test_extend_cap_edges():
    g = cycle_graph(6)
    cut = KCut.from_labels(g, (0, 0, 0, 1, 1, 1), 2)
    assert extend_border(g, cut, 0, max_value=2) is cut
    assert extend_border(g, cut, 0, max_value=1) is None
    assert extend_border(g, cut, 1, max_value=1) is None   # below the border
    # Each host of P4's middle cut (value 1) carves one island for 1, within
    # its own cap of 2 - 1, but the two together cost 3.
    g = path_graph(4)
    cut = KCut.from_labels(g, (0, 0, 1, 1), 2)
    assert extend_border(g, cut, 2).value == 3
    assert extend_border(g, cut, 2, max_value=3).value == 3
    assert extend_border(g, cut, 2, max_value=2) is None


@pytest.mark.parametrize("g, i", [(gnp_graph(30, 0.5, 3), 4), (cliques_bridge(5, 2, 1), 2),
                                  (complete_graph(8), 3)])
def test_whole_graph_host_is_not_copied(monkeypatch, g, i):
    # The one-part border (the s = 1 round) is solved on g itself: the
    # islands are solve_r_island's on g, given g's own matrix, not a slice.
    value, islands = solve_r_island(g, i)
    calls = []
    solve = kcut.islands.solve_r_island
    def spy(h, r, max_value=None, w=None):
        calls.append((h, w))
        return solve(h, r, max_value, w)
    monkeypatch.setattr(kcut.islands, "solve_r_island", spy)
    w = weight_matrix(g)
    ext = extend_border(g, KCut.from_labels(g, (0,) * g.n, 1), i, w=w)
    assert len(calls) == 1 and calls[0][0] is g and calls[0][1] is w
    labels = [0] * g.n
    for j, v in enumerate(islands):
        labels[v] = j + 1
    assert ext == KCut.from_labels(g, canonical_labels(labels), i + 1)
    assert ext.value == value


@st.composite
def borders(draw):
    """A G(n, p) graph with n <= 10, a border cut with up to 4 parts, and an
    island count from 1 to n."""
    n = draw(st.integers(2, 10))
    g = gnp_graph(n, draw(st.sampled_from([0.3, 0.6, 0.9])), draw(st.integers(0, 10**6)))
    labels = canonical_labels(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return g, KCut.from_labels(g, labels), draw(st.integers(1, n))


def _best_placement(g, cut, i):
    """Least value over every way to cut i singletons out of the border's
    non-singleton parts, each part keeping a vertex; None if there is none."""
    hosts = [v for p in cut.parts() if len(p) >= 2 for v in p]
    best = None
    for islands in combinations(hosts, i):
        labels = list(cut.labels)
        for j, v in enumerate(islands):
            labels[v] = cut.k + j
        if len(set(labels)) < cut.k + i:
            continue
        value = sum(w for u, v, w in g.edges if labels[u] != labels[v])
        best = value if best is None else min(best, value)
    return best


@given(borders())
@settings(max_examples=150, deadline=None)
def test_extend_equals_every_placement(case):
    # extend_border's value is the least placement's, and it returns None
    # exactly when there is no placement.
    g, cut, i = case
    best = _best_placement(g, cut, i)
    ext = extend_border(g, cut, i)
    if best is None:
        assert ext is None
    else:
        assert (ext.k, ext.value, cut_value(g, ext)) == (cut.k + i, best, best)


@given(borders(), st.data())
@settings(max_examples=150, deadline=None)
def test_capped_extend_is_uncapped_within_cap(case, data):
    # Caps from below the border's own value to above the best placement.
    # The strategy's borders have up to 4 parts, so many have several hosts
    # and a nonzero value, which each host's cap is taken from.
    g, cut, i = case
    best = _best_placement(g, cut, i)
    top = cut.value + 2 if best is None else best + 2
    cap = data.draw(st.integers(min(cut.value, top) - 2, top), label="cap")
    capped = extend_border(g, cut, i, max_value=cap)
    if best is None or best > cap:
        assert capped is None
    else:
        assert capped == extend_border(g, cut, i) and capped.value == best


@given(st.integers(3, 12), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 10**6), st.data())
@settings(max_examples=150, deadline=None)
def test_host_islands_equal_solving_the_induced_host(n, p, seed, data):
    # The one-island shortcut must change no answer, ties and caps included;
    # no cap is the host's total weight.
    g = gnp_graph(n, p, seed)
    part = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2), label="part")))
    cnt = data.draw(st.integers(1, len(part) - 1), label="cnt")
    sub, back = induced_subgraph(g, part)
    best = solve_r_island(sub, cnt)[0]
    cap = data.draw(st.one_of(st.none(), st.integers(best - 2, best + 2)), label="cap")
    solved = solve_r_island(sub, cnt, max_value=cap)
    want = None if solved is None else tuple(back[v] for v in solved[1])
    host_cap = sub.total_weight if cap is None else cap
    assert _host_islands(g, weight_matrix(g), part, cnt, host_cap) == want
