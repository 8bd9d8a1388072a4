"""Ground-truth solvers and classical subroutines."""
import math
import random
import sys
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcut.oracle
from kcut import (
    Graph,
    GraphError,
    KCut,
    SizeLimitError,
    brute_force_min_kcut,
    brute_force_r_island,
    connected_components,
    cut_value,
    exact_min_kcut,
    stoer_wagner_mincut,
    sv_2approx,
)
from kcut.generators import (
    cliques_bridge,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    star_graph,
)
from kcut.graph import weight_matrix
from kcut.oracle import _max_adjacency_order, _max_adjacency_phase, _min_kcut_search


def two_triangles_bridge():
    return Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def naive_min_kcut_value(g, k):
    best = None
    for labs in product(range(k), repeat=g.n):
        if len(set(labs)) != k:
            continue
        v = sum(w for a, b, w in g.edges if labs[a] != labs[b])
        if best is None or v < best:
            best = v
    return best


# ------------------------------------------------------- brute_force_min_kcut

def test_c5_k2():
    assert brute_force_min_kcut(cycle_graph(5), 2).value == 2


def test_two_triangles_bridge_k2():
    assert brute_force_min_kcut(two_triangles_bridge(), 2).value == 1


def test_c6_k3():
    assert brute_force_min_kcut(cycle_graph(6), 3).value == 3


def test_size_and_domain_errors():
    g = cycle_graph(5)
    with pytest.raises(SizeLimitError):
        brute_force_min_kcut(gnp_graph(15, 0.5, 0), 2)
    with pytest.raises(ValueError):
        brute_force_min_kcut(g, 6)
    with pytest.raises(ValueError):
        brute_force_min_kcut(g, 1)


def test_disconnected_zero_cut():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    cut = brute_force_min_kcut(g, 2)
    assert cut.value == 0
    cut3 = brute_force_min_kcut(g, 3)
    assert cut3.value == 0 and cut3.k == 3


def test_lex_smallest_tie_break():
    # C4 minimum 2-cut value 2 with several witnesses; canonical form must be
    # the restricted-growth-lex-smallest one.
    cut = brute_force_min_kcut(cycle_graph(4), 2)
    assert cut.value == 2
    assert cut.labels == (0, 0, 0, 1)  # lex-smallest among the value-2 witnesses


@given(st.integers(0, 10_000), st.integers(4, 8), st.sampled_from([0.3, 0.5, 0.8]))
@settings(max_examples=40, deadline=None)
def test_brute_force_matches_naive(seed, n, p):
    g = gnp_graph(n, p, seed)
    for k in (2, 3):
        cut = brute_force_min_kcut(g, k)
        assert cut.value == naive_min_kcut_value(g, k)
        # pruning is result-identical
        assert cut == _min_kcut_search(g, k, range(n), prune=False) or \
            connected_components_count(g) >= k


def connected_components_count(g):
    return len(connected_components(g).blocks)


def restricted_growth_strings(n, k):
    """Every label string on n vertices using exactly k labels, each label
    first used after the previous one, in lexicographic order."""
    def rec(prefix, used):
        if len(prefix) == n:
            if used == k:
                yield tuple(prefix)
            return
        for lab in range(min(used + 1, k)):
            yield from rec(prefix + [lab], max(used, lab + 1))
    return rec([], 0)


@given(st.integers(0, 10_000), st.integers(2, 8), st.sampled_from([0.1, 0.25, 0.4]))
@settings(max_examples=60, deadline=None)
def test_zero_value_cut_is_lex_smallest(seed, n, p):
    g = gnp_graph(n, p, seed)
    for k in range(2, connected_components_count(g) + 1):
        naive = next(labs for labs in restricted_growth_strings(n, k)
                     if all(labs[a] == labs[b] for a, b, _ in g.edges))
        cut = brute_force_min_kcut(g, k)
        assert cut.value == 0
        assert cut.labels == naive


def test_branch_and_bound_matches_oracle():
    rng = random.Random(7)
    for i in range(60):
        n = rng.randint(4, 10)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=3000 + i)
        for k in (2, 3, 4):
            if k > n:
                continue
            assert exact_min_kcut(g, k).value == brute_force_min_kcut(g, k).value


def test_exact_min_kcut_seeded_with_sv_matches_default():
    rng = random.Random(19)
    graphs = [cycle_graph(16), cliques_bridge(5, 3, 1)]
    graphs += [gnp_graph(rng.randint(5, 16), rng.choice([0.3, 0.5]), seed=8000 + i)
               for i in range(20)]
    for g in graphs:
        for k in (2, 3):
            assert exact_min_kcut(g, k, incumbent=sv_2approx(g, k)) == \
                exact_min_kcut(g, k)


def test_exact_min_kcut_keeps_optimal_incumbent():
    rng = random.Random(31)
    graphs = [cycle_graph(8), two_triangles_bridge()]
    graphs += [gnp_graph(rng.randint(5, 10), 0.5, seed=9000 + i) for i in range(20)]
    for g in graphs:
        if connected_components_count(g) > 1:
            continue  # zero-value inputs take the lex-smallest 0-value cut
        for k in (2, 3):
            opt = brute_force_min_kcut(g, k)
            assert exact_min_kcut(g, k, incumbent=opt) is opt
    with pytest.raises(ValueError):
        exact_min_kcut(cycle_graph(8), 3, incumbent=brute_force_min_kcut(cycle_graph(8), 2))


def test_exact_min_kcut_rejects_misvalued_incumbent():
    # The cut below has value 3 on C_10; a stored value of 1 would seed the
    # bound with a value no cut reaches and be returned as the optimum.
    with pytest.raises(ValueError):
        exact_min_kcut(cycle_graph(10), 3, incumbent=KCut(3, (0,) * 8 + (1, 2), value=1))
    honest = KCut.from_labels(cycle_graph(10), (0,) * 8 + (1, 2), 3)
    assert exact_min_kcut(cycle_graph(10), 3, incumbent=honest) is honest


def test_exact_min_kcut_takes_lambda_from_one_stoer_wagner_call(monkeypatch):
    # One call, through the module attribute that perfbench's tracer patches;
    # on C_400 the root bound ceil(3 * 2 / 2) = 3 meets the 2-approximation,
    # so the search closes at once.
    calls = []
    sw = kcut.oracle.stoer_wagner_mincut
    monkeypatch.setattr(kcut.oracle, "stoer_wagner_mincut",
                        lambda g: calls.append(g.n) or sw(g))
    g = cycle_graph(400)
    incumbent = KCut.from_labels(g, (0,) * 398 + (1, 2), 3)
    assert exact_min_kcut(g, 3, incumbent=incumbent) is incumbent
    assert calls == [400]


# ------------------------------------------------------- brute_force_r_island

def test_star_r3():
    value, islands = brute_force_r_island(star_graph(4), 3)
    assert value == 3
    assert islands == (1, 2, 3)


def test_p3_r1():
    assert brute_force_r_island(path_graph(3), 1) == (1, (0,))


def test_k4_r3():
    value, islands = brute_force_r_island(complete_graph(4), 3)
    assert value == 6
    assert islands == (0, 1, 2)


def test_r_island_domain_errors():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        brute_force_r_island(g, 0)
    with pytest.raises(ValueError):
        brute_force_r_island(g, 4)


def test_r_island_cross_enumeration():
    # The r-island optimum equals the best (r+1)-cut with exactly r
    # singleton parts, checked by direct enumeration on small graphs.
    rng = random.Random(5)
    for i in range(15):
        n = rng.randint(4, 8)
        g = gnp_graph(n, rng.choice([0.4, 0.7]), seed=4000 + i)
        for r in (1, 2, 3):
            if r + 1 > n:
                continue
            value, _ = brute_force_r_island(g, r)
            best = None
            for islands in combinations(range(n), r):
                rest = [v for v in range(n) if v not in islands]
                labs = [0] * n
                for j, v in enumerate(islands):
                    labs[v] = j + 1
                cost = sum(w for a, b, w in g.edges if labs[a] != labs[b])
                if best is None or cost < best:
                    best = cost
            assert value == best


# ------------------------------------------------------------- stoer_wagner

def test_sw_bridge():
    assert stoer_wagner_mincut(two_triangles_bridge())[0] == 1


def test_sw_k4():
    assert stoer_wagner_mincut(complete_graph(4))[0] == 3


def test_sw_c8():
    assert stoer_wagner_mincut(cycle_graph(8))[0] == 2


def test_sw_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    value, cut = stoer_wagner_mincut(g)
    assert value == 0 and cut.value == 0
    # vertex 0's component against the rest
    g = Graph.from_edges(6, [(0, 4), (1, 2), (4, 5), (3, 5)])
    assert stoer_wagner_mincut(g)[1].labels == (0, 1, 1, 0, 0, 0)


def test_sw_matches_brute_force():
    rng = random.Random(11)
    for i in range(40):
        n = rng.randint(3, 10)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=5000 + i)
        if connected_components_count(g) > 1:
            continue
        # the simple graph, then a multigraph on the same pairs: each pair
        # drawn one to three times with weights 1..4, merged by from_edges
        weighted = Graph.from_edges(n, [(u, v, rng.randint(1, 4)) for u, v, _ in g.edges
                                        for _ in range(rng.randint(1, 3))])
        for h in (g, weighted):
            assert stoer_wagner_mincut(h)[0] == brute_force_min_kcut(h, 2).value


@st.composite
def connected_weighted_graphs(draw, max_n=40, min_n=2):
    """A random spanning tree plus random extra pairs, weights 1..9."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v, draw(st.integers(1, 9))) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9))
    edges += [e for e in draw(st.lists(pair, max_size=3 * n)) if e[0] != e[1]]
    return Graph.from_edges(n, edges)


@given(connected_weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_sw_matches_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_weighted_edges_from(g.edges)
    value, cut = stoer_wagner_mincut(g)
    assert value == nx.stoer_wagner(ref)[0]
    assert cut_value(g, cut) == value
    assert cut.labels[0] == 0


@given(st.data(), st.integers(2, 4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_lambda_bound_matches_unbounded_search(data, k, seeded):
    # Same order, same incumbent: the lambda bound only skips branches that
    # cannot strictly beat the best, so the returned KCut is identical.
    g = data.draw(connected_weighted_graphs(max_n=10, min_n=k))
    order = data.draw(st.permutations(range(g.n)))
    incumbent = sv_2approx(g, k) if seeded else None
    lam = stoer_wagner_mincut(g)[0]
    assert _min_kcut_search(g, k, order, incumbent=incumbent, lam=lam) == \
        _min_kcut_search(g, k, order, incumbent=incumbent)


def test_deep_search_needs_no_recursion():
    # 300 K_4s chained by 2 bridge edges: lambda = 2, and cutting off the
    # first clique and the second gives a 3-cut of value 4.  The root bound
    # ceil(3 * 2 / 2) = 3 < 4 does not close the search, which then runs
    # 1,200 positions deep, beyond the default recursion limit.
    g = cliques_bridge(4, 300, 2)
    assert g.n > sys.getrecursionlimit()
    assert stoer_wagner_mincut(g)[0] == 2
    incumbent = KCut.from_labels(g, (0,) * 4 + (1,) * 4 + (2,) * (g.n - 8), 3)
    assert math.ceil(3 * 2 / 2) == 3 < incumbent.value == 4
    assert _min_kcut_search(g, 3, range(g.n), incumbent=incumbent, lam=2).value == 4


def test_sw_total_weight_beyond_int64_is_rejected():
    with pytest.raises(GraphError):
        stoer_wagner_mincut(Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62)]))
    # a total of exactly 2^63 - 1 still fits
    value, cut = stoer_wagner_mincut(Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62 - 1)]))
    assert value == 2**62 - 1 and cut.labels == (0, 0, 1)


def doubled(g):
    """g with every weight doubled: never simple, so Stoer-Wagner gets no
    degree floor, while every phase makes the same comparisons and ties."""
    return Graph.from_edges(g.n, [(u, v, 2 * w) for u, v, w in g.edges])


@given(st.integers(2, 40), st.sampled_from([0.5, 0.7, 0.9, 1.0]), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_sw_floor_matches_full_run(n, p, seed):
    g = gnp_graph(n, p, seed)
    value, cut = stoer_wagner_mincut(g)
    full_value, full_cut = stoer_wagner_mincut(doubled(g))
    assert cut.labels == full_cut.labels
    assert 2 * value == full_value


def count_phases(monkeypatch):
    phases = []
    phase = kcut.oracle._max_adjacency_phase
    monkeypatch.setattr(kcut.oracle, "_max_adjacency_phase",
                        lambda w: phases.append(len(w)) or phase(w))
    return phases


def test_sw_floor_runs_on_past_a_phase_above_delta(monkeypatch):
    # K_5 minus (0,2), (1,3), (1,4): delta = deg(1) = 2 = floor(5/2), so
    # lambda = 2 is certified, but phase 1 (order 0, 1, 2, 3, 4) ends on
    # vertex 4 with cut 3.  The loop must go on until a phase cuts 2.
    g = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert g.simple and min(g.degrees) == 2 == g.n // 2
    order, attach = _max_adjacency_phase(weight_matrix(g))
    assert order == [0, 1, 2, 3, 4] and attach[-1] == 3
    phases = count_phases(monkeypatch)
    value, cut = stoer_wagner_mincut(g)
    assert value == 2 and len(phases) > 1
    full_value, full_cut = stoer_wagner_mincut(doubled(g))
    assert (2 * value, cut.labels) == (full_value, full_cut.labels)


def test_sw_no_floor_below_half_n():
    # Two triangles joined by the edge (0, 5): delta = 2 < floor(6/2), and
    # lambda = 1.  Phase 1 cuts 2 = delta, so a floor taken from delta below
    # floor(n/2) would stop there with the wrong value.
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 5)])
    assert _max_adjacency_phase(weight_matrix(g))[1][-1] == 2 == min(g.degrees)
    value, cut = stoer_wagner_mincut(g)
    assert value == 1 and cut.labels == (0, 0, 0, 1, 1, 1)


def test_sw_floor_work_guard(monkeypatch):
    # K_30: delta = 29 >= 15, and phase 1 already cuts 29, so one phase.
    # C_30: delta = 2 < 15, no floor, so all n - 1 = 29 phases.
    phases = count_phases(monkeypatch)
    assert stoer_wagner_mincut(complete_graph(30))[0] == 29
    assert len(phases) == 1
    phases.clear()
    assert stoer_wagner_mincut(cycle_graph(30))[0] == 2
    assert len(phases) == 29


def reference_max_adjacency_order(g):
    """Pure-Python maximum-adjacency order: start at 0, ties to the lowest id."""
    weight_to_placed = [0] * g.n
    placed = [False] * g.n
    order = []
    for _ in range(g.n):
        v = min((v for v in range(g.n) if not placed[v]),
                key=lambda v: (-weight_to_placed[v], v))
        placed[v] = True
        order.append(v)
        for u, w in g.adjacency[v]:
            if not placed[u]:
                weight_to_placed[u] += w
    return order


def test_max_adjacency_order_matches_reference():
    rng = random.Random(23)
    graphs = [cycle_graph(12), complete_graph(7), path_graph(6), star_graph(5),
              cliques_bridge(4, 3, 1), Graph.from_edges(6, [(0, 4), (1, 2), (4, 5)])]
    graphs += [Graph.from_edges(n, [(u, v, rng.randint(1, 3)) for u, v, _ in
                                    gnp_graph(n, 0.4, seed=9500 + n).edges])
               for n in range(2, 16)]
    for g in graphs:
        assert _max_adjacency_order(g) == reference_max_adjacency_order(g)


# --------------------------------------------------------------- sv_2approx

def test_sv_bridge_k2_optimal():
    assert sv_2approx(two_triangles_bridge(), 2).value == 1


def test_sv_c6_k3():
    # Greedy splitting achieves 3 here (cheapest induced min 2-cuts twice),
    # which is within the 2(1-1/k) bound of the oracle value 3.
    val = sv_2approx(cycle_graph(6), 3).value
    oracle = brute_force_min_kcut(cycle_graph(6), 3).value
    assert oracle <= val <= 2 * (1 - 1 / 3) * oracle


def test_sv_2approx_caches_part_cuts(monkeypatch):
    # Each part's min 2-cut is computed once: 2k-3 Stoer-Wagner runs, made
    # through the module attribute that perfbench's tracer patches.
    calls = []
    sw = kcut.oracle.stoer_wagner_mincut
    monkeypatch.setattr(kcut.oracle, "stoer_wagner_mincut",
                        lambda g: calls.append(g.n) or sw(g))
    cut = sv_2approx(cliques_bridge(6, 5, 1), 4)
    assert len(calls) == 2 * 4 - 3
    assert cut.value == 3


def test_sv_zero_on_disconnected():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert sv_2approx(g, 3).value == 0


def test_sv_bound_random():
    rng = random.Random(13)
    for i in range(40):
        n = rng.randint(4, 10)
        g = gnp_graph(n, rng.choice([0.4, 0.6, 0.9]), seed=6000 + i)
        for k in (2, 3, 4):
            if k > n:
                continue
            approx = sv_2approx(g, k).value
            oracle = brute_force_min_kcut(g, k).value
            assert oracle <= approx <= 2 * (1 - 1 / k) * oracle or oracle == approx == 0


# ------------------------------------------------------------- monotonicity

def test_lambda_k_monotone():
    rng = random.Random(17)
    for i in range(20):
        n = rng.randint(5, 9)
        g = gnp_graph(n, rng.choice([0.4, 0.7]), seed=7000 + i)
        values = [brute_force_min_kcut(g, k).value for k in range(2, min(n, 5) + 1)]
        assert values == sorted(values)
