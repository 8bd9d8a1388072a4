"""Ground-truth solvers and classical subroutines."""
import math
import random
import sys
from itertools import combinations, product
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kcut.oracle
from kcut import (
    Graph,
    GraphError,
    InvalidCutError,
    KCut,
    SizeLimitError,
    brute_force_min_kcut,
    brute_force_r_island,
    connected_components,
    cut_value,
    exact_min_kcut,
    min_kcut,
    stoer_wagner_mincut,
    sv_2approx,
)
from kcut.generators import (
    cliques_bridge,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    planted_instance,
    star_graph,
)
from kcut.graph import component_roots, has_unit_bridge, nonzeros, weight_matrix
from kcut.oracle import _max_adjacency_phase, _min_kcut_search, list_kcuts

from helpers import adjacency, graphs, heavy_graphs, list_kcuts_reference, sv_2approx_reference


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
    for k in (1, 6):
        with pytest.raises(ValueError, match=f"k must be in 2..n, got k={k}"):
            exact_min_kcut(g, k)
        with pytest.raises(ValueError, match=f"k must be in 2..n, got k={k}"):
            sv_2approx(g, k)
    with pytest.raises(ValueError, match="n >= 2"):
        stoer_wagner_mincut(Graph.from_edges(1, []))


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
        # pruning is result-identical: the cheapest cut, lex-smallest labels
        assert (cut.value, cut.labels) == list_kcuts_reference(g, k, g.total_weight)[0] or \
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
                        lambda g, *w: calls.append(g.n) or sw(g, *w))
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
    with pytest.raises(SizeLimitError):
        brute_force_r_island(complete_graph(19), 1)


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


@st.composite
def heavy_multigraphs(draw, max_n=40):
    """Connected multigraphs: a random spanning tree, copies of some of its
    pairs (merged by from_edges) and random extra pairs, with weights either
    small, for ties, or up to 2^40."""
    n = draw(st.integers(2, max_n))
    weight = st.one_of(st.integers(1, 3), st.integers(1, 2**40))
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    copies = draw(st.lists(st.sampled_from(edges), max_size=n))
    edges += [(u, v, draw(weight)) for u, v, _ in copies]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    edges += [e for e in draw(st.lists(pair, max_size=3 * n)) if e[0] != e[1]]
    return Graph.from_edges(n, edges)


@given(heavy_multigraphs())
@settings(max_examples=80, deadline=None)
def test_sw_matches_networkx_and_brute_force_on_heavy_multigraphs(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_weighted_edges_from(g.edges)
    value, cut = stoer_wagner_mincut(g)
    assert value == nx.stoer_wagner(ref)[0]
    assert cut_value(g, cut) == value and cut.labels[0] == 0
    if g.n <= 12:
        assert value == brute_force_min_kcut(g, 2).value


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


# ------------------------------------------------------------ list mode

@st.composite
def listing_cases(draw):
    """(g, s, bound, lam): a weighted graph on at most 8 vertices (weights
    1..9, possibly disconnected), s <= 4, a bound around its s-cut values,
    and lam either 0 or its min cut."""
    n = draw(st.integers(1, 8), label="n")
    v = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(v, v, st.integers(1, 9)), max_size=3 * n), label="edges")
    g = Graph.from_edges(n, [e for e in edges if e[0] != e[1]])
    s = draw(st.integers(1, 4), label="s")
    bound = draw(st.integers(-1, g.total_weight + 1), label="bound")
    lam = stoer_wagner_mincut(g)[0] if n >= 2 and draw(st.booleans()) else 0
    return g, s, bound, lam


def _as_pairs(cuts):
    return [(c.value, c.labels) for c in cuts]


@given(listing_cases())
@settings(max_examples=150, deadline=None)
def test_list_mode_equals_reference(case):
    g, s, bound, lam = case
    want = list_kcuts_reference(g, s, bound)
    cuts, truncated = list_kcuts(g, s, bound, lam)
    assert not truncated
    assert _as_pairs(cuts) == want
    for c in cuts:
        assert c.k == s and c.value == cut_value(g, c)
    cheapest, truncated = list_kcuts(g, s, bound, lam, cheapest=True)
    assert not truncated
    assert _as_pairs(cheapest) == [pair for pair in want if pair[0] == want[0][0]]


@given(listing_cases(), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_list_mode_budget_never_hit_changes_nothing(case, extra):
    # Every search node is a label string prefix in first-occurrence form,
    # and there are fewer than 2 * 4^8 of those on 8 vertices.
    g, s, bound, lam = case
    free = list_kcuts(g, s, bound, lam)
    assert list_kcuts(g, s, bound, lam, budget=2 * 4 ** 8 + extra) == free


@given(listing_cases(), st.integers(0, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_list_mode_tiny_budget_truncates(case, budget, cheapest):
    g, s, bound, lam = case
    want = list_kcuts_reference(g, s, bound)
    if cheapest:
        want = [pair for pair in want if pair[0] == want[0][0]]
    cuts, truncated = list_kcuts(g, s, bound, lam, budget=budget, cheapest=cheapest)
    got = _as_pairs(cuts)
    assert got == sorted(got)
    assert all(value <= bound for value, _ in got)
    assert set(got) <= set(list_kcuts_reference(g, s, bound))
    if cheapest:
        assert len({value for value, _ in got}) <= 1
    if not truncated:
        assert got == want


def test_list_mode_reports_truncation():
    # 3-cuts of C_12 of value 3 are the C(12, 3) choices of three edges; a
    # budget of 20 nodes cannot reach them all.
    g = cycle_graph(12)
    cuts, truncated = list_kcuts(g, 3, 3, lam=2, budget=20)
    assert truncated and 0 < len(cuts) < math.comb(12, 3)
    full, truncated = list_kcuts(g, 3, 3, lam=2)
    assert not truncated and len(full) == math.comb(12, 3)
    assert full[0] == brute_force_min_kcut(g, 3)


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
    # No Graph holds such weights: the input is rejected when it is built.
    with pytest.raises(GraphError, match="overflows"):
        stoer_wagner_mincut(Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62)]))
    # a total of exactly 2^63 - 1 still fits
    value, cut = stoer_wagner_mincut(Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62 - 1)]))
    assert value == 2**62 - 1 and cut.labels == (0, 0, 1)


def tripled(g):
    """g with every weight tripled: never simple, so Stoer-Wagner gets no
    degree floor, and every cut is a multiple of 3, never 1 or 2, so no
    connectivity or bridge floor either (unless an isolated vertex keeps
    delta at 0); every phase makes the same comparisons and ties as on g,
    and on a connected g all n - 1 run."""
    return Graph.from_edges(g.n, [(u, v, 3 * w) for u, v, w in g.edges])


@given(st.integers(2, 40), st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9, 1.0]),
       st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_sw_floor_matches_full_run(n, p, seed):
    g = gnp_graph(n, p, seed)
    value, cut = stoer_wagner_mincut(g)
    full_value, full_cut = stoer_wagner_mincut(tripled(g))
    assert cut.labels == full_cut.labels
    assert 3 * value == full_value


def count_phases(monkeypatch):
    phases = []
    phase = kcut.oracle._max_adjacency_phase
    monkeypatch.setattr(kcut.oracle, "_max_adjacency_phase",
                        lambda w: phases.append(len(w)) or phase(w))
    return phases


def test_sw_floor_runs_on_past_a_phase_above_delta(monkeypatch):
    # K_5 minus (0,2), (1,3), (1,4): delta = deg(1) = 2 = floor(5/2), so
    # lambda = 2 is certified before any phase, though phase 1 (order
    # 0, 1, 2, 3, 4) would end on vertex 4 with cut 3.  The degree cut {1},
    # the best from the start, is final, and it is the side the full run on
    # tripled(g) returns.
    g = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert g.simple and min(g.degrees) == 2 == g.n // 2
    order, attach = _max_adjacency_phase(weight_matrix(g))
    assert order == [0, 1, 2, 3, 4] and attach[-1] == 3
    phases = count_phases(monkeypatch)
    value, cut = stoer_wagner_mincut(g)
    assert (value, cut.labels) == (2, (0, 1, 0, 0, 0)) and len(phases) == 0
    full_value, full_cut = stoer_wagner_mincut(tripled(g))
    assert (3 * value, cut.labels) == (full_value, full_cut.labels)


def test_sw_no_floor_below_half_n():
    # Two triangles joined by the edge (0, 5): delta = 2 < floor(6/2), and
    # lambda = 1.  Phase 1 cuts 2 = delta, so a floor taken from delta below
    # floor(n/2) would stop there with the wrong value.
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 5)])
    assert _max_adjacency_phase(weight_matrix(g))[1][-1] == 2 == min(g.degrees)
    value, cut = stoer_wagner_mincut(g)
    assert value == 1 and cut.labels == (0, 0, 0, 1, 1, 1)


def test_sw_floor_work_guard(monkeypatch):
    # K_30: delta = 29 >= 15, so the smallest degree is certified and no
    # phase runs.
    # Three K_10s chained by 3 edges: delta = 9 < 15, so no Chartrand floor,
    # and lambda = 3 is above the bridge floor 2, so nothing certifies it.
    # One s-t merge per phase took all n - 1 = 29 phases; merging every edge
    # whose attachment reaches the best cut takes 3.  A floor taken from
    # delta below floor(n/2) would stop at phase 1.
    phases = count_phases(monkeypatch)
    assert stoer_wagner_mincut(complete_graph(30))[0] == 29
    assert len(phases) == 0
    phases.clear()
    g = cliques_bridge(10, 3, 3)
    assert min(g.degrees) == 9 < g.n // 2
    assert stoer_wagner_mincut(g)[0] == 3
    assert len(phases) == 3


@pytest.mark.parametrize("shape", [(4, 25, 0.9, 0.005, 0), (5, 20, 0.9, 0.002, 0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sw_contraction_work_guard_on_planted_graphs(monkeypatch, shape, seed):
    # The planted exact_sparse shapes: n = 100, lambda >= 4, and no floor
    # applies, so one s-t merge per phase ran all 99 phases.
    g, _ = planted_instance(*shape, seed=seed)
    phases = count_phases(monkeypatch)
    value, cut = stoer_wagner_mincut(g)
    assert len(phases) <= 8
    ref = nx.Graph([(u, v) for u, v, _ in g.edges])
    assert value == nx.stoer_wagner(ref)[0] == cut_value(g, cut)


def test_sw_only_reads_its_matrix(monkeypatch):
    # Each merge builds a smaller matrix, so a read-only input is fine and
    # stays as it was; the planted graph merges after phases of 100 and 24.
    g, _ = planted_instance(4, 25, 0.9, 0.005, 0, seed=0)
    w = weight_matrix(g)
    w.flags.writeable = False
    phases = count_phases(monkeypatch)
    value, side = kcut.oracle._stoer_wagner(w, g.simple)
    assert phases[:2] == [100, 24]
    ref_value, ref_side = kcut.oracle._stoer_wagner(w.copy(), g.simple)
    assert value == ref_value and (side == ref_side).all()
    assert (w == weight_matrix(g)).all()
    fresh = Graph(n=g.n, edges=g.edges, simple=g.simple)
    assert stoer_wagner_mincut(g, w) == stoer_wagner_mincut(fresh)


def test_sw_tie_break():
    # Vertex 0 joined to 1, 2, 3 by weight 2, plus (1, 2) and (2, 3):
    # degrees 6, 3, 4, 3, and the min cuts are {1} and {3}.  The smallest
    # degree starts as the best, ties to the lowest id, and phase 1 (order
    # 0, 1, 2, 3) ends on the cut {3}, which ties and does not replace it.
    g = Graph.from_edges(4, [(0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2), (2, 3)])
    assert _max_adjacency_phase(weight_matrix(g)) == ([0, 1, 2, 3], [0, 2, 3, 3])
    value, cut = stoer_wagner_mincut(g)
    assert (value, cut.labels) == (3, (0, 1, 0, 0))
    # The weighted path 0-1-...-5 with weights 5, 2, 5, 2, 5: phase 1 places
    # it in order, and its prefix cuts {0, 1} and {0, 1, 2, 3} both cut 2,
    # below every degree; the shorter prefix is the answer.
    g = Graph.from_edges(6, [(0, 1, 5), (1, 2, 2), (2, 3, 5), (3, 4, 2), (4, 5, 5)])
    assert _max_adjacency_phase(weight_matrix(g))[0] == list(range(6))
    value, cut = stoer_wagner_mincut(g)
    assert (value, cut.labels) == (2, (0, 0, 1, 1, 1, 1))
    # The answer here is the side {0}; vertex 0 still gets label 0.
    g = Graph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 4)])
    assert stoer_wagner_mincut(g) == (2, KCut.from_labels(g, (0, 1, 1), 2))


@st.composite
def small_lambda_graphs(draw):
    """Connected graphs with lambda in {1, 2}: a tree (sometimes a path) plus
    a few extra pairs, a cycle with chords, or cliques chained by 1-2 edges;
    sometimes with weights 1..3 (a weight-1 edge keeps the tree and chain
    cuts at 1 or 2)."""
    kind = draw(st.sampled_from(["tree", "path", "cycle", "cliques"]))
    if kind == "cliques":
        g = cliques_bridge(draw(st.integers(2, 6)), draw(st.integers(2, 5)),
                           draw(st.integers(1, 2)))
    else:
        n = draw(st.integers(3, 40))
        if kind == "tree":
            edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        elif kind == "path":
            edges = [(v - 1, v) for v in range(1, n)]
        else:
            edges = [(v, (v + 1) % n) for v in range(n)]
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [e for e in draw(st.lists(pair, max_size=3)) if e[0] != e[1]]
        g = Graph.from_edges(n, edges)
    if draw(st.booleans()):
        weights = st.integers(1, 3)
        g = Graph.from_edges(g.n, [(u, v, draw(weights)) for u, v, _ in g.edges])
    return g


@given(small_lambda_graphs())
@settings(max_examples=150, deadline=None)
def test_sw_small_lambda_floor_matches_full_run(g):
    value, cut = stoer_wagner_mincut(g)
    full_value, full_cut = stoer_wagner_mincut(tripled(g))
    assert (3 * value, cut.labels) == (full_value, full_cut.labels)


def test_sw_stops_at_connectivity_and_bridge_floors(monkeypatch):
    # P_30: delta = 1, and a connected graph has lambda >= 1.
    # C_30: delta = 2, and no edge is a bridge, so lambda >= 2.
    # Both floors are read before phase 1 when delta <= 2, so no phase runs.
    # Two C_5s joined by the edge (0, 5): delta = 2, but (0, 5) is a bridge,
    # so phase 1 runs on past its phase cut 2 to a cut of 1.
    phases = count_phases(monkeypatch)
    for g, lam in [(path_graph(30), 1), (cycle_graph(30), 2)]:
        phases.clear()
        assert stoer_wagner_mincut(g)[0] == lam
        assert len(phases) == 0
    ring = [(v, (v + 1) % 5) for v in range(5)]
    g = Graph.from_edges(10, ring + [(u + 5, v + 5) for u, v in ring] + [(0, 5)])
    phases.clear()
    assert _max_adjacency_phase(weight_matrix(g))[1][-1] == 2
    # the phase cut 2 is not certified, and a prefix cut of phase 1 finds 1
    assert stoer_wagner_mincut(g)[0] == 1
    assert len(phases) == 1
    # a weight-2 bridge is no cut of value 1: two C_5s joined by (0, 5, 2)
    g = Graph.from_edges(10, ring + [(u + 5, v + 5) for u, v in ring] + [(0, 5, 2)])
    assert not has_unit_bridge(weight_matrix(g))
    assert stoer_wagner_mincut(g)[0] == 2


@pytest.mark.parametrize("g", [
    # two disjoint paths: delta = 1
    Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]),
    # the paths interleaved, so vertex 0's component is not a prefix
    Graph.from_edges(8, [(0, 2), (2, 4), (4, 6), (1, 3), (3, 5), (5, 7)]),
    # a cycle and an isolated vertex: delta = 0, at vertex 2
    Graph.from_edges(6, [(0, 1), (1, 3), (3, 4), (4, 5), (5, 0)]),
    # an isolated vertex 0
    Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)]),
])
def test_sw_disconnected_below_three_runs_no_phase(monkeypatch, g):
    # delta <= 2: the component labelling shows g is disconnected before
    # phase 1, and the answer is vertex 0's component, which phase 1 places
    # before its first zero attachment.  tripled(g) has delta = 3 unless g
    # has an isolated vertex, and then its phase 1 finds the same side.
    assert min(g.degrees) <= 2 and len(g.components.blocks) > 1
    order, attach = _max_adjacency_phase(weight_matrix(g))
    side = set(order[:attach.index(0, 1)])
    phases = count_phases(monkeypatch)
    value, cut = stoer_wagner_mincut(g)
    assert len(phases) == 0
    assert (value, cut.labels) == (0, tuple(int(v not in side) for v in range(g.n)))
    phases.clear()
    full_value, full_cut = stoer_wagner_mincut(tripled(g))
    assert len(phases) == (min(g.degrees) > 0)
    assert (full_value, full_cut.labels) == (value, cut.labels)


def test_unit_bridge_search_needs_no_recursion():
    # The depth-first search runs 1,500 vertices deep on C_1500 and P_1500.
    assert 1500 > sys.getrecursionlimit()
    assert not has_unit_bridge(weight_matrix(cycle_graph(1500)))
    assert has_unit_bridge(weight_matrix(path_graph(1500)))
    assert stoer_wagner_mincut(cycle_graph(1500))[0] == 2


@given(connected_weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_unit_bridge_search_matches_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_weighted_edges_from(g.edges)
    expected = any(ref[u][v]["weight"] == 1 for u, v in nx.bridges(ref))
    assert has_unit_bridge(weight_matrix(g)) == expected


def test_sw_result_is_memoised_per_graph_object(monkeypatch):
    # A second call on the same object runs no phase; an equal but distinct
    # Graph object computes its own.  Four K_5s chained by 2 edges: phase 1
    # finds a cut of 2, and phase 2's cut brings the search for a unit
    # bridge, which certifies it.
    g = cliques_bridge(5, 4, 2)
    phases = count_phases(monkeypatch)
    first = stoer_wagner_mincut(g)
    ran = len(phases)
    assert ran == 2 and stoer_wagner_mincut(g) is first
    assert len(phases) == ran
    twin = Graph(n=g.n, edges=g.edges, simple=g.simple)
    assert stoer_wagner_mincut(twin) == first
    assert len(phases) == 2 * ran


def test_min_kcut_computes_the_whole_graph_min_cut_once(monkeypatch):
    # C_1100, k=2: sv_2approx's first round runs Stoer-Wagner on the graph
    # itself, which the bridge floor certifies before phase 1; exact_min_kcut
    # takes lambda = 2 from the memo, and its root bound ceil(2 * 2 / 2) = 2
    # meets the 2-approximation, so it builds no maximum-adjacency order.
    phases = count_phases(monkeypatch)
    report = min_kcut(cycle_graph(1100), 2)
    assert (report.branch, report.value) == ("exact", 2)
    assert len(phases) == 0


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
        for u, w in adjacency(g)[v]:
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
        assert _max_adjacency_phase(weight_matrix(g))[0] == reference_max_adjacency_order(g)


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
    # Each part's min 2-cut is computed once: 2k-3 Stoer-Wagner runs.  The
    # first, on the whole graph, goes through the module attribute that
    # perfbench's tracer patches; the others run the matrix core on slices.
    graph_calls, core_calls = [], []
    sw, core = kcut.oracle.stoer_wagner_mincut, kcut.oracle._stoer_wagner
    monkeypatch.setattr(kcut.oracle, "stoer_wagner_mincut",
                        lambda g, *w: graph_calls.append(g.n) or sw(g, *w))
    monkeypatch.setattr(kcut.oracle, "_stoer_wagner",
                        lambda w, *flags: core_calls.append(len(w)) or core(w, *flags))
    cut = sv_2approx(cliques_bridge(6, 5, 1), 4)
    assert graph_calls == [30]
    assert len(core_calls) == 2 * 4 - 3 and core_calls[0] == 30
    assert cut.value == 3


@st.composite
def dense_graphs(draw):
    """G(n, p) with p >= 0.8, where Chartrand's floor certifies most parts'
    min cuts before any phase."""
    return gnp_graph(draw(st.integers(2, 40)), draw(st.sampled_from([0.8, 0.9, 1.0])),
                     draw(st.integers(0, 10**6)))


@st.composite
def disconnected_graphs(draw):
    """Two drawn graphs side by side, their vertex ids interleaved by a
    drawn permutation."""
    a, b = draw(graphs(max_n=6)), draw(graphs(max_n=6, max_weight=1))
    perm = draw(st.permutations(range(a.n + b.n)))
    edges = [(u, v, w) for u, v, w in a.edges] + [(u + a.n, v + a.n, w) for u, v, w in b.edges]
    return Graph.from_edges(a.n + b.n, [(perm[u], perm[v], w) for u, v, w in edges])


def is_connected(w):
    return not component_roots(len(w), *nonzeros(w)).any()


@given(st.one_of(graphs(max_n=10, min_n=2), heavy_graphs(), dense_graphs(),
                 disconnected_graphs(), small_lambda_graphs()), st.data())
@settings(max_examples=250, deadline=None)
def test_sv_2approx_matches_the_induced_subgraph_reference(g, data):
    # The library cuts each part on a slice of one weight matrix; the
    # reference builds each part's induced subgraph and runs
    # stoer_wagner_mincut on it, on a distinct Graph object.  The sparse
    # connected draws split into parts of minimum degree <= 2, whose
    # connectivity the library takes from the split, not from a scan; the
    # hint is checked to be true wherever it is given.
    k = data.draw(st.integers(2, g.n), label="k")
    core = kcut.oracle._stoer_wagner

    def checked(w, simple, connected=False, *first):
        assert not connected or is_connected(w)
        return core(w, simple, connected, *first)

    with mock.patch.object(kcut.oracle, "_stoer_wagner", checked):
        cut = sv_2approx(g, k)
    ref = sv_2approx_reference(Graph(n=g.n, edges=g.edges, simple=g.simple), k)
    assert (cut.value, cut.labels) == (ref.value, ref.labels)


@given(st.one_of(small_lambda_graphs(), graphs(max_n=10, min_n=2), dense_graphs()))
@settings(max_examples=150, deadline=None)
def test_both_sides_of_a_positive_min_cut_are_connected(g):
    # sv_2approx tells Stoer-Wagner that a part cut off by a positive min
    # cut is connected; the hint changes no result on either side.
    value, cut = stoer_wagner_mincut(g)
    assume(value > 0)
    w = weight_matrix(g)
    for label in (0, 1):
        part = [v for v in range(g.n) if cut.labels[v] == label]
        side = w.take(part, 0).take(part, 1)
        assert is_connected(side)
        if len(part) >= 2:
            hinted = kcut.oracle._stoer_wagner(side, g.simple, True)
            scanned = kcut.oracle._stoer_wagner(side, g.simple, False)
            assert hinted[0] == scanned[0] and (hinted[1] == scanned[1]).all()


def test_sv_2approx_rejects_a_split_cost_that_is_not_its_cut(monkeypatch):
    # The final cut is checked against the sum of the split costs, so a
    # sub-part's min cut reported one too low is caught; the whole graph's
    # cut, which stoer_wagner_mincut checks itself, is left alone.
    core = kcut.oracle._stoer_wagner

    def understated(w, *flags):
        value, side = core(w, *flags)
        return value - (len(w) < 30), side

    monkeypatch.setattr(kcut.oracle, "_stoer_wagner", understated)
    with pytest.raises(InvalidCutError, match="greedy splitting"):
        sv_2approx(cliques_bridge(6, 5, 1), 4)


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
