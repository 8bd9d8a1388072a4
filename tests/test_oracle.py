"""Ground-truth solvers and classical subroutines."""
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Graph,
    SizeLimitError,
    brute_force_min_kcut,
    brute_force_r_island,
    connected_components,
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
from kcut.oracle import _min_kcut_search


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


def test_sw_matches_brute_force():
    rng = random.Random(11)
    for i in range(40):
        n = rng.randint(3, 10)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=5000 + i)
        if connected_components_count(g) > 1:
            continue
        assert stoer_wagner_mincut(g)[0] == brute_force_min_kcut(g, 2).value


# --------------------------------------------------------------- sv_2approx

def test_sv_bridge_k2_optimal():
    assert sv_2approx(two_triangles_bridge(), 2).value == 1


def test_sv_c6_k3():
    # Greedy splitting achieves 3 here (cheapest induced min 2-cuts twice),
    # which is within the 2(1-1/k) bound of the oracle value 3.
    val = sv_2approx(cycle_graph(6), 3).value
    oracle = brute_force_min_kcut(cycle_graph(6), 3).value
    assert oracle <= val <= 2 * (1 - 1 / 3) * oracle


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
