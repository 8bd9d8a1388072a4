"""Partitioning stages: regularize, expander decompose, trim, shave, shatter."""
import math
from fractions import Fraction

import pytest

from kcut import (
    Graph,
    KCut,
    KTInvariantError,
    border_agrees,
    borders_of_cut,
    expander_decompose,
    is_expander,
    kt_partition,
    min_conductance_subset,
    regularize,
    shatter,
    shave,
    sv_2approx,
    trim,
)
from kcut.generators import cliques_bridge, complete_graph, cycle_graph, star_graph
from kcut.partition import ClusterState, KTParams, regularize_threshold


def two_k8_bridge():
    return cliques_bridge(8, 2, 1)


# ---------------------------------------------------------------- KTParams

def test_params_derivation():
    p = KTParams.derive(n=16, k=2, delta=3)
    assert p.epsilon == pytest.approx(1 / (2 * 4))
    assert p.gamma == Fraction(1, 3)
    assert regularize_threshold(2, 4) == Fraction(4, 2)
    assert 0 < p.epsilon < 1
    assert 0 < p.gamma <= 1


# -------------------------------------------------------------- regularize

def test_regularize_high_degree_unchanged():
    g = complete_graph(6)
    sub, removed, back = regularize(g, 2, 3)
    assert removed == []
    assert sub == g


def test_regularize_star_unchanged():
    g = star_graph(9)
    sub, removed, _ = regularize(g, 2, 1)  # threshold 1/2, all degrees >= 1
    assert removed == []
    assert sub.n == 10


def test_regularize_two_k6_bridge():
    g = cliques_bridge(6, 2, 1)
    sub, removed, _ = regularize(g, 2, 2)  # threshold 1, no degree < 1
    assert removed == []
    assert sub.n == g.n


def test_regularize_removes_low_degree():
    # pendant chain off a K6: threshold 6/(2*2) = 1.5 peels the chain tip,
    # then the newly exposed chain vertex
    g = Graph.from_edges(8, [(u, v) for u in range(6) for v in range(u + 1, 6)]
                         + [(5, 6), (6, 7)])
    sub, removed, back = regularize(g, 3, 6)
    assert removed == [7, 6]
    assert sub.n == 6


def test_regularize_error_at_k_removals():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(KTInvariantError):
        regularize(g, 2, 100)


# ------------------------------------------------------------- conductance

def test_k8_exact_min_conductance():
    cond, subset = min_conductance_subset(complete_graph(8))
    assert cond == Fraction(16, 28)  # balanced bisection: 16 crossing, vol 28
    assert len(subset) == 4


def test_is_expander_k8():
    assert is_expander(complete_graph(8), Fraction(1, 7))


def test_expander_decompose_k8_single_block():
    p = expander_decompose(complete_graph(8), Fraction(1, 7))
    assert len(p.blocks) == 1


def test_expander_decompose_two_k5_bridge():
    g = cliques_bridge(5, 2, 1)
    p = expander_decompose(g, Fraction(3, 10))
    assert p.blocks == (tuple(range(5)), tuple(range(5, 10)))


def test_expander_decompose_single_vertex():
    p = expander_decompose(Graph.from_edges(1, []), Fraction(1, 2))
    assert p.blocks == ((0,),)


def test_expander_decompose_certifies_small_blocks():
    g = cliques_bridge(6, 3, 1)
    gamma = Fraction(1, 4)
    p = expander_decompose(g, gamma)
    for block in p.blocks:
        if 1 < len(block) <= 16:
            from kcut.graph import induced_subgraph
            sub, _ = induced_subgraph(g, block)
            assert is_expander(sub, gamma)


# ------------------------------------------------------- trim/shave/shatter

def test_trim_whole_component_unchanged():
    g = complete_graph(5)
    state = ClusterState(clusters=[list(range(5))], singletons=set())
    out = trim(g, state)
    assert out.clusters == [list(range(5))]
    assert out.singletons == set()


def test_trim_pendant_stays():
    # K5 plus pendant p: p keeps its whole degree inside the cluster
    g = Graph.from_edges(6, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5)])
    state = ClusterState(clusters=[list(range(6))], singletons=set())
    assert trim(g, state).singletons == set()


def test_trim_threshold_non_strict():
    # vertex 0 with 2 of 5 neighbors inside its cluster: 2/5 <= 2/5 trims it
    edges = [(0, 1), (0, 2),            # inside cluster
             (0, 5), (0, 6), (0, 7)]    # outside
    edges += [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
              (1, 8), (2, 8), (3, 8), (3, 9), (4, 8), (4, 9)]
    g = Graph.from_edges(10, edges)
    state = ClusterState(clusters=[[0, 1, 2, 3, 4]], singletons=set())
    out = trim(g, state)
    assert 0 in out.singletons


def test_shave_keeps_dense_core():
    g = complete_graph(6)
    state = ClusterState(clusters=[list(range(6))], singletons=set())
    out = shave(g, state, epsilon=0.1)
    assert out.cores == [list(range(6))]


def test_shave_boundary_vertex():
    # vertex keeping 9 of 10 edges inside, epsilon = 1/20: 9 <= (19/20)*10
    inside = [(0, i) for i in range(1, 10)]
    dense = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
    g = Graph.from_edges(11, inside + dense + [(0, 10)])
    state = ClusterState(clusters=[list(range(10))], singletons={10})
    out = shave(g, state, epsilon=1 / 20)
    assert 0 in out.singletons
    assert 0 not in out.cores[0]


def test_shatter_thresholds():
    state = ClusterState(clusters=[[0, 1], [2, 3, 4]], singletons=set(),
                         cores=[[0, 1], [2, 3, 4]])
    out = shatter(state, 2)
    assert out.cores == [[], [2, 3, 4]]
    assert out.singletons == {0, 1}
    # all cores empty: unchanged
    empty = ClusterState(clusters=[[0]], singletons={0}, cores=[[]])
    assert shatter(empty, 3).singletons == {0}


# ------------------------------------------------------------ kt_partition

def check_partition_covers(partition, n):
    seen = sorted(v for b in partition.blocks for v in b)
    assert seen == list(range(n))


def test_kt_complete_graph_single_block():
    g = complete_graph(8)
    lam = sv_2approx(g, 2).value
    partition, report = kt_partition(g, 2, lam)
    assert report["q"] == 1
    assert partition.blocks == (tuple(range(8)),)


def test_kt_c5_single_block():
    partition, report = kt_partition(cycle_graph(5), 2, 2)
    assert report["q"] == 1


def test_kt_two_k8_bridge_invariants():
    g = two_k8_bridge()
    lam = sv_2approx(g, 2).value
    partition, report = kt_partition(g, 2, lam)
    check_partition_covers(partition, g.n)
    assert report["stages"]["regularized_removed"] <= 1
    # A border of the minimum 2-cut (the bridge) agrees with the partition.
    bridge = KCut.from_labels(g, tuple(0 if v < 8 else 1 for v in range(16)), 2)
    assert any(border_agrees(g, b, partition) for b in borders_of_cut(g, bridge))


def test_kt_tiny_cores_all_singletons():
    # cores of size <= k all shatter, leaving only singletons
    g = complete_graph(5)
    lam = sv_2approx(g, 5).value
    partition, report = kt_partition(g, 5, lam)
    assert report["q"] == 5
    assert all(len(b) == 1 for b in partition.blocks)


def test_kt_report_shape():
    g = two_k8_bridge()
    _, report = kt_partition(g, 2, sv_2approx(g, 2).value)
    assert set(report) == {"q", "stages", "params"}
    assert set(report["stages"]) == {
        "regularized_removed", "clusters", "trimmed", "shaved", "shattered"}
    assert set(report["params"]) == {"epsilon", "gamma"}


def test_kt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kt_partition(cycle_graph(5), 2, 0)
    with pytest.raises(Exception):
        kt_partition(Graph.from_edges(2, [(0, 1, 2)]), 2, 1)


# ---------------------------------------------------------------- borders

def test_borders_of_cut_counts():
    g = star_graph(4)
    cut = KCut.from_labels(g, (0, 1, 2, 0, 0), 3)  # singleton parts {1}, {2}
    borders = list(borders_of_cut(g, cut))
    # I over subsets of 2 singleton parts, sigma into the single host part:
    # |I|=0 ->1, |I|=1 -> 2, |I|=2 -> 1
    assert len(borders) == 4
    for b in borders:
        assert b.reconstruct_kcut(g).value == cut.value


def test_border_reconstruction_roundtrip():
    g = cliques_bridge(5, 2, 1)
    labels = [0] * 5 + [1] * 5
    labels[3] = 2  # singleton island in the first clique
    cut = KCut.from_labels(g, tuple(labels), 3)
    for border in borders_of_cut(g, cut):
        rec = border.reconstruct_kcut(g)
        assert rec.k == cut.k
        assert sorted(map(sorted, rec.parts())) == sorted(map(sorted, cut.parts()))
