"""End-to-end solver behavior."""
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kcut.graph
import kcut.islands
import kcut.oracle
import kcut.partition
import kcut.pipeline
from kcut import (
    Graph,
    GraphError,
    brute_force_min_kcut,
    canonical_labels,
    cut_value,
    exact_min_kcut,
    min_kcut,
    stoer_wagner_mincut,
    sv_2approx,
)
from kcut.generators import (PlantedInfo, certified_min_kcut, cliques_bridge, cycle_graph, gnp_graph,
                             planted_instance)
from kcut.graph import weight_matrix
from kcut.oracle import _min_kcut_search, kcut_lower_bound, list_kcuts
from kcut.pipeline import PipelineConfig


def planted_three_k8_instance():
    """Three K8 clusters, 5 inter-cluster edges, one degree-1 extra vertex."""
    edges = []
    for c in range(3):
        base = 8 * c
        edges += [(base + a, base + b) for a in range(8) for b in range(a + 1, 8)]
    edges += [(0, 8), (1, 16), (9, 17), (2, 10), (18, 3)]  # 5 inter edges
    edges += [(24, 4)]                                      # low-degree island
    return Graph.from_edges(25, edges)


def blown_up(n, seed):
    """G(n, 0.5, seed) with every vertex blown up into a K_9: edge uv of the
    base graph becomes one edge, from vertex v mod 9 of cluster u to vertex
    u mod 9 of cluster v.  Returns (graph, planted info of the clusters)."""
    base = gnp_graph(n, 0.5, seed)
    edges = [(9 * c + a, 9 * c + b) for c in range(n) for a in range(9) for b in range(a + 1, 9)]
    edges += [(9 * u + v % 9, 9 * v + u % 9) for u, v, _ in base.edges]
    clusters = tuple(tuple(range(9 * c, 9 * c + 9)) for c in range(n))
    return Graph.from_edges(9 * n, edges), PlantedInfo(k=0, clusters=clusters, islands=(), seed=seed)


def test_disconnected_zero():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    rep = min_kcut(g, 3)
    assert rep.value == 0
    assert rep.branch == "disconnected"


def test_c6_k3_exact_branch():
    rep = min_kcut(cycle_graph(6), 3)
    assert rep.value == 3
    assert rep.branch == "exact"


def test_planted_three_k8_k4():
    g = planted_three_k8_instance()
    rep = min_kcut(g, 4)
    assert rep.value == 6
    rep2 = min_kcut(g, 4, PipelineConfig(force_branch="sparsify"))
    assert rep2.value == 6


def test_never_worse_than_sv():
    rng = random.Random(23)
    for i in range(25):
        n = rng.randint(6, 12)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=1000 + i)
        k = rng.choice([2, 3, 4])
        cfg = PipelineConfig(force_branch="sparsify", trial_cap=2000)
        rep = min_kcut(g, k, cfg)
        assert rep.value <= sv_2approx(g, k).value
        assert all(r["trials"] == cfg.trial_cap for r in rep.border_stats)
        assert cut_value(g, rep.cut) == rep.value
        assert rep.cut.k == k
        assert rep.cut.labels == canonical_labels(rep.cut.labels)


def test_exact_branch_matches_oracle():
    rng = random.Random(29)
    for i in range(20):
        n = rng.randint(5, 11)
        g = gnp_graph(n, rng.choice([0.4, 0.7]), seed=2000 + i)
        k = rng.choice([2, 3])
        rep = min_kcut(g, k, PipelineConfig(force_branch="exact"))
        assert rep.branch == "exact"
        assert rep.value == brute_force_min_kcut(g, k).value


def test_determinism():
    g = gnp_graph(10, 0.6, 5)
    cfg = PipelineConfig(force_branch="sparsify")
    a = min_kcut(g, 3, cfg)
    b = min_kcut(g, 3, cfg)
    assert a.value == b.value
    assert a.cut == b.cut
    assert a.branch == b.branch == "sparsify"


def test_report_shape():
    g = gnp_graph(10, 0.7, 5)
    rep = min_kcut(g, 3, PipelineConfig(force_branch="sparsify"))
    doc = rep.to_dict()
    assert set(doc) >= {"k", "value", "components", "method", "branch", "stats"}
    assert doc["method"] == "pipeline"
    assert sorted(v for part in doc["components"] for v in part) == list(range(10))
    assert [p[0] for p in doc["components"]] == sorted(p[0] for p in doc["components"])
    assert rep.lambda_bar is not None
    assert len(rep.border_stats) == 3
    assert "total" in rep.timings


def test_exact_min_kcut_above_oracle_limit():
    g = gnp_graph(16, 0.5, 8)  # above the brute-force oracle's n <= 14
    cut = exact_min_kcut(g, 3)
    assert exact_min_kcut(cycle_graph(6), 3).value == 3
    assert cut.value == _min_kcut_search(g, 3, range(g.n)).value


def test_exact_branch_computes_sv_once(monkeypatch):
    calls = []

    def counted(g, k, *w):
        calls.append(k)
        return sv_2approx(g, k, *w)

    monkeypatch.setattr(kcut.pipeline, "sv_2approx", counted)
    monkeypatch.setattr(kcut.oracle, "sv_2approx", counted)
    rep = min_kcut(cycle_graph(30), 3)
    assert rep.branch == "exact" and rep.value == 3
    assert calls == [3]


def test_input_validation():
    with pytest.raises(GraphError):
        min_kcut(Graph.from_edges(3, [(0, 1, 2), (1, 2)]), 2)
    with pytest.raises(ValueError):
        min_kcut(cycle_graph(5), 6)
    with pytest.raises(ValueError):
        PipelineConfig(force_branch="bogus")


def test_two_k5_bridge_k3_sparsify():
    g = cliques_bridge(5, 2, 1)
    oracle = brute_force_min_kcut(g, 3).value
    rep = min_kcut(g, 3, PipelineConfig(force_branch="sparsify"))
    assert rep.value == oracle == 5


def _raise(*args, **kwargs):
    raise AssertionError("the sparsify route ran")


def test_k2_root_certificate_routes_to_exact(monkeypatch):
    # lambda_bar = 68 is far above the threshold (46.4 at n = 100), but at
    # k = 2 the 2-approximation is Stoer-Wagner, so ceil(2 * lambda / 2)
    # certifies it before the partition.
    misses = []

    def counted(g, *w):
        misses.append("_min_cut" not in vars(g))
        return stoer_wagner_mincut(g, *w)

    monkeypatch.setattr(kcut.oracle, "stoer_wagner_mincut", counted)
    monkeypatch.setattr(kcut.pipeline, "stoer_wagner_mincut", counted)
    monkeypatch.setattr(kcut.pipeline, "kt_partition", _raise)
    monkeypatch.setattr(kcut.partition, "ni_sparsify", _raise)
    g = gnp_graph(100, 0.8, 4)
    rep = min_kcut(g, 2)
    assert rep.branch == "exact" and not rep.fallback
    assert rep.value == rep.lambda_bar == 68
    assert rep.partition_stats is None and rep.border_stats == []
    assert sum(misses) == 1   # one Stoer-Wagner run, every later call a memo hit
    assert rep.cut == sv_2approx(gnp_graph(100, 0.8, 4), 2)


def test_forced_sparsify_ignores_root_certificate(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return kcut.partition.kt_partition(*args)

    monkeypatch.setattr(kcut.pipeline, "kt_partition", counted)
    rep = min_kcut(gnp_graph(100, 0.8, 4), 2, PipelineConfig(force_branch="sparsify"))
    assert rep.branch == "sparsify"
    assert calls == [(2, 68)]
    assert rep.partition_stats is not None and len(rep.border_stats) == 2


@pytest.mark.parametrize("g, k, cfg", [
    (gnp_graph(60, 0.85, 0), 5, PipelineConfig()),
    (planted_instance(4, 20, 0.9, 0.01, 3, seed=1)[0], 4,
     PipelineConfig(force_branch="sparsify", trial_cap=150)),
])
def test_a_solve_builds_one_weight_matrix(monkeypatch, g, k, cfg):
    # Every layer reads the solve's matrix of g: sv_2approx's parts, the
    # partition and the island hosts are its slices, never induced graphs,
    # and no layer writes to it.
    built = []

    def spy(h):
        w = weight_matrix(h)
        if h is g:
            built.append(w)
        return w

    def forbidden(*args):
        raise AssertionError("a solve built an induced subgraph")

    for mod in (kcut.pipeline, kcut.oracle, kcut.partition, kcut.islands):
        monkeypatch.setattr(mod, "weight_matrix", spy)
    for mod in (kcut.graph, kcut.pipeline, kcut.oracle, kcut.partition, kcut.islands):
        monkeypatch.setattr(mod, "induced_subgraph", forbidden, raising=False)
    rep = min_kcut(g, k, cfg)
    assert rep.branch == "sparsify" and rep.value == cut_value(g, rep.cut)
    assert len(built) == 1
    assert not built[0].flags.writeable
    assert np.array_equal(built[0], weight_matrix(g))


@pytest.mark.parametrize("g, k, cfg, builds", [
    # Forced sparsify, all-singleton partition: the border rounds run on g
    # itself and read its order; the matrices are g's and the sparsifier's
    # certificate's.
    (planted_instance(4, 20, 0.9, 0.01, 3, seed=1)[0], 4,
     PipelineConfig(force_branch="sparsify", trial_cap=150), 2),
    # Exact branch: the search's order is Stoer-Wagner's first phase.
    (planted_instance(4, 25, 0.9, 0.005, 0, seed=0)[0], 4, PipelineConfig(), 1),
])
def test_a_solve_orders_its_graph_once(monkeypatch, g, k, cfg, builds):
    phases, built = [], []
    phase = kcut.oracle._max_adjacency_phase
    monkeypatch.setattr(kcut.oracle, "_max_adjacency_phase",
                        lambda w: phases.append(len(w)) or phase(w))

    def spy(h):
        built.append(h.n)
        return weight_matrix(h)

    for mod in (kcut.pipeline, kcut.oracle, kcut.partition, kcut.islands):
        monkeypatch.setattr(mod, "weight_matrix", spy)
    rep = min_kcut(g, k, cfg)
    assert rep.branch == (cfg.force_branch or "exact")
    assert rep.partition_stats is None or rep.partition_stats["q"] == g.n
    assert "_search_setup" in vars(g)   # a search ran on g's order
    assert phases.count(g.n) == 1 and len(built) == builds
    if rep.branch == "exact":
        assert len(phases) > 1   # Stoer-Wagner merged after its first phase


def test_island_cap_changes_no_sparsify_output(monkeypatch):
    # The pipeline caps each extension at the best value so far; lifting the
    # cap must give the same report, ties on value included.
    cases = [(planted_three_k8_instance(), 4), (cliques_bridge(5, 2, 1), 3)]
    cases += [(gnp_graph(n, p, seed), k) for n, p, seed, k in
              [(12, 0.5, 3, 3), (14, 0.8, 4, 4), (16, 0.6, 5, 5), (20, 0.9, 6, 6)]]
    runs = [(g, k, PipelineConfig(force_branch="sparsify", trial_cap=300)) for g, k in cases]
    capped = [min_kcut(*run) for run in runs]
    uncapped_extend = kcut.pipeline.extend_border
    monkeypatch.setattr(kcut.pipeline, "extend_border",
                        lambda g, border, i, max_value, w: uncapped_extend(g, border, i, w=w))
    for rep, run in zip(capped, runs):
        free = min_kcut(*run)
        assert (rep.value, rep.cut, rep.fallback) == (free.value, free.cut, free.fallback)
        assert rep.border_stats == free.border_stats


@given(st.integers(4, 14), st.sampled_from([0.3, 0.5, 0.8]),
       st.integers(0, 10**6), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_unforced_value_is_optimal_and_certified_cut_is_sv(n, p, seed, k):
    g = gnp_graph(n, p, seed)
    assume(len(g.components.blocks) == 1)
    rep = min_kcut(g, k)
    assert rep.value == brute_force_min_kcut(g, k).value
    fresh = gnp_graph(n, p, seed)
    sv = sv_2approx(fresh, k)
    if kcut_lower_bound(k, stoer_wagner_mincut(fresh)[0]) >= sv.value:
        assert rep.branch == "exact"
        assert rep.cut == sv


@pytest.mark.parametrize("n, seed, k", [(8, 10, 3), (8, 14, 4), (8, 21, 4), (8, 42, 4),
                                        (9, 0, 5), (9, 2, 4)])
def test_forced_sparsify_reaches_certified_blown_up_optimum(n, seed, k):
    # The 2-approximation is one above the certified optimum, and the KT
    # partition is neither one block nor all singletons, so the border rounds
    # must find the optimum on the contracted graph themselves.
    g, info = blown_up(n, seed)
    opt, _ = certified_min_kcut(g, info, k)
    rep = min_kcut(g, k, PipelineConfig(force_branch="sparsify"))
    assert rep.lambda_bar == opt + 1
    assert 1 < rep.partition_stats["q"] < g.n
    assert rep.value == opt and not rep.fallback
    assert cut_value(g, rep.cut) == opt
    assert not any(r["truncated"] for r in rep.border_stats)


def test_forced_sparsify_border_work_is_bounded(monkeypatch):
    # C_80 has C(80, 3) = 82,160 3-cuts of value 3, all within the first
    # round's bound: the round stops at the node budget and says so.
    rep = min_kcut(cycle_graph(80), 3, PipelineConfig(force_branch="sparsify"))
    assert rep.value == 3 and not rep.fallback
    first = rep.border_stats[0]
    assert first["truncated"] and 0 < first["candidates"] < 82_160
    assert first["extended"] == 1
    monkeypatch.setattr(kcut.pipeline, "NODE_BUDGET", 50)
    small = min_kcut(cycle_graph(80), 3, PipelineConfig(force_branch="sparsify"))
    assert small.value == 3 and small.border_stats[0]["truncated"]


def test_later_round_stops_at_the_first_candidate_above_the_best(monkeypatch):
    # Greedy splitting gives lambda_bar = 6, and round 0 the optimum 4.  The
    # partition is all singletons; at a 30-node budget round 0 is truncated,
    # so the rounds go on.  Round 1 lists 3-cuts of g itself of value at
    # most floor(beta_1 * 6) = 5, in value order, and extends only those of
    # value at most 4: a dearer one cannot tie the best.
    monkeypatch.setattr(kcut.pipeline, "NODE_BUDGET", 30)
    g = Graph.from_edges(11, [(0, 1), (0, 4), (1, 4), (1, 7), (2, 3), (2, 7), (2, 8), (2, 9),
                              (3, 10), (4, 7), (4, 10), (5, 6), (5, 8), (6, 10), (7, 10), (9, 10)])
    rep = min_kcut(g, 4, PipelineConfig(force_branch="sparsify"))
    assert (rep.value, rep.lambda_bar) == (brute_force_min_kcut(g, 4).value, 6) == (4, 6)
    assert rep.partition_stats["q"] == g.n and rep.border_stats[0]["truncated"]
    cuts = list_kcuts(g, 3, 5, lam=stoer_wagner_mincut(g)[0], budget=30)[0]
    second = rep.border_stats[1]
    assert second["candidates"] == len(cuts) == 20
    assert second["extended"] == sum(c.value <= 4 for c in cuts) == 12


@given(st.integers(4, 9), st.sampled_from([0.4, 0.6, 0.8]), st.integers(0, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_forced_sparsify_without_contraction_stops_after_round_0(n, p, seed, data):
    # A partition of singletons contracts nothing, so round 0 lists every
    # cheapest k-cut of g itself, and its first is the exact optimum.
    g = gnp_graph(n, p, seed)
    assume(len(g.components.blocks) == 1)
    k = data.draw(st.integers(2, n), label="k")
    rep = min_kcut(g, k, PipelineConfig(force_branch="sparsify"))
    assume(rep.partition_stats["q"] == g.n)
    assert rep.cut == brute_force_min_kcut(g, k)
    assert len(rep.border_stats) == 1 and not rep.fallback


def test_fresh_copies_solve_identically():
    # The solver draws nothing at random: solves of two fresh copies of a
    # graph report the same, timings aside.
    docs = []
    for _ in range(2):
        cfg = PipelineConfig(force_branch="sparsify")
        doc = min_kcut(planted_three_k8_instance(), 4, cfg).to_dict()
        del doc["stats"]["timings"]
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("cap", [0, -1])
def test_trial_cap_must_be_positive(cap):
    # A round keeping no candidate would be rejected by enumerate_borders on
    # the sparsify branch only; the config rejects it for both branches.
    with pytest.raises(ValueError, match="trial_cap"):
        PipelineConfig(trial_cap=cap)
    assert PipelineConfig(trial_cap=1).trial_cap == 1
