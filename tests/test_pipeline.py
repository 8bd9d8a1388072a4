"""End-to-end solver behavior."""
import random

import pytest

import kcut.oracle
import kcut.pipeline
from kcut import (
    Graph,
    GraphError,
    brute_force_min_kcut,
    cut_value,
    exact_min_kcut,
    min_kcut,
    sv_2approx,
)
from kcut.generators import cliques_bridge, cycle_graph, gnp_graph
from kcut.oracle import _min_kcut_search
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


def test_disconnected_zero():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    rep = min_kcut(g, 3)
    assert rep.value == 0
    assert rep.branch == "disconnected"


def test_c6_k3_exact_branch():
    for seed in (0, 7, 99):
        rep = min_kcut(cycle_graph(6), 3, PipelineConfig(seed=seed))
        assert rep.value == 3
        assert rep.branch == "exact"


def test_planted_three_k8_k4():
    g = planted_three_k8_instance()
    rep = min_kcut(g, 4, PipelineConfig(seed=42))
    assert rep.value == 6
    rep2 = min_kcut(g, 4, PipelineConfig(seed=42, force_branch="sparsify"))
    assert rep2.value == 6


def test_never_worse_than_sv():
    rng = random.Random(23)
    for i in range(25):
        n = rng.randint(6, 12)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=1000 + i)
        k = rng.choice([2, 3, 4])
        rep = min_kcut(g, k, PipelineConfig(seed=i, force_branch="sparsify",
                                            trial_cap=2000))
        assert rep.value <= sv_2approx(g, k).value
        assert cut_value(g, rep.cut) == rep.value
        assert rep.cut.k == k


def test_exact_branch_matches_oracle():
    rng = random.Random(29)
    for i in range(20):
        n = rng.randint(5, 11)
        g = gnp_graph(n, rng.choice([0.4, 0.7]), seed=2000 + i)
        k = rng.choice([2, 3])
        rep = min_kcut(g, k, PipelineConfig(seed=i, force_branch="exact"))
        assert rep.branch == "exact"
        assert rep.value == brute_force_min_kcut(g, k).value


def test_determinism():
    g = gnp_graph(10, 0.6, 5)
    cfg = PipelineConfig(seed=77, force_branch="sparsify")
    a = min_kcut(g, 3, cfg)
    b = min_kcut(g, 3, cfg)
    assert a.value == b.value
    assert a.cut == b.cut
    assert a.branch == b.branch == "sparsify"


def test_report_shape():
    g = gnp_graph(10, 0.7, 5)
    rep = min_kcut(g, 3, PipelineConfig(seed=1, force_branch="sparsify"))
    doc = rep.to_dict()
    assert set(doc) >= {"k", "value", "components", "method", "branch", "seed", "stats"}
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

    def counted(g, k):
        calls.append(k)
        return sv_2approx(g, k)

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
    with pytest.raises(ValueError):
        PipelineConfig(t=0)


def test_two_k5_bridge_k3_sparsify():
    g = cliques_bridge(5, 2, 1)
    oracle = brute_force_min_kcut(g, 3).value
    rep = min_kcut(g, 3, PipelineConfig(seed=5, force_branch="sparsify"))
    assert rep.value == oracle == 5
