"""Instance generators and planted-optimum certification."""
import hashlib

import pytest

from kcut import (
    brute_force_min_kcut,
    certified_min_kcut,
    cliques_bridge,
    connected_components,
    cut_value,
    cycle_graph,
    gen_instance,
    gnp_graph,
    graph_to_text,
    planted_instance,
)
from kcut.generators import complete_graph

# sha256 of graph_to_text at fixed seeds, taken from the per-entry merge loop
# that Graph.from_edges replaced; a change here changes every seeded instance.
PINNED_TEXT_SHA256 = [
    (lambda: gnp_graph(30, 0.3, 7), "7a3ba25e16dbbe43e7b2b48b3754a48864fea416bc2520f9f131c5a7cfa986b3"),
    (lambda: gnp_graph(100, 0.8, 1), "a6947dd4fffce77815614c94880f94974c11c134cfac0b907392f13ec43d88ab"),
    (lambda: planted_instance(3, 10, 0.9, 0.05, 2, seed=4)[0],
     "3a76f8e8ea6dfe0501edf73a7519e376f8a860afa4fae3878f16833409389535"),
    (lambda: planted_instance(4, 20, 0.9, 0.01, 3, seed=11)[0],
     "d2ba4cc31e291f796c36a4f1598301319e36bb34459b6cb1bfb9c73d77c939a1"),
    (lambda: cliques_bridge(5, 4, 2), "644a37e018861a6ca0258487f7924bef10ae1647990419f790e7fb0ef4448d5c"),
    (lambda: cycle_graph(12), "cebcf76978fc31868a9ea4152fd7d1180e35d4ee1430855a030f54ba3e7cc696"),
    (lambda: complete_graph(7), "51ac8588af7eae34e8cc91650d0b3eb8146ae2ecb8f5218311140fa1ac6b711d"),
]


@pytest.mark.parametrize("make, digest", PINNED_TEXT_SHA256)
def test_generator_output_is_pinned(make, digest):
    assert hashlib.sha256(graph_to_text(make()).encode()).hexdigest() == digest


def test_cycle():
    g = gen_instance("cycle", {"n": 6})
    assert g == cycle_graph(6)
    assert len(g.edges) == 6


def test_cliques_bridge_shape():
    g = cliques_bridge(5, 2, 1)
    assert g.n == 10
    assert len(g.edges) == 2 * 10 + 1
    assert (0, 5, 1) in g.edges


def test_gnp_deterministic():
    assert gnp_graph(10, 0.5, 3) == gnp_graph(10, 0.5, 3)
    assert gnp_graph(10, 0.5, 3) != gnp_graph(10, 0.5, 4)


def test_gen_instance_deterministic():
    a = gen_instance("planted", {"k": 3, "size": 8, "p_in": 0.9, "p_out": 0.02}, seed=1)
    b = gen_instance("planted", {"k": 3, "size": 8, "p_in": 0.9, "p_out": 0.02}, seed=1)
    assert a == b


def test_gen_instance_unknown_kind():
    with pytest.raises(ValueError):
        gen_instance("torus", {}, 0)


@pytest.mark.parametrize("kind, params", [
    ("cycle", {"n": 2}),
    ("cliques_bridge", {"size": 1, "count": 2}),
    ("planted", {"k": 1, "size": 8, "p_in": 0.9, "p_out": 0.02}),
    ("planted", {"k": 3, "size": 2, "p_in": 0.9, "p_out": 0.02}),
], ids=["cycle_n2", "clique_size1", "planted_k1", "planted_size2"])
def test_gen_instance_rejects_invalid_parameters(kind, params):
    with pytest.raises(ValueError):
        gen_instance(kind, params, 0)


def test_planted_structure():
    g, info = planted_instance(3, 8, 0.9, 0.02, islands=2, seed=4)
    assert g.n == 26
    assert info.islands == (24, 25)
    assert len(connected_components(g).blocks) == 1
    for iv in info.islands:
        assert g.degrees[iv] == 1


def test_planted_oracle_separates_clusters():
    # Certified instances: the minimum k-cut keeps clusters whole.
    found = 0
    for seed in range(30):
        g, info = planted_instance(3, 8, 0.9, 0.02, seed=seed)
        cert = certified_min_kcut(g, info, 3)
        if cert is None:
            continue
        found += 1
        value, cut = cert
        assert cut_value(g, cut) == value
        # each cluster is monochromatic under the certified optimum
        for cluster in info.clusters:
            assert len({cut.labels[v] for v in cluster}) == 1
        if found >= 5:
            break
    assert found >= 5
    # Four parts of three clusters: the certificate does not apply.
    assert certified_min_kcut(g, info, 4) is None


def test_certificate_matches_brute_force_at_desk_scale():
    # Small enough for the exhaustive oracle: certificate value must agree.
    checked = 0
    for seed in range(40):
        g, info = planted_instance(2, 6, 0.9, 0.05, seed=seed)
        cert = certified_min_kcut(g, info, 2)
        if cert is None:
            continue
        assert cert[0] == brute_force_min_kcut(g, 2).value
        checked += 1
        if checked >= 8:
            break
    assert checked >= 8

