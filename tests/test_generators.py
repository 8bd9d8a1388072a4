"""Instance generators and planted-optimum certification."""
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
    planted_instance,
)


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

