"""Randomized contraction and candidate s-cut enumeration."""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcut import (
    BorderParams,
    Graph,
    GraphError,
    brute_force_min_kcut,
    contract_random,
    cut_survives,
    default_trials,
    enumerate_borders,
    random_s_cut,
    tau_for,
    wilson_lower,
)
from kcut.borders import _canonicalize_batch, _labels_batch
from kcut.generators import cliques_bridge, cycle_graph, gnp_graph, path_graph
from kcut.graph import canonical_labels, cut_value
from kcut.rng import SplitMix64, mix64, stream_outputs


# --------------------------------------------------------------------- rng

def test_splitmix_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_stream_outputs_matches_scalar():
    seeds = [0, 1, 42, 2**63]
    outs = stream_outputs(np.array(seeds, dtype=np.uint64), np.arange(8, dtype=np.uint64))
    for row, seed in zip(outs, seeds):
        rng = SplitMix64(seed)
        assert [int(x) for x in row] == [rng.next_u64() for _ in range(8)]


def test_mix64_deterministic():
    assert mix64(1) == mix64(1)
    assert mix64(1) != mix64(2)


# ------------------------------------------------------------ contract_random

def test_contract_noop_when_small():
    g = cycle_graph(6)
    gc, cmap = contract_random(g, 10, SplitMix64(0))
    assert gc == g
    assert cmap == tuple(range(6))


def test_contract_single_edge_to_point():
    g = path_graph(2)
    gc, cmap = contract_random(g, 1, SplitMix64(0))
    assert gc.n == 1
    assert gc.edges == ()
    assert cmap == (0, 0)


def test_contract_c16_survival_rate():
    # The fixed antipodal min 2-cut must survive contraction to 2 vertices
    # at least at half the classical 1/C(16,2) rate over 10000 trials.
    g = cycle_graph(16)
    labels = tuple(0 if v < 8 else 1 for v in range(16))
    succ = 0
    for t in range(10_000):
        _, cmap = contract_random(g, 2, SplitMix64(999 ^ t))
        if cut_survives(cmap, labels):
            succ += 1
    assert succ / 10_000 >= 0.5 / math.comb(16, 2)


def test_contract_preserves_weight_between_sides():
    g = cycle_graph(16)
    gc, cmap = contract_random(g, 4, SplitMix64(7))
    assert gc.n <= 4
    # contracted total weight equals the weight between super-vertex groups
    groups = {}
    for v, s in enumerate(cmap):
        groups.setdefault(s, set()).add(v)
    expected = sum(w for u, v, w in g.edges if cmap[u] != cmap[v])
    assert gc.total_weight == expected


# -------------------------------------------------------------- random_s_cut

def test_random_s_cut_bijection_when_n_equals_s():
    g = path_graph(3)
    cut = random_s_cut(g, 3, SplitMix64(1))
    assert cut is not None
    assert sorted(cut.labels) == [0, 1, 2]


def test_random_s_cut_s1():
    g = path_graph(3)
    cut = random_s_cut(g, 1, SplitMix64(1))
    assert cut.labels == (0, 0, 0)


def test_random_s_cut_uniform_over_2cuts():
    g = path_graph(3)
    freq = Counter()
    for t in range(10_000):
        cut = random_s_cut(g, 2, SplitMix64(5 ^ t))
        freq[canonical_labels(cut.labels)] += 1
    assert len(freq) == 3
    for count in freq.values():
        assert abs(count / 10_000 - 1 / 3) < 0.03


def test_random_s_cut_infeasible():
    assert random_s_cut(path_graph(2), 3, SplitMix64(0)) is None


# ---------------------------------------------------------------- parameters

def test_tau_formula():
    assert tau_for(1.0, 2) == 8 * 4 + 4
    assert tau_for(0.0, 2) == 4
    assert tau_for(0.5, 3) == math.ceil(8 * 0.5 * 9 + 6)
    assert tau_for(1.0, 3) >= 2 * 3


def test_default_trials():
    assert default_trials(10, 1.0, 2, cap=100_000) == math.ceil(100 * math.log(10))
    assert default_trials(10, 1.0, 3, cap=50) == 50
    assert default_trials(1, 1.0, 2, cap=10) == 1


# ----------------------------------------------------------- enumerate_borders

def test_single_trial_small_graph():
    g = path_graph(3)
    params = BorderParams(s=2, beta=1.0, tau=10, trials=1, seed=3)
    cuts = enumerate_borders(g, params)
    assert len(cuts) <= 1
    for c in cuts:
        assert c.value == cut_value(g, c)


def test_bridge_cut_found():
    g = cliques_bridge(5, 2, 1)
    params = BorderParams(s=2, beta=1.0, tau=tau_for(1.0, 2), trials=4000, seed=7)
    cuts = enumerate_borders(g, params)
    assert any(c.value == 1 for c in cuts)
    assert cuts[0].value == min(c.value for c in cuts)


def test_c8_min_3cut_found():
    g = cycle_graph(8)
    params = BorderParams(s=3, beta=1.0, tau=tau_for(1.0, 3), trials=10_000, seed=11)
    cuts = enumerate_borders(g, params)
    oracle = brute_force_min_kcut(g, 3).value
    assert oracle == 3
    assert any(c.value == 3 for c in cuts)


def test_enumerate_deterministic():
    g = gnp_graph(10, 0.5, 3)
    params = BorderParams(s=3, beta=1.0, tau=tau_for(1.0, 3), trials=500, seed=123)
    assert enumerate_borders(g, params) == enumerate_borders(g, params)


def test_all_outputs_valid_cuts():
    g = gnp_graph(9, 0.6, 4)
    params = BorderParams(s=2, beta=1.0, tau=5, trials=300, seed=9)
    for c in enumerate_borders(g, params):
        assert c.k == 2
        assert c.value == cut_value(g, c)
        assert c.labels == canonical_labels(c.labels)


@pytest.mark.parametrize("n, tau", [(8, 20), (14, 6)], ids=["identity", "contracted"])
def test_fast_path_equals_slow_path(n, tau):
    # The vectorized path must produce exactly the trial-by-trial result of the
    # scalar reference on the same seed ^ t streams: with n <= tau the identity
    # map, with n > tau contract_random followed by random_s_cut on the rest of
    # the stream.
    g = gnp_graph(n, 0.5, 6)
    s, trials, seed = 2, 200, 77
    slow = set()
    for t in range(trials):
        rng = SplitMix64(seed ^ t)
        gc, cmap = contract_random(g, tau, rng)
        cut = random_s_cut(gc, s, rng)
        if cut is not None:
            slow.add(canonical_labels(tuple(cut.labels[cmap[v]] for v in range(g.n))))
    params = BorderParams(s=s, beta=1.0, tau=tau, trials=trials, seed=seed)
    assert {c.labels for c in enumerate_borders(g, params)} == slow
    if n <= tau:
        seeds = np.uint64(seed) ^ np.arange(trials, dtype=np.uint64)
        lab, onto = _labels_batch(seeds, 0, g.n, s)
        canon = {tuple(int(x) for x in row) for row in _canonicalize_batch(lab[onto], s)}
        assert canon == slow


@pytest.mark.parametrize("tau", [5, 2])
def test_total_weight_beyond_int64_is_rejected(tau):
    g = Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62)])
    params = BorderParams(s=2, beta=1.0, tau=tau, trials=10, seed=1)
    with pytest.raises(GraphError, match="overflows"):
        enumerate_borders(g, params)


def test_max_value_filter():
    g = gnp_graph(8, 0.5, 6)
    params = BorderParams(s=2, beta=1.0, tau=20, trials=500, seed=1)
    all_cuts = enumerate_borders(g, params)
    filtered = enumerate_borders(g, params, max_value=3)
    assert filtered == [c for c in all_cuts if c.value <= 3]


# ------------------------------------------------------------------- wilson

def test_wilson_bounds():
    assert wilson_lower(0, 0) == 0.0
    assert wilson_lower(100, 100) < 1.0
    assert wilson_lower(50, 100) < 0.5
    assert wilson_lower(95, 100) > 0.85


@given(st.integers(0, 100), st.integers(1, 100))
@example(s=0, t=47)
def test_wilson_in_unit_interval(s, t):
    if s > t:
        return
    assert 0.0 <= wilson_lower(s, t) <= 1.0
