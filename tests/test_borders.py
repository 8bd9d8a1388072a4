"""Randomized contraction and candidate s-cut enumeration."""
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kcut import (
    BorderParams,
    Graph,
    GraphError,
    KCut,
    brute_force_min_kcut,
    contract_random,
    default_trials,
    enumerate_borders,
    tau_for,
)
import kcut.borders
from kcut.borders import _canonicalize_batch, _clock_prefix, _labels_batch, _lift_and_score
from kcut.generators import (
    cliques_bridge,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    planted_instance,
)
from kcut.graph import MAX_WEIGHT, VertexPartition, canonical_labels, contract, cut_value
from kcut.rng import SplitMix64, mix64, stream_outputs

import borders_reference
from helpers import cut_survives, random_s_cut, union_find, wilson_lower


# --------------------------------------------------------------------- rng

def test_splitmix_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_stream_outputs_matches_scalar():
    seeds = [0, 1, 42, 2**63]
    outs = stream_outputs(np.array(seeds, dtype=np.uint64), np.arange(8, dtype=np.uint64))
    assert outs.dtype == np.uint64
    for row, seed in zip(outs, seeds):
        rng = SplitMix64(seed)
        assert [int(x) for x in row] == [rng.next_u64() for _ in range(8)]


def test_mix64_deterministic():
    assert mix64(1) == mix64(1)
    assert mix64(1) != mix64(2)


# ------------------------------------------------------------ contract_random

def _seeds(base, count):
    return np.uint64(base) ^ np.arange(count, dtype=np.uint64)


def _contract_scalar(g, tau, rng):
    """Reference: one trial's map, drawn from ``rng`` one output per edge with
    next_u64, edges merged in stable-argsort clock order, roots found one
    vertex at a time.  Nothing is drawn when n <= tau or g has no edges."""
    find, union, _ = union_find(g.n)
    nv = g.n
    if nv > tau and g.edges:
        edges = g.edge_array
        draws = np.array([rng.next_u64() for _ in range(len(edges))], dtype=np.uint64)
        unif = ((draws >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        clock = -np.log(unif) / edges[:, 2]
        for a, b, _ in edges[np.argsort(clock, kind="stable")].tolist():
            if union(a, b):
                nv -= 1
                if nv <= tau:
                    break
    return canonical_labels([find(v) for v in range(g.n)])


def test_contract_noop_when_small(monkeypatch):
    draws = []
    monkeypatch.setattr(kcut.borders, "stream_outputs", lambda *args: draws.append(args))
    seeds = _seeds(0, 3)
    assert contract_random(cycle_graph(6), 10, seeds).tolist() == [list(range(6))] * 3
    assert contract_random(Graph.from_edges(4, []), 1, seeds).tolist() == [list(range(4))] * 3
    # nothing is drawn when there is nothing to contract
    assert draws == []


def test_contract_single_edge_to_point():
    g = path_graph(2)
    cmap = tuple(contract_random(g, 1, _seeds(0, 1))[0])
    assert cmap == (0, 0)
    gc, _ = contract(g, VertexPartition.from_labels(cmap, g.n))
    assert gc.n == 1
    assert gc.edges == ()


def test_contract_c16_survival_rate():
    # The fixed antipodal min 2-cut must survive contraction to 2 vertices
    # at least at half the classical 1/C(16,2) rate over 10000 trials.
    g = cycle_graph(16)
    labels = tuple(0 if v < 8 else 1 for v in range(16))
    cmaps = contract_random(g, 2, _seeds(999, 10_000))
    assert cmaps.shape == (10_000, 16)
    succ = sum(cut_survives(tuple(cmap), labels) for cmap in cmaps.tolist())
    assert succ / 10_000 >= 0.5 / math.comb(16, 2)


def test_contract_preserves_weight_between_sides():
    g = cycle_graph(16)
    cmap = tuple(contract_random(g, 4, _seeds(7, 1))[0])
    assert cmap == canonical_labels(cmap)
    gc, _ = contract(g, VertexPartition.from_labels(cmap, g.n))
    assert gc.n == 4
    # contracted total weight equals the weight between super-vertex groups
    expected = sum(w for u, v, w in g.edges if cmap[u] != cmap[v])
    assert gc.total_weight == expected


@st.composite
def weighted_graphs(draw, max_n=40):
    """Weighted graphs on 0..40 vertices, often disconnected or edgeless."""
    n = draw(st.integers(0, max_n))
    v = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(v, v, st.integers(1, 9)), max_size=4 * n))
    return Graph.from_edges(n, [e for e in edges if e[0] != e[1]])


@given(weighted_graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_contract_batch_equals_scalar_reference(g, data):
    tau = data.draw(st.one_of(st.just(1), st.integers(g.n, g.n + 2),
                              st.integers(1, max(g.n, 1))), label="tau")
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=12), label="seeds")
    cmaps = contract_random(g, tau, np.array(seeds, dtype=np.uint64))
    assert cmaps.shape == (len(seeds), g.n)
    for cmap, seed in zip(cmaps.tolist(), seeds):
        assert tuple(cmap) == _contract_scalar(g, tau, SplitMix64(seed))


def test_contract_continues_past_the_prefix(monkeypatch):
    # K_30 down to one vertex needs a spanning tree; the first 2*29+16 clock
    # edges often leave a vertex isolated, so some trials run out of their
    # sorted prefix and redraw their full clock order.
    redraws = []
    clocks = kcut.borders._clocks
    monkeypatch.setattr(kcut.borders, "_clocks",
                        lambda seeds, edges: redraws.append(len(seeds)) or clocks(seeds, edges))
    g = complete_graph(30)
    seeds = _seeds(17, 100)
    cmaps = contract_random(g, 1, seeds)
    # one draw per block of trials, then one per trial that ran out
    assert sum(r for r in redraws if r > 1) == 100 and 1 in redraws
    assert cmaps.tolist() == [[0] * 30] * 100
    for cmap, seed in zip(cmaps.tolist(), seeds.tolist()):
        assert tuple(cmap) == _contract_scalar(g, 1, SplitMix64(seed))
    cmaps = contract_random(g, 12, seeds)
    for cmap, seed in zip(cmaps.tolist(), seeds.tolist()):
        assert tuple(cmap) == _contract_scalar(g, 12, SplitMix64(seed))


def test_contract_blocks_match_one_batch(monkeypatch):
    # A batch is contracted in blocks of trials whose clocks fit in
    # _CLOCK_BLOCK; the block size must not change any row.
    g = gnp_graph(20, 0.5, 3)
    seeds = _seeds(9, 37)
    whole = contract_random(g, 5, seeds)
    for block in (3 * len(g.edges), 1):
        monkeypatch.setattr(kcut.borders, "_CLOCK_BLOCK", block)
        assert (contract_random(g, 5, seeds) == whole).all()


def test_clock_prefix_breaks_ties_by_edge_index():
    # Rows whose ties straddle the cut-off must still get the stable order.
    crafted = np.array([
        [3.0, 1.0, 2.0, 2.0, 0.5, 2.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [5.0, 4.0, 3.0, 2.0, 1.0, 0.0],
        [0.0, -0.0, 2.0, 0.0, 1.0, 3.0],
        [2.0, 1.0, 1.0, 9.0, 1.0, 0.5],
    ])
    random_ties = np.random.default_rng(0).integers(0, 4, (300, 6)).astype(np.float64)
    for clock in (crafted, random_ties):
        stable = np.argsort(clock, axis=1, kind="stable")
        for width in range(1, 8):
            assert (_clock_prefix(clock, width) == stable[:, :width]).all()


def _karger_law(g, tau):
    """Exact distribution of the contracted map: repeatedly contract a
    super-edge with probability proportional to its weight."""
    law = Counter()

    def step(cmap, p):
        cross = Counter()
        for u, v, w in g.edges:
            if cmap[u] != cmap[v]:
                cross[(cmap[u], cmap[v])] += w
        if max(cmap) < tau or not cross:
            law[cmap] += p
            return
        total = sum(cross.values())
        for (a, b), w in cross.items():
            step(canonical_labels(a if x == b else x for x in cmap), p * Fraction(w, total))

    step(tuple(range(g.n)), Fraction(1))
    return law


@pytest.mark.parametrize("tau", [2, 3])
def test_contract_follows_karger_law(tau):
    # Clock-order contraction must draw the contracted map from the law of
    # weight-proportional edge contraction.
    g = Graph.from_edges(6, [(0, 1, 5), (1, 2, 1), (2, 3, 3), (3, 4, 1), (4, 5, 4),
                             (5, 0, 2), (0, 3, 1), (1, 4, 2), (2, 5, 6)])
    law = _karger_law(g, tau)
    assert sum(law.values()) == 1
    trials = 20_000
    freq = Counter(map(tuple, contract_random(g, tau, _seeds(3, trials)).tolist()))
    assert set(freq) <= set(law)
    tv = sum(abs(freq[m] / trials - float(p)) for m, p in law.items()) / 2
    assert tv <= 0.03


@st.composite
def contraction_rounds(draw):
    """(graph, tau, trials) rounds that exercise the clock cut-off and the
    block merge: bench-shaped rounds (n - tau = 1..8, 100-300 trials) on
    weights up to 10^4, graphs with more components than tau, and complete
    graphs contracted to tau = 1..3, whose trials often run past their
    prefix."""
    kind = draw(st.sampled_from(["bench", "disconnected", "complete"]), label="kind")
    heavy = draw(st.sampled_from([1, 10**4]), label="max weight")
    weight = st.integers(1, heavy)
    if kind == "complete":
        n = draw(st.integers(4, 30), label="n")
        edges = [(u, v, draw(weight)) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, edges), draw(st.integers(1, 3), label="tau"), 40
    if kind == "bench":
        n = draw(st.integers(20, 36), label="n")
        parts = [n]
    else:
        parts = draw(st.lists(st.integers(1, 16), min_size=2, max_size=6), label="parts")
        n = sum(parts)
    edges, first = [], 0
    for size in parts:
        v = st.integers(first, first + size - 1)
        for a, b in draw(st.lists(st.tuples(v, v), min_size=2 * size, max_size=5 * size)):
            if a != b:
                edges.append((a, b, draw(weight)))
        first += size
    g = Graph.from_edges(n, edges)
    if kind == "bench":
        return g, n - draw(st.integers(1, 8), label="n - tau"), draw(st.integers(100, 300))
    return g, draw(st.integers(1, len(parts) - 1), label="tau"), draw(st.integers(1, 60))


@given(contraction_rounds(), st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_contract_rounds_equal_scalar_reference(round_, base):
    g, tau, trials = round_
    seeds = _seeds(base, trials)
    cmaps = contract_random(g, tau, seeds)
    for cmap, seed in zip(cmaps.tolist(), seeds.tolist()):
        assert tuple(cmap) == _contract_scalar(g, tau, SplitMix64(seed))


def test_contract_work_per_block(monkeypatch):
    # A bench-shaped round (n = 68, tau = 62, 150 trials) draws its clocks
    # once per block of trials, never per trial, and merges each block in a
    # few component_roots passes.
    g, _ = planted_instance(3, 22, 0.9, 0.02, 2)
    assert g.n == 68
    draws, merges = [], []
    clocks, roots = kcut.borders._clocks, kcut.borders.component_roots
    monkeypatch.setattr(kcut.borders, "_clocks",
                        lambda seeds, edges: draws.append(len(seeds)) or clocks(seeds, edges))
    monkeypatch.setattr(kcut.borders, "component_roots",
                        lambda n, a, b: merges.append(n) or roots(n, a, b))
    seeds = _seeds(5, 150)
    cmaps = contract_random(g, 62, seeds)
    step = kcut.borders._CLOCK_BLOCK // len(g.edge_array)
    assert draws == [len(seeds[i:i + step]) for i in range(0, 150, step)]
    assert len(merges) <= 3 * len(draws)
    assert (cmaps.max(axis=1) == 61).all()


def test_contracted_round_peak_memory():
    # The maps of a contracted round are trials x n int64; contraction holds
    # one block of clocks beside them, not a second copy of the maps.
    g, _ = planted_instance(3, 20, 0.9, 0.02, 2)
    params = BorderParams(s=3, beta=1.0, tau=g.n - 5, trials=20_000, seed=5)
    map_bytes = params.trials * g.n * 8
    seeds = _seeds(params.seed, params.trials)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cmaps = contract_random(g, params.tau, seeds)
        contract_peak = tracemalloc.get_traced_memory()[1] - before
        del cmaps
        tracemalloc.reset_peak()
        assert enumerate_borders(g, params, max_value=2) == []
        round_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert contract_peak <= 1.25 * map_bytes
    assert round_peak <= 4 * map_bytes


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


def _trials_formula(n, beta, k, cap):
    """The uncapped formula, None where it overflows a float."""
    try:
        raw = math.ceil(n ** (beta * k) * math.log(n))
    except OverflowError:
        return None
    return max(1, min(cap, raw))


def test_default_trials_caps_counts_past_the_float_range():
    assert _trials_formula(200, 1.0, 150, 100_000) is None
    assert default_trials(200, 1.0, 150, 100_000) == 100_000
    assert default_trials(2, 1.0, 10**6, 1) == 1
    # a cap past the float range stands for every count that overflows it
    assert default_trials(2, 1.0, 1024, 10**400) == 10**400
    assert default_trials(10, 0.5, 10, 10**400) == math.ceil(10**5 * math.log(10))


@pytest.mark.parametrize("n, beta, k", [(10, 1.0, 2), (7, 0.5, 3), (120, 0.3, 4),
                                        (2, 1.0, 40), (3, 0.0, 1)])
def test_default_trials_at_the_cap_boundary(n, beta, k):
    raw = math.ceil(n ** (beta * k) * math.log(n))
    for cap in (raw - 1, raw, raw + 1):
        if cap >= 1:
            assert default_trials(n, beta, k, cap) == min(cap, raw)


@pytest.mark.parametrize("cap", [1, 150, 100_000, 10**9])
def test_default_trials_equals_formula_where_finite(cap):
    betas = [i / 8 for i in range(9)]
    for n in range(2, 121):
        for k in range(1, n + 1):
            for beta in betas:
                expect = _trials_formula(n, beta, k, cap)
                if expect is not None:
                    assert default_trials(n, beta, k, cap) == expect, (n, beta, k)


@given(st.integers(2, 10**9), st.floats(0.0, 1.0), st.integers(1, 10**6),
       st.one_of(st.integers(1, 10**12), st.integers(1, 10**500)))
def test_default_trials_never_overflows(n, beta, k, cap):
    trials = default_trials(n, beta, k, cap)
    assert 1 <= trials <= cap
    expect = _trials_formula(n, beta, k, cap)
    assert expect is None or trials == expect


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
    # map, with n > tau the contract_random row followed by random_s_cut on the
    # stream after its m clock draws.
    g = gnp_graph(n, 0.5, 6)
    s, trials, seed = 2, 200, 77
    slow = set()
    cmaps = contract_random(g, tau, _seeds(seed, trials)).tolist()
    for t, cmap in enumerate(cmaps):
        rng = SplitMix64(seed ^ t)
        if n > tau:
            for _ in g.edges:   # the clock draws
                rng.next_u64()
        gc, _ = contract(g, VertexPartition.from_labels(cmap, g.n))
        cut = random_s_cut(gc, s, rng)
        if cut is not None:
            slow.add(canonical_labels(tuple(cut.labels[cmap[v]] for v in range(g.n))))
    params = BorderParams(s=s, beta=1.0, tau=tau, trials=trials, seed=seed)
    assert {c.labels for c in enumerate_borders(g, params)} == slow
    if n <= tau:
        lab, onto = _labels_batch(_seeds(seed, trials), 0, g.n, s)
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


@pytest.mark.parametrize("n, tau", [(8, 20), (14, 6)], ids=["identity", "contracted"])
def test_single_part_round_is_closed_form(monkeypatch, n, tau):
    calls = []

    def spy(*args):
        calls.append(args)
        return contract_random(*args)

    monkeypatch.setattr(kcut.borders, "contract_random", spy)
    g = gnp_graph(n, 0.5, 6)
    params = BorderParams(s=1, beta=1.0, tau=tau, trials=500, seed=3)
    assert enumerate_borders(g, params) == [KCut(1, (0,) * n, 0)]
    assert enumerate_borders(g, params, max_value=0) == [KCut(1, (0,) * n, 0)]
    assert enumerate_borders(g, params, max_value=-1) == []
    assert calls == []


@pytest.mark.parametrize("n, tau", [(4, 20), (14, 6)], ids=["identity", "contracted"])
def test_more_parts_than_vertices_draws_nothing(monkeypatch, n, tau):
    calls = []
    monkeypatch.setattr(kcut.borders, "contract_random", lambda *args: calls.append(args))
    monkeypatch.setattr(kcut.borders, "stream_outputs", lambda *args: calls.append(args))
    g = gnp_graph(n, 0.5, 6)
    params = BorderParams(s=n + 1, beta=1.0, tau=tau, trials=500, seed=3)
    assert enumerate_borders(g, params) == []
    assert calls == []


@pytest.mark.parametrize("n, tau", [(8, 20), (14, 6)], ids=["identity", "contracted"])
def test_one_contract_call_per_round(monkeypatch, n, tau):
    calls = []

    def spy(g, tau, seeds):
        calls.append(seeds.tolist())
        return contract_random(g, tau, seeds)

    monkeypatch.setattr(kcut.borders, "contract_random", spy)
    g = gnp_graph(n, 0.5, 6)
    for s in (2, 3):
        enumerate_borders(g, BorderParams(s=s, beta=1.0, tau=tau, trials=300, seed=5))
    # one batch of every trial's seed per contracted round, none without contraction
    assert calls == ([[5 ^ t for t in range(300)]] * 2 if n > tau else [])


# ------------------------------------- score-first vs canonicalize-first

@st.composite
def contracted_graphs(draw):
    """G(n, p) contracted along a random labelling, so merged edges weigh
    more than 1."""
    n = draw(st.integers(2, 24))
    base = gnp_graph(n, draw(st.sampled_from([0.3, 0.6, 0.9])), draw(st.integers(0, 10**6)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return contract(base, VertexPartition.from_labels(labels, n))[0]


@given(contracted_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_enumerate_equals_canonicalize_first_reference(g, data):
    s = data.draw(st.integers(2, 5), label="s")
    identity = data.draw(st.booleans(), label="identity")
    tau = (data.draw(st.integers(g.n, g.n + 3), label="tau") if identity or g.n <= s
           else data.draw(st.integers(s, g.n - 1), label="tau"))
    params = BorderParams(s=s, beta=1.0, tau=tau, trials=data.draw(st.integers(1, 80)),
                          seed=data.draw(st.integers(0, 2**64 - 1)))
    values = [c.value for c in borders_reference.enumerate_borders(g, params)]
    max_value = data.draw(st.sampled_from(
        [None, values[len(values) // 2] if values else 0, min(values, default=0) - 1]),
        label="max_value")
    assert (enumerate_borders(g, params, max_value)
            == borders_reference.enumerate_borders(g, params, max_value))


@pytest.mark.parametrize("n, tau", [(8, 20), (14, 6)], ids=["identity", "contracted"])
def test_no_survivor_canonicalizes_nothing(monkeypatch, n, tau):
    calls = []

    def spy(lab, s):
        calls.append(len(lab))
        return _canonicalize_batch(lab, s)

    monkeypatch.setattr(kcut.borders, "_canonicalize_batch", spy)
    g = gnp_graph(n, 0.5, 6)
    params = BorderParams(s=3, beta=1.0, tau=tau, trials=300, seed=5)
    cuts = borders_reference.enumerate_borders(g, params)
    assert enumerate_borders(g, params, max_value=cuts[0].value - 1) == []
    assert calls == []
    # only the trials that pass max_value are canonicalized
    least = [c for c in cuts if c.value == cuts[0].value]
    assert enumerate_borders(g, params, max_value=cuts[0].value) == least
    assert 0 < calls[0] < 300


@pytest.mark.parametrize("n, tau", [(8, 20), (14, 6)], ids=["identity", "contracted"])
def test_trials_without_onto_labels_are_dropped(monkeypatch, n, tau):
    # A trial that never draws an onto labelling holds the sentinel label s
    # and costs 0; it must not pass any max_value.
    def some_fail(seeds, offset, nv, s):
        lab, onto = _labels_batch(seeds, offset, nv, s)
        lab[::2], onto[::2] = s, False
        return lab, onto

    monkeypatch.setattr(kcut.borders, "_labels_batch", some_fail)
    monkeypatch.setattr(borders_reference, "_labels_batch", some_fail)
    g = gnp_graph(n, 0.5, 6)
    params = BorderParams(s=3, beta=1.0, tau=tau, trials=300, seed=5)
    for max_value in (None, 0, 5):
        assert (enumerate_borders(g, params, max_value)
                == borders_reference.enumerate_borders(g, params, max_value))
    assert enumerate_borders(g, params)


# ---------------------------------------------------------------- head block

def _head_and_full_values(g, params):
    """Each onto trial's value on the first ``_HEAD_EDGES`` edges and on all
    edges, from its lifted labels."""
    seeds = _seeds(params.seed, params.trials)
    if g.n <= params.tau:
        offset, cmap = 0, np.arange(g.n)[None, :]
    else:
        offset, cmap = len(g.edge_array), contract_random(g, params.tau, seeds)
    nv = int(cmap.max()) + 1
    if params.s > nv:
        return [], []
    lab, onto = _labels_batch(seeds, offset, nv, params.s)
    lifted = np.take_along_axis(lab, cmap, axis=1)[onto]
    u, v, w = g.edge_array.T
    cut = (lifted[:, u] != lifted[:, v]) * w
    return (cut[:, :kcut.borders._HEAD_EDGES].sum(axis=1).tolist(),
            cut.sum(axis=1).tolist())


@st.composite
def head_block_graphs(draw):
    """G(n, p) with at least two edges, half of them contracted along a random
    labelling so that merged edges weigh more than 1."""
    n = draw(st.integers(6, 30))
    g = gnp_graph(n, draw(st.sampled_from([0.4, 0.7, 0.9])), draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        g = contract(g, VertexPartition.from_labels(labels, n))[0]
    assume(len(g.edge_array) >= 2)
    return g


@given(head_block_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_head_block_filter_equals_reference(g, data):
    # The head block is shrunk below m, so every draw has edges outside it.
    head = data.draw(st.integers(1, len(g.edge_array) - 1), label="head")
    s = data.draw(st.integers(2, 4), label="s")
    identity = data.draw(st.booleans(), label="identity")
    tau = (data.draw(st.integers(g.n, g.n + 3), label="tau") if identity or g.n <= s
           else data.draw(st.integers(s, g.n - 1), label="tau"))
    params = BorderParams(s=s, beta=1.0, tau=tau, trials=data.draw(st.integers(1, 80)),
                          seed=data.draw(st.integers(0, 2**64 - 1)))
    with mock.patch.object(kcut.borders, "_HEAD_EDGES", head):
        heads, fulls = _head_and_full_values(g, params)
        cases = [None, min(fulls, default=0) - 1, min(fulls, default=0)]
        # a value some trial reaches on the head but exceeds in full
        cases += [data.draw(st.integers(h, f - 1), label="straddle")
                  for h, f in zip(heads, fulls) if h < f][:1]
        for max_value in cases:
            assert (enumerate_borders(g, params, max_value)
                    == borders_reference.enumerate_borders(g, params, max_value))


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_planted_rounds_past_max_value_score_only_the_head(monkeypatch, contracted):
    # A uniform labelling of a planted graph cuts more than 2 within the head
    # block already, so no trial is scored over every edge or canonicalized.
    g, _ = planted_instance(3, 20, 0.9, 0.02, 2)
    head = kcut.borders._HEAD_EDGES
    assert len(g.edge_array) > head
    tau = g.n - 5 if contracted else g.n
    calls = []
    score = kcut.borders._score

    def spy_score(lifted, edges):
        calls.append(("score", len(edges)))
        return score(lifted, edges)

    monkeypatch.setattr(kcut.borders, "_score", spy_score)
    monkeypatch.setattr(kcut.borders, "_canonicalize_batch", lambda *a: calls.append("canon"))
    rounds = [BorderParams(s=s, beta=1.0, tau=tau, trials=300, seed=5) for s in (2, 3, 4)]
    for params in rounds:
        assert enumerate_borders(g, params, max_value=2) == []
    assert calls == [("score", head)] * len(rounds)

    # Sentinel rows of trials without onto labels cost 0 on the head and
    # must still be dropped.
    def some_fail(seeds, offset, nv, s):
        lab, onto = _labels_batch(seeds, offset, nv, s)
        lab[::2], onto[::2] = s, False
        return lab, onto

    calls.clear()
    monkeypatch.setattr(kcut.borders, "_labels_batch", some_fail)
    for params in rounds:
        assert enumerate_borders(g, params, max_value=2) == []
    assert calls == [("score", head)] * len(rounds)


def test_round_past_max_value_peak_memory():
    # Without contraction a round's label array is trials x n int64, and the
    # label draws hold about three of them at once.  Trials dropped on the
    # head block are never scored over all 531 edges, which had taken about
    # eleven label arrays.
    g, _ = planted_instance(3, 20, 0.9, 0.02, 2)
    params = BorderParams(s=3, beta=1.0, tau=g.n, trials=20_000, seed=5)
    label_bytes = params.trials * g.n * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert enumerate_borders(g, params, max_value=2) == []
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * label_bytes


@pytest.mark.parametrize("tau", [10, 4], ids=["identity", "contracted"])
def test_values_exact_at_max_weight(tau):
    g = Graph.from_edges(6, [(0, 1, MAX_WEIGHT - 6), (1, 2, 1), (2, 3, 2),
                             (3, 4, 1), (4, 5, 1), (5, 0, 1)])
    assert g.total_weight == MAX_WEIGHT
    for s in (2, 3, 4):
        cuts = enumerate_borders(g, BorderParams(s=s, beta=1.0, tau=tau, trials=400, seed=2))
        assert cuts
        for c in cuts:
            assert c.value == cut_value(g, c)
        # without contraction the heavy edge is cut, up to a cut of every edge
        assert tau < g.n or cuts[-1].value > MAX_WEIGHT - 6
    assert tau < g.n or cuts[-1].value == MAX_WEIGHT


@pytest.mark.parametrize("s, dtype", [(2, np.int8), (127, np.int8), (128, np.int16),
                                      (300, np.int16), (40_000, np.int32)])
def test_lift_and_score_dtype_holds_s(s, dtype):
    # Above s = 256 labels 0 and 256 would share one int8, so too narrow a
    # dtype would miss the edges between them; the sentinel s must fit too.
    edges = np.array([[0, 1, 5], [1, 2, 7], [2, 3, 11], [0, 3, 13]])
    lab = np.array([[0, min(256, s - 1), 0, 1], [s - 1, s - 1, 0, 0], [s, s, s, s]])
    for cmap in (np.arange(4)[None, :], np.array([[0, 1, 2, 3], [1, 0, 3, 2], [0, 0, 1, 1]])):
        lifted, values = _lift_and_score(lab, cmap, s, edges)
        assert lifted.dtype == dtype
        expect = np.take_along_axis(lab, cmap, axis=1)
        assert (lifted == expect).all()
        assert values.tolist() == [sum(w for a, b, w in edges.tolist() if row[a] != row[b])
                                   for row in expect.tolist()]


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
