"""Randomized contraction and candidate s-cut listing."""
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    stoer_wagner_mincut,
    tau_for,
)
import kcut.borders
import kcut.oracle
from kcut.borders import _clock_prefix
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

from helpers import cut_survives, list_kcuts_reference, random_s_cut, union_find, wilson_lower


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
    trials, tau = 20_000, g.n - 5
    map_bytes = trials * g.n * 8
    seeds = _seeds(5, trials)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cmaps = contract_random(g, tau, seeds)
        contract_peak = tracemalloc.get_traced_memory()[1] - before
        del cmaps
    finally:
        if not tracing:
            tracemalloc.stop()
    assert contract_peak <= 1.25 * map_bytes


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

def _params(s, trials=100_000, lam=0, budget=-1):
    return BorderParams(s=s, beta=1.0, trials=trials, lam=lam, budget=budget)


def _listed(g, s, max_value=None):
    """The reference list enumerate_borders must return when uncapped."""
    bound = g.total_weight if max_value is None else max_value
    return [KCut(k=s, labels=labels, value=value)
            for value, labels in list_kcuts_reference(g, s, bound)]


def _round_graph(contracted):
    """G(8, 0.5), or G(10, 0.6) contracted to 7 vertices, so that merged
    edges weigh more than 1."""
    if not contracted:
        return gnp_graph(8, 0.5, 6)
    base = gnp_graph(10, 0.6, 6)
    return contract(base, VertexPartition.from_labels([0, 0, 1, 2, 2, 3, 4, 5, 6, 6], 10))[0]


def _refuse(*args):
    raise AssertionError("a search ran")


def test_single_trial_small_graph():
    # A cap of one keeps the cheapest cut and marks the list as cut short.
    g = path_graph(3)
    cuts = enumerate_borders(g, _params(2, trials=1))
    assert cuts == [KCut(2, (0, 0, 1), 1)]
    assert cuts.truncated
    full = enumerate_borders(g, _params(2, trials=3))
    assert full == _listed(g, 2) and not full.truncated


def test_bridge_cut_found():
    g = cliques_bridge(5, 2, 1)
    lam = stoer_wagner_mincut(g)[0]
    cuts = enumerate_borders(g, _params(2, lam=lam), max_value=4)
    assert cuts[0] == brute_force_min_kcut(g, 2)
    assert cuts[0].value == 1
    # one of the 8 vertices off the bridge, or a K5 with the far bridge end
    assert [c.value for c in cuts[1:]] == [4] * 10


def test_c8_min_3cut_found():
    g = cycle_graph(8)
    cuts = enumerate_borders(g, _params(3, lam=2), max_value=3)
    assert brute_force_min_kcut(g, 3).value == 3
    # every choice of three cycle edges, and nothing else
    assert len(cuts) == math.comb(8, 3)
    assert {c.value for c in cuts} == {3}


def test_enumerate_deterministic():
    params = _params(3)
    g = gnp_graph(10, 0.5, 3)
    first = enumerate_borders(g, params)
    assert first == enumerate_borders(g, params) == enumerate_borders(gnp_graph(10, 0.5, 3), params)


def test_all_outputs_valid_cuts():
    g = gnp_graph(9, 0.6, 4)
    cuts = enumerate_borders(g, _params(2))
    assert len(cuts) == 2 ** 8 - 1
    for c in cuts:
        assert c.k == 2
        assert c.value == cut_value(g, c)
        assert c.labels == canonical_labels(c.labels)


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_fast_path_equals_slow_path(contracted):
    # The pruned search in maximum-adjacency order must list exactly the cuts
    # the exhaustive reference finds, in the same (value, labels) order,
    # with the min-cut bound or without it.
    g = _round_graph(contracted)
    lam = stoer_wagner_mincut(g)[0]
    assert lam > 0
    for s in (2, 3, 4):
        for max_value in (None, lam * s // 2, lam * s):
            want = _listed(g, s, max_value)
            assert enumerate_borders(g, _params(s, lam=lam), max_value) == want
            assert enumerate_borders(g, _params(s), max_value) == want
            # the cheapest listing keeps the cuts of the least value
            cheapest = BorderParams(s=s, beta=1.0, trials=100_000, lam=lam, cheapest=True)
            assert enumerate_borders(g, cheapest, max_value) == \
                [c for c in want if c.value == want[0].value]


@pytest.mark.parametrize("s", [5, 2])
def test_total_weight_beyond_int64_is_rejected(s):
    g = Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62)])
    with pytest.raises(GraphError, match="overflows"):
        enumerate_borders(g, _params(s))


def test_max_value_filter():
    g = gnp_graph(8, 0.5, 6)
    all_cuts = enumerate_borders(g, _params(2))
    filtered = enumerate_borders(g, _params(2), max_value=3)
    assert filtered == [c for c in all_cuts if c.value <= 3]


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_single_part_round_is_closed_form(monkeypatch, contracted):
    # One part has no boundary, so the min-cut bound must not drop it.
    monkeypatch.setattr(kcut.borders, "list_kcuts", _refuse)
    g = _round_graph(contracted)
    params = _params(1, lam=4)
    assert enumerate_borders(g, params) == [KCut(1, (0,) * g.n, 0)]
    assert enumerate_borders(g, params, max_value=0) == [KCut(1, (0,) * g.n, 0)]
    assert enumerate_borders(g, params, max_value=-1) == []


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_more_parts_than_vertices_draws_nothing(monkeypatch, contracted):
    # Neither a search nor its setup runs when no s-cut exists, or when the
    # bound is below ceil(s * lam / 2), which no s-cut can meet.
    monkeypatch.setattr(kcut.borders, "list_kcuts", _refuse)
    monkeypatch.setattr(kcut.oracle, "_search_setup", _refuse)
    monkeypatch.setattr(kcut.borders, "contract_random", _refuse)
    g = _round_graph(contracted)
    assert enumerate_borders(g, _params(g.n + 1)) == []
    assert enumerate_borders(g, _params(3, lam=2), max_value=2) == []


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_rounds_share_one_search_setup(monkeypatch, contracted):
    # The rounds of a solve list on one graph: its maximum-adjacency setup is
    # built once, and nothing is contracted.
    calls = []
    setup = kcut.oracle._search_setup
    monkeypatch.setattr(kcut.oracle, "_search_setup",
                        lambda g, order: calls.append(g.n) or setup(g, order))
    monkeypatch.setattr(kcut.borders, "contract_random", _refuse)
    g = _round_graph(contracted)
    for s in (2, 3, 4):
        assert enumerate_borders(g, _params(s)) == _listed(g, s)
    assert calls == [g.n]


# ------------------------------------------------- listing vs the reference

@st.composite
def contracted_graphs(draw):
    """G(n, p) on at most 8 vertices contracted along a random labelling, so
    merged edges weigh more than 1."""
    n = draw(st.integers(2, 8))
    base = gnp_graph(n, draw(st.sampled_from([0.3, 0.6, 0.9])), draw(st.integers(0, 10**6)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return contract(base, VertexPartition.from_labels(labels, n))[0]


@given(contracted_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_enumerate_equals_canonicalize_first_reference(g, data):
    # The reference builds each canonical label string first and then values
    # it; the library prunes, then canonicalizes what it lists.  The two must
    # agree, cap and all.
    s = data.draw(st.integers(2, 5), label="s")
    lam = stoer_wagner_mincut(g)[0] if g.n >= 2 and data.draw(st.booleans()) else 0
    trials = data.draw(st.integers(1, 80), label="trials")
    values = [c.value for c in _listed(g, s)]
    max_value = data.draw(st.sampled_from(
        [None, values[len(values) // 2] if values else 0, min(values, default=0) - 1]),
        label="max_value")
    want = _listed(g, s, max_value)
    cuts = enumerate_borders(g, _params(s, trials=trials, lam=lam), max_value)
    assert cuts == want[:trials]
    assert cuts.truncated == (len(want) > trials)


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_no_survivor_canonicalizes_nothing(monkeypatch, contracted):
    calls = []
    canon = kcut.oracle.canonical_labels
    monkeypatch.setattr(kcut.oracle, "canonical_labels",
                        lambda labels: calls.append(1) or canon(labels))
    g = _round_graph(contracted)
    lam = stoer_wagner_mincut(g)[0]
    cuts = _listed(g, 3)
    assert enumerate_borders(g, _params(3, lam=lam), max_value=cuts[0].value - 1) == []
    assert calls == []
    # only the cuts within max_value are canonicalized
    least = [c for c in cuts if c.value == cuts[0].value]
    assert enumerate_borders(g, _params(3, lam=lam), max_value=cuts[0].value) == least
    assert len(calls) == len(least)


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_trials_without_onto_labels_are_dropped(contracted):
    # A label string that opens fewer than s parts is no s-cut: the search
    # never lists one, whatever the bound.
    g = _round_graph(contracted)
    for s in (2, 3, 4):
        for max_value in (None, 0, 5):
            cuts = enumerate_borders(g, _params(s), max_value)
            assert cuts == _listed(g, s, max_value)
            assert all(set(c.labels) == set(range(s)) for c in cuts)
    assert enumerate_borders(g, _params(3))


@given(contracted_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_head_block_filter_equals_reference(g, data):
    # The search drops a label string on the weight its assigned head (the
    # first vertices of the order) already cuts.  That filter is exact in
    # any vertex order, for every bound.
    s = data.draw(st.integers(1, 4), label="s")
    order = data.draw(st.permutations(range(g.n)), label="order")
    setup = kcut.oracle._search_setup(g, order)
    pos = setup[0]
    values = [c.value for c in _listed(g, s)]
    for bound in [-1, g.total_weight] + values[:1] + values[len(values) // 2:][:1]:
        found = []
        kcut.oracle._kcut_search(setup, s, [0] * (s + 1), bound, found)
        got = sorted((value, canonical_labels([lab[p] for p in pos])) for value, lab in found)
        assert got == list_kcuts_reference(g, s, bound)


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_planted_rounds_past_max_value_score_only_the_head(monkeypatch, contracted):
    # Without the min-cut bound, a planted round with max_value 0 opens no
    # second part: every label string is dropped on the first edge it cuts,
    # so the search walks the one all-zero path, n - s + 1 nodes deep, as far
    # as s parts can still open.  With the bound, no search runs at all.
    g, _ = planted_instance(3, 20, 0.9, 0.02, 2)
    if contracted:
        g = contract(g, VertexPartition.from_labels([v // 3 for v in range(g.n)], g.n))[0]
    lam = stoer_wagner_mincut(g)[0]
    assert lam >= 1
    for s in (2, 3, 4):
        cuts = enumerate_borders(g, _params(s, budget=g.n - s + 1), max_value=0)
        assert cuts == [] and not cuts.truncated
        assert enumerate_borders(g, _params(s, budget=g.n - s), max_value=0).truncated
    monkeypatch.setattr(kcut.borders, "list_kcuts", _refuse)
    for s in (2, 3, 4):
        assert enumerate_borders(g, _params(s, lam=lam), max_value=0) == []


def test_round_past_max_value_peak_memory():
    # A round holds its search's setup and the cuts it lists, nothing per
    # trial: with a cap of 20,000 candidates it stays far below one
    # trials x n label array.
    g, _ = planted_instance(3, 20, 0.9, 0.02, 2)
    params = _params(3, trials=20_000)
    label_bytes = params.trials * g.n * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cuts = enumerate_borders(g, params, max_value=2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert cuts and all(c.value == cut_value(g, c) <= 2 for c in cuts)
    assert peak <= label_bytes // 20


@pytest.mark.parametrize("contracted", [False, True], ids=["identity", "contracted"])
def test_values_exact_at_max_weight(contracted):
    g = Graph.from_edges(6, [(0, 1, MAX_WEIGHT - 6), (1, 2, 1), (2, 3, 2),
                             (3, 4, 1), (4, 5, 1), (5, 0, 1)])
    assert g.total_weight == MAX_WEIGHT
    if contracted:   # a 5-cycle whose edge (2, {3, 4}) weighs 2
        g = contract(g, VertexPartition.from_labels([0, 1, 2, 3, 3, 4], 6))[0]
        assert g.total_weight == MAX_WEIGHT - 1
    for s in (2, 3, 4):
        cuts = enumerate_borders(g, _params(s))
        assert cuts == _listed(g, s)
        for c in cuts:
            assert c.value == cut_value(g, c)
        # the heavy edge is cut, up to a cut of every edge
        assert cuts[-1].value > MAX_WEIGHT - 6
    assert cuts[-1].value == g.total_weight


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
