"""Partitioning stages: regularize, expander decompose, trim, shave, shatter."""
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcut import (
    Graph,
    GraphError,
    KCut,
    KTInvariantError,
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
import kcut.partition
from kcut.generators import (cliques_bridge, complete_graph, cycle_graph, gnp_graph,
                             planted_instance, star_graph)
from kcut.graph import MAX_WEIGHT, weight_matrix
from kcut.oracle import ni_sparsify
from kcut.partition import KTParams, _degree_certified, _min_conductance

import partition_reference
from helpers import adjacency, border_agrees, borders_of_cut, conductance


def two_k8_bridge():
    return cliques_bridge(8, 2, 1)


# ---------------------------------------------------------------- KTParams

def test_params_derivation():
    p = KTParams.derive(n=16, k=2, delta=3)
    assert p.epsilon == pytest.approx(1 / (2 * 4))
    assert p.gamma == Fraction(1, 3)
    assert partition_reference.regularize_threshold(2, 4) == Fraction(4, 2)
    assert 0 < p.epsilon < 1
    assert 0 < p.gamma <= 1


# -------------------------------------------------------------- regularize

def test_regularize_high_degree_unchanged():
    g = complete_graph(6)
    sub, removed, back = regularize(weight_matrix(g), 2, 3)
    assert removed == []
    assert np.array_equal(sub, weight_matrix(g))
    assert back.tolist() == list(range(6))


def test_regularize_star_unchanged():
    g = star_graph(9)
    sub, removed, _ = regularize(weight_matrix(g), 2, 1)  # threshold 1/2, all degrees >= 1
    assert removed == []
    assert len(sub) == 10


def test_regularize_two_k6_bridge():
    g = cliques_bridge(6, 2, 1)
    sub, removed, _ = regularize(weight_matrix(g), 2, 2)  # threshold 1, no degree < 1
    assert removed == []
    assert len(sub) == g.n


def test_regularize_removes_low_degree():
    # pendant chain off a K6: threshold 6/(2*2) = 1.5 peels the chain tip,
    # then the newly exposed chain vertex
    g = Graph.from_edges(8, [(u, v) for u in range(6) for v in range(u + 1, 6)]
                         + [(5, 6), (6, 7)])
    sub, removed, back = regularize(weight_matrix(g), 3, 6)
    assert removed == [7, 6]
    assert len(sub) == 6
    assert back.tolist() == list(range(6))


def test_regularize_error_at_k_removals():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(KTInvariantError):
        regularize(weight_matrix(g), 2, 100)


# ------------------------------------------------------------- conductance

def test_k8_exact_min_conductance():
    cond, subset = min_conductance_subset(complete_graph(8))
    assert cond == Fraction(16, 28)  # balanced bisection: 16 crossing, vol 28
    assert len(subset) == 4


def _first_min_conductance(g):
    """(conductance, subset) of the first minimal proper subset holding
    vertex 0 in ascending bit-mask order, one exact Fraction per subset."""
    best = None
    for mask in range(1, (1 << g.n) - 1, 2):
        subset = tuple(v for v in range(g.n) if mask >> v & 1)
        cond = conductance(g, subset)
        if best is None or cond < best[0]:
            best = (cond, subset)
    return best if best[0] != math.inf else (math.inf, (0,))


@st.composite
def weighted_graphs(draw):
    """Random graphs on 2..12 vertices, often disconnected or edgeless, with
    weights up to 3, up to 2^40, or up to the most that keeps the total
    weight in int64."""
    n = draw(st.integers(2, 12))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    cap = draw(st.sampled_from([3, 2**40, MAX_WEIGHT // len(pairs)]))
    weights = draw(st.lists(st.integers(1, cap), min_size=len(chosen), max_size=len(chosen)))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@given(weighted_graphs())
@settings(max_examples=150, deadline=None)
def test_min_conductance_matches_fraction_reference(g):
    assert min_conductance_subset(g) == _first_min_conductance(g)


def test_min_conductance_exact_where_float_ratios_collide():
    # {0,1} and {0,2} have conductances within 2^-58 of each other: one
    # double, but {0,2} is smaller.  A float argmin would return {0,1}.
    b = 2**58
    g = Graph.from_edges(4, [(0, 1, b), (0, 2, b + 3), (0, 3, b), (1, 2, b + 2),
                             (1, 3, b + 1), (2, 3, b)])
    assert min_conductance_subset(g) == _first_min_conductance(g)
    assert min_conductance_subset(g)[1] == (0, 2)
    # Subset volumes above 2^63 wrap in int64; the result must not.
    heavy = Graph.from_edges(4, [(u, v, 2**60 + u + 2 * v) for u, v in combinations(range(4), 2)])
    assert min_conductance_subset(heavy) == _first_min_conductance(heavy)


def test_min_conductance_domain_errors():
    with pytest.raises(GraphError):
        min_conductance_subset(Graph.from_edges(1, []))
    with pytest.raises(GraphError):
        min_conductance_subset(complete_graph(17))


def test_is_expander_k8():
    assert is_expander(complete_graph(8), Fraction(1, 7))
    assert is_expander(Graph.from_edges(1, []), Fraction(1))   # no proper subset


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
    lab = np.zeros(5, dtype=np.int64)
    assert trim(weight_matrix(g), lab).tolist() == [0] * 5


def test_trim_pendant_stays():
    # K5 plus pendant p: p keeps its whole degree inside the cluster
    g = Graph.from_edges(6, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5)])
    lab = np.zeros(6, dtype=np.int64)
    assert trim(weight_matrix(g), lab).tolist() == [0] * 6


def test_trim_threshold_non_strict():
    # vertex 0 with 2 of 5 neighbors inside its cluster: 2/5 <= 2/5 trims it
    edges = [(0, 1), (0, 2),            # inside cluster
             (0, 5), (0, 6), (0, 7)]    # outside
    edges += [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
              (1, 8), (2, 8), (3, 8), (3, 9), (4, 8), (4, 9)]
    g = Graph.from_edges(10, edges)
    lab = np.array([0] * 5 + [-1] * 5)
    assert trim(weight_matrix(g), lab)[0] == -1


def test_shave_keeps_dense_core():
    g = complete_graph(6)
    lab = np.zeros(6, dtype=np.int64)
    assert shave(weight_matrix(g), lab, epsilon=0.1).tolist() == [0] * 6


def test_shave_boundary_vertex():
    # vertex keeping 9 of 10 edges inside, epsilon = 1/20: 9 <= (19/20)*10
    inside = [(0, i) for i in range(1, 10)]
    dense = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
    g = Graph.from_edges(11, inside + dense + [(0, 10)])
    lab = np.array([0] * 10 + [-1])
    assert shave(weight_matrix(g), lab, epsilon=1 / 20)[0] == -1


def test_shatter_thresholds():
    assert shatter(np.array([0, 0, 1, 1, 1]), 2).tolist() == [-1, -1, 1, 1, 1]
    # no core left: unchanged
    assert shatter(np.array([-1]), 3).tolist() == [-1]
    assert shatter(np.zeros(0, dtype=np.int64), 3).tolist() == []


@st.composite
def labelled_graphs(draw):
    """Simple graphs on 1..14 vertices with an arbitrary labelling: labels
    -1..top, so clusters of one vertex are common and top = -1 leaves
    every vertex a singleton."""
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    top = draw(st.integers(-1, n - 1))
    lab = draw(st.lists(st.integers(-1, top), min_size=n, max_size=n))
    return Graph.from_edges(n, edges), np.array(lab, dtype=np.int64)


def _reference_labels(n, ids, groups):
    """Label array giving the vertices of groups[i] the label ids[i], others -1."""
    lab = np.full(n, -1)
    for c, group in zip(ids, groups):
        lab[group] = c
    return lab.tolist()


@given(labelled_graphs(), st.sampled_from([1 / 20, 0.1, 0.25, 0.5]), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_stages_equal_reference(case, epsilon, k):
    g, lab = case
    w = weight_matrix(g)
    ids = sorted(set(lab.tolist()) - {-1})
    state = partition_reference.ClusterState(
        clusters=[np.flatnonzero(lab == c).tolist() for c in ids],
        singletons=set(np.flatnonzero(lab < 0).tolist()))
    inputs = [w.copy(), lab.copy()]
    trimmed = trim(w, lab)
    state = partition_reference.trim(g, state)
    assert trimmed.tolist() == _reference_labels(g.n, ids, state.clusters)
    inputs.append(trimmed.copy())
    core = shave(w, trimmed, epsilon)
    state = partition_reference.shave(g, state, epsilon)
    assert core.tolist() == _reference_labels(g.n, ids, state.cores)
    inputs.append(core.copy())
    final = shatter(core, k)
    state = partition_reference.shatter(state, k)
    assert final.tolist() == _reference_labels(g.n, ids, state.cores)
    assert set(np.flatnonzero(final < 0).tolist()) == state.singletons
    # No stage writes to its inputs.
    for before, after in zip(inputs, [w, lab, trimmed, core]):
        assert np.array_equal(before, after)


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
    for k in (1, 6):   # k outside 2..n, as for every k-cut solver
        with pytest.raises(ValueError, match=f"k must be in 2..n, got k={k} with n=5"):
            kt_partition(cycle_graph(5), k, 2)
    for gamma in (Fraction(0), Fraction(3, 2)):
        with pytest.raises(ValueError, match="gamma must be in"):
            expander_decompose(cycle_graph(5), gamma)
    with pytest.raises(GraphError, match="simple graphs"):
        regularize(weight_matrix(Graph.from_edges(3, [(0, 1, 2), (1, 2)])), 2, 1)


# ---------------------------------------------- matrix stages = reference

@st.composite
def kt_inputs(draw):
    """Simple gnp or planted graphs with n <= 40, a k and a lambda_bar
    between 1 and twice the 2-approximation."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        g = gnp_graph(n, draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8])),
                      draw(st.integers(0, 10**6)))
    else:
        k = draw(st.integers(2, 4))
        size = draw(st.integers(3, 38 // k))
        g, _ = planted_instance(k, size, draw(st.sampled_from([0.6, 0.8, 1.0])),
                                draw(st.sampled_from([0.02, 0.05, 0.15])),
                                draw(st.integers(0, 2)), seed=draw(st.integers(0, 10**6)))
    k = draw(st.integers(2, min(5, g.n)))
    approx = sv_2approx(g, k).value
    return g, k, draw(st.integers(1, max(1, 2 * approx)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KTInvariantError:
        return KTInvariantError


def _singletons_certified(g, k, lambda_bar):
    """Whether the singleton certificate applies, read from the reference's
    regularized graph: minimum degree 1, k >= 3, and no vertex with k or
    more neighbours of degree 1."""
    try:
        h, _, _ = partition_reference.regularize(ni_sparsify(g, lambda_bar), k, lambda_bar)
    except KTInvariantError:
        return False
    if h.n <= 1 or k < 3 or min(h.degrees) != 1:
        return False
    return all(sum(h.degrees[u] == 1 for u, _ in nbrs) < k for nbrs in adjacency(h))


_SKIPPED_STAGES = {"clusters": None, "trimmed": None, "shaved": None, "shattered": None}


def check_kt_equals_reference(g, k, lambda_bar):
    """kt_partition equals the reference's full run: the whole report when
    the full run happens, and under the singleton certificate the partition
    and the report with the four skipped stage counts None.  Returns
    whether the certificate applied."""
    got = _outcome(kt_partition, g, k, lambda_bar)
    expected = _outcome(partition_reference.kt_partition, g, k, lambda_bar)
    if not _singletons_certified(g, k, lambda_bar):
        assert got == expected
        return False
    assert got[0] == expected[0]
    assert got[0].blocks == tuple((v,) for v in range(g.n))
    stages = {**expected[1]["stages"], **_SKIPPED_STAGES}
    assert got[1] == {**expected[1], "stages": stages}
    return True


@given(kt_inputs())
@settings(max_examples=60, deadline=None)
def test_kt_partition_equals_reference_stages(case):
    check_kt_equals_reference(*case)


@st.composite
def pendant_graphs(draw):
    """Graphs with vertices of degree 1 and a k in 3..5: random trees,
    paths with 0..k pendants per vertex, and planted instances with islands
    hung on one edge; lambda_bar is drawn up to the 2-approximation."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    k = draw(st.integers(3, 5))
    shape = draw(st.sampled_from(["tree", "path", "planted"]))
    if shape == "tree":
        n = draw(st.integers(k, 40))
        g = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
    elif shape == "path":
        length = draw(st.integers(k, 12))
        edges = [(v, v + 1) for v in range(length - 1)]
        n = length
        for v in range(length):
            for _ in range(rng.randint(0, k)):
                edges.append((v, n))
                n += 1
        g = Graph.from_edges(n, edges)
    else:
        g, _ = planted_instance(k, draw(st.integers(6, 12)), draw(st.sampled_from([0.5, 0.9])),
                                draw(st.sampled_from([0.01, 0.03])), draw(st.integers(1, 3)),
                                seed=rng.randrange(10**6))
    approx = sv_2approx(g, k).value
    return g, k, draw(st.integers(1, max(1, approx)))


@given(pendant_graphs())
@settings(max_examples=80, deadline=None)
def test_singleton_certificate_equals_full_run(case):
    check_kt_equals_reference(*case)


def _stage_spy(monkeypatch, names=("expander_decompose", "_fiedler_sweep", "trim", "shave",
                                    "shatter")):
    """Record, in order, each call of the functions ``names`` of
    ``kcut.partition``: by default the decomposition, the Fiedler sweep,
    trim, shave and shatter."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _fn=getattr(kcut.partition, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(kcut.partition, name, spy)
    return calls


@pytest.mark.parametrize("shape", [(3, 20, 0.9, 0.02, 2), (4, 20, 0.9, 0.01, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_singleton_certificate_skips_the_stages(monkeypatch, shape, seed):
    g, _ = planted_instance(*shape, seed=seed)
    k = shape[0]
    calls = _stage_spy(monkeypatch)
    partition, report = kt_partition(g, k, sv_2approx(g, k).value)
    assert calls == []
    assert partition.blocks == tuple((v,) for v in range(g.n))
    assert report["q"] == g.n
    assert report["stages"] == {"regularized_removed": 0, **_SKIPPED_STAGES}
    assert report["params"]["gamma"] == 1.0


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("leaves", [None, 20])
def test_k_pendant_leaves_run_the_stages(monkeypatch, k, leaves):
    # A star with k leaves (at least k pendant neighbours at the centre) is
    # one 1-expander block that survives shave and shatter; with 20 leaves
    # it is a block above 16 vertices, accepted as a star without a sweep.
    g = star_graph(leaves or k)
    lambda_bar = sv_2approx(g, k).value
    calls = _stage_spy(monkeypatch)
    partition, report = kt_partition(g, k, lambda_bar)
    assert calls == ["expander_decompose", "trim", "shave", "shatter"]
    assert partition.blocks == (tuple(range(g.n)),)
    assert report["stages"]["clusters"] == 1
    assert not check_kt_equals_reference(g, k, lambda_bar)


def test_certificate_needs_k_at_least_3(monkeypatch):
    # A triangle and a disjoint edge: minimum degree 1 and no vertex with
    # two pendant neighbours, yet at k = 2 the triangle's core of 3 survives.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    calls = _stage_spy(monkeypatch)
    partition, report = kt_partition(g, 2, 2)
    assert calls == ["expander_decompose", "trim", "shave", "shatter"]
    assert partition.blocks == ((0, 1, 2), (3,), (4,))
    assert not check_kt_equals_reference(g, 2, 2)
    # At k = 3 the triangle shatters, and the certificate applies.
    assert check_kt_equals_reference(g, 3, 2)


def _one_block_certified(g, k, lambda_bar):
    """Whether the one-block certificate applies, read from the reference's
    regularized graph h: more than 16 vertices, minimum degree delta >= 1
    and, as h is simple and gamma = 1/delta, floor(m / delta) <= delta."""
    try:
        h, _, _ = partition_reference.regularize(ni_sparsify(g, lambda_bar), k, lambda_bar)
    except KTInvariantError:
        return False
    delta = min(h.degrees, default=0)
    return h.n > 16 and delta >= 1 and len(h.edges) // delta <= delta


@st.composite
def dense_kt_inputs(draw):
    """Dense G(n, p) with n in 17..70 and p in 0.5..0.95, a k from 2 up to n,
    and lambda_bar the 2-approximation (as the pipeline passes it) or drawn
    up to twice it."""
    n = draw(st.integers(17, 70))
    p = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 0.95]))
    g = gnp_graph(n, p, draw(st.integers(0, 10**6)))
    k = draw(st.one_of(st.integers(2, 6), st.integers(2, n), st.just(n)))
    approx = sv_2approx(g, k).value
    return g, k, draw(st.one_of(st.just(approx), st.integers(1, 2 * approx)))


_ALL_STAGES = ("expander_decompose", "_fiedler_sweep", "trim", "shave", "shatter",
               "_validate_state", "_validate_decomposition")


@given(dense_kt_inputs())
@example((gnp_graph(17, 0.9, 0), 17, sv_2approx(gnp_graph(17, 0.9, 0), 17).value))
@settings(max_examples=60, deadline=None)
def test_one_block_certificate_equals_full_run(case):
    # Partition and whole report equal the reference's full run, and the
    # stages are skipped exactly when the one-block certificate applies (a
    # small lambda_bar can sparsify to minimum degree 1, where the singleton
    # certificate is checked instead).  The explicit example is k = n = 17,
    # where shatter dissolves the one block.
    g, k, lambda_bar = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _stage_spy(mp, _ALL_STAGES)
        ran = _outcome(kt_partition, g, k, lambda_bar) is not KTInvariantError
    if not check_kt_equals_reference(g, k, lambda_bar) and ran:
        assert (calls == []) == _one_block_certified(g, k, lambda_bar)


@pytest.mark.parametrize("g, k", [
    (gnp_graph(n, p, j), k) for j, (n, p, k) in enumerate([
        (50, 0.85, 5), (100, 0.8, 5), (60, 0.85, 4), (70, 0.85, 5), (100, 0.8, 2),
        (60, 0.9, 5), (80, 0.85, 4), (100, 0.8, 3), (50, 0.9, 6), (70, 0.8, 3)])]
    + [(complete_graph(17), 17)])
def test_one_block_certificate_skips_the_stages(monkeypatch, g, k):
    # Dense rows shaped like the sparsify benchmark's, and K17 at k = 17:
    # the regularized graph is one certified block, no stage or check runs,
    # and the block is kept, or dissolved when it has at most k vertices.
    lambda_bar = sv_2approx(g, k).value
    calls = _stage_spy(monkeypatch, _ALL_STAGES)
    partition, report = kt_partition(g, k, lambda_bar)
    assert calls == []
    removed = report["stages"]["regularized_removed"]
    size = g.n - removed
    sizes = [1] * g.n if size <= k else [1] * removed + [size]
    assert sorted(map(len, partition.blocks)) == sizes
    assert report["stages"] == {"regularized_removed": removed, "clusters": 1, "trimmed": 0,
                                "shaved": 0, "shattered": size if size <= k else 0}


def _two_dense_blocks(n, extra, seed):
    """Two G(n, 0.9) blocks on 0..n-1 and n..2n-1, joined by ``extra``
    random edges."""
    rng = random.Random(seed)
    a, b = gnp_graph(n, 0.9, seed), gnp_graph(n, 0.9, seed + 1)
    edges = {(u, v) for u, v, _ in a.edges} | {(u + n, v + n) for u, v, _ in b.edges}
    while len(edges) < len(a.edges) + len(b.edges) + extra:
        edges.add((rng.randrange(n), n + rng.randrange(n)))
    return Graph.from_edges(2 * n, sorted(edges))


@pytest.mark.parametrize("g, k", [
    (_two_dense_blocks(20, 3, 0), 2), (_two_dense_blocks(30, 5, 1), 3),
    (_two_dense_blocks(25, 1, 2), 4),
    (complete_graph(16), 2), (gnp_graph(16, 0.9, 3), 3), (complete_graph(12), 4),
    (star_graph(20), 3),
    (Graph.from_edges(18, [e[:2] for e in complete_graph(17).edges] + [(16, 17)]), 2)])
def test_one_block_certificate_does_not_fire(monkeypatch, g, k):
    # Two dense blocks joined by a few edges fail the degree certificate,
    # n <= 16 is left to the exact enumeration, and gamma = 1 graphs (a star,
    # K17 with a pendant vertex) are not certified by degrees: the
    # decomposition and both checks run, and the result is the reference's
    # full run.
    lambda_bar = sv_2approx(g, k).value
    assert not _one_block_certified(g, k, lambda_bar)
    calls = _stage_spy(monkeypatch, _ALL_STAGES)
    kt_partition(g, k, lambda_bar)
    assert calls[0] == "expander_decompose"
    assert calls[-2:] == ["_validate_state", "_validate_decomposition"]
    monkeypatch.undo()
    assert not check_kt_equals_reference(g, k, lambda_bar)


@st.composite
def decomposition_graphs(draw):
    """G(n, p) with n <= 40 and weights 1..4, often disconnected, or a
    planted instance of 3 clusters of 12 and 2 islands."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return planted_instance(3, 12, 0.7, 0.1, 2, seed=seed)[0]
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7]))
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v, rng.randint(1, 4))
                                for u, v in combinations(range(n), 2) if rng.random() < p])


@given(decomposition_graphs(),
       st.sampled_from([Fraction(1, d) for d in (1, 2, 3, 4, 5, 8, 9, 13)] + [Fraction(2, 3)]))
@settings(max_examples=80, deadline=None)
def test_expander_decompose_equals_reference(g, gamma):
    expected = partition_reference.expander_decompose(g, gamma).blocks
    assert expander_decompose(g, gamma).blocks == expected
    assert expander_decompose(weight_matrix(g), gamma).blocks == expected


@st.composite
def gamma_one_graphs(draw):
    """Graphs for the gamma = 1 decomposition: ``decomposition_graphs``,
    K_{a,b} with a = 2..11 and b = 15..29, and double stars (two adjacent
    centres with 1..20 leaves each), the last two relabelled at random."""
    shape = draw(st.sampled_from(["decomposition", "bipartite", "double_star"]))
    if shape == "decomposition":
        return draw(decomposition_graphs())
    if shape == "bipartite":
        a, b = draw(st.integers(2, 11)), draw(st.integers(15, 29))
        n, edges = a + b, [(u, v) for u in range(a) for v in range(a, a + b)]
    else:
        a, b = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        n = a + b + 2
        edges = [(0, 1)] + [(0, v) for v in range(2, a + 2)] + [(1, v) for v in range(a + 2, n)]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _two_disjoint_edges(g, block) -> bool:
    inside = set(block)
    edges = [(u, v) for u, v, _ in g.edges if u in inside and v in inside]
    return any(not {u, v} & {x, y} for (u, v), (x, y) in combinations(edges, 2))


@given(gamma_one_graphs())
@settings(max_examples=80, deadline=None)
def test_gamma_one_blocks_have_no_two_disjoint_edges(g):
    # At gamma = 1 every block is a star, a triangle, K2 or one vertex.
    blocks = expander_decompose(g, Fraction(1)).blocks
    assert not any(_two_disjoint_edges(g, b) for b in blocks)
    assert blocks == partition_reference.expander_decompose(g, Fraction(1)).blocks


@given(gamma_one_graphs())
@settings(max_examples=40, deadline=None)
def test_gamma_one_splits_at_lightest_edge_without_sweep(g):
    # With a sweep that never finds a cut, every non-star block above 16
    # vertices is split at its lightest edge, in the library and the
    # reference alike, and the blocks are still stars and triangles.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kcut.partition, "_fiedler_sweep", lambda w, deg: (math.inf, np.arange(1)))
        mp.setattr(partition_reference, "_fiedler_sweep", lambda h: (math.inf, (0,)))
        blocks = expander_decompose(g, Fraction(1)).blocks
        assert blocks == partition_reference.expander_decompose(g, Fraction(1)).blocks
    assert not any(_two_disjoint_edges(g, b) for b in blocks)


def test_lightest_edge_split_order():
    # K_{2,17}: sides 0, 1; every edge has endpoint degrees 17 + 2, so the
    # tie goes to the lowest ids, edge (0, 2).
    g = Graph.from_edges(19, [(u, v) for u in range(2) for v in range(2, 19)])
    cond, side = kcut.partition._lightest_edge_cut(weight_matrix(g), np.array(g.degrees))
    assert side.tolist() == [0, 2]
    assert cond == Fraction(17, 19)
    assert partition_reference._lightest_edge(g) == (cond, (0, 2))


@st.composite
def dense_matrices(draw):
    """Weight matrices on 2..16 vertices, simple or with weights 1..4, most
    of them dense enough for the degree certificate, some with an isolated
    vertex."""
    n = draw(st.integers(2, 16))
    p = draw(st.sampled_from([0.5, 0.8, 0.9, 1.0]))
    top = draw(st.sampled_from([1, 4]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    w = np.zeros((n, n), dtype=np.int64)
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            w[u, v] = w[v, u] = rng.randint(1, top)
    if draw(st.integers(0, 4)) == 0:
        v = draw(st.integers(0, n - 1))
        w[v] = w[:, v] = 0
    return w


@given(dense_matrices(), st.integers(1, 16))
@settings(max_examples=300, deadline=None)
def test_degree_certificate_is_sound(w, d):
    gamma = Fraction(1, d)
    certified = _degree_certified(w.sum(axis=1), int(w.max()), gamma)
    if not w.any(axis=1).all():
        assert not certified
    if certified:
        assert _min_conductance(w)[0] >= gamma


def test_degree_certificate_is_tight_on_cliques():
    # K_n's minimum conductance is that of a balanced cut, 1 - (n//2 - 1)/(n - 1):
    # exactly the certificate's bound, so it holds at that gamma and not above.
    for n in range(2, 17):
        w = weight_matrix(complete_graph(n))
        cond = _min_conductance(w)[0]
        assert cond == 1 - Fraction(n // 2 - 1, n - 1)
        assert _degree_certified(w.sum(axis=1), 1, cond)
        if cond < 1:
            assert not _degree_certified(w.sum(axis=1), 1, cond + Fraction(1, 10**6))


def _inverse_min_degree(g):
    return Fraction(1, max(int(weight_matrix(g).sum(axis=1).min()), 1))


@given(st.integers(17, 60), st.sampled_from([0.7, 0.85, 1.0]), st.integers(0, 10**6),
       st.sampled_from([None, Fraction(1, 4), Fraction(2, 3)]))
@settings(max_examples=40, deadline=None)
def test_certified_blocks_equal_reference(n, p, seed, gamma):
    # Dense simple graphs, where the degree certificate accepts most large
    # blocks (gamma None is 1/min degree, as kt_partition derives it).
    g = gnp_graph(n, p, seed)
    gamma = gamma or _inverse_min_degree(g)
    expected = partition_reference.expander_decompose(g, gamma).blocks
    assert expander_decompose(g, gamma).blocks == expected
    assert expander_decompose(weight_matrix(g), gamma).blocks == expected


def test_certified_block_skips_sweep_and_components(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the degree certificate should have accepted the block")
    monkeypatch.setattr(kcut.partition, "_fiedler_sweep", forbidden)
    monkeypatch.setattr(kcut.partition, "component_roots", forbidden)
    for seed in range(5):
        g = gnp_graph(60, 0.85, seed)
        assert expander_decompose(g, _inverse_min_degree(g)).blocks == (tuple(range(60)),)


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
