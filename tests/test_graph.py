"""Graph substrate: parsing, cut evaluation, contraction, conductance."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    Graph,
    GraphError,
    InvalidCutError,
    KCut,
    ParseError,
    VertexPartition,
    canonical_labels,
    connected_components,
    contract,
    cut_value,
    graph_to_text,
    induced_subgraph,
    parse_graph,
)
from kcut.generators import cliques_bridge, complete_graph, cycle_graph, path_graph
from kcut.graph import MAX_WEIGHT, component_roots, weight_matrix
from kcut.sparsify import forest_decomposition, ni_sparsify

from helpers import conductance, union_find


# ---------------------------------------------------------------- strategies

@st.composite
def graphs(draw, max_n=8, min_n=1, max_weight=4, weights=None):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weight = weights if weights is not None else st.integers(1, max_weight)
    drawn = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, drawn)])


def heavy_graphs(max_n=9):
    """Graphs with small weights, weights at the 64-bit limit and anything
    between, so that totals, degrees and cut values fall both below and
    above MAX_WEIGHT."""
    return graphs(max_n=max_n, weights=st.one_of(
        st.integers(1, 3), st.integers(MAX_WEIGHT - 2, MAX_WEIGHT), st.integers(1, MAX_WEIGHT)))


def assert_same_graph(got, want):
    """Equal in n, edges, simple and edge_array, and equally hashed."""
    assert (got.n, got.edges, got.simple) == (want.n, want.edges, want.simple)
    assert got.simple is want.simple
    assert got.edge_array.dtype == np.int64
    assert np.array_equal(got.edge_array, want.edge_array.reshape(-1, 3))
    assert not got.edge_array.flags.writeable
    assert got == want and hash(got) == hash(want)


def python_degrees(g):
    deg = [0] * g.n
    for u, v, w in g.edges:
        deg[u] += w
        deg[v] += w
    return tuple(deg)


@st.composite
def graphs_with_labels(draw, max_n=8):
    g = draw(graphs(max_n=max_n, min_n=2))
    labels = draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    return g, canonical_labels(labels)


# ------------------------------------------------------------------- parsing

def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1, 1), (1, 2, 1))
    assert g.simple


def test_parse_parallel_merge():
    g = parse_graph("2 2\n0 1\n0 1")
    assert g.edges == ((0, 1, 2),)
    assert not g.simple


def test_parse_self_loop_names_line():
    with pytest.raises(ParseError, match="self-loop at line 2"):
        parse_graph("2 1\n0 0")


def test_parse_comments_and_weights():
    g = parse_graph("# header comment\n3 2\n0 1 5\n# mid\n1 2\n")
    assert g.edges == ((0, 1, 5), (1, 2, 1))
    assert not g.simple


def test_parse_errors():
    with pytest.raises(ParseError, match="out of range"):
        parse_graph("2 1\n0 5")
    with pytest.raises(ParseError, match="nonpositive weight"):
        parse_graph("2 1\n0 1 0")
    with pytest.raises(ParseError, match="promises"):
        parse_graph("3 2\n0 1")
    with pytest.raises(ParseError, match="header"):
        parse_graph("")


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_parse_roundtrip(g):
    assert parse_graph(graph_to_text(g)) == g


@given(graphs(max_weight=2**62))
@settings(max_examples=60, deadline=None)
def test_edge_array_rows_are_the_edges(g):
    arr = g.edge_array
    assert arr.dtype == np.int64
    assert arr.shape == (len(g.edges), 3)
    assert np.array_equal(arr, np.array(g.edges, dtype=np.int64).reshape(-1, 3))
    assert not arr.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 3])
def test_edge_array_of_edgeless_graph(n):
    arr = Graph.from_edges(n, []).edge_array
    assert arr.shape == (0, 3)
    assert arr.dtype == np.int64
    assert not arr.flags.writeable


# ----------------------------------------------------------------- cut_value

def test_cut_value_p3():
    g = path_graph(3)
    assert cut_value(g, KCut.from_labels(g, (0, 1, 1), 2)) == 1


def test_cut_value_k4_star():
    g = complete_graph(4)
    assert cut_value(g, KCut.from_labels(g, (0, 1, 1, 1), 2)) == 3


def test_cut_value_c6():
    g = cycle_graph(6)
    assert cut_value(g, KCut.from_labels(g, (0, 0, 1, 1, 2, 2), 3)) == 3


def test_cut_value_rejects_empty_part():
    g = path_graph(3)
    with pytest.raises(InvalidCutError):
        cut_value(g, KCut(k=3, labels=(0, 1, 1), value=0))
    with pytest.raises(InvalidCutError):
        KCut.from_labels(g, (0, 2, 2), 3)


@given(graphs_with_labels())
@settings(max_examples=60, deadline=None)
def test_cut_value_label_permutation_invariant(gl):
    g, labels = gl
    k = max(labels) + 1
    cut = KCut.from_labels(g, labels, k)
    perm = tuple(reversed(range(k)))
    permuted = KCut.from_labels(g, tuple(perm[l] for l in labels), k)
    assert cut.value == permuted.value


# ------------------------------------------------------------------ contract

def test_contract_identity():
    g = complete_graph(4)
    p = VertexPartition.from_blocks([[v] for v in range(4)], 4)
    gc, cmap = contract(g, p)
    assert gc == g
    assert cmap == (0, 1, 2, 3)


def test_contract_c4_pairs():
    g = cycle_graph(4)
    p = VertexPartition.from_blocks([[0, 1], [2, 3]], 4)
    gc, _ = contract(g, p)
    assert gc.n == 2
    assert gc.edges == ((0, 1, 2),)


def test_contract_k4_example():
    g = complete_graph(4)
    p = VertexPartition.from_blocks([[0, 1], [2], [3]], 4)
    gc, _ = contract(g, p)
    assert gc.edges == ((0, 1, 2), (0, 2, 2), (1, 2, 1))


@given(graphs_with_labels())
@settings(max_examples=80, deadline=None)
def test_contract_preserves_agreeing_cuts(gl):
    g, labels = gl
    p = VertexPartition.from_labels(labels, g.n)
    gc, cmap = contract(g, p)
    # A cut labeling every block uniformly projects to the contracted graph.
    block_labels = canonical_labels(tuple(labels[b[0]] % 2 for b in p.blocks))
    lifted = tuple(block_labels[cmap[v]] for v in range(g.n))
    k = max(block_labels) + 1
    if k < 1 or len(set(block_labels)) != k:
        return
    assert cut_value(g, KCut.from_labels(g, lifted, k)) == \
        cut_value(gc, KCut.from_labels(gc, block_labels, k))


@given(graphs_with_labels())
@settings(max_examples=80, deadline=None)
def test_contract_weight_conservation(gl):
    g, labels = gl
    p = VertexPartition.from_labels(labels, g.n)
    gc, cmap = contract(g, p)
    intra = sum(w for u, v, w in g.edges if cmap[u] == cmap[v])
    assert g.total_weight == gc.total_weight + intra


@given(st.integers(0, 30).flatmap(
    lambda n: st.lists(st.integers(-3, 5), min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_partition_from_labels_groups_equal_labels(labels):
    groups: dict = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, []).append(v)
    want = VertexPartition.from_blocks(groups.values(), len(labels))
    assert VertexPartition.from_labels(labels, len(labels)) == want
    assert VertexPartition.from_labels(np.array(labels, dtype=np.int64), len(labels)) == want


def test_partition_from_labels_rejects_wrong_length():
    with pytest.raises(GraphError):
        VertexPartition.from_labels([0, 1], 3)


def test_contract_invalid_partition():
    g = path_graph(3)
    with pytest.raises(GraphError):
        VertexPartition.from_blocks([[0], [1]], 3)
    with pytest.raises(GraphError):
        VertexPartition.from_blocks([[0, 1], [1, 2]], 3)


# ---------------------------------------------------------------- components

def test_components_c5():
    assert len(connected_components(cycle_graph(5)).blocks) == 1


def test_components_two_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert connected_components(g).blocks == ((0, 1), (2, 3))


def test_components_edgeless():
    g = Graph.from_edges(3, [])
    assert len(connected_components(g).blocks) == 3


def _lowest_in_component(n, pairs):
    """Reference labelling: a plain union-find over the pairs, then the
    lowest vertex of every set."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    lowest = {}
    for v in range(n):
        lowest.setdefault(find(v), v)
    return [lowest[find(v)] for v in range(n)]


@st.composite
def edge_lists(draw, max_n=30):
    # Repeated pairs, both orientations and self-pairs are all allowed;
    # isolated vertices and empty lists come for free.
    n = draw(st.integers(0, max_n))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_component_roots_match_union_find(case):
    n, pairs = case
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    assert component_roots(n, a, b).tolist() == _lowest_in_component(n, pairs)


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_union_find_roots_are_set_minima(case):
    n, pairs = case
    find, union, parent = union_find(n)
    for a, b in pairs:
        union(a, b)
    assert all(p <= v for v, p in enumerate(parent))
    assert [find(v) for v in range(n)] == _lowest_in_component(n, pairs)


# --------------------------------------------------------------- conductance

def test_conductance_k4_singleton():
    assert conductance(complete_graph(4), {0}) == 1


def test_conductance_c6_arc():
    assert conductance(cycle_graph(6), {0, 1, 2}) == Fraction(1, 3)


def test_conductance_two_k5_bridge():
    g = cliques_bridge(5, 2, 1)
    assert conductance(g, set(range(5))) == Fraction(1, 21)


def test_conductance_domain_errors():
    g = complete_graph(4)
    with pytest.raises(GraphError):
        conductance(g, set())
    with pytest.raises(GraphError):
        conductance(g, {0, 1, 2, 3})


def test_conductance_zero_volume_side():
    g = Graph.from_edges(3, [(0, 1)])
    assert conductance(g, {2}) == math.inf


@given(graphs(max_n=7, min_n=2), st.data())
@settings(max_examples=60, deadline=None)
def test_conductance_complement_symmetry(g, data):
    s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))
    if len(s) == g.n:
        return
    assert conductance(g, s) == conductance(g, set(range(g.n)) - s)


# ----------------------------------------------------------- canonical labels

def test_canonical_labels():
    assert canonical_labels((2, 2, 0, 1, 0)) == (0, 0, 1, 2, 1)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=10))
def test_canonical_labels_idempotent(labels):
    once = canonical_labels(labels)
    assert canonical_labels(once) == once
    assert once[0] == 0


def test_graph_invariants():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(1, [(0, 1)])


# ---------------------------------------------------------------- induced

def induced_by_from_edges(g, vertices):
    """Reference: relabel the kept edges and validate them through from_edges."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    return Graph.from_edges(len(verts), [(index[u], index[v], w) for u, v, w in g.edges
                                         if u in index and v in index]), verts


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_matches_from_edges(data, unit_weights):
    g = data.draw(st.one_of(graphs(max_n=12), heavy_graphs()))
    if unit_weights:
        g = Graph.from_edges(g.n, [(u, v) for u, v, _ in g.edges])
    subset = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
    sub, back = induced_subgraph(g, subset)
    want, want_back = induced_by_from_edges(g, subset)
    assert back == want_back
    assert_same_graph(sub, want)


def test_induced_subgraph_recomputes_simple():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3, 3), (3, 4), (0, 4, 2)])
    assert not g.simple
    for subset, simple in (([0, 1, 2], True), ([1, 2, 3], False), ([4, 3], True),
                           ([0, 4], False), ([], True), ([2], True)):
        sub, back = induced_subgraph(g, subset)
        assert sub.simple is simple
        assert (sub, back) == induced_by_from_edges(g, subset)
    assert induced_subgraph(g, []) == (Graph(n=0, edges=(), simple=True), [])
    assert induced_subgraph(g, [3, 3]) == (Graph(n=1, edges=(), simple=True), [3])


def test_induced_subgraph_rejects_unknown_vertex():
    with pytest.raises(GraphError):
        induced_subgraph(path_graph(3), [0, 3])
    with pytest.raises(GraphError):
        induced_subgraph(path_graph(3), [-1, 1])


# ------------------------------------------------------------ derived graphs

@given(heavy_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_contract_matches_from_edges(g, data):
    labels = data.draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    p = VertexPartition.from_labels(labels, g.n)
    cmap = p.to_block_index(g.n)
    crossing = [(cmap[u], cmap[v], w) for u, v, w in g.edges if cmap[u] != cmap[v]]
    try:
        want = Graph.from_edges(len(p.blocks), crossing)
    except GraphError:
        # A merged super-edge weight above MAX_WEIGHT: contract raises too.
        with pytest.raises(GraphError):
            contract(g, p)
        return
    gc, got_cmap = contract(g, p)
    assert got_cmap == cmap
    assert_same_graph(gc, want)


def test_contract_rejects_merged_overflow():
    g = Graph.from_edges(3, [(0, 1, MAX_WEIGHT), (0, 2, 1)])
    p = VertexPartition.from_blocks([[0], [1, 2]], 3)
    with pytest.raises(GraphError, match="overflows"):
        contract(g, p)
    with pytest.raises(GraphError, match="overflows"):
        Graph.from_edges(2, [(0, 1, MAX_WEIGHT), (0, 1, 1)])


@given(graphs(max_n=10, max_weight=1), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_ni_sparsify_matches_from_edges(g, s):
    union = Graph.from_edges(g.n, (e for f in forest_decomposition(g, s) for e in f))
    assert_same_graph(ni_sparsify(g, s), union)


@given(graphs(max_n=24, max_weight=3), st.data())
@settings(max_examples=80, deadline=None)
def test_adjacency_matches_per_edge_lists(g, data):
    subset = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
    for h in (g, induced_subgraph(g, subset)[0]):
        adj: list = [[] for _ in range(h.n)]
        for u, v, w in h.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        assert h.adjacency == tuple(tuple(sorted(a)) for a in adj)


@given(heavy_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_sums_match_python_ints(g, data):
    labels = data.draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    labels = canonical_labels(labels)
    p = VertexPartition.from_labels(labels, g.n)
    derived = [g, induced_subgraph(g, range(0, g.n, 2))[0]]
    try:
        derived.append(contract(g, p)[0])
    except GraphError:
        pass   # a merged weight overflows; covered by test_contract_matches_from_edges
    for h in derived:
        assert h.total_weight == sum(w for _, _, w in h.edges)
        assert h.degrees == python_degrees(h)
    cut = KCut.from_labels(g, labels)
    assert cut.value == sum(w for u, v, w in g.edges if labels[u] != labels[v])
    if g.total_weight > MAX_WEIGHT:
        with pytest.raises(GraphError):
            weight_matrix(g)


def test_derived_graph_builds_its_edge_tuple_on_demand():
    g = Graph.from_edges(6, [(0, 1), (1, 2, 3), (2, 3), (3, 4), (4, 5, 2), (0, 5), (1, 4)])
    built = Graph(n=g.n, edges=g.edges, simple=g.simple)
    # A tuple-built graph makes its array only when asked.
    assert "edge_array" not in vars(built)
    parts = [induced_subgraph(g, [1, 2, 3, 4])[0],
             contract(g, VertexPartition.from_blocks([[0, 1], [2, 3], [4, 5]], 6))[0]]
    for h in parts:
        assert "edges" not in vars(h)
        h.total_weight, h.degrees, h.components, h.adjacency, weight_matrix(h)
        KCut.from_labels(h, [0] + [1] * (h.n - 1))
        assert "edges" not in vars(h)
        twin = Graph(n=h.n, edges=tuple(map(tuple, h.edge_array.tolist())), simple=h.simple)
        assert h == twin and twin == h and hash(h) == hash(twin)
        assert "edges" in vars(h)   # equality and hashing read the tuple
        assert h.edges is vars(h)["edges"]
    assert parts[0].edges == ((0, 1, 3), (0, 3, 1), (1, 2, 1), (2, 3, 1))
    with pytest.raises(AttributeError):
        parts[0].n = 3
