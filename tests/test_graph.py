"""Graph substrate: parsing, cut evaluation, contraction, conductance."""
import math
import re
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
from kcut.oracle import ni_sparsify

from helpers import (conductance, from_edges_reference, graphs, heavy_graphs, ni_ranks_reference,
                     union_find, weights_totalling)


# ---------------------------------------------------------------- strategies

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
    for doc, message in [
        ("3\n", "malformed header at line 1: expected 'n m'"),
        ("# c\nthree 2\n", "malformed header at line 2: expected integers"),
        ("3 -1\n", "malformed header at line 1: negative count"),
        ("3 1\n0 1 2 3\n", "malformed edge at line 2: expected 'u v [w]'"),
        ("3 1\n0 x\n", "malformed edge at line 2: expected integers"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_graph(doc)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_parse_roundtrip(g):
    assert parse_graph(graph_to_text(g)) == g


@given(st.one_of(graphs(), heavy_graphs(max_n=8)))
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
    with pytest.raises(InvalidCutError, match="label vector has length 2, graph has 3 vertices"):
        KCut.from_labels(g, (0, 1), 2)


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
    # A partition of singletons gives g itself, so whatever is memoised on g
    # (its components, min cut and maximum-adjacency order) serves gc too.
    g = complete_graph(4)
    p = VertexPartition.from_blocks([[v] for v in range(4)], 4)
    gc, cmap = contract(g, p)
    assert gc is g
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
    with pytest.raises(GraphError, match="empty block"):
        VertexPartition.from_blocks([[0, 1, 2], []], 3)


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


# ------------------------------------------------- from_edges against the loop

# Entries that fail one check of the per-entry loop: self-loops, ids out of
# range (also past int64) and weights below 1 (also past int64).
BAD_ENTRIES = [(1, 1), (2, 2, 3), (0, 9), (-1, 0, 2), (0, 1, 0), (1, 0, -5),
               (0, 2**70), (2**70, 2**70), (0, 1, -2**70), (9, 9, 0)]


@st.composite
def entry_lists(draw):
    """(n, entries): valid (u, v) and (u, v, w) entries in both orientations,
    with repeats, whose weights total a few per entry, MAX_WEIGHT, one
    either side of it or anything up to 2^64 (so a single weight can pass
    int64 too), and sometimes a bad entry (then maybe more valid ones, of
    any weight) after them."""
    n = draw(st.integers(0, 6))
    valid = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(valid, max_size=12)) if n >= 2 else []
    entries = []
    if pairs:
        total = draw(st.one_of(st.sampled_from([MAX_WEIGHT - 1, MAX_WEIGHT, MAX_WEIGHT + 1]),
                               st.integers(len(pairs), 3 * len(pairs)),
                               st.integers(len(pairs), 2**64)))
        weights = draw(weights_totalling(total, len(pairs)))
        entries = [p if w == 1 and draw(st.booleans()) else (*p, w) for p, w in zip(pairs, weights)]
    if draw(st.booleans()):
        entries.append(draw(st.sampled_from(BAD_ENTRIES)))
        weighted = st.tuples(valid, st.integers(1, 2**64)).map(lambda e: (*e[0], e[1]))
        entries += draw(st.lists(st.one_of(valid, weighted), max_size=3)) if n >= 2 else []
    return n, entries


def assert_builds_like_the_loop(n, make_pairs):
    """from_edges(n, make_pairs()) equals the loop's graph, or raises its
    GraphError with its message."""
    try:
        want = from_edges_reference(n, make_pairs())
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            Graph.from_edges(n, make_pairs())
        assert type(got.value) is GraphError and str(got.value) == str(exc)
        return
    got = Graph.from_edges(n, make_pairs())
    assert_same_graph(got, want)
    assert all(type(x) is int for e in got.edges for x in e)


@given(entry_lists(), st.sampled_from(["list", "generator", "set"]))
@settings(max_examples=300, deadline=None)
def test_from_edges_matches_the_loop(case, container):
    n, entries = case
    if container == "set":
        frozen = set(entries)   # one set object: both sides iterate it in one order
        assert_builds_like_the_loop(n, lambda: frozen)
    else:
        wrap = list if container == "list" else iter
        assert_builds_like_the_loop(n, lambda: wrap(entries))


@pytest.mark.parametrize("entries", [
    [(0, 1, MAX_WEIGHT - 1), (1, 0)],                        # merges to MAX_WEIGHT
    [(0, 1, MAX_WEIGHT - 1), (2, 1, 5), (1, 0, 2)],          # the second entry passes it
    [(0, 1, 2**62), (1, 2, 2**62 - 1), (0, 2, 1)],           # passes it on a new pair
    [(1, 2, MAX_WEIGHT), (2, 1), (0, 0)],                    # overflow before the self-loop
    [(2, 1), (1, 2, 3), (0, 2)],                             # mixed (u, v) and (u, v, w)
    [(0, 1, 2**63)], [(0, 1, 2**62), (1, 0, 2**62)], [],
    [(0, 1), (1, 2, MAX_WEIGHT - 2), (0, 2)],                # totals MAX_WEIGHT on three pairs
    [(0, 1, MAX_WEIGHT), (2, 2), (0, 2, 2**64)],             # the self-loop comes first
])
def test_from_edges_merges_like_the_loop(entries):
    assert_builds_like_the_loop(3, lambda: entries)


def test_from_edges_with_pair_keys_past_int64():
    # lo * n + hi passes int64 once n * n does.
    assert_builds_like_the_loop(2**40, lambda: [(2**39, 2**39 + 1), (5, 6), (2**38, 3), (6, 5, 2)])


def test_from_edges_without_vertices_or_edges():
    assert_same_graph(Graph.from_edges(0, []), Graph(n=0, edges=(), simple=True))
    assert_same_graph(Graph.from_edges(4, iter([])), Graph(n=4, edges=(), simple=True))
    assert_builds_like_the_loop(0, lambda: [(0, 1)])
    with pytest.raises(GraphError, match="nonnegative"):
        Graph.from_edges(-1, [])


@pytest.mark.parametrize("entry", [(0, 1, 1.5), (0, 1, 2.0), (0.0, 1), ("0", 1), (0, 1, None),
                                   (0,), (0, 1, 1, 1), (0, 1, np.float64(1))])
def test_from_edges_rejects_non_integer_entries(entry):
    with pytest.raises(GraphError, match="is not two or three integers"):
        Graph.from_edges(3, [(1, 2), entry])
    # An earlier bad entry is still the one reported.
    with pytest.raises(GraphError, match="self-loop at vertex 2"):
        Graph.from_edges(3, [(0, 1), (2, 2), entry])


def test_from_edges_returns_python_ints():
    g = Graph.from_edges(3, [(np.int64(2), np.int32(0), np.uint8(4)), (True, 2)])
    assert g.edges == ((0, 2, 4), (1, 2, 1))
    assert all(type(x) is int for e in g.edges for x in e)
    assert Graph.from_edges(2, [(False, True)]) == Graph.from_edges(2, [(0, 1)])


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

@given(st.one_of(graphs(max_n=9), heavy_graphs()), st.data())
@settings(max_examples=150, deadline=None)
def test_contract_matches_from_edges(g, data):
    labels = data.draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    p = VertexPartition.from_labels(labels, g.n)
    cmap = p.to_block_index(g.n)
    crossing = [(cmap[u], cmap[v], w) for u, v, w in g.edges if cmap[u] != cmap[v]]
    gc, got_cmap = contract(g, p)
    assert got_cmap == cmap
    assert_same_graph(gc, Graph.from_edges(len(p.blocks), crossing))


@given(st.one_of(graphs(max_n=9), heavy_graphs()))
@settings(max_examples=80, deadline=None)
def test_trivial_contractions_match_from_edges(g):
    # The two trivial partitions skip the edge pass; each result is still the
    # graph that the general path's reference, from_edges over the crossing
    # edges, builds: g itself for singletons, and for one block the
    # edgeless one-vertex graph.
    gc, cmap = contract(g, VertexPartition.from_labels(range(g.n), g.n))
    assert gc is g and cmap == tuple(range(g.n))
    gc, cmap = contract(g, VertexPartition.from_labels([7] * g.n, g.n))
    assert cmap == (0,) * g.n
    assert_same_graph(gc, Graph.from_edges(1, []))


@pytest.mark.parametrize("p", [
    VertexPartition.from_blocks([[0], [1]], 2),               # vertices 2 and 3 in no block
    VertexPartition.from_blocks([[0, 1], [2, 3], [4]], 5),    # vertex 4 past the graph
    VertexPartition(blocks=((-1, 0), (1, 2))),                # an id below 0, vertex 3 in none
    VertexPartition(blocks=((0, 1), (1, 2, 3))),              # vertex 1 in two blocks
], ids=["short", "long", "negative", "overlapping"])
def test_contract_rejects_a_partition_not_covering_the_graph(p):
    with pytest.raises(GraphError, match="does not cover"):
        p.to_block_index(4)
    with pytest.raises(GraphError, match="does not cover"):
        contract(path_graph(4), p)


def test_contract_rejects_merged_overflow():
    # A graph whose contraction {0} | {1, 2}, or whose merged pair, would
    # weigh past int64 is refused when it is built; at exactly the budget
    # the contraction merges to MAX_WEIGHT.
    for n, entries in ((3, [(0, 1, MAX_WEIGHT), (0, 2, 1)]),
                       (2, [(0, 1, MAX_WEIGHT), (0, 1, 1)])):
        with pytest.raises(GraphError, match=f"^total edge weight {2**63} overflows"):
            Graph.from_edges(n, entries)
    g = Graph.from_edges(3, [(0, 1, MAX_WEIGHT - 1), (0, 2, 1)])
    h, _ = contract(g, VertexPartition.from_blocks([[0], [1, 2]], 3))
    assert h.edges == ((0, 1, MAX_WEIGHT),)


def test_total_past_the_budget_is_rejected_at_construction():
    with pytest.raises(GraphError, match=f"^total edge weight {2**63} overflows"):
        Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62)])
    assert Graph.from_edges(3, [(0, 1, 2**62), (1, 2, 2**62 - 1)]).total_weight == MAX_WEIGHT


@given(graphs(max_n=10, max_weight=1), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_ni_sparsify_matches_from_edges(g, s):
    ranks = ni_ranks_reference(g)
    union = Graph.from_edges(g.n, (e for e in g.edges if ranks[e[:2]] <= s))
    assert_same_graph(ni_sparsify(g, s), union)


def draw_labels(data, h):
    """Canonical labels of some k-cut of h."""
    return canonical_labels(data.draw(st.lists(st.integers(0, max(h.n - 1, 0)),
                                               min_size=h.n, max_size=h.n)))


def assert_exact_sums(h, labels):
    """h's total weight, degrees, weight-matrix row sums and the value of the
    cut ``labels`` equal their Python-int sums, and the total is in budget."""
    assert h.total_weight == sum(w for _, _, w in h.edges) <= MAX_WEIGHT
    assert h.degrees == python_degrees(h) == tuple(weight_matrix(h).sum(axis=1).tolist())
    value = sum(w for u, v, w in h.edges if labels[u] != labels[v])
    assert KCut.from_labels(h, labels).value == value


@given(st.one_of(graphs(), heavy_graphs()), st.data())
@settings(max_examples=150, deadline=None)
def test_sums_match_python_ints(g, data):
    assert_exact_sums(g, draw_labels(data, g))


@given(heavy_graphs(totals=st.just(MAX_WEIGHT)), st.data())
@settings(max_examples=150, deadline=None)
def test_derived_graphs_of_a_full_budget_keep_exact_sums(g, data):
    # g's weights total exactly MAX_WEIGHT.  A derivation keeps, drops or
    # merges edges, so none raises and every derived sum still fits int64,
    # a derivation of a derived graph included.  ni_sparsify takes simple
    # graphs only, whose totals are at most C(n, 2): it runs on g's edges
    # with unit weights.
    sub = induced_subgraph(g, data.draw(st.lists(st.integers(0, g.n - 1))))[0]
    derived = [g, sub]
    for h in (g, sub):
        derived.append(contract(h, VertexPartition.from_labels(draw_labels(data, h), h.n))[0])
    unit = Graph.from_edges(g.n, [(u, v) for u, v, _ in g.edges])
    derived.append(ni_sparsify(unit, data.draw(st.integers(1, 4))))
    for h in derived:
        assert_exact_sums(h, draw_labels(data, h))


def test_derived_graph_builds_its_edge_tuple_on_demand():
    g = Graph.from_edges(6, [(0, 1), (1, 2, 3), (2, 3), (3, 4), (4, 5, 2), (0, 5), (1, 4)])
    built = Graph(n=g.n, edges=g.edges, simple=g.simple)
    # A tuple-built graph makes its array only when asked.
    assert "edge_array" not in vars(built)
    parts = [induced_subgraph(g, [1, 2, 3, 4])[0],
             contract(g, VertexPartition.from_blocks([[0, 1], [2, 3], [4, 5]], 6))[0]]
    for h in parts:
        assert "edges" not in vars(h)
        h.total_weight, h.degrees, h.components, weight_matrix(h)
        KCut.from_labels(h, [0] + [1] * (h.n - 1))
        assert "edges" not in vars(h)
        twin = Graph(n=h.n, edges=tuple(map(tuple, h.edge_array.tolist())), simple=h.simple)
        assert h == twin and twin == h and hash(h) == hash(twin)
        assert "edges" in vars(h)   # equality and hashing read the tuple
        assert h.edges is vars(h)["edges"]
    assert parts[0].edges == ((0, 1, 3), (0, 3, 1), (1, 2, 1), (2, 3, 1))
    with pytest.raises(AttributeError):
        parts[0].n = 3
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del parts[0].n
    assert parts[0] != (parts[0].n, parts[0].edges, parts[0].simple)   # only a Graph is equal
