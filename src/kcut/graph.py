"""Weighted multigraph substrate: parsing, cut evaluation, contraction,
connected components, induced subgraphs.

Vertices are dense 0-based ids.  Parallel edges are always stored merged, so
"multigraph" only ever means integer weights >= 2.  All types are immutable
after construction and every operation is a pure function.

A graph's edges live in one of two forms, and the other is built from it on
first use and then kept.  A graph built as ``Graph(n=, edges=, simple=)``
(``from_edges``, ``parse_graph`` and the generators do) holds the tuple of
(u, v, w) triples; its read-only (m, 3) int64 ``edge_array`` costs one
``np.fromiter`` pass.  Every graph this library derives (``induced_subgraph``,
``contract``, ``ni_sparsify``'s forest union) is built from arrays and holds
only ``edge_array``; its ``edges`` tuple is built only when a Python loop asks
for it (the exact search, the forests, the oracles, the CLI).  Equality and
hashing go by (n, edges, simple) in either form.  Total weight, degrees and
cut values are numpy reductions over ``edge_array``, in int64 only where
``total_weight <= MAX_WEIGHT`` bounds every such sum, and in Python ints
above that.

Connected components come from one labeller, ``component_roots``, used by
``Graph.components`` (hence every solve's component check), the expander
decomposition, Stoer-Wagner's contraction step and Karger contraction, which
labels a whole block of trials per call, each on its own copy of the
vertices.  It keeps every parent pointer at a lower vertex, so a root is the
lowest vertex of its set.  The one-scan forest decomposition (``sparsify``)
keeps one parent list per forest and runs a path-halving find and union
inline: it probes a few forests per edge, one edge at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

MAX_WEIGHT = 2**63 - 1


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class ParseError(GraphError):
    """Malformed edge-list document."""


class InvalidCutError(GraphError):
    """A cut that violates the k-cut contract (empty part, bad labels)."""


class Graph:
    """Undirected weighted graph; one entry per unordered pair, sorted by (u, v).

    ``simple`` is true iff every stored weight is 1 (i.e. the input had no
    duplicate pairs and no weight above 1).  ``Graph(n=, edges=, simple=)``
    takes the edge tuple as given; the graphs this module derives hold only
    ``edge_array`` and build ``edges`` on demand (see the module docstring).
    Immutable; equal and hashed by (n, edges, simple).
    """

    n: int
    simple: bool

    def __init__(self, n: int, edges: tuple, simple: bool):
        vars(self).update(n=n, edges=edges, simple=simple)

    @classmethod
    def _of_array(cls, n: int, arr: np.ndarray, simple: bool) -> "Graph":
        """The graph whose edge rows, sorted and distinct with u < v and
        weights in 1..MAX_WEIGHT, are the int64 array ``arr``."""
        g = cls.__new__(cls)
        arr.flags.writeable = False
        vars(g).update(n=n, edge_array=arr, simple=simple)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Graph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Graph")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges, self.simple) == (other.n, other.edges, other.simple)

    def __hash__(self):
        return hash((self.n, self.edges, self.simple))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r}, simple={self.simple!r})"

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple]) -> "Graph":
        """Build a graph from (u, v) or (u, v, w) entries, merging duplicates."""
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        merged: dict = {}
        for entry in pairs:
            if len(entry) == 2:
                u, v = entry
                w = 1
            else:
                u, v, w = entry
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range in edge ({u}, {v})")
            if w < 1:
                raise GraphError(f"edge weight must be positive, got {w}")
            key = (u, v) if u < v else (v, u)
            total = merged.get(key, 0) + w
            if total > MAX_WEIGHT:
                raise GraphError(f"edge weight {total} overflows the 64-bit weight budget")
            merged[key] = total
        edges = tuple((u, v, merged[(u, v)]) for (u, v) in sorted(merged))
        simple = all(w == 1 for _, _, w in edges)
        return Graph(n=n, edges=edges, simple=simple)

    @cached_property
    def edges(self) -> tuple:
        """The edges as a tuple of (u, v, w) triples, u < v, sorted."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 3) int64 array of (u, v, w) rows."""
        arr = np.fromiter(chain.from_iterable(self.edges), np.int64,
                          3 * len(self.edges)).reshape(-1, 3)
        arr.flags.writeable = False
        return arr

    @cached_property
    def total_weight(self) -> int:
        # The ufunc reductions skip ndarray.sum's and .max's Python wrappers,
        # which cost more than the sums themselves on graphs of a few dozen
        # edges.
        w = self.edge_array[:, 2]
        if len(w) and len(w) * int(np.maximum.reduce(w)) > MAX_WEIGHT:
            return sum(w.tolist())   # the int64 sum could wrap around
        return int(np.add.reduce(w))

    @cached_property
    def degrees(self) -> tuple:
        """Weighted degree of every vertex."""
        if self.total_weight > MAX_WEIGHT:   # a degree could pass the int64 range
            deg = [0] * self.n
            for u, v, w in self.edge_array.tolist():
                deg[u] += w
                deg[v] += w
            return tuple(deg)
        u, v, w = self.edge_array.T
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, u, w)
        np.add.at(deg, v, w)
        return tuple(deg.tolist())

    @cached_property
    def adjacency(self) -> tuple:
        """Per-vertex tuple of (neighbor, weight) pairs, sorted by neighbor id."""
        # Rows (vertex, neighbor, weight): row 2i is edge i reversed, row
        # 2i + 1 edge i itself.  A vertex's reversed rows (neighbors below
        # it) all come before its own (neighbors above it), each group in
        # ascending neighbor order, so a stable sort by vertex alone orders
        # the rows by (vertex, neighbor).
        rows = self.edge_array[:, (1, 0, 2, 0, 1, 2)].reshape(-1, 3)
        rows = rows[rows[:, 0].argsort(kind="stable")]
        pairs = list(zip(rows[:, 1].tolist(), rows[:, 2].tolist()))
        stops = np.bincount(rows[:, 0], minlength=self.n).cumsum().tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip([0] + stops, stops))

    @cached_property
    def components(self) -> "VertexPartition":
        """Connected components as a vertex partition, labelled by
        ``component_roots`` over the edges; computed once per Graph object."""
        u, v, _ = self.edge_array.T
        return VertexPartition.from_labels(component_roots(self.n, u, v), self.n)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v [w]".

    Lines beginning with '#' are comments.  Duplicate pairs merge by weight
    summation.  Errors name the offending 1-based line number.
    """
    lines = text.splitlines()
    header = None
    header_line = 0
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"malformed header at line {lineno}: expected 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError(f"malformed header at line {lineno}: expected integers") from None
            header_line = lineno
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"malformed edge at line {lineno}: expected 'u v [w]'")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"malformed edge at line {lineno}: expected integers") from None
        entries.append((lineno, vals))
    if header is None:
        raise ParseError("empty document: missing 'n m' header")
    n, m = header
    if n < 0 or m < 0:
        raise ParseError(f"malformed header at line {header_line}: negative count")
    if len(entries) != m:
        raise ParseError(f"header at line {header_line} promises {m} edges, found {len(entries)}")
    for lineno, vals in entries:
        u, v = vals[0], vals[1]
        w = vals[2] if len(vals) == 3 else 1
        if u == v:
            raise ParseError(f"self-loop at line {lineno}")
        if w < 1:
            raise ParseError(f"nonpositive weight at line {lineno}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range at line {lineno}")
    return Graph.from_edges(n, (vals for _, vals in entries))


def graph_to_text(g: Graph) -> str:
    """Serialize a graph in the edge-list format accepted by parse_graph."""
    out = [f"{g.n} {len(g.edges)}"]
    for u, v, w in g.edges:
        out.append(f"{u} {v}" if w == 1 else f"{u} {v} {w}")
    return "\n".join(out) + "\n"


def canonical_labels(labels: Sequence[int]) -> tuple:
    """Relabel part ids by first occurrence (restricted-growth normal form)."""
    labels = tuple(labels)
    first = {x: i for i, x in enumerate(dict.fromkeys(labels))}
    return tuple(map(first.__getitem__, labels))


@dataclass(frozen=True)
class KCut:
    """Assignment of every vertex to one of k labeled nonempty parts."""

    k: int
    labels: tuple
    value: int

    @staticmethod
    def from_labels(g: Graph, labels: Sequence[int], k: int | None = None) -> "KCut":
        labels = tuple(labels)
        if len(labels) != g.n:
            raise InvalidCutError(f"label vector has length {len(labels)}, graph has {g.n} vertices")
        used = set(labels)
        if k is None:
            k = len(used)
        if used != set(range(k)):
            raise InvalidCutError(f"labels must use every part id in 0..{k - 1} at least once")
        lab = np.fromiter(labels, np.int64, len(labels))
        edges = g.edge_array
        crossing = edges[:, 2][lab[edges[:, 0]] != lab[edges[:, 1]]]
        value = (int(np.add.reduce(crossing)) if g.total_weight <= MAX_WEIGHT
                 else sum(crossing.tolist()))
        return KCut(k=k, labels=labels, value=value)

    def canonical_key(self) -> tuple:
        return canonical_labels(self.labels)

    def parts(self) -> tuple:
        """Vertex sets of the parts, indexed by part id."""
        out: list = [[] for _ in range(self.k)]
        for v, lab in enumerate(self.labels):
            out[lab].append(v)
        return tuple(tuple(p) for p in out)


def cut_value(g: Graph, cut: KCut) -> int:
    """Total weight of edges whose endpoints carry different labels; rejects
    label vectors of the wrong length, out-of-range labels and empty parts."""
    return KCut.from_labels(g, cut.labels, cut.k).value


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint nonempty vertex sets covering 0..n-1, in canonical order."""

    blocks: tuple  # (sorted tuple, ...), ordered by smallest member

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]], n: int) -> "VertexPartition":
        norm = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1))
        seen: set = set()
        for b in norm:
            if not b:
                raise GraphError("empty block in partition")
            for v in b:
                if v in seen:
                    raise GraphError(f"vertex {v} appears in two blocks")
                seen.add(v)
        if seen != set(range(n)):
            raise GraphError("partition does not cover 0..n-1 exactly")
        return VertexPartition(blocks=norm)

    @staticmethod
    def from_labels(labels: Sequence[int], n: int) -> "VertexPartition":
        """The blocks of vertices 0..n-1 sharing an integer label, from one
        stable argsort of the labels; one label is one block at once."""
        lab = np.asarray(labels)
        if lab.shape != (n,):
            raise GraphError("partition does not cover 0..n-1 exactly")
        if n == 0:
            return VertexPartition(blocks=())
        if not np.count_nonzero(lab != lab[0]):   # one block, as for a connected graph
            return VertexPartition(blocks=(tuple(range(n)),))
        order = np.argsort(lab, kind="stable")
        stops = (np.flatnonzero(np.diff(lab[order])) + 1).tolist()
        members = order.tolist()
        blocks = [tuple(members[a:b]) for a, b in zip([0] + stops, stops + [n])]
        blocks.sort()   # by smallest member, as blocks are disjoint
        return VertexPartition(blocks=tuple(blocks))

    def to_block_index(self, n: int) -> tuple:
        """Per-vertex index of its block (dense relabeling by block order)."""
        idx = [0] * n
        for i, b in enumerate(self.blocks):
            for v in b:
                idx[v] = i
        return tuple(idx)

    def __len__(self) -> int:
        return len(self.blocks)


def contract(g: Graph, p: VertexPartition) -> tuple:
    """Contract each block into a super-vertex; returns (graph, contraction map).

    Super-edge weight is the total weight between the two blocks; intra-block
    edges are discarded.  Blocks relabel densely in canonical block order.
    The crossing edges merge by one ``np.unique`` over lo * nb + hi, which
    is (lo, hi) order; a merged weight above MAX_WEIGHT raises as in
    ``Graph.from_edges``.
    """
    cmap = p.to_block_index(g.n)
    nb = len(p.blocks)
    block = np.array(cmap, dtype=np.int64)
    u, v, w = g.edge_array.T
    bu, bv = block[u], block[v]
    crossing = bu != bv
    bu, bv, w = bu[crossing], bv[crossing], w[crossing]
    keys, slot = np.unique(np.minimum(bu, bv) * nb + np.maximum(bu, bv), return_inverse=True)
    if g.total_weight > MAX_WEIGHT:
        merged = [0] * len(keys)
        for i, x in zip(slot.tolist(), w.tolist()):
            merged[i] += x
        if max(merged, default=0) > MAX_WEIGHT:
            raise GraphError(f"edge weight {max(merged)} overflows the 64-bit weight budget")
        weights = np.array(merged, dtype=np.int64)
    else:
        weights = np.zeros(len(keys), dtype=np.int64)
        np.add.at(weights, slot, w)
    arr = np.column_stack((keys // nb, keys % nb, weights))   # no keys when nb = 0
    return Graph._of_array(nb, arr, bool((weights == 1).all())), cmap


def weight_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric int64 weight matrix of g.

    Rejects a total weight above MAX_WEIGHT: every sum formed from the matrix
    (merged weights, degrees, subset weights) is then at most the total
    weight and cannot wrap around.
    """
    if g.total_weight > MAX_WEIGHT:
        raise GraphError("total edge weight overflows the 64-bit cut values")
    w = np.zeros((g.n, g.n), dtype=np.int64)
    u, v, wt = g.edge_array.T
    w[u, v] = wt
    w[v, u] = wt
    return w


def compress_roots(parent: np.ndarray) -> np.ndarray:
    """The root of every vertex of a parent-pointer forest, by pointer
    jumping: each round replaces every pointer by its parent's, so the rounds
    grow with the log of the longest chain."""
    while True:
        up = parent[parent]
        if not np.count_nonzero(up != parent):
            return up
        parent = up


def component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per vertex 0..n-1, the lowest vertex of its connected component under
    the edges (a[i], b[i]), in either orientation, with repeats allowed.

    Each round hooks the higher root of every edge whose ends have different
    roots under the lowest root across such an edge, then compresses.
    Pointers only go lower, so every root is the lowest vertex of its tree.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        ra, rb = ra[apart], rb[apart]
        if not len(ra):
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        root = compress_roots(root)


def connected_components(g: Graph) -> VertexPartition:
    """Connected components as a vertex partition (``g.components``)."""
    return g.components


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple:
    """Induced subgraph with dense relabeling; returns (graph, new-id -> old-id).

    The relabeling is increasing, so the kept rows of g's ``edge_array`` keep
    u < v, stay sorted and distinct: they are relabeled through an index
    array and a mask, and the result is the graph ``Graph.from_edges`` would
    build.  ``simple`` is recomputed from the kept weights.  A vertex id
    outside 0..n-1 raises GraphError.
    """
    verts = sorted(set(vertices))
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        raise GraphError(f"vertex id out of range 0..{g.n - 1}")
    index = np.full(g.n, -1, dtype=np.int64)
    index[verts] = np.arange(len(verts))
    edges = g.edge_array
    # Rows with both ends kept; compress copies them faster than a mask index.
    arr = np.compress(np.minimum(index[edges[:, 0]], index[edges[:, 1]]) >= 0, edges, axis=0)
    arr[:, 0] = index[arr[:, 0]]
    arr[:, 1] = index[arr[:, 1]]
    return Graph._of_array(len(verts), arr, g.simple or bool((arr[:, 2] == 1).all())), verts
