"""Weighted multigraph substrate: parsing, cut evaluation, contraction,
union-find, conductance.

Vertices are dense 0-based ids.  Parallel edges are always stored merged, so
"multigraph" only ever means integer weights >= 2.  All types are immutable
after construction and every operation is a pure function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

MAX_WEIGHT = 2**63 - 1

INFINITE_CONDUCTANCE = math.inf


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class ParseError(GraphError):
    """Malformed edge-list document."""


class InvalidCutError(GraphError):
    """A cut that violates the k-cut contract (empty part, bad labels)."""


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; one entry per unordered pair, sorted by (u, v).

    ``simple`` is true iff every stored weight is 1 (i.e. the input had no
    duplicate pairs and no weight above 1).
    """

    n: int
    edges: tuple  # ((u, v, w), ...) with u < v
    simple: bool

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
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    @cached_property
    def degrees(self) -> tuple:
        """Weighted degree of every vertex."""
        deg = [0] * self.n
        for u, v, w in self.edges:
            deg[u] += w
            deg[v] += w
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple:
        """Per-vertex tuple of (neighbor, weight) pairs, sorted by neighbor id."""
        adj: list = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in adj)

    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("min_degree of empty graph")
        return min(self.degrees)


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
    seen: dict = {}
    out = []
    for x in labels:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


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
        value = sum(w for u, v, w in g.edges if labels[u] != labels[v])
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
        groups: dict = {}
        for v, lab in enumerate(labels):
            groups.setdefault(lab, []).append(v)
        return VertexPartition.from_blocks(groups.values(), n)

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
    """
    cmap = p.to_block_index(g.n)
    crossing = ((cmap[u], cmap[v], w) for u, v, w in g.edges if cmap[u] != cmap[v])
    return Graph.from_edges(len(p.blocks), crossing), cmap


def union_find(n: int) -> tuple:
    """Disjoint sets over 0..n-1 as a (find, union) pair of closures.

    ``find`` uses path halving.  ``union(a, b)`` hangs b's root under a's root
    and returns whether the two were in different sets.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    return find, union


def connected_components(g: Graph) -> VertexPartition:
    """Connected components as a vertex partition."""
    find, union = union_find(g.n)
    for u, v, _ in g.edges:
        union(u, v)
    return VertexPartition.from_labels([find(v) for v in range(g.n)], g.n)


def conductance(g: Graph, s: Iterable[int]):
    """Boundary weight over min side volume; INFINITE_CONDUCTANCE if both sides
    have zero volume (then the boundary is necessarily empty)."""
    sset = set(s)
    if not sset or len(sset) >= g.n:
        raise GraphError("conductance needs a proper nonempty vertex subset")
    boundary = 0
    vol_s = 0
    deg = g.degrees
    for v in sset:
        vol_s += deg[v]
    for u, v, w in g.edges:
        if (u in sset) != (v in sset):
            boundary += w
    vol_rest = 2 * g.total_weight - vol_s
    denom = min(vol_s, vol_rest)
    if denom == 0:
        return INFINITE_CONDUCTANCE
    return Fraction(boundary, denom)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple:
    """Induced subgraph with dense relabeling; returns (graph, new-id -> old-id)."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v], w) for u, v, w in g.edges if u in index and v in index]
    return Graph.from_edges(len(verts), edges), verts
