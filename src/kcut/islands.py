"""Deterministic r-island solving by branch and bound.

An r-island solution is a set of r vertices, each cut off as its own
singleton, minimizing the total number of incident edges.  In a simple graph
a set S costs sum(deg(v) for v in S) - |E(S)|.

The paper finds these sets by triangle detection over q-subsets with fast
matrix multiplication.  The library instead searches the vertex sets
directly: take or skip each vertex in increasing id order, on an explicit
stack, and prune a node whose lower bound reaches the best cost found.  The
lower bound counts each vertex still to pick at its degree, less its edges to
the chosen set and half its possible edges to the other picks (see
``_branch_and_bound``).  The paper's triangle route is kept in the tests as
the reference this search is checked against; ``matmul`` and
``matmul_strassen``, its exact integer products, stay public.

Before the search, vertices are pruned by degree.  |E(S)| <= C(r, 2), so a
vertex v lies in a set costing at most a bound only if deg(v) + (the r-1
smallest other degrees) - C(r, 2) is at most that bound.  The bound is the
cost of a known feasible set (the r lowest-degree vertices), or a caller's
cap when that is smaller.  The cap is an int inside this module; the public
entries read None as the graph's total weight, which no set costs more than.
Every optimal set within the bound passes, so the value and the lex-smallest
optimum are those of the unpruned search.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .graph import Graph, GraphError, KCut, canonical_labels, weight_matrix

STRASSEN_THRESHOLD = 256
_STRASSEN_BASE = 64


def matmul_strassen(a: np.ndarray, b: np.ndarray, base: int = _STRASSEN_BASE) -> np.ndarray:
    """Exact integer product via Strassen recursion; bit-identical to cubic."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    n, m = a.shape
    _, p = b.shape
    if max(n, m, p) <= base:
        return a @ b
    nn, mm, pp = n + (n & 1), m + (m & 1), p + (p & 1)
    ap = np.zeros((nn, mm), dtype=np.int64)
    bp = np.zeros((mm, pp), dtype=np.int64)
    ap[:n, :m] = a
    bp[:m, :p] = b
    h, w, d = nn // 2, mm // 2, pp // 2
    a11, a12 = ap[:h, :w], ap[:h, w:]
    a21, a22 = ap[h:, :w], ap[h:, w:]
    b11, b12 = bp[:w, :d], bp[:w, d:]
    b21, b22 = bp[w:, :d], bp[w:, d:]
    rec = matmul_strassen
    m1 = rec(a11 + a22, b11 + b22, base)
    m2 = rec(a21 + a22, b11, base)
    m3 = rec(a11, b12 - b22, base)
    m4 = rec(a22, b21 - b11, base)
    m5 = rec(a11 + a12, b22, base)
    m6 = rec(a21 - a11, b11 + b12, base)
    m7 = rec(a12 - a22, b21 + b22, base)
    out = np.empty((nn, pp), dtype=np.int64)
    out[:h, :d] = m1 + m4 - m5 + m7
    out[:h, d:] = m3 + m5
    out[h:, :d] = m2 + m4
    out[h:, d:] = m1 - m2 + m3 + m6
    return out[:n, :p]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product; switches to Strassen above the dimension threshold."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if max(a.shape[0], a.shape[1], b.shape[1]) >= STRASSEN_THRESHOLD:
        return matmul_strassen(a, b)
    return a @ b


def _island_cost(adj: np.ndarray, deg: np.ndarray, subset) -> int:
    idx = list(subset)
    internal = int(adj[np.ix_(idx, idx)].sum()) // 2
    return int(deg[idx].sum()) - internal


def _island_candidates(adj: np.ndarray, deg: np.ndarray, r: int,
                       max_value: int) -> tuple:
    """(upper, kept) for a simple graph: upper is the cost of the r
    lowest-degree vertices, which bounds the optimum, or ``max_value`` when
    that is smaller, and kept the increasing ids of the vertices that can lie
    in an r-island set costing at most upper.

    The test is deg(v) + (sum of the r-1 smallest degrees other than v) -
    C(r, 2) <= upper.  For v outside the r smallest degrees, the r-1
    smallest other degrees are the r-1 smallest overall.  For v among them,
    the sum taken may hold deg(v) in place of the r-th smallest degree, so
    it is at most the true one and the test can only keep more; when the
    cap is not below their cost it always passes there, as upper is then at
    least their sum minus C(r, 2).
    """
    order = np.argsort(deg, kind="stable")
    upper = min(_island_cost(adj, deg, order[:r]), max_value)
    rest = int(deg[order[:r - 1]].sum())
    return upper, np.flatnonzero(deg + rest - r * (r - 1) // 2 <= upper)


def _branch_and_bound(adj: np.ndarray, deg: np.ndarray, r: int, best: int) -> tuple:
    """(cost, ids) of the lex-smallest cheapest r-set if it costs less than
    ``best``, else (``best``, None).

    ``adj`` is the 0/1 weight matrix among the searched vertices and ``deg``
    their degrees in the whole graph, so set costs count every incident edge.

    A node has taken the set S from the ids below ``i`` and leaves t picks to
    the undecided ids R = {i, ...}.  A set T of t picks from R adds
    sum(deg(v) - |N(v) ∩ S| for v in T) - |E(T)| to cost(S), and each v in T
    has at most min(t-1, |N(v) ∩ R|) neighbours in T, so no completion costs
    less than cost(S) plus the t smallest values of
    deg(v) - |N(v) ∩ S| - min(t-1, |N(v) ∩ R|) / 2 over R.  That sum is
    taken doubled, in integers.

    Nodes are expanded "take i" before "skip i", so sets are reached in lex
    order.  A node is pruned once its bound reaches ``best`` and a set
    replaces the best only when it is strictly cheaper, so the first set
    found at the least cost is the lex-smallest one.
    """
    m = len(deg)
    undecided = np.cumsum(adj[::-1], axis=0)[::-1]  # [i, v] = |N(v) ∩ {i, ...}|
    found = None
    stack = [(0, (), 0, np.zeros(m, dtype=np.int64))]
    while stack:
        i, chosen, cost, to_chosen = stack.pop()
        t = r - len(chosen)
        if t == 0:
            if cost < best:
                best, found = cost, chosen
            continue
        if m - i < t:
            continue
        rest = 2 * (deg[i:] - to_chosen[i:]) - np.minimum(t - 1, undecided[i, i:])
        bound = 2 * cost + int(np.partition(rest, t - 1)[:t].sum())
        if (bound + 1) // 2 >= best:
            continue
        stack.append((i + 1, chosen, cost, to_chosen))
        stack.append((i + 1, chosen + (i,), cost + int(deg[i] - to_chosen[i]),
                      to_chosen + adj[i]))
    return best, found


def solve_r_island(g: Graph, r: int, max_value: Optional[int] = None,
                   w: Optional[np.ndarray] = None) -> Optional[tuple]:
    """Exact minimum (r+1)-cut with exactly r singleton components.

    Returns (value, island tuple); ties take the lex-smallest island set.
    With ``max_value`` the same result is returned when its value is at most
    ``max_value``, and None otherwise; None stands for g's total weight,
    which no island set costs more than.  ``w`` is g's weight matrix, built
    when absent.
    """
    if not g.simple:
        raise GraphError("r-island solving is defined for simple graphs")
    if not 1 <= r <= g.n - 1:
        raise ValueError(f"r must be in 1..n-1, got r={r} with n={g.n}")
    adj = weight_matrix(g) if w is None else w
    cap = g.total_weight if max_value is None else max_value
    return _r_island(adj, adj.sum(axis=1), r, cap)


def _r_island(adj: np.ndarray, deg: np.ndarray, r: int,
              max_value: int) -> Optional[tuple]:
    """``solve_r_island`` on the simple graph with 0/1 weight matrix ``adj``
    and degrees ``deg``: the branch and bound of ``_branch_and_bound`` on
    the vertices that pass the degree test of the module docstring, with
    their whole-graph degrees, from one above the smaller of ``max_value``
    and the cost of the r lowest-degree vertices, so that set or a cheaper
    one is found whenever it is within the cap.  The test is exact because
    the graph is simple: at most C(r, 2) edges lie inside the set.
    """
    upper, kept = _island_candidates(adj, deg, r, max_value)
    value, islands = _branch_and_bound(adj[np.ix_(kept, kept)], deg[kept], r, upper + 1)
    if islands is None:   # only when the cap is below the optimum
        return None
    return value, tuple(kept[list(islands)].tolist())


def _host_islands(g: Graph, w: np.ndarray, part: tuple, cnt: int,
                  cap: int) -> Optional[tuple]:
    """``solve_r_island``'s islands (as ids of g) of the subgraph of g
    induced by the increasing vertex ids ``part``, or None when no cnt
    islands cost at most ``cap``; ``w`` is g's weight matrix.

    A host that is all of g is ``solve_r_island`` on g itself.  Any other
    host of the simple g is the part's principal submatrix of ``w``, whose
    row sums are the degrees inside the part.  One island costs its degree,
    so for cnt = 1 the first vertex of least degree is the answer, as the
    search would find it.
    """
    if len(part) == g.n:
        solved = solve_r_island(g, cnt, max_value=cap, w=w)
        return None if solved is None else solved[1]
    adj = w.take(part, 0).take(part, 1)
    deg = adj.sum(axis=1)
    if cnt == 1:
        j = int(deg.argmin())
        return (part[j],) if deg[j] <= cap else None
    solved = _r_island(adj, deg, cnt, cap)
    return None if solved is None else tuple(part[v] for v in solved[1])


def extend_border(g: Graph, border_cut: KCut, i: int,
                  max_value: Optional[int] = None,
                  w: Optional[np.ndarray] = None) -> Optional[KCut]:
    """Carve i islands out of the border's non-singleton parts, trying every
    composition of i over the hosts; returns the best resulting (k+i)-cut,
    or None when no composition fits.

    With ``max_value`` the same cut is returned when its value is at most
    ``max_value``, and None otherwise; None stands for g's total weight,
    which no cut costs more than.  Carving adds each host's island cost
    (within the host) to the border's value, so each host is solved with the
    cap ``max_value`` minus the border's value, and a composition with a
    host over its cap is skipped.

    Each host is solved by ``_host_islands`` on g's weight matrix ``w``,
    built when absent; g must be simple.
    """
    if not g.simple:
        raise GraphError("island extension is defined for simple graphs")
    if i < 0:
        raise ValueError("island count must be nonnegative")
    if max_value is None:
        max_value = g.total_weight
    if border_cut.value > max_value:
        return None
    if i == 0:
        return border_cut
    host_cap = max_value - border_cut.value
    if w is None:
        w = weight_matrix(g)
    hosts = [p for p in border_cut.parts() if len(p) >= 2]
    cache: dict = {}

    def host_islands(part: tuple, cnt: int) -> Optional[tuple]:
        key = (part, cnt)
        if key not in cache:
            cache[key] = _host_islands(g, w, part, cnt, host_cap)
        return cache[key]

    best = None
    for picks in combinations_with_replacement(range(len(hosts)), i):
        # Host h carves cnt islands, and keeps at least one vertex.
        comp = Counter(picks)
        if any(cnt >= len(hosts[h]) for h, cnt in comp.items()):
            continue
        found = [host_islands(hosts[h], cnt) for h, cnt in comp.items()]
        if None in found:
            continue
        labels = list(border_cut.labels)
        next_label = border_cut.k
        for islands in found:
            for v in islands:
                labels[v] = next_label
                next_label += 1
        cut = KCut.from_labels(g, canonical_labels(labels), border_cut.k + i)
        key = (cut.value, cut.labels)
        if best is None or key < best[0]:
            best = (key, cut)
    if best is None or best[1].value > max_value:
        return None
    return best[1]

