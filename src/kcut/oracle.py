"""Ground-truth solvers and classical polynomial subroutines.

brute_force_min_kcut / brute_force_r_island are the independent oracles every
other stage is tested against.  exact_min_kcut, the pipeline's exact branch,
runs the same partition search in maximum-adjacency order, seeded with the
sv_2approx cut and pruned by the lower bound ceil((k - used) * lambda / 2) on
the weight still to be cut, lambda being the global min cut;
brute_force_min_kcut searches without that bound, so it stays an independent
check of it.  sv_2approx, stoer_wagner_mincut and ni_sparsify are the
classical subroutines the pipeline itself uses; the library needs no graph
package (the tests compare Stoer-Wagner with networkx's).

A solve builds its graph's weight matrix once, and each layer here takes it
as an optional trailing argument (built when absent) and only reads it.
``_stoer_wagner`` contracts a matrix in place, with phases in the
maximum-adjacency order exact_min_kcut searches in: stoer_wagner_mincut
gives it a copy and memoises the checked cut on the Graph, and sv_2approx's
first round is that call on the input graph, so one solve computes the
whole-graph min cut once and exact_min_kcut's lambda is free.  Every later
sv_2approx part is a principal submatrix, already a fresh array.
ni_sparsify ranks the edges by one more maximum-adjacency phase.
"""
from __future__ import annotations

from itertools import accumulate, combinations
from typing import Optional, Sequence

import numpy as np

from .graph import (
    Graph,
    GraphError,
    InvalidCutError,
    KCut,
    VertexPartition,
    canonical_labels,
    component_roots,
    connected_components,
    cut_value,
    has_unit_bridge,
    nonzeros,
    weight_matrix,
)

BRUTE_FORCE_KCUT_LIMIT = 14
BRUTE_FORCE_ISLAND_LIMIT = 18
# Key of a placed (or dead) vertex in a maximum-adjacency phase.  Later
# placements add at most its degree, at most the total weight, which fits
# int64 (see graph.py), so it stays negative and below every unplaced key.
_PLACED = np.iinfo(np.int64).min


class SizeLimitError(ValueError):
    """Input too large for exhaustive enumeration."""


def _zero_value_kcut(g: Graph, k: int, comps: VertexPartition) -> KCut:
    """Lexicographically smallest 0-value k-cut when g has c >= k components.

    Components come in first-vertex order, so the first c-k+1 share label 0
    and each later one opens the next label.
    """
    shift = len(comps.blocks) - k
    labels = [max(0, i - shift) for i in comps.to_block_index(g.n)]
    return KCut.from_labels(g, labels, k)


def kcut_lower_bound(parts: int, lam: int) -> int:
    """ceil(parts * lam / 2): the least weight that ``parts`` parts, each
    with boundary at least ``lam``, can cut, as each cut edge bounds at most
    two of them.  With ``lam`` the global min cut, no k-cut costs less than
    ``kcut_lower_bound(k, lam)``, and a k-cut meeting it is optimal."""
    return -(-parts * lam // 2)


def _edges_by_position(g: Graph, order: Sequence[int]) -> tuple:
    """(pos, by, early, late) for the vertex order ``order``: pos[v] is v's
    position, ``by`` sorts the rows of g's ``edge_array`` by (later,
    earlier) end position, and early and late are those positions, sorted."""
    pos = np.empty(g.n, dtype=np.int64)
    pos[np.asarray(order, dtype=np.int64)] = np.arange(g.n)
    a, b = pos[g.edge_array[:, 0]], pos[g.edge_array[:, 1]]
    early, late = np.minimum(a, b), np.maximum(a, b)
    by = np.argsort(late * g.n + early)   # keys are distinct: no parallel edges
    return pos, by, early[by], late[by]


def _search_setup(g: Graph, order: Sequence[int]) -> tuple:
    """The per-graph part of the partition search that assigns vertices in
    ``order``: (pos, earlier, back), pos[v] being v's position, earlier[b]
    the (a, w) pairs of the edges from position b to the earlier positions
    a, and back[b] their total weight.  Built from ``_edges_by_position``;
    the sums are Python ints, so no weight wraps around.
    """
    pos, by, early, late = _edges_by_position(g, order)
    w = g.edge_array[by, 2].tolist()
    pairs = list(zip(early.tolist(), w))
    stops = np.bincount(late, minlength=g.n).cumsum().tolist()
    starts = [0] + stops[:-1]
    total = [0, *accumulate(w)]
    earlier = [pairs[s:e] for s, e in zip(starts, stops)]
    back = [total[e] - total[s] for s, e in zip(starts, stops)]
    return pos.tolist(), earlier, back


def _max_adjacency_setup(g: Graph, w: Optional[np.ndarray] = None) -> tuple:
    """``_search_setup`` in maximum-adjacency order (of g's weight matrix
    ``w``, built when absent), memoised on g itself, so every search on one
    graph (the exact branch, every border round) builds it once."""
    memo = vars(g).get("_search_setup")
    if memo is None:
        order = _max_adjacency_phase(weight_matrix(g) if w is None else w)[0]
        memo = vars(g)["_search_setup"] = _search_setup(g, order)
    return memo


def _kcut_search(setup: tuple, k: int, need: list, limit: int,
                 found: Optional[list] = None, budget: int = -1,
                 cheapest: bool = False) -> tuple:
    """Restricted-growth-string enumeration of the k-part partitions, on the
    ``_search_setup`` of one vertex order.

    Vertices are assigned in that order by a depth-first search on an
    explicit stack (no recursion limit on n).  A branch is skipped once
    ``partial + need[used] > limit``, ``partial`` being the crossing weight
    among assigned vertices and ``used`` the parts opened; ``need[u]`` must
    be a lower bound on the weight still to be cut once u parts are open.
    Two modes differ only in what a leaf (a k-part partition) does:

    - best (``found`` None): the leaf becomes the best and ``limit`` drops
      to one below its value, so among the cheapest partitions the first
      found, the lex-smallest label string read in the order, is kept;
    - list: the leaf's (value, labels by position) is appended to
      ``found``, and ``limit`` stays, so every partition of value at most
      the starting ``limit`` is listed; with ``cheapest``, ``limit`` drops
      to the leaf's value, so every partition of the least value is among
      those listed.

    Each step one position deeper spends one unit of ``budget``; the search
    stops when it would go below zero (a negative budget never runs out).
    Returns (best labels by position or None, whether the budget ran out).
    """
    pos, earlier, back = setup
    n = len(pos)
    last = n - 1
    best = None
    labels = [0] * n
    # Stack frame of position i: crossing weight and parts opened before it,
    # the next label to try, and the weight from i to each earlier label.
    partial = [0] * n
    used_at = [0] * n
    nxt = [0] * n
    to_label = [None] * n
    to_label[0] = [0] * k
    i = 0 if need[0] <= limit else -1   # the root bound may close it
    while i >= 0:
        used = used_at[i]
        base = partial[i] + back[i]
        row = to_label[i]
        top = used if used < k else k - 1
        lab = nxt[i]
        while lab <= top:
            p = base - row[lab]
            u = used + (lab == used)
            lab += 1
            if p + need[u] > limit:
                continue
            if i == last:
                if u == k:
                    labels[i] = lab - 1
                    if found is None:
                        limit = p - 1
                        best = tuple(labels)
                    else:
                        found.append((p, tuple(labels)))
                        if cheapest:
                            limit = p
                continue
            if u + last - i < k:
                continue
            if not budget:
                return best, True
            budget -= 1
            labels[i] = lab - 1
            nxt[i] = lab
            i += 1
            partial[i] = p
            used_at[i] = u
            nxt[i] = 0
            row = to_label[i] = [0] * k
            for j, w in earlier[i]:
                row[labels[j]] += w
            break
        else:   # every label of position i tried
            i -= 1
    return best, False


def _min_kcut_search(g: Graph, k: int, order: Optional[Sequence[int]] = None,
                     incumbent: Optional[KCut] = None, lam: int = 0,
                     w: Optional[np.ndarray] = None) -> KCut:
    """The cheapest k-cut of g by ``_kcut_search`` in best mode.

    Vertices are assigned in ``order``, by default the memoised maximum-
    adjacency order; among cuts of the minimum value the one returned has
    the lex-smallest label string read in that order.  The search skips a
    branch once ``partial + ceil((k - used) * lam / 2)`` matches or exceeds
    the best value so far.  With ``lam`` the global min cut this is a lower
    bound on every completion: each unopened part holds only unassigned
    vertices, so its boundary (at least lam) is still uncounted, and an edge
    borders at most two such parts.  ``lam = 0`` is the plain partial-weight
    bound.  Either way only branches that cannot strictly beat the best are
    skipped, so the result does not depend on ``lam``.  An ``incumbent`` cut
    seeds the bound and is returned unchanged unless a strictly cheaper cut
    exists.  ``w`` is g's weight matrix, for the default order.
    """
    setup = _max_adjacency_setup(g, w) if order is None else _search_setup(g, order)
    best_val = incumbent.value if incumbent is not None else g.total_weight + 1
    need = [kcut_lower_bound(k - u, lam) for u in range(k + 1)]
    best = _kcut_search(setup, k, need, best_val - 1)[0]
    if best is None:
        if incumbent is not None:
            return incumbent
        raise GraphError("no k-part partition exists")
    return KCut.from_labels(g, [best[p] for p in setup[0]], k)


def list_kcuts(g: Graph, k: int, bound: int, lam: int = 0, budget: int = -1,
               cheapest: bool = False) -> tuple:
    """Every k-cut of g of value at most ``bound``, or with ``cheapest``
    every one of the least such value, by ``_kcut_search`` in list mode in
    maximum-adjacency order; returns (cuts, truncated).

    The cuts have canonical labels and come sorted by (value, labels).
    For k >= 2, ``lam`` must be at most the boundary of every part of a
    k-cut of g (the global min cut of g, or of a graph that g contracts),
    so that ``ceil((k - used) * lam / 2)`` bounds the weight still to be
    cut.  The search expands at most ``budget`` nodes (a negative budget is
    no limit); ``truncated`` says that it ran out, and the cuts are then the
    ones found before it did.
    """
    setup = _max_adjacency_setup(g)
    lam = lam if k > 1 else 0   # one part has no boundary
    need = [kcut_lower_bound(k - u, lam) for u in range(k + 1)]
    found: list = []
    truncated = _kcut_search(setup, k, need, bound, found, budget, cheapest)[1]
    if cheapest and found:
        least = min(value for value, _ in found)
        found = [f for f in found if f[0] == least]
    pos = setup[0]
    cuts = sorted((value, canonical_labels([lab[p] for p in pos])) for value, lab in found)
    return [KCut(k=k, labels=lab, value=value) for value, lab in cuts], truncated


def brute_force_min_kcut(g: Graph, k: int, n_limit: int = BRUTE_FORCE_KCUT_LIMIT) -> KCut:
    """Minimum k-cut by exhaustive set-partition enumeration.

    Ties break to the lexicographically smallest canonical label string.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    if g.n > n_limit:
        raise SizeLimitError(f"n={g.n} exceeds brute-force limit {n_limit}")
    comps = connected_components(g)
    if len(comps.blocks) >= k:
        return _zero_value_kcut(g, k, comps)
    return _min_kcut_search(g, k, range(g.n))


def exact_min_kcut(g: Graph, k: int, incumbent: Optional[KCut] = None,
                   w: Optional[np.ndarray] = None) -> KCut:
    """Exact minimum k-cut without a size guard: pruned assignment search.

    A graph with at least k components gets the lex-smallest 0-value cut.
    Otherwise vertices are assigned in maximum-adjacency order, so a label
    that deviates from the already assigned neighbours is charged at once and
    pruning bites early; ``w`` is g's weight matrix, built when absent.
    ``incumbent`` (a k-cut of g, by default the Saran-Vazirani
    2-approximation) seeds the bound and is returned unchanged when nothing
    strictly cheaper exists; an incumbent whose stored value is not its cut
    value is rejected.  The search prunes on ``partial + ceil((k - used) *
    lambda / 2)``, lambda being the global min cut from stoer_wagner_mincut
    (0 on a disconnected graph), a memo hit when sv_2approx(g) made the
    incumbent.  At the root the bound is the certificate opt >=
    ``kcut_lower_bound(k, lambda)``: when the incumbent meets it, the
    incumbent is returned before the maximum-adjacency order is built.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    comps = connected_components(g)
    if len(comps.blocks) >= k:
        return _zero_value_kcut(g, k, comps)
    if w is None:
        w = weight_matrix(g)
    if incumbent is None:
        incumbent = sv_2approx(g, k, w)
    elif incumbent.k != k or len(incumbent.labels) != g.n:
        raise ValueError(f"incumbent is not a {k}-cut of a {g.n}-vertex graph")
    elif incumbent.value != (actual := cut_value(g, incumbent)):
        raise ValueError(f"incumbent claims value {incumbent.value}, its cut has value {actual}")
    lam = stoer_wagner_mincut(g, w)[0]
    if kcut_lower_bound(k, lam) >= incumbent.value:
        return incumbent   # the root bound closes the search
    return _min_kcut_search(g, k, incumbent=incumbent, lam=lam, w=w)


def _max_adjacency_phase(w: np.ndarray, dead: Optional[np.ndarray] = None) -> tuple:
    """Maximum-adjacency ordering of the vertices of weight matrix ``w``:
    start at 0, then repeatedly place the unplaced vertex with the largest
    weight into the placed set, ties to the lowest index.  Vertices marked in
    the boolean mask ``dead`` (all-zero rows and columns of ``w``) count as
    placed from the start and are left out of the order.

    Returns (order, attach), attach[i] being the weight from order[i] to
    order[:i].
    """
    key = w[0].copy()
    steps = len(w) - 1
    if dead is not None:
        key[dead] = _PLACED
        steps -= int(np.count_nonzero(dead))
    key[0] = _PLACED
    order = [0]
    attach = [0]
    for _ in range(steps):
        v = int(key.argmax())
        order.append(v)
        attach.append(int(key[v]))
        key += w[v]
        key[v] = _PLACED
    return order, attach


def brute_force_r_island(g: Graph, r: int,
                         n_limit: int = BRUTE_FORCE_ISLAND_LIMIT) -> tuple:
    """Exhaustive r-island oracle: minimum over r-subsets of the total weight
    of edges with at least one endpoint in the subset.

    Returns (value, island tuple); ties take the lex-smallest subset.
    """
    if not 1 <= r <= g.n - 1:
        raise ValueError(f"r must be in 1..n-1, got r={r} with n={g.n}")
    if g.n > n_limit:
        raise SizeLimitError(f"n={g.n} exceeds brute-force limit {n_limit}")
    deg = g.degrees
    best = None
    best_set = None
    for subset in combinations(range(g.n), r):
        sset = set(subset)
        internal = sum(w for u, v, w in g.edges if u in sset and v in sset)
        cost = sum(deg[v] for v in subset) - internal
        if best is None or cost < best:
            best = cost
            best_set = subset
    return best, best_set


def stoer_wagner_mincut(g: Graph, w: Optional[np.ndarray] = None) -> tuple:
    """Exact global minimum weighted 2-cut; (0, component split) if disconnected.

    ``_stoer_wagner`` on g's weight matrix (``w`` copied, or built), told
    that g is connected when ``g.components``, which every solve labels
    first, already says so.  Vertex 0 is on side 0.  The cut is re-evaluated on g's edges
    and memoised on g itself (like its cached properties), so the
    whole-graph min cut is computed once however many layers ask for it.
    """
    memo = vars(g).get("_min_cut")
    if memo is not None:
        return memo
    if g.n < 2:
        raise ValueError("stoer_wagner_mincut needs n >= 2")
    connected = "components" in vars(g) and len(g.components.blocks) == 1
    value, side = _stoer_wagner(weight_matrix(g) if w is None else w.copy(), g.simple, connected)
    cut = KCut.from_labels(g, (~side).astype(np.int64).tolist(), 2)
    if cut.value != value:
        raise InvalidCutError(f"Stoer-Wagner reported {value}, its cut has value {cut.value}")
    vars(g)["_min_cut"] = result = (value, cut)
    return result


def _stoer_wagner(w: np.ndarray, simple: bool, connected: bool = False) -> tuple:
    """Global minimum cut of the graph with weight matrix ``w`` (n >= 2),
    ``simple`` if every entry is 0 or 1, ``connected`` if known to be:
    (value, mask of vertex 0's side).

    Stoer-Wagner with Nagamochi-Ono-Ibaraki contraction, in place on ``w``
    (merged vertices are marked dead, and later phases skip them).  The best
    cut so far, lambda-hat, starts as the smallest weighted degree.  Each
    phase orders the current super-vertices by maximum adjacency
    v_1, ..., v_m and offers, after the certified floors below, every prefix
    cut {v_1..v_i}, i < m, of value sum over j <= i of deg(v_j) -
    2 attach(v_j); after the merge, the degree of every new super-vertex.
    The phase cut, i = m - 1, has value attach(v_m) = deg(v_m), a current
    degree; each was offered (the least at the start, a super-vertex's after
    its merge, which leaves other degrees alone), so it is not offered again.

    The merge contracts every edge (v_i, v_j), i < j, whose q, the weight
    from v_j to v_1..v_i, is at least lambda-hat: such an edge crosses no cut
    below lambda-hat (Nagamochi and Ibaraki 1992), so every cut that could
    still beat the best survives.  Each phase merges at least the last
    vertex's last neighbour edge, as q = deg(v_m) >= lambda-hat there, and the
    loop ends when two super-vertices are left, whose cut is a degree
    already offered.  A candidate replaces the best only when it is strictly
    smaller: degrees go by lowest super-vertex id, prefixes by shortest
    prefix.

    No candidate is below lambda, so once the best reaches a certified lower
    bound L <= lambda no later candidate can replace it, and the loop stops
    there with the value and side of the full run.  L is the largest of:

    - delta, on a simple graph with minimum degree delta >= floor(n/2)
      (Chartrand 1966), which also makes it connected; checked before
      phase 1, so no phase runs;
    - 1, when the graph is connected (weights are positive);
    - 2, when it has no bridge of weight 1 (a cut of value 1 is one such
      edge); checked by one depth-first search over the current ``w``,
      only once the best is 2.  Merges so far kept every cut below the
      best, then at least 2, so a cut of value 1 is still a bridge there.

    When delta <= 2 (and Chartrand does not apply), both are read before
    phase 1: unless ``connected``, ``component_roots`` over the nonzeros of
    ``w`` gives connectivity (a disconnected graph returns 0 and vertex 0's
    component, as phase 1 would), and at delta = 2 the bridge search runs at
    once; if they certify delta, no phase runs.  At delta >= 3 no floor can
    certify the best before a phase, so connectivity is left to phase 1,
    which has placed every vertex with a nonzero attachment when the graph
    is connected, and the floors are checked once the phase has ordered the
    vertices and again after the prefix cuts, before any contraction work.
    """
    n = len(w)
    deg = w.sum(axis=1)
    rep = np.arange(n)   # the super-vertex of every vertex
    best_value, best_side = int(deg.min()), rep == deg.argmin()
    certified = simple and best_value >= n // 2   # Chartrand
    lower = 1
    bridge_searched = False
    if n > 2 and best_value <= 2 and not certified:
        root = None if connected else component_roots(n, *nonzeros(w))
        if root is not None and root.any():   # some vertex outside vertex 0's component
            best_value, best_side = 0, root == 0
        elif best_value == 2:
            bridge_searched = True
            lower = 1 if has_unit_bridge(w) else 2
        certified = best_value <= lower
    dead = np.zeros(n, dtype=bool)
    m = n   # super-vertices left
    while m > 2 and not certified:
        order, attach = _max_adjacency_phase(w, dead)
        if 0 in attach[1:]:
            # Only in the first phase, on a disconnected graph: the vertices
            # placed before the first zero are vertex 0's component.
            best_value, best_side = 0, _inside(rep, order[:attach.index(0, 1)])
            break
        if best_value == 2 and not bridge_searched:
            bridge_searched = True
            lower = 1 if has_unit_bridge(w) else 2
        if best_value <= lower:
            break
        order, attach = np.array(order), np.array(attach)
        # Prefix cuts; every partial sum is a cut value, so none wraps around.
        prefix = (deg[order] - attach - attach).cumsum()
        i = int(prefix[:-1].argmin())
        if prefix[i] < best_value:
            best_value, best_side = int(prefix[i]), _inside(rep, order[:i + 1])
            if best_value <= lower:
                break
        root = component_roots(m, *_contractible(w, order, best_value))
        sup, src = _merge(w, order, root)
        dead[src] = True
        m = len(sup)
        relabel = np.arange(n)
        relabel[order] = order[root]
        rep = relabel[rep]
        if m == 1:
            break
        deg[sup] = w[sup].sum(axis=1)
        i = int(deg[sup].argmin())
        if deg[sup[i]] < best_value:
            best_value = int(deg[sup[i]])
            best_side = rep == sup[deg[sup] == best_value].min()
    return best_value, best_side == best_side[0]


def _inside(rep: np.ndarray, supers) -> np.ndarray:
    """Mask of the vertices whose super-vertex is one of ``supers``."""
    mask = np.zeros(len(rep), dtype=bool)
    mask[supers] = True
    return mask[rep]


def _contractible(w: np.ndarray, order: np.ndarray, best: int) -> tuple:
    """Positions (ii, jj), ii < jj, of the edges (v_i, v_j) of the
    maximum-adjacency order ``order`` of the live vertices of ``w`` whose q,
    the weight from v_j to v_1..v_i, is at least ``best``: the running sums
    of the rows in that order, read in the columns of the vertices placed
    after each row's."""
    q = w.take(order[:-1], axis=0)
    edge = q > 0
    q.cumsum(axis=0, out=q)
    ii, v = (edge & (q >= best)).nonzero()
    pos = np.empty(len(w), dtype=np.intp)
    pos[order] = np.arange(len(order))
    jj = pos[v]
    below = ii < jj
    return ii[below], jj[below]


def ni_sparsify(g: Graph, s: int, w: Optional[np.ndarray] = None) -> Graph:
    """Nagamochi-Ibaraki sparse certificate of simple g: its edges of rank at
    most s, at most s*n of them, in which every k-cut of g-value <= s keeps
    its exact crossing edge set.

    The rank of the edge (v_i, v_j), i < j, in one maximum-adjacency order
    of g is the number of v_j's neighbours among v_1..v_i.  The edges of
    rank r form a maximal spanning forest of g minus the edges of lower rank
    (Nagamochi and Ibaraki 1992), so an edge of rank above s has its ends
    joined in each of s edge-disjoint forests, each of which then crosses
    every cut that the edge crosses: no such cut has value <= s.  A rank is
    at most the degree of either end.

    Degree certificate: if min(deg u, deg v) <= s for every edge (u, v), every
    rank is at most s and g is returned.  Otherwise the order is one phase on
    g's weight matrix ``w`` (built when absent, only read); sorted by (later
    position, earlier position) (``_edges_by_position``), an edge row's rank
    is one more than its index among its later end's rows.  The result is
    the rows of g's ``edge_array`` of rank at most s, which stay sorted.
    """
    if not g.simple:
        raise GraphError("ni_sparsify is defined for simple graphs")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    edges = g.edge_array
    deg = np.bincount(edges[:, :2].ravel(), minlength=g.n)   # simple: degree = endpoint count
    if (np.minimum(deg[edges[:, 0]], deg[edges[:, 1]]) <= s).all():
        return g
    order = _max_adjacency_phase(weight_matrix(g) if w is None else w)[0]
    _, by, _, late = _edges_by_position(g, order)
    keep = np.empty(len(by), dtype=bool)
    keep[by] = np.arange(len(by)) - np.searchsorted(late, late) < s   # 0-based ranks
    return Graph._of_array(g.n, np.compress(keep, edges, axis=0), True)


def _merge(w: np.ndarray, order: np.ndarray, root: np.ndarray) -> tuple:
    """Contract, in place, each component of the live vertices ``order``
    into its vertex of lowest position; ``root`` gives that position for
    every position.  Rows, then columns, are summed, self-loops dropped, and
    the merged vertices' rows and columns zeroed.

    Returns (super-vertices, merged vertices), the super-vertices in
    position order.
    """
    m = len(order)
    roots = (root == np.arange(m)).nonzero()[0]
    key = root.tolist()
    members = order[sorted(range(m), key=key.__getitem__)]   # grouped by root
    sizes = np.bincount(root, minlength=m)[roots]
    starts = sizes.cumsum() - sizes
    sup = order[roots]
    rows = np.add.reduceat(w[members], starts)
    block = np.add.reduceat(rows[:, members], starts, axis=1)
    rows[:, members] = 0
    rows[:, sup] = block
    rows[np.arange(len(sup)), sup] = 0
    w[sup] = rows
    w[:, sup] = rows.T
    src = order[root != np.arange(m)]
    w[src] = 0
    return sup, src


def sv_2approx(g: Graph, k: int, w: Optional[np.ndarray] = None) -> KCut:
    """Greedy splitting 2-approximation: repeatedly apply the globally
    cheapest minimum 2-cut of any current part's induced subgraph.

    Each part's min 2-cut is computed once, and only while another split is
    still needed: at most 2k-3 Stoer-Wagner runs.  The first part, all of g,
    is cut by ``stoer_wagner_mincut`` on g with g's weight matrix ``w``
    (built when absent), which memoises the global min cut on g; every later
    part by ``_stoer_wagner`` on its principal submatrix of ``w``.  Each
    edge of the final cut was cut by exactly one split, so a final value
    other than the sum of the split costs raises InvalidCutError.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in 2..n, got k={k} with n={g.n}")
    if w is None:
        w = weight_matrix(g)
    parts: list = [np.arange(g.n)]   # increasing vertex ids
    cuts: list = []   # per part: ((cost, part min vertex), side-0 mask over the part), None if a singleton
    value = 0
    while len(parts) < k:
        for part in parts[len(cuts):]:
            if len(part) < 2:
                cuts.append(None)
                continue
            if len(part) == g.n:
                cost, cut2 = stoer_wagner_mincut(g, w)
                side = np.array(cut2.labels) == 0
            else:
                cost, side = _stoer_wagner(w.take(part, 0).take(part, 1), g.simple)
            cuts.append(((cost, int(part[0])), side))
        splittable = [i for i, c in enumerate(cuts) if c is not None]
        if not splittable:
            raise InvalidCutError(f"no part left to split at {len(parts)} of {k} parts")
        idx = min(splittable, key=lambda i: cuts[i][0])
        part = parts.pop(idx)
        (cost, _), side = cuts.pop(idx)
        value += cost
        parts.append(part[side])
        parts.append(part[~side])
    # Parts are numbered by their smallest vertex.
    labels = np.empty(g.n, dtype=np.int64)
    for label, part in enumerate(sorted(parts, key=lambda p: p[0])):
        labels[part] = label
    cut = KCut.from_labels(g, labels.tolist(), k)
    if cut.value != value:
        raise InvalidCutError(f"greedy splitting cut {value}, its cut has value {cut.value}")
    return cut
