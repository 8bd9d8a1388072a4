"""Deterministic r-island solving via subset-graph triangle detection.

An r-island solution is a set of r vertices, each cut off as its own
singleton, minimizing the total number of incident edges.  For r = 1 it is
the first vertex of least degree, for r = 2 the lex-first pair (u, v) of
least deg(u) + deg(v) - w(u, v), both read off the weight matrix.  For
r >= 3 the set is split into three disjoint q-subsets (q = r/3 after
padding).  Its cost is the three subset costs minus the edges between each
two subsets, so the search guesses two of those pair weights and finds the
triangles of the subset graph that fit the guess with one integer matrix
product.

One pair table per search holds the weight and the disjointness of every two
q-subsets, with the subsets sorted by profile (edges inside, edges leaving)
so that each profile class is a contiguous slice.  Two
``np.maximum.reduceat`` calls turn it into the largest disjoint pair weight of
every class pair, which bounds every class triple from below: the sum of its
three class costs minus its three class-pair maxima.  The search walks only
the triples whose bound can still reach the best value found, in ascending
bound order, and prunes the weight guesses inside a triple the same way.  The
table is built from integer gathers, not a product: the graph is simple, so
every entry is a small exact integer (see ``_TripleSearch``).

Before the search, vertices are pruned by degree.  In a simple graph a set S
costs sum(deg(v) for v in S) - |E(S)|, and |E(S)| <= C(r, 2).  So a vertex v
lies in a set no dearer than a known feasible set (the r lowest-degree
vertices) only if deg(v) + (the r-1 smallest other degrees) - C(r, 2) is at
most that set's cost.  Every optimal set passes, and the padding dummies
(isolated, so free) are always kept: the value and the lex-smallest optimum
are those of the unpruned search.
"""
from __future__ import annotations

from itertools import chain, combinations
from typing import Optional

import numpy as np

from .graph import (
    Graph,
    GraphError,
    InvalidCutError,
    KCut,
    canonical_labels,
    induced_subgraph,
    weight_matrix,
)

STRASSEN_THRESHOLD = 256
_STRASSEN_BASE = 64
_GRID_CELLS = 1 << 18  # class triples bounded per numpy pass


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


def _island_candidates(adj: np.ndarray, deg: np.ndarray, r: int) -> tuple:
    """(upper, kept) for a simple graph: the cost of the r lowest-degree
    vertices, which bounds the optimum, and the increasing ids of the vertices
    that can lie in an r-island set costing at most that.

    The test is deg(v) + (sum of the r-1 smallest degrees other than v) -
    C(r, 2) <= upper.  It always passes when deg(v) is among the r smallest,
    as upper is at least their sum minus C(r, 2); for every other v, the r-1
    smallest other degrees are the r-1 smallest overall.
    """
    order = np.argsort(deg, kind="stable")
    upper = _island_cost(adj, deg, order[:r])
    rest = int(deg[order[:r - 1]].sum())
    return upper, np.flatnonzero(deg + rest - r * (r - 1) // 2 <= upper)


class _TripleSearch:
    """The triple search over three disjoint q-subsets of the (padded) vertex
    set, driven by one pair table.

    ``adj`` is the weight matrix among the searched vertices and ``deg`` their
    degrees in the whole graph, so subset costs count every incident edge.

    The q-subsets are sorted by profile (w_in, w_sv), the edges inside a
    subset and the edges leaving it, so each profile class is a contiguous
    slice ``subsets[start[a]:start[a + 1]]`` whose members all cost
    ``cost[a]`` = w_in + w_sv.  Three disjoint subsets from classes a, b, c
    form an island set costing cost[a] + cost[b] + cost[c] minus the edges
    between each two of them.

    ``table`` holds those pair weights for every two subsets, in class order:
    ``base`` + w(s, t) when s and t are disjoint and less than ``base`` when
    they overlap.  With lift = q² + 1 and base = q·lift, each vertex of t
    outside s adds lift on top of its edges to s, and the edges add at most
    q² in all.  The table is the sum of q integer gathers in the smallest
    unsigned dtype that holds base + q² (one byte up to q = 5, two up to
    q = 39).  It needs no product, so it is exact as long as every weight is
    0 or 1, which the constructor checks.

    ``top[a, b]`` is the largest weight of a disjoint pair from classes a and
    b (-1 when there is none), from two ``np.maximum.reduceat`` calls over
    the table.  No island set from classes a <= b <= c costs less than
    cost[a] + cost[b] + cost[c] - top[a, b] - top[b, c] - top[a, c], so
    ``best_with_witnesses`` visits the class triples in ascending order of
    that bound and stops at the first bound above the best value so far.
    """

    def __init__(self, adj: np.ndarray, deg: np.ndarray, r: int):
        if adj.max(initial=0) > 1:
            raise GraphError("the triple search needs a 0/1 weight matrix")
        self.pad = (-r) % 3
        q = (r + self.pad) // 3
        self.real_n = len(deg)
        n = self.real_n + self.pad  # dummies take the highest ids
        self.adj = np.zeros((n, n), dtype=np.int64)
        self.adj[:self.real_n, :self.real_n] = adj
        self.deg = np.zeros(n, dtype=np.int64)
        self.deg[:self.real_n] = deg
        subsets = np.fromiter(chain.from_iterable(combinations(range(n), q)),
                              np.intp).reshape(-1, q)
        w_in = np.zeros(len(subsets), dtype=np.int64)
        for s, t in combinations(range(q), 2):
            w_in += self.adj[subsets[:, s], subsets[:, t]]
        w_sv = self.deg[subsets].sum(axis=1) - 2 * w_in
        order = np.lexsort((w_sv, w_in))  # stable: by profile, then subset
        self.subsets = subsets[order]
        w_in, w_sv = w_in[order], w_sv[order]
        first = np.flatnonzero(np.concatenate((
            [True], (w_in[1:] != w_in[:-1]) | (w_sv[1:] != w_sv[:-1]))))
        self.start = first.tolist() + [len(order)]
        self.cost = w_in[first] + w_sv[first]
        lift = q * q + 1
        self.base = q * lift
        small = self.adj.astype(np.min_scalar_type(self.base + q * q))
        near = small[self.subsets[:, 0]]  # edges from each subset to each vertex
        for t in range(1, q):
            near += small[self.subsets[:, t]]
        near += lift
        near[np.arange(len(subsets))[:, None], self.subsets] -= lift
        self.table = near[:, self.subsets[:, 0]]
        for t in range(1, q):
            self.table += near[:, self.subsets[:, t]]
        top = np.maximum.reduceat(np.maximum.reduceat(self.table, first, axis=0),
                                  first, axis=1).astype(np.int64)
        self.top = np.where(top >= self.base, top - self.base, -1)

    def _triples(self, upper: int):
        """(bound, a, b, c) for every class triple a <= b <= c with disjoint
        pairs in all three class pairs and a bound of at most ``upper``, in
        ascending bound order (ties by class)."""
        cost, top = self.cost, self.top
        k = len(cost)
        cls = np.arange(k)
        pair = cost[:, None] + cost - top  # the (b, c) share of the bound
        ok = top >= 0  # the class pair has a disjoint pair
        pair_ok = ok & (cls[:, None] <= cls)
        found = []
        step = max(1, _GRID_CELLS // (k * k))
        for a0 in range(0, k, step):
            a = cls[a0:a0 + step]
            ta = top[a]
            bound = pair + (cost[a, None, None] - ta[:, :, None] - ta[:, None, :])
            keep = ((bound <= upper) & pair_ok & (ok[a] & (a[:, None] <= cls))[:, :, None]
                    & ok[a][:, None, :])
            ia, ib, ic = np.nonzero(keep)
            found.append((bound[ia, ib, ic], a[ia], ib, ic))
        bound, a, b, c = (np.concatenate(col) for col in zip(*found))
        order = np.argsort(bound, kind="stable")
        return zip(*(col[order].tolist() for col in (bound, a, b, c)))

    def best_with_witnesses(self, upper: int) -> tuple:
        """One pass over the parameter guesses: the minimum cut value no
        larger than ``upper`` and every island set attaining it, as the
        sorted rows of one int array (a set appears once per way its three
        subsets fit the class order).

        A guess fixes the weights w12 and w23 of a class triple; one
        ``matmul`` of the two guessed pair masks finds every subset pair
        (s1, s3) joined through some s2, and the heaviest disjoint such pair
        gives w13.  A set's value exceeds the triple's bound by what its three
        weights give up against the class-pair maxima, so a guess runs only
        while w12 and w23 together give up at most best - bound; guesses run
        from the heaviest weights down.  Pruning uses ``> best`` so that ties
        are still visited; the witness list restarts whenever ``best`` drops.
        """
        best = upper
        witnesses = [np.empty((0, 3 * self.subsets.shape[1]), np.intp)]   # sets costing best
        base = self.base
        top = self.top.tolist()
        for bound, a, b, c in self._triples(upper):
            if bound > best:
                break
            ra, rb, rc = (slice(self.start[x], self.start[x + 1]) for x in (a, b, c))
            t12, t23, t13 = self.table[ra, rb], self.table[rb, rc], self.table[ra, rc]
            m12, m23, m13 = top[a][b], top[b][c], top[a][c]
            apart13 = t13 >= base
            guesses23 = self._masks(t23, m23, m23 - (best - bound))
            for w12, a12 in self._masks(t12, m12, m12 - (best - bound)):
                if m12 - w12 > best - bound:
                    break
                for w23, a23 in guesses23:
                    if (m12 - w12) + (m23 - w23) > best - bound:
                        break
                    hits = (matmul(a12, a23) > 0) & apart13
                    if not hits.any():
                        continue
                    w13 = int(t13[hits].max()) - base
                    value = bound + (m12 - w12) + (m23 - w23) + (m13 - w13)
                    if value > best:
                        continue
                    if value < best:
                        best = value
                        witnesses.clear()
                    i1, i3 = np.nonzero(hits & (t13 == base + w13))
                    pick, i2 = np.nonzero(a12[i1] & a23[:, i3].T)
                    sets = np.sort(np.hstack((self.subsets[ra][i1[pick]],
                                              self.subsets[rb][i2],
                                              self.subsets[rc][i3[pick]])), axis=1)
                    self._check(sets, value)
                    witnesses.append(sets)
        return best, np.concatenate(witnesses)

    def _masks(self, block: np.ndarray, heaviest: int, lightest: int) -> list:
        """(w, block == base + w) for every weight w from ``heaviest`` down to
        ``lightest`` (at least 0) that some disjoint pair in the block has."""
        found = []
        for w in range(heaviest, max(lightest, 0) - 1, -1):
            mask = block == self.base + w
            if mask.any():
                found.append((w, mask))
        return found

    def _check(self, sets: np.ndarray, value: int) -> None:
        """Re-cost each island set (row of ``sets``) directly with one
        gather; a set whose cost is not ``value`` raises."""
        inside = self.adj[sets[:, :, None], sets[:, None, :]].sum(axis=(1, 2)) // 2
        direct = self.deg[sets].sum(axis=1) - inside
        wrong = np.flatnonzero(direct != value)
        if wrong.size:
            islands = tuple(sets[wrong[0]].tolist())
            raise InvalidCutError(f"island set {islands} costs {int(direct[wrong[0]])}, "
                                  f"its parameters give {value}")


def solve_r_island(g: Graph, r: int) -> tuple:
    """Exact minimum (r+1)-cut with exactly r singleton components.

    Returns (value, island tuple); ties take the lex-smallest island set.
    r >= 3 searches only the vertices that pass the degree test of the module
    docstring against the cost of the r lowest-degree vertices, with their
    whole-graph degrees.  The test is exact because the graph is simple (at
    most C(r, 2) edges inside the set) and an optimal set can always give its
    padding slots to the dummies: r >= 3 pads with isolated dummy vertices to
    a multiple of 3, and the free dummy islands are preferred at ties and
    stripped from the answer.
    """
    if not g.simple:
        raise GraphError("r-island solving is defined for simple graphs")
    if not 1 <= r <= g.n - 1:
        raise ValueError(f"r must be in 1..n-1, got r={r} with n={g.n}")
    adj = weight_matrix(g)
    deg = adj.sum(axis=1)
    if r == 1:
        v = int(deg.argmin())
        return int(deg[v]), (v,)
    if r == 2:
        # The strict upper triangle read row-major is lex order of the pairs.
        u, v = np.triu_indices(g.n, 1)
        cost = deg[u] + deg[v] - adj[u, v]
        i = int(cost.argmin())
        return int(cost[i]), (int(u[i]), int(v[i]))
    upper, kept = _island_candidates(adj, deg, r)
    search = _TripleSearch(adj[np.ix_(kept, kept)], deg[kept], r)
    value, sets = search.best_with_witnesses(upper)
    # Each witness is sorted and the dummies have the highest ids, so the
    # witnesses with the most dummies end in them; the answer is the
    # lex-smallest real part among those.
    dummies = (sets >= search.real_n).sum(axis=1)
    if not len(sets) or dummies.max() != search.pad:
        raise InvalidCutError("padding must be absorbed by dummy islands")
    real = kept[sets[dummies == search.pad, :r]]
    best = real[np.lexsort(real.T[::-1])[0]]
    return value, tuple(best.tolist())


def extend_border(g: Graph, border_cut: KCut, i: int) -> Optional[KCut]:
    """Carve i islands out of the border's non-singleton parts, trying every
    composition of i over the hosts; returns the best resulting (k+i)-cut."""
    if i < 0:
        raise ValueError("island count must be nonnegative")
    if i == 0:
        return border_cut
    parts = border_cut.parts()
    hosts = [(pid, p) for pid, p in enumerate(parts) if len(p) >= 2]
    cache: dict = {}

    def host_solve(part: tuple, cnt: int):
        key = (part, cnt)
        if key not in cache:
            sub, back = induced_subgraph(g, part)
            val, islands = solve_r_island(sub, cnt)
            cache[key] = (val, tuple(back[v] for v in islands))
        return cache[key]

    best = None
    for comp in _compositions(i, [len(p) - 1 for _, p in hosts]):
        labels = list(border_cut.labels)
        next_label = border_cut.k
        for (pid, part), cnt in zip(hosts, comp):
            if cnt == 0:
                continue
            _, islands = host_solve(part, cnt)
            for v in islands:
                labels[v] = next_label
                next_label += 1
        cut = KCut.from_labels(g, canonical_labels(labels), border_cut.k + i)
        key = (cut.value, cut.labels)
        if best is None or key < best[0]:
            best = (key, cut)
    return best[1] if best is not None else None


def _compositions(total: int, caps: list):
    """All ways to write total as a sum over positions with per-position caps."""
    if total == 0:
        yield tuple(0 for _ in caps)
        return
    if not caps:
        return

    def rec(pos: int, left: int, acc: list):
        if pos == len(caps):
            if left == 0:
                yield tuple(acc)
            return
        remaining_cap = sum(caps[pos:])
        if left > remaining_cap:
            return
        for take in range(0, min(caps[pos], left) + 1):
            acc.append(take)
            yield from rec(pos + 1, left - take, acc)
            acc.pop()

    yield from rec(0, total, [])
