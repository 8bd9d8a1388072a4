"""Vertex partitioning that preserves a border of every minimum k-cut.

Pipeline: forest sparsification -> degree regularization -> expander
decomposition -> trimming -> shaving -> shattering.  The surviving cores
plus all singletons form the partition whose contraction the border-finder
operates on.

After sparsification every stage works on one dense int64 weight matrix
(that of the sparsified graph, then its regularized principal submatrix)
and on vertex index arrays; no stage builds a ``Graph``.  Trimming,
shaving and shattering take and return one int64 label per vertex: its
cluster (or core) index, or -1 for a singleton.  A vertex's weight into
its cluster is a row sum over a same-label mask, updated by one matrix row
per removal.  The decomposition splits blocks on an explicit
stack, labelling components with ``graph.component_roots`` over the
nonzeros of the block's submatrix.
Blocks of at most 16 vertices are split at their exact minimum-conductance
subset.  Its enumeration is meet-in-the-middle: the vertices split into a
low half (holding vertex 0) and a high half; every half-subset's volume and
boundary come from small matrix products with a table of subset bits, and
the weight between the two halves' subsets is tabulated by doubling over
the high half.  The (high subset, low subset) grid is in ascending
subset-mask order, and its sums are exact int64 arithmetic.  Larger blocks
are accepted when their degrees certify conductance >= gamma: the lighter
side of any cut has at most (total weight) // (minimum degree) vertices,
too few to keep much of their degree inside it.  Otherwise they take the
best prefix of the Fiedler-vector order, from cumulative sums over the
permuted matrix.  At gamma = 1 a larger block is accepted only as a star,
and split at its lightest edge when the sweep finds no cut below 1.  The
final check re-runs the exact enumeration on every block of at most 16
vertices.

At gamma = 1 (regularized minimum degree 1) and k >= 3 the partition is
certified from degrees alone.  A block with two disjoint edges is not a
1-expander: the edge whose ends have the smaller volume is a side S with
vol S <= total weight and boundary vol S - 2.  So every accepted block is
a star, a triangle, K2 or one vertex.  With epsilon <= 1/3, shave keeps
only the star leaves of degree 1, and shatter dissolves every core of at
most k vertices.  Unless some vertex has k or more neighbours of degree 1,
``kt_partition`` therefore returns n singletons without decomposing.

When the regularized graph has more than 16 vertices and its degrees
certify conductance >= gamma, the decomposition accepts it whole, and every
vertex keeps all of its degree inside that one block: trim and shave keep
every vertex, and shatter keeps the block iff it has more than k vertices.
``kt_partition`` returns that partition from degrees alone; dense graphs
such as G(100, 0.8) take this route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph import Graph, GraphError, VertexPartition, component_roots, weight_matrix
from .sparsify import ni_sparsify

EXACT_CONDUCTANCE_LIMIT = 16
DECOMPOSITION_EDGE_CONST = 10
# Below this total weight, distinct ratios p/q with p, q <= total differ by
# a relative 1/total^2 > 2^-50 at least, so their float64 quotients are
# distinct and in the same order: a float argmin is the exact first minimum.
_FLOAT_EXACT_TOTAL = 1 << 25
# Blocks up to this size are enumerated from one subset table; above it the
# subsets split into two halves (one table grows as 2^n * n^2 work).
_ONE_TABLE_LIMIT = 8


class KTInvariantError(GraphError):
    """A stage postcondition failed; signals a broken upstream guarantee."""


@dataclass(frozen=True)
class KTParams:
    """Stage parameters derived from (n, k, min degree)."""

    k: int
    epsilon: float           # shaving fraction 1/(k*log2 n), n post-regularization
    gamma: Fraction          # expander parameter 1/delta

    @staticmethod
    def derive(n: int, k: int, delta: int) -> "KTParams":
        eps = 1.0 / (k * math.log2(n)) if n >= 2 else 1.0
        return KTParams(k=k, epsilon=eps, gamma=Fraction(1, max(delta, 1)))


def regularize(w: np.ndarray, k: int, lambda_bar: int) -> tuple:
    """Repeatedly delete the lowest-id vertex of degree below
    lambda_bar/(2(k-1)) from the simple graph with weight matrix ``w``.

    Returns (weight matrix of the remaining graph, removed ids in removal
    order, array mapping remaining ids to ids of ``w``).  Raises if >= k
    vertices would be removed, which would certify lambda_bar below the
    true optimum.
    """
    if (w > 1).any():
        raise GraphError("regularization is defined for simple graphs")
    deg = w.sum(axis=1)
    alive = np.ones(len(w), dtype=bool)
    removed = []
    while True:
        # 2-approximation variant of the low-degree threshold: with
        # lambda_bar <= 2*opt, removing k-1 vertices below lambda_bar/(2(k-1))
        # would exhibit a k-cut cheaper than the optimum.
        low = np.flatnonzero(alive & (deg * (2 * (k - 1)) < lambda_bar))
        if len(low) == 0:
            break
        victim = int(low[0])
        removed.append(victim)
        if len(removed) >= k:
            raise KTInvariantError(
                f"regularization removed {len(removed)} vertices; "
                f"approximation value {lambda_bar} cannot be valid")
        alive[victim] = False
        deg -= w[victim]
    keep = np.flatnonzero(alive)
    return w[keep[:, None], keep], removed, keep


@lru_cache(maxsize=None)
def _subset_bits(m: int) -> np.ndarray:
    """(2^m, m) int64 table whose row i holds the bits of i, lowest first."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """(n, n) int64 mask of the entries above the diagonal (n <= 16)."""
    mask = np.triu(np.ones((n, n), dtype=np.int64), 1)
    mask.flags.writeable = False
    return mask


def _first_min_ratio(num: np.ndarray, den: np.ndarray, total: int):
    """Index of the first exact minimum of num/den over the entries with
    den > 0, where num, den <= total; None when every den is 0."""
    q = np.divide(num, den, out=np.full(len(num), math.inf), where=den > 0)
    i = int(q.argmin())
    if q[i] == math.inf:
        return None
    if total >= _FLOAT_EXACT_TOTAL:
        # Distinct ratios may round together: settle the near-ties exactly.
        near = np.flatnonzero(q <= q[i] * (1 + 2.0**-48)).tolist()
        i = min(near, key=lambda j: (Fraction(int(num[j]), int(den[j])), j))
    return i


def _min_side_volumes(vol: np.ndarray, total: int) -> np.ndarray:
    """min(vol S, 2*total - vol S) for int64 subset volumes that may have
    wrapped: the true volumes are at most 2*total < 2^64, so they are exact
    as uint64, and the minimum is at most total."""
    vol = vol.view(np.uint64)
    other = np.subtract(2 * total, vol)
    np.minimum(vol, other, out=other)
    return other.view(np.int64)


def _min_conductance(w: np.ndarray) -> tuple:
    """Exact minimum-conductance proper subset of the graph with weight
    matrix ``w`` (2 <= n <= 16): (Fraction or inf, sorted index array).

    Enumerates the subsets holding vertex 0 (conductance is complement-
    symmetric).  Above ``_ONE_TABLE_LIMIT`` vertices they form a (high
    subset, low subset) grid whose ravel order is ascending subset-mask
    order, so either way ties go to the smallest mask.  Sums are int64 and
    may wrap for huge weights; every quantity read from them is at most the
    total weight, hence exact.
    """
    n = len(w)
    a = n if n <= _ONE_TABLE_LIMIT else (n + 1) // 2
    low = _subset_bits(a)[1::2]           # subsets of 0..a-1 holding 0
    deg = w.sum(axis=1)
    upper = w * _strict_upper(n)          # every edge once
    total = int(upper.sum())
    vol = low @ deg[:a]
    bd = vol - 2 * ((low @ upper[:a, :a]) * low).sum(axis=1)
    if a < n:
        high = _subset_bits(n - a)        # subsets of a..n-1
        # Row h: boundary of (high subset h) + (low subset l) for every l,
        # less the high subset's own boundary, built one high vertex at a
        # time: rows 2^i..2^(i+1)-1 are rows 0..2^i-1 less twice the weight
        # from vertex a+i into the low subset.
        grid = np.empty((len(high), len(low)), dtype=np.int64)
        grid[0] = bd
        for i, row in enumerate((low @ w[:a, a:]).T * -2):
            np.add(grid[:1 << i], row, out=grid[1 << i:2 << i])
        vol_high = high @ deg[a:]
        grid += (vol_high - 2 * ((high @ upper[a:, a:]) * high).sum(axis=1))[:, None]
        bd = grid.ravel()
        vol = np.add(vol, vol_high[:, None]).ravel()
    denom = _min_side_volumes(vol, total)
    i = _first_min_ratio(bd, denom, total)
    if i is None:
        # Edgeless: every subset has zero volume on some side and no boundary.
        return math.inf, np.zeros(1, dtype=np.int64)
    h, l = divmod(i, len(low))
    side = low[l].nonzero()[0]
    if h:
        side = np.concatenate([side, a + _subset_bits(n - a)[h].nonzero()[0]])
    return Fraction(int(bd[i]), int(denom[i])), side


def min_conductance_subset(g: Graph) -> tuple:
    """Exact minimum-conductance proper subset by enumeration (n <= 16).

    Returns (conductance as Fraction or inf, vertex tuple): the first
    minimal subset holding vertex 0, in ascending bit-mask order.
    """
    if g.n < 2:
        raise GraphError("conductance needs at least 2 vertices")
    if g.n > EXACT_CONDUCTANCE_LIMIT:
        raise GraphError(f"exact conductance limited to n <= {EXACT_CONDUCTANCE_LIMIT}")
    cond, side = _min_conductance(weight_matrix(g))
    return cond, tuple(side.tolist())


def is_expander(g: Graph, gamma: Fraction) -> bool:
    """Brute-force certification that every proper subset has conductance >= gamma."""
    if g.n <= 1:
        return True
    cond, _ = min_conductance_subset(g)
    return cond >= gamma


def _degree_certified(deg: np.ndarray, wmax: int, gamma: Fraction) -> bool:
    """Whether the row sums ``deg`` of a block whose entries are at most
    ``wmax`` prove every proper subset has conductance >= gamma, and so that
    the block is connected.

    With total the block's total weight and delta its minimum degree, the
    side S of a cut with vol S <= total has |S| <= total // delta vertices,
    each with at most wmax * (|S| - 1) of its degree inside S, so the cut's
    conductance is at least 1 - wmax * (total // delta - 1) / delta.
    """
    delta = int(deg.min())
    if delta < 1:
        return False
    s_max = int(deg.sum(dtype=np.uint64)) // 2 // delta
    return gamma.denominator * (delta - wmax * (s_max - 1)) >= gamma.numerator * delta


def _fiedler_sweep(w: np.ndarray, deg: np.ndarray) -> tuple:
    """Best prefix cut of the Fiedler-vector order of the graph with weight
    matrix ``w`` and row sums ``deg``; returns (conductance, sorted index
    array)."""
    n = len(w)
    dinv = 1.0 / np.sqrt(np.maximum(deg.astype(np.float64), 1e-12))
    lap = np.eye(n) - (w.astype(np.float64) * dinv).T * dinv
    _, vecs = np.linalg.eigh(lap)
    order = np.argsort(vecs[:, 1] * dinv, kind="stable")
    # Prefix j holds order[:j+1]; row j of the permuted matrix below the
    # diagonal is the weight from order[j] into the prefix before it.
    lower = np.tril(w[order[:, None], order], -1).sum(axis=1)
    vol = np.cumsum(deg[order])[:-1]
    total = int(deg.sum(dtype=np.uint64)) // 2
    denom = _min_side_volumes(vol, total)
    bd = vol - 2 * np.cumsum(lower)[:-1]
    j = _first_min_ratio(bd, denom, total)
    if j is None:
        return math.inf, order[:1]
    return Fraction(int(bd[j]), int(denom[j])), np.sort(order[:j + 1])


def _is_star(w: np.ndarray) -> bool:
    """Whether the connected graph with weight matrix ``w`` (n > 2) is a star:
    n - 1 edges, all at one vertex."""
    nz = np.count_nonzero(w, axis=1)
    return int(nz.max()) == len(w) - 1 and int(nz.sum()) == 2 * (len(w) - 1)


def _lightest_edge_cut(w: np.ndarray, deg: np.ndarray) -> tuple:
    """The side {a, b} of the edge with the smallest deg a + deg b, lowest
    ids on ties, of the graph with weight matrix ``w`` and row sums ``deg``:
    (conductance, sorted index array).  It is below 1 whenever the graph
    has two disjoint edges, as one of them has volume <= total weight."""
    a, b = np.nonzero(np.triu(w, 1))
    vol = deg[a] + deg[b]
    i = int(vol.argmin())
    total = int(deg.sum(dtype=np.uint64)) // 2
    cut = int(vol[i]) - 2 * int(w[a[i], b[i]])
    return Fraction(cut, min(int(vol[i]), 2 * total - int(vol[i]))), np.array([a[i], b[i]])


def expander_decompose(g, gamma: Fraction) -> VertexPartition:
    """Low-conductance-cut splitting of a Graph or of its weight matrix.

    Blocks of size <= 16 are certified gamma-expanders exactly; larger
    blocks are accepted when their degrees certify conductance >= gamma,
    and otherwise take the best Fiedler prefix, stopping when it is not
    below gamma.  At gamma = 1 a larger block is accepted only if it is a
    star, which is a 1-expander; any other connected block has two disjoint
    edges, so when the sweep finds no cut below 1 it is split at its
    lightest edge (``_lightest_edge_cut``).  Every accepted block at
    gamma = 1 is thus a proven 1-expander.  Blocks are split depth-first on
    an explicit stack: each component, then each side of a cut, in the
    order the recursive definition visits them.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    w = weight_matrix(g) if isinstance(g, Graph) else g
    wmax = int(w.max()) if len(w) else 0
    blocks = []
    # (block, known to be connected): a component needs no second search.
    stack = [(np.arange(len(w)), False)] if len(w) else []
    while stack:
        idx, connected = stack.pop()
        if len(idx) == 1:
            blocks.append(idx.tolist())
            continue
        sub = w[idx[:, None], idx]
        small = len(idx) <= EXACT_CONDUCTANCE_LIMIT
        if small:
            cond, side = _min_conductance(sub)
            # Without isolated vertices a zero-boundary proper subset has
            # volume on both sides, so the block is connected iff cond > 0.
            connected = connected or (cond > 0 and bool(sub.any(axis=1).all()))
        else:
            deg = sub.sum(axis=1)
            if _degree_certified(deg, wmax, gamma):
                blocks.append(idx.tolist())
                continue
        if not connected:
            roots = component_roots(len(idx), *sub.nonzero())
            heads = np.flatnonzero(roots == np.arange(len(idx)))
            if len(heads) > 1:
                stack.extend((idx[roots == h], True) for h in heads[::-1])
                continue
        if not small:
            if gamma == 1 and _is_star(sub):
                blocks.append(idx.tolist())
                continue
            cond, side = _fiedler_sweep(sub, deg)
            if gamma == 1 and cond >= 1:
                cond, side = _lightest_edge_cut(sub, deg)
        if cond < gamma:
            rest = np.ones(len(idx), dtype=bool)
            rest[side] = False
            stack += [(idx[rest], False), (idx[side], False)]
        else:
            blocks.append(idx.tolist())
    return VertexPartition.from_blocks(blocks, len(w))


def _weight_inside(w: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Each vertex's weight into its own cluster: row sums of ``w`` over the
    same-label mask (meaningless where lab is -1)."""
    return np.where(lab[:, None] == lab, w, 0).sum(axis=1)


def trim(w: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Relabel -1 (singleton) every vertex keeping at most 2/5 of its degree
    inside its cluster, until a fixpoint; returns a new label array.

    A removal only lowers the others' weight inside their clusters, so the
    fixpoint (in each cluster, the largest subset in which every vertex keeps
    more than 2/5) does not depend on the order: one removal lowest id first,
    as the definition reads, or, as here, every failing vertex per round.
    """
    deg = w.sum(axis=1)
    lab = lab.copy()
    inside = _weight_inside(w, lab)
    while True:
        out = np.flatnonzero((lab >= 0) & (inside * 5 <= 2 * deg))
        if len(out) == 0:
            return lab
        inside -= np.where(lab[out, None] == lab, w[out], 0).sum(axis=0)
        lab[out] = -1


def shave(w: np.ndarray, lab: np.ndarray, epsilon: float) -> np.ndarray:
    """Core labels after one simultaneous pass: a vertex keeps its cluster
    label iff it keeps more than a (1 - epsilon) share of its degree inside
    its cluster; every other vertex becomes -1."""
    keep = _weight_inside(w, lab) > (1.0 - epsilon) * w.sum(axis=1)
    return np.where(keep, lab, -1)


def shatter(core: np.ndarray, k: int) -> np.ndarray:
    """Relabel -1 every core of at most k vertices."""
    size = np.bincount(core + 1)    # slot 0 counts the -1 labels
    return np.where(size[core + 1] <= k, -1, core)


def _validate_state(w: np.ndarray, trimmed: np.ndarray, core: np.ndarray,
                    shattered: np.ndarray, params: KTParams) -> None:
    deg = w.sum(axis=1)
    inside = _weight_inside(w, trimmed)
    bad = np.flatnonzero((trimmed >= 0) & (inside * 5 <= 2 * deg))
    if len(bad):
        raise KTInvariantError(f"trim fixpoint violated at vertex {bad[0]}")
    bad = np.flatnonzero((core >= 0) & (inside <= (1.0 - params.epsilon) * deg))
    if len(bad):
        raise KTInvariantError(f"shave condition violated at vertex {bad[0]}")
    alive = shattered[shattered >= 0]
    if (np.bincount(alive)[alive] <= params.k).any():
        raise KTInvariantError("shatter left a small core alive")


def _singletons_certified(w: np.ndarray, deg: np.ndarray, k: int) -> bool:
    """Whether the regularized simple graph with weight matrix ``w`` and
    degrees ``deg`` is certified to partition into singletons at k: minimum
    degree 1 (gamma = 1), k >= 3, and no vertex with k or more neighbours
    of degree 1 (see ``kt_partition``)."""
    if k < 3 or deg.min() != 1:
        return False
    return bool((w[:, deg == 1].sum(axis=1) < k).all())


def kt_partition(g: Graph, k: int, lambda_bar: int) -> tuple:
    """Full partitioning pipeline; returns (partition of V(g), report dict).

    Singleton certificate.  When the regularized graph has minimum degree
    1 (so gamma = 1), k >= 3 and no vertex has k or more neighbours of
    degree 1, the partition is every vertex alone, and it is returned
    without decomposing; the report's ``clusters``, ``trimmed``, ``shaved``
    and ``shattered`` are then None, since those stages did not run.
    Proof that the full run returns the same:

    - A block with two disjoint edges is not a 1-expander: of the two, the
      edge whose ends have the smaller volume is a side S with
      vol S <= total weight and boundary vol S - 2 < vol S.  So every
      1-expander block is a star (K2 included), a triangle or one vertex.
      Every block ``expander_decompose`` accepts at gamma = 1 is a
      1-expander: small blocks by exact enumeration, large ones by the
      degree certificate or as stars (see there).
    - epsilon = 1/(k log2 n) <= 1/3.  A star leaf has one neighbour in its
      block, so it keeps more than (1 - epsilon) of its degree inside only
      if its degree is 1; shave makes every other leaf a singleton.
    - So a core of a star block holds its centre and pendant leaves of the
      centre, and it has more than k vertices only if the centre has k or
      more neighbours of degree 1.  Triangles, K2 and single vertices have
      at most 3 <= k vertices.  Every core thus has at most k vertices,
      and shatter dissolves it.

    The full run's checks hold there too: at gamma = 1 the decomposition
    budget 10 m log2 m is above the m edges it could cut, and the stage
    postconditions are what the stages compute.

    One-block certificate.  When the regularized graph has more than 16
    vertices and its degrees certify conductance >= gamma
    (``_degree_certified``), the removed vertices are singletons and the
    regularized ones form one block, or are singletons too when there are at
    most k of them; it is returned without decomposing, with the report the
    full run builds: ``clusters`` 1, ``trimmed`` and ``shaved`` 0, and
    ``shattered`` the block's size if shatter dissolves it, else 0.  Proof
    that the full run returns the same, with every vertex's degree
    deg v >= delta >= 1:

    - ``expander_decompose`` accepts its root block, all of the regularized
      graph, by the same degree certificate on the same matrix, so the
      decomposition is one cluster.
    - Every vertex keeps all of its degree inside that cluster.  Trim drops
      v only if 5 deg v <= 2 deg v, which never holds, and shave keeps v
      iff deg v > (1 - epsilon) deg v, which always holds, as 1 - epsilon
      rounds below 1.  So the core is the whole block, and shatter keeps it
      iff it has more than k vertices.
    - ``_validate_state`` re-checks exactly what these stages compute, and
      ``_validate_decomposition`` sees no cut edge and no block of at most
      16 vertices, so neither check could fail.
    """
    if not g.simple:
        raise GraphError("kt_partition is defined for simple graphs")
    if lambda_bar < 1:
        raise ValueError("lambda_bar must be >= 1 (zero-cut inputs exit earlier)")
    h = ni_sparsify(g, lambda_bar)
    wr, removed, back = regularize(weight_matrix(h), k, lambda_bar)
    if len(wr) <= 1:
        blocks = [(v,) for v in removed]
        if len(wr) == 1:
            blocks.append(tuple(back.tolist()))
        partition = VertexPartition.from_blocks(blocks, g.n)
        report = _report(partition, removed, 0, 0, 0, 0, KTParams.derive(2, k, 1))
        return partition, report
    deg = wr.sum(axis=1)
    params = KTParams.derive(len(wr), k, int(deg.min()))
    if _singletons_certified(wr, deg, k):
        partition = VertexPartition(tuple((v,) for v in range(g.n)))
        return partition, _report(partition, removed, None, None, None, None, params)
    if len(wr) > EXACT_CONDUCTANCE_LIMIT and _degree_certified(deg, int(wr.max()), params.gamma):
        # One block, which shatter keeps iff it has more than k vertices.
        dissolved = len(wr) <= k
        final = np.full(len(wr), -1 if dissolved else 0)
        clusters, trimmed, shaved, shattered = 1, 0, 0, len(wr) if dissolved else 0
    else:
        decomp = expander_decompose(wr, params.gamma)
        index = np.array(decomp.to_block_index(len(wr)))
        lab = trim(wr, index)
        core = shave(wr, lab, params.epsilon)
        final = shatter(core, k)

        _validate_state(wr, lab, core, final, params)
        _validate_decomposition(wr, index, params.gamma)

        singles = [0] + [np.count_nonzero(x < 0) for x in (lab, core, final)]
        clusters = len(decomp.blocks)
        trimmed, shaved, shattered = np.diff(singles).tolist()

    # Core labels are below len(wr); every other vertex v is its own block g.n + v.
    labels = np.arange(g.n, 2 * g.n)
    kept = final >= 0
    labels[back[kept]] = final[kept]
    partition = VertexPartition.from_labels(labels, g.n)
    report = _report(partition, removed, clusters, trimmed, shaved, shattered, params)
    return partition, report


def _report(partition, removed, clusters, trimmed, shaved, shattered, params) -> dict:
    return {
        "q": len(partition.blocks),
        "stages": {
            "regularized_removed": len(removed),
            "clusters": clusters,
            "trimmed": trimmed,
            "shaved": shaved,
            "shattered": shattered,
        },
        "params": {"epsilon": float(params.epsilon), "gamma": float(params.gamma)},
    }


def _validate_decomposition(w: np.ndarray, index: np.ndarray, gamma: Fraction) -> None:
    """Re-check the decomposition with per-vertex block ``index``
    independently: the weight it cuts against the edge budget, and every
    block of at most 16 vertices by exact enumeration on its submatrix."""
    upper = np.triu(w)
    inter = int(upper[index[:, None] != index].sum())
    m = int(upper.sum())
    if m >= 2:
        budget = DECOMPOSITION_EDGE_CONST * float(gamma) * m * math.log2(m)
        if inter > budget:
            raise KTInvariantError(
                f"decomposition cut {inter} edges, budget {budget:.2f}")
    size = np.bincount(index)
    for block in np.split(np.argsort(index, kind="stable"), np.cumsum(size)[:-1]):
        if 1 < len(block) <= EXACT_CONDUCTANCE_LIMIT:
            cond, _ = _min_conductance(w[block[:, None], block])
            if cond < gamma:
                raise KTInvariantError(f"block {tuple(block.tolist())} is not a {gamma}-expander")
