"""Border rounds: candidate lists of s-cuts of the contracted graph.

Round i of the sparsify route needs the s-cuts (s = k - i) of the
contracted graph ``gc`` of value at most floor(beta_i * lambda_bar).
``enumerate_borders`` lists them exactly with ``oracle.list_kcuts``, the
exact branch's partition search in list mode, in maximum-adjacency order,
pruned by the bound ceil((s - used) * lambda / 2) on the weight still to
be cut.  lambda is the global min cut of the uncontracted graph: every
s-cut of ``gc`` lifts to an s-cut of it with the same value, so every part
of it still has boundary at least lambda.  The search's per-graph setup is
memoised on ``gc``, so all rounds of a solve share it.  A round keeps at
most ``trials`` candidates, the first in (value, canonical labels) order,
and expands at most ``budget`` search nodes; the list says whether either
limit cut it short.  A ``cheapest`` round (the pipeline's round 0, which
extends only its first candidate) lists only the cuts of the least value.

For s = 1 the only cut is all vertices in one part, with value 0, so that
cut is built directly and no search is run.

``contract_random`` contracts seeded random trials by Karger's rule, each
on its own splitmix64 stream.  The solver does not call it; it is kept for
its tests and for the benchmark's tracing, which patches it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Graph, KCut, component_roots
from .oracle import kcut_lower_bound, list_kcuts


@dataclass(frozen=True)
class BorderParams:
    s: int            # cut arity
    trials: int       # the most candidates a round keeps: PipelineConfig.trial_cap
    lam: int = 0      # lower bound on the boundary of every part of an s-cut
    budget: int = -1  # search nodes a round may expand; negative for no limit
    cheapest: bool = False  # list only the s-cuts of the least value


# Clocks held at once: a batch is contracted in blocks of trials, so the
# clocks, sort orders and edge pairs in memory do not grow with the number
# of trials.
_CLOCK_BLOCK = 1 << 15
# splitmix64: the stream's step and the finaliser's two multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def contract_random(g: Graph, tau: int, seeds: np.ndarray) -> np.ndarray:
    """Contract weighted-random edges until <= tau vertices (or no edges)
    remain, one trial per seed; returns the (len(seeds), n) array of
    original-vertex -> super-vertex maps, super-vertices numbered by their
    first vertex.

    Trial t gives every edge the exponential clock -ln(U)/w from the first m
    outputs of stream ``seeds[t]`` and merges edges in stable clock order,
    stopping at the first edge that leaves tau super-vertices: the
    random-permutation view of repeatedly contracting a weight-proportional
    edge (Karger).  Each block of trials is sorted once and merged together
    (see ``_merge``).  Every map is the identity when n <= tau or g has no
    edges.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n, edges = g.n, g.edge_array
    if n <= tau or len(edges) == 0 or len(seeds) == 0:
        return np.tile(np.arange(n), (len(seeds), 1))
    step = max(1, _CLOCK_BLOCK // len(edges))
    out = np.empty((len(seeds), n), dtype=np.int64)
    for i in range(0, len(seeds), step):
        order = np.argsort(_clocks(seeds[i:i + step], edges), axis=1, kind="stable")
        out[i:i + step] = _merge(order, edges[:, :2], n, tau)
    return out


def stream_outputs(seeds: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Splitmix64 stream outputs: entry (i, j) is output steps[j] (0-based)
    of stream seeds[i], mix64(seed + (step + 1) * GOLDEN)."""
    seeds = seeds.astype(np.uint64).reshape(-1, 1)
    incr = ((steps.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)).reshape(1, -1)
    z = seeds + incr
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _clocks(seeds: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Edge clocks -ln(U)/w, one row per seed, U from the top 53 bits of the
    stream outputs 0..m-1 offset by half a step so that it is never 0."""
    bits = stream_outputs(seeds, np.arange(len(edges), dtype=np.uint64))
    bits >>= np.uint64(11)
    clock = bits.astype(np.float64)
    clock += 0.5
    clock *= 2.0**-53
    np.log(clock, out=clock)
    np.negative(clock, out=clock)
    clock /= edges[:, 2]
    return clock


def _merge(order: np.ndarray, ends: np.ndarray, n: int, tau: int) -> np.ndarray:
    """Contract each row's edges ``order`` (edge indices into ``ends``) in
    turn, stopping at the first that leaves tau super-vertices or at the
    row's end; returns per row the vertex -> super-vertex map, super-vertices
    numbered by their first vertex.

    Row r owns the vertices r*n .. r*n+n-1 of one ``component_roots`` call
    per pass.  Its first n - tau edges are taken at once; a row left with
    tau + d super-vertices then takes its next d edges.  Each edge removes at
    most one super-vertex, so every prefix shorter than the edges taken
    leaves more than tau, and the row stops at the same edge as a one-edge-
    at-a-time union loop.
    """
    rows, width = order.shape
    ids = np.arange(rows * n)
    pairs = ends[order] + ids[::n, None, None]   # row r's edges on its own vertices
    root = ids
    pos = np.arange(width)
    taken = np.zeros((rows, 1), dtype=np.int64)
    need = np.full((rows, 1), n - tau)
    while True:
        # Roots only join roots: label the roots, then every vertex.
        new = root[pairs[(pos >= taken) & (pos < taken + need)]]
        root = component_roots(rows * n, new[:, 0], new[:, 1])[root]
        taken += need
        is_root = (root == ids).reshape(rows, n)
        nv = np.count_nonzero(is_root, axis=1, keepdims=True)
        need = np.where(taken < width, nv - tau, 0)
        if not need.any():
            # A root is the first vertex of its super-vertex.
            rank = np.cumsum(is_root, axis=1) - 1
            return rank.ravel()[root].reshape(rows, n)


class Borders(list):
    """The candidate s-cuts of one border round.  ``truncated`` says that
    the list may miss s-cuts within the round's bound: the node budget ran
    out, or the candidate cap dropped some."""

    def __init__(self, cuts=(), truncated: bool = False):
        super().__init__(cuts)
        self.truncated = truncated


def enumerate_borders(g: Graph, params: BorderParams,
                      max_value: Optional[int] = None) -> Borders:
    """The s-cuts of g of value at most ``max_value`` (every s-cut without
    it), or with ``params.cheapest`` those of the least such value, sorted
    by (value, canonical labels) and cut to the first ``params.trials``.

    They are listed by ``oracle.list_kcuts`` within ``params.budget`` nodes,
    which prunes on ``params.lam``.  No search runs for s = 1, whose one cut
    has value 0, nor for s > g.n or a bound below ceil(s * lam / 2), which
    no s-cut can meet; those rounds return no cut.
    """
    s, trials = params.s, params.trials
    if s < 1 or trials < 1:
        raise ValueError("need s >= 1 and trials >= 1")
    bound = g.total_weight if max_value is None else max_value
    if s == 1:
        return Borders([KCut(k=1, labels=(0,) * g.n, value=0)] if bound >= 0 else [])
    if s > g.n or kcut_lower_bound(s, params.lam) > bound:
        return Borders()
    cuts, truncated = list_kcuts(g, s, bound, params.lam, params.budget, params.cheapest)
    return Borders(cuts[:trials], truncated or len(cuts) > trials)
