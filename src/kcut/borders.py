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

``contract_random``, Karger contraction of seeded random trials, is kept
for its own tests and for the benchmark's tracing; the solver does not
call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import MAX_WEIGHT, Graph, GraphError, KCut, component_roots
from .oracle import kcut_lower_bound, list_kcuts
from .rng import stream_outputs


@dataclass(frozen=True)
class BorderParams:
    s: int            # cut arity
    trials: int       # the most candidates a round keeps
    lam: int = 0      # lower bound on the boundary of every part of an s-cut
    budget: int = -1  # search nodes a round may expand; negative for no limit
    cheapest: bool = False  # list only the s-cuts of the least value


def default_trials(n: int, beta: float, k: int, cap: int) -> int:
    """A round's candidate cap: the paper's trial count ceil(n^(beta*k) *
    ln n), each trial giving at most one candidate, capped at ``cap``;
    always at least 1.  A count past the float range is taken as above cap."""
    if n < 2:
        return 1
    try:
        raw = math.ceil(n ** (beta * k) * math.log(n))
    except OverflowError:
        return cap
    return max(1, min(cap, raw))


# Clocks held at once: a batch is contracted in blocks of trials, so its
# clock memory does not grow with the number of trials.  Solving the
# planted_contract instances in the benchmark loop, whose 150-trial rounds
# have 589 and 647 edges, 2^15-clock blocks were faster than 2^14 and about
# as fast as 2^16 and one block.
_CLOCK_BLOCK = 1 << 15


def contract_random(g: Graph, tau: int, seeds: np.ndarray) -> np.ndarray:
    """Contract weighted-random edges until <= tau vertices (or no edges)
    remain, one trial per seed; returns the (len(seeds), n) array of
    original-vertex -> super-vertex maps, super-vertices numbered by their
    first vertex.

    Trial t gives every edge the exponential clock -ln(U)/w from the first m
    outputs of stream ``seeds[t]`` and merges edges in stable clock order,
    stopping at the first edge that leaves tau super-vertices: the
    random-permutation view of repeatedly contracting a weight-proportional
    edge (Karger).  Only the prefix of that order a trial can consume is
    sorted (see ``_clock_prefix``), and the trials of a block are merged
    together (see ``_merge``); a trial that runs out of its prefix continues
    with its full order.  Every map is the identity when n <= tau or g has
    no edges.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n, m = g.n, len(g.edge_array)
    if n <= tau or m == 0 or len(seeds) == 0:
        return np.tile(np.arange(n), (len(seeds), 1))
    edges = g.edge_array
    # n - tau merges are needed; the slack covers edges inside a super-vertex.
    width = min(m, 2 * (n - tau) + 16)
    step = max(1, _CLOCK_BLOCK // m)
    out = np.empty((len(seeds), n), dtype=np.int64)
    for i in range(0, len(seeds), step):
        out[i:i + step] = _contract_block(seeds[i:i + step], edges, n, tau, width)
    return out


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


def _clock_prefix(clock: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` entries of every row's stable argsort.

    A row's candidates are its clocks <= c, for one cut-off c: the
    2*width-th smallest clock of the first row, so that a row of the same
    law has about 2*width of them.  Every clock above c comes after every
    candidate, so the candidates sorted by (clock, edge index) begin the
    row's stable order whatever c is.  They are sorted without the edge
    index, which decides only between equal clocks: a row with two equal
    values among its first width + 1 sorted ones, or with fewer than
    ``width`` candidates, takes its full stable argsort instead.
    """
    rows, m = clock.shape
    if 2 * width >= m:
        return np.argsort(clock, axis=1, kind="stable")[:, :width]
    cut = np.partition(clock[0], 2 * width)[2 * width]
    flat = np.flatnonzero(clock <= cut)
    row, col = np.divmod(flat, m)
    count = np.bincount(row, minlength=rows)
    # The candidates, left-aligned in rows padded with inf.
    wide = max(int(count.max()), width)
    slot = np.arange(len(flat)) + (wide * np.arange(rows) - np.cumsum(count) + count)[row]
    vals = np.full((rows, wide), np.inf)
    vals.ravel()[slot] = clock.ravel()[flat]
    idx = np.zeros((rows, wide), dtype=np.int64)
    idx.ravel()[slot] = col
    order = np.argsort(vals, axis=1)[:, :width + 1]
    head = np.take_along_axis(vals, order, axis=1)
    prefix = np.take_along_axis(idx, order[:, :width], axis=1)
    redo = (count < width) | (head[:, 1:] == head[:, :-1]).any(axis=1)
    if redo.any():
        prefix[redo] = np.argsort(clock[redo], axis=1, kind="stable")[:, :width]
    return prefix


def _merge(order: np.ndarray, ends: np.ndarray, n: int, tau: int) -> tuple:
    """Contract each row's edges ``order`` (edge indices into ``ends``) in
    turn, stopping at the first that leaves tau super-vertices.  Returns
    (maps, short): per row the vertex -> super-vertex map, super-vertices
    numbered by their first vertex, and the rows still above tau after their
    whole order.

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
            return rank.ravel()[root].reshape(rows, n), nv[:, 0] > tau


def _contract_block(seeds: np.ndarray, edges: np.ndarray,
                    n: int, tau: int, width: int) -> np.ndarray:
    """contract_random for one block of seeds."""
    ends = edges[:, :2]
    maps, short = _merge(_clock_prefix(_clocks(seeds, edges), width), ends, n, tau)
    if width < len(edges) and short.any():
        out = np.flatnonzero(short)
        full = np.stack([np.argsort(_clocks(seeds[t:t + 1], edges)[0], kind="stable")
                         for t in out])
        maps[out] = _merge(full, ends, n, tau)[0]
    return maps


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
    if g.total_weight > MAX_WEIGHT:
        raise GraphError("total edge weight overflows the 64-bit cut values")
    bound = g.total_weight if max_value is None else max_value
    if s == 1:
        return Borders([KCut(k=1, labels=(0,) * g.n, value=0)] if bound >= 0 else [])
    if s > g.n or kcut_lower_bound(s, params.lam) > bound:
        return Borders()
    cuts, truncated = list_kcuts(g, s, bound, params.lam, params.budget, params.cheapest)
    return Borders(cuts[:trials], truncated or len(cuts) > trials)
