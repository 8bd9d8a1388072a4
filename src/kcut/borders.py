"""Randomized contraction: candidate lists of s-cuts of the contracted graph.

Each trial contracts weighted-random edges down to tau vertices and then
labels the survivors uniformly at random.  Per-trial RNG streams are seeded
seed XOR trial-index, so trials are reproducible and independently
schedulable.  The trials differ only in their vertex -> super-vertex map:
the identity when n <= tau, otherwise a row of one ``contract_random`` call
that contracts every trial of the round, each spending the first m outputs
of its stream on edge clocks.  Either way every trial has the same number
of super-vertices and its label draws start at the same stream output (0,
or m), so all trials are labelled and lifted as one vectorized numpy batch.
A cut's value does not depend on how its parts are numbered, so trials
are scored on their raw lifted labels and filtered by ``max_value`` before
any is canonicalized.  With ``max_value`` given, every trial is first
scored on a fixed head block of edges, the first ``_HEAD_EDGES`` rows of
``edge_array``.  Edge weights are at least 1, so that partial sum is a
lower bound on the trial's value, and a trial already past ``max_value``
on the head cannot pass: it is dropped without being scored over every
edge.  The filter is exact, since a dropped trial would have been dropped
after the full score too.  Only the trials left are scored in full and
filtered again; only those that pass are canonicalized and deduplicated,
and a round in which none is left at either step does neither.

For s = 1 every trial yields the same cut, all vertices in one part with
value 0, so that cut is built directly and no trial is run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import MAX_WEIGHT, Graph, GraphError, KCut, compress_roots, union_find
from .rng import stream_outputs


@dataclass(frozen=True)
class BorderParams:
    s: int           # cut arity
    beta: float      # size ratio parameter <= 1
    tau: int         # contraction stop threshold
    trials: int
    seed: int


def tau_for(beta: float, k: int) -> int:
    return math.ceil(8 * beta * k * k + 2 * k)


def default_trials(n: int, beta: float, k: int, cap: int) -> int:
    """Trial budget ceil(n^(beta*k) * ln n), capped; always at least 1.  A
    count past the float range is taken as above cap."""
    if n < 2:
        return 1
    try:
        raw = math.ceil(n ** (beta * k) * math.log(n))
    except OverflowError:
        return cap
    return max(1, min(cap, raw))


# Clocks held at once: a batch is contracted in blocks of trials, so its
# clock memory does not grow with the number of trials.  On a 150-trial,
# 647-edge round, 2^15-clock blocks were also faster than one block.
_CLOCK_BLOCK = 1 << 15


def contract_random(g: Graph, tau: int, seeds: np.ndarray) -> np.ndarray:
    """Contract weighted-random edges until <= tau vertices (or no edges)
    remain, one trial per seed; returns the (len(seeds), n) array of
    original-vertex -> super-vertex maps, super-vertices numbered by their
    first vertex.

    Trial t gives every edge the exponential clock -ln(U)/w from the first m
    outputs of stream ``seeds[t]`` and merges edges in stable clock order:
    the random-permutation view of repeatedly contracting a weight-
    proportional edge (Karger).  Only the prefix of that order that the
    union loop can consume is sorted (see ``_clock_prefix``); a trial that
    runs out of it continues with its full order.  Every map is the identity
    when n <= tau or g has no edges.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n, m = g.n, len(g.edge_array)
    if n <= tau or m == 0 or len(seeds) == 0:
        return np.tile(np.arange(n), (len(seeds), 1))
    edges = g.edge_array
    ends = edges[:, :2].tolist()
    # n - tau unions are needed; the slack covers edges inside a super-vertex.
    width = min(m, 2 * (n - tau) + 16)
    step = max(1, _CLOCK_BLOCK // m)
    return np.concatenate([
        _contract_block(seeds[i:i + step], edges, ends, n, tau, width)
        for i in range(0, len(seeds), step)])


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

    ``argpartition`` picks the ``width`` smallest clocks of each row, which
    are sorted by (clock, edge index).  That is the stable order unless a
    tie straddles the cut-off, when a clock outside the prefix equals the
    largest one inside; such rows take their full stable argsort.
    """
    if width >= clock.shape[1]:
        return np.argsort(clock, axis=1, kind="stable")
    prefix = np.argpartition(clock, width - 1, axis=1)[:, :width]
    prefix.sort(axis=1)
    vals = np.take_along_axis(clock, prefix, axis=1)
    prefix = np.take_along_axis(prefix, np.argsort(vals, axis=1, kind="stable"), axis=1)
    cut = vals.max(axis=1, keepdims=True)
    for r in np.flatnonzero(np.count_nonzero(clock <= cut, axis=1) > width):
        prefix[r] = np.argsort(clock[r], kind="stable")[:width]
    return prefix


def _contract_block(seeds: np.ndarray, edges: np.ndarray, ends: list,
                    n: int, tau: int, width: int) -> np.ndarray:
    """contract_random for one block of seeds: trial t owns the vertices
    t*n .. t*n+n-1 of one union-find."""
    prefix = _clock_prefix(_clocks(seeds, edges), width).tolist()
    _, union, parent = union_find(len(seeds) * n)

    def merge(base: int, order, nv: int) -> int:
        for e in order:
            a, b = ends[e]
            if union(base + a, base + b):
                nv -= 1
                if nv <= tau:
                    break
        return nv

    for t, order in enumerate(prefix):
        nv = merge(t * n, order, n)
        if nv > tau and width < len(ends):
            full = np.argsort(_clocks(seeds[t:t + 1], edges)[0], kind="stable")
            merge(t * n, full[width:].tolist(), nv)
    # A root is the first vertex of its super-vertex: number each trial's
    # super-vertices in the order of their roots.
    roots = compress_roots(np.array(parent))
    rank = np.cumsum((roots == np.arange(len(roots))).reshape(-1, n), axis=1) - 1
    return rank.ravel()[roots].reshape(-1, n)


def _labels_batch(seeds: np.ndarray, offset: int, nv: int, s: int) -> tuple:
    """Uniform labels in 0..s-1 of nv vertices, one stream per row, redrawn
    until they use every label (at most 100*s^2 attempts), with the label
    draws starting at stream output ``offset``.  Returns (labels, onto): rows
    that never hit an onto labeling are all-(s) sentinel rows with onto
    False."""
    rows = np.full((len(seeds), nv), s, dtype=np.int64)
    done = np.zeros(len(seeds), dtype=bool)
    max_attempts = 100 * s * s
    for attempt in range(max_attempts):
        pending = np.flatnonzero(~done)
        if len(pending) == 0:
            break
        start = offset + attempt * nv
        steps = np.arange(start, start + nv, dtype=np.uint64)
        lab = (stream_outputs(seeds[pending], steps) % np.uint64(s)).astype(np.int64)
        onto = np.ones(len(pending), dtype=bool)
        for l in range(s):
            onto &= (lab == l).any(axis=1)
        rows[pending[onto]] = lab[onto]
        done[pending[onto]] = True
    return rows, done


def _canonicalize_batch(lab: np.ndarray, s: int) -> np.ndarray:
    """First-occurrence relabeling, vectorized per row."""
    u = lab.shape[0]
    first = np.empty((u, s), dtype=np.int64)
    for l in range(s):
        first[:, l] = np.argmax(lab == l, axis=1)
    order = np.argsort(first, axis=1, kind="stable")
    inv = np.empty_like(order)
    rows = np.arange(u)[:, None]
    inv[rows, order] = np.arange(s)[None, :]
    return np.take_along_axis(inv, lab, axis=1)


def _lift_and_score(lab: np.ndarray, cmap: Optional[np.ndarray], s: int,
                    edges: np.ndarray) -> tuple:
    """Each row of super-vertex labels ``lab`` (values 0..s) lifted through
    its row of ``cmap`` (one row shared by all when cmap has one; not lifted
    when cmap is None), in the narrowest signed integer dtype that holds s,
    and its ``_score`` on ``edges``."""
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if s <= np.iinfo(t).max)
    lifted = lab.astype(dtype)
    if cmap is not None:
        lifted = np.take_along_axis(lifted, cmap, axis=1)
    return lifted, _score(lifted, edges)


def _score(lifted: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The weight of the edges whose ends each row of ``lifted`` labels
    differently.  The values are exact int64 sums while the total edge
    weight is at most MAX_WEIGHT."""
    # Gathering whole rows of the transposed labels is faster than gathering
    # single entries of every row.
    by_vertex = np.ascontiguousarray(lifted.T)
    return edges[:, 2] @ (by_vertex[edges[:, 0]] != by_vertex[edges[:, 1]])


# Edges every trial is scored on before any is scored in full.  On the
# uncontracted 150-trial rounds of planted graphs (62-83 vertices, 531-693
# edges, max_value 1-3) 16 edges already dropped every trial; lifting and
# scoring a round on 64 took about 0.03 ms against 0.15 ms on every edge,
# on 16 about 0.02 ms and on 256 about 0.07 ms.  64 keeps a margin for
# graphs whose first edges are cut less often.
_HEAD_EDGES = 64


def enumerate_borders(g: Graph, params: BorderParams,
                      max_value: Optional[int] = None) -> list:
    """Deduplicated candidate s-cuts from seeded contraction trials, sorted by
    (value, canonical label string).  ``max_value`` filters the output list."""
    s, tau, trials, seed = params.s, params.tau, params.trials, params.seed
    if s < 1 or trials < 1:
        raise ValueError("need s >= 1 and trials >= 1")
    if g.total_weight > MAX_WEIGHT:
        raise GraphError("total edge weight overflows the 64-bit cut values")
    if s > g.n:
        return []
    if s == 1:
        cuts = [KCut(k=1, labels=(0,) * g.n, value=0)]
        return [c for c in cuts if max_value is None or c.value <= max_value]
    seeds = np.uint64(seed) ^ np.arange(trials, dtype=np.uint64)
    if g.n <= tau:
        offset, nv, cmap = 0, g.n, None
    else:
        # Every trial contracts to max(tau, #components) super-vertices after
        # one clock draw per edge.
        cmap = contract_random(g, tau, seeds)
        offset, nv = len(g.edge_array), int(cmap.max()) + 1
    if s > nv:
        return []
    lab, keep = _labels_batch(seeds, offset, nv, s)
    if max_value is None:
        lifted, values = _lift_and_score(lab, cmap, s, g.edge_array)
    else:
        lifted, head = _lift_and_score(lab, cmap, s, g.edge_array[:_HEAD_EDGES])
        keep &= head <= max_value
        if not keep.any():
            return []
        lifted = lifted[keep]
        values = _score(lifted, g.edge_array)
        keep = values <= max_value
    if not keep.any():
        return []
    canon, first = np.unique(_canonicalize_batch(lifted[keep], s), axis=0, return_index=True)
    cuts = [KCut(k=s, labels=tuple(row), value=val)
            for row, val in zip(canon.tolist(), values[keep][first].tolist())]
    cuts.sort(key=lambda c: (c.value, c.labels))
    return cuts
