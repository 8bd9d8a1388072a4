"""Randomized contraction: candidate lists of s-cuts of the contracted graph.

Each trial contracts weighted-random edges down to tau vertices and then
labels the survivors uniformly at random.  Per-trial RNG streams are seeded
seed XOR trial-index, so trials are reproducible and independently
schedulable.  The trials differ only in their vertex -> super-vertex map:
the identity when n <= tau, otherwise a row of one ``contract_random`` call
that contracts every trial of the round, each spending the first m outputs
of its stream on edge clocks.  That call runs a few numpy passes per block
of trials: each trial sorts only its clocks under one cut-off, and one
``component_roots`` call per pass merges the next edges of every trial in
the block.  Either way every trial has the same number of super-vertices
and its label draws start at the same stream output (0, or m), so all
trials are labelled and lifted as one vectorized numpy batch.
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

from .graph import MAX_WEIGHT, Graph, GraphError, KCut, component_roots
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
