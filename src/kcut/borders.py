"""Randomized contraction: candidate lists of s-cuts of the contracted graph.

Each trial contracts weighted-random edges down to tau vertices and then
labels the survivors uniformly at random.  Per-trial RNG streams are seeded
seed XOR trial-index, so trials are reproducible and independently
schedulable.  The trials differ only in their vertex -> super-vertex map:
the identity when n <= tau, otherwise one ``contract_random`` call per trial.
Every trial is then labelled, lifted, canonicalized and evaluated in one
vectorized numpy path; trials that contracted to the same size share a
batch, because their label draws start at the same stream offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import MAX_WEIGHT, Graph, GraphError, KCut, union_find
from .rng import SplitMix64, stream_outputs


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
    """Trial budget ceil(n^(beta*k) * ln n), capped; always at least 1."""
    if n < 2:
        return 1
    raw = math.ceil(n ** (beta * k) * math.log(n))
    return max(1, min(cap, raw))


def contract_random(g: Graph, tau: int, rng: SplitMix64) -> tuple:
    """Contract weighted-random edges until <= tau vertices (or no edges) remain.

    Returns (contracted graph, original-vertex -> super-vertex map).
    """
    find, union = union_find(g.n)
    edges = {(u, v): w for u, v, w in g.edges}
    nv = g.n
    while nv > tau and edges:
        items = sorted(edges.items())
        total = sum(w for _, w in items)
        r = rng.randrange(total)
        acc = 0
        pick = None
        for (u, v), w in items:
            acc += w
            if r < acc:
                pick = (u, v)
                break
        union(*pick)
        nv -= 1
        merged: dict = {}
        for (a, b), w in edges.items():
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            key = (ra, rb) if ra < rb else (rb, ra)
            merged[key] = merged.get(key, 0) + w
        edges = merged
    roots = sorted({find(v) for v in range(g.n)})
    dense = {r: i for i, r in enumerate(roots)}
    cmap = tuple(dense[find(v)] for v in range(g.n))
    gc = Graph.from_edges(len(roots), ((dense[a], dense[b], w) for (a, b), w in edges.items()))
    return gc, cmap


def random_s_cut(g: Graph, s: int, rng: SplitMix64,
                 max_attempts: Optional[int] = None) -> Optional[KCut]:
    """Uniform independent labels in 0..s-1, rejecting vectors that miss a
    label; None after 100*s^2 failed attempts or when s > n."""
    if s > g.n:
        return None
    if max_attempts is None:
        max_attempts = 100 * s * s
    for _ in range(max_attempts):
        labels = [rng.randrange(s) for _ in range(g.n)]
        if len(set(labels)) == s:
            return KCut.from_labels(g, labels, s)
    return None


def cut_survives(cmap: tuple, labels: tuple) -> bool:
    """True iff no super-vertex mixes two sides of the labeled cut."""
    seen: dict = {}
    for v, sup in enumerate(cmap):
        lab = labels[v]
        if sup in seen and seen[sup] != lab:
            return False
        seen[sup] = lab
    return True


def _labels_batch(seeds: np.ndarray, offset: int, nv: int, s: int) -> tuple:
    """Vectorized random_s_cut, one stream per row, with the label draws
    starting at stream output ``offset``.  Returns (labels, onto): rows that
    never hit an onto labeling are all-(s) sentinel rows with onto False."""
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


def enumerate_borders(g: Graph, params: BorderParams,
                      max_value: Optional[int] = None) -> list:
    """Deduplicated candidate s-cuts from seeded contraction trials, sorted by
    (value, canonical label string).  ``max_value`` filters the output list."""
    s, tau, trials, seed = params.s, params.tau, params.trials, params.seed
    if s < 1 or trials < 1:
        raise ValueError("need s >= 1 and trials >= 1")
    if g.total_weight > MAX_WEIGHT:
        raise GraphError("total edge weight overflows the 64-bit cut values")
    seeds = np.uint64(seed) ^ np.arange(trials, dtype=np.uint64)
    # (trial ids, contracted size, vertex -> super-vertex maps) per batch.
    if g.n <= tau:
        batches = [(np.arange(trials), g.n, np.arange(g.n)[None, :])]
    else:
        by_size: dict = {}
        for t in range(trials):
            gc, cmap = contract_random(g, tau, SplitMix64(seed ^ t))
            ids, maps = by_size.setdefault(gc.n, ([], []))
            ids.append(t)
            maps.append(cmap)
        batches = [(np.array(ids), nv, np.array(maps)) for nv, (ids, maps) in by_size.items()]
    canon = []
    for ids, nv, cmap in batches:
        if s > nv:
            continue
        # contract_random draws once per contraction step, so the labels of
        # a trial contracted to nv vertices start at output g.n - nv.
        lab, onto = _labels_batch(seeds[ids], g.n - nv, nv, s)
        lifted = np.take_along_axis(lab, cmap, axis=1)[onto]
        canon.append(_canonicalize_batch(lifted, s))
    if not canon:
        return []
    canon = np.unique(np.concatenate(canon), axis=0)
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 3)
    values = ((canon[:, edges[:, 0]] != canon[:, edges[:, 1]]) * edges[:, 2]).sum(axis=1)
    if max_value is not None:
        keep = values <= max_value
        canon, values = canon[keep], values[keep]
    cuts = [KCut(k=s, labels=tuple(row), value=val)
            for row, val in zip(canon.tolist(), values.tolist())]
    cuts.sort(key=lambda c: (c.value, c.labels))
    return cuts


def _wilson(successes: int, trials: int, z: float) -> tuple:
    p = successes / trials
    denom = 1 + z * z / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


def wilson_lower(successes: int, trials: int, z: float = 1.959963984540054) -> float:
    """Lower endpoint of the Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0
    return max(0.0, _wilson(successes, trials, z)[0])


def wilson_upper(successes: int, trials: int, z: float = 1.959963984540054) -> float:
    """Upper endpoint of the Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 1.0
    return min(1.0, _wilson(successes, trials, z)[1])
