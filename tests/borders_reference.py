"""Border enumeration in the canonicalize-first order.

Every onto trial is lifted, canonicalized and deduplicated with one
``np.unique``; only then is each distinct cut valued, in int64, and
filtered by ``max_value``.  The library scores the raw lifted labels first
and canonicalizes only the trials that pass ``max_value``; a cut's value
does not depend on how its parts are numbered, so the two must return the
same list in the same (value, labels) order.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from kcut.borders import (
    BorderParams,
    _canonicalize_batch,
    _labels_batch,
    contract_random,
)
from kcut.graph import MAX_WEIGHT, Graph, GraphError, KCut


def enumerate_borders(g: Graph, params: BorderParams,
                      max_value: Optional[int] = None) -> list:
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
        offset, nv, cmap = 0, g.n, np.arange(g.n)[None, :]
    else:
        cmap = contract_random(g, tau, seeds)
        offset, nv = len(g.edge_array), int(cmap.max()) + 1
    if s > nv:
        return []
    lab, onto = _labels_batch(seeds, offset, nv, s)
    lifted = np.take_along_axis(lab, cmap, axis=1)[onto]
    canon = np.unique(_canonicalize_batch(lifted, s), axis=0)
    edges = g.edge_array
    values = ((canon[:, edges[:, 0]] != canon[:, edges[:, 1]]) * edges[:, 2]).sum(axis=1)
    if max_value is not None:
        keep = values <= max_value
        canon, values = canon[keep], values[keep]
    cuts = [KCut(k=s, labels=tuple(row), value=val)
            for row, val in zip(canon.tolist(), values.tolist())]
    cuts.sort(key=lambda c: (c.value, c.labels))
    return cuts
