"""Reference helpers the tests check the library against.

Nothing in the library calls these: per-subset conductance, the scalar
union-find of the one-edge-at-a-time references (Karger contraction, the
forest passes, connected components), the scalar random s-cut the batched
border labelling must reproduce, the cut-survival test of a contraction map,
Wilson score bounds, the classical integer matmul, and the border
bookkeeping of a k-cut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional

import numpy as np

from kcut.graph import Graph, GraphError, KCut, VertexPartition, canonical_labels
from kcut.rng import SplitMix64


def conductance(g: Graph, s: Iterable[int]):
    """Boundary weight over min side volume; math.inf if both sides have
    zero volume (then the boundary is necessarily empty)."""
    sset = set(s)
    if not sset or len(sset) >= g.n:
        raise GraphError("conductance needs a proper nonempty vertex subset")
    boundary = 0
    vol_s = 0
    deg = g.degrees
    for v in sset:
        vol_s += deg[v]
    for u, v, w in g.edges:
        if (u in sset) != (v in sset):
            boundary += w
    vol_rest = 2 * g.total_weight - vol_s
    denom = min(vol_s, vol_rest)
    if denom == 0:
        return math.inf
    return Fraction(boundary, denom)


def union_find(n: int) -> tuple:
    """Disjoint sets over 0..n-1 as a (find, union, parent) triple.

    ``find`` uses path halving.  ``union(a, b)`` hangs the higher of the two
    roots under the lower one and returns whether they were in different
    sets, so every parent pointer goes to a lower vertex and a root is the
    lowest vertex of its set.  ``parent`` is the live parent list the
    closures share.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb
        return True

    return find, union, parent


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


def matmul_cubic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product, classical algorithm."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


@dataclass(frozen=True)
class Border:
    """A (k-|I|)-cut plus the bookkeeping of which singletons merged where."""

    base_cut: KCut
    merged: tuple        # ((island vertex, host part id), ...) sorted
    islands: tuple       # sorted island vertices

    def reconstruct_kcut(self, g: Graph) -> KCut:
        """Re-single every merged island; recovers the original k-cut."""
        labels = list(self.base_cut.labels)
        next_label = self.base_cut.k
        for v, _host in self.merged:
            labels[v] = next_label
            next_label += 1
        return KCut.from_labels(g, labels, next_label)


def borders_of_cut(g: Graph, cut: KCut):
    """Enumerate every border (I, sigma) of a k-cut.

    Yields Border objects; I ranges over subsets of the singleton parts and
    sigma over maps from I to the non-singleton parts.
    """
    parts = cut.parts()
    singleton_parts = [i for i, p in enumerate(parts) if len(p) == 1]
    host_parts = [i for i, p in enumerate(parts) if len(p) >= 2]
    for size in range(len(singleton_parts) + 1):
        for chosen in combinations(singleton_parts, size):
            if size > 0 and not host_parts:
                continue
            for hosts in product(host_parts, repeat=size):
                labels = list(cut.labels)
                for part, host in zip(chosen, hosts):
                    v = parts[part][0]
                    labels[v] = host
                merged = tuple(sorted((parts[p][0], h) for p, h in zip(chosen, hosts)))
                islands = tuple(sorted(parts[p][0] for p in chosen))
                base = KCut.from_labels(g, canonical_labels(labels), cut.k - size)
                yield Border(base_cut=base, merged=merged, islands=islands)


def border_agrees(g: Graph, border: Border, partition: VertexPartition) -> bool:
    """True iff every crossing edge of the border runs between distinct blocks."""
    index = partition.to_block_index(g.n)
    labels = border.base_cut.labels
    for u, v, _ in g.edges:
        if labels[u] != labels[v] and index[u] == index[v]:
            return False
    return True
