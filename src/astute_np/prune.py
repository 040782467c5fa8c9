"""Exact adversarial pruning: the largest r-separated subset of a sample.

Opposite-label points closer than or exactly at l-inf distance 2r (the
metric of the perturbations) conflict; the conflict graph is bipartite
(conflicts only join opposite labels), so the largest conflict-free subset
is a maximum independent set computable exactly as n minus a maximum
matching, with the set itself recovered by the alternating-reachability
construction of Koenig's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .data import Dataset, require_positive

#: +1 points per sweep block in ``build_conflict_graph``.
_BLOCK = 256


@dataclass
class ConflictGraph:
    """Bipartite conflict structure between the two classes.

    ``left`` / ``right`` hold original training indices of the +1 and -1
    points.  ``adj[i]`` lists right-side positions in conflict with left
    position i, ascending.
    """

    left: np.ndarray
    right: np.ndarray
    adj: list
    edge_count: int

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``adj`` as compressed rows ``(indptr, indices)``: the neighbours of
        left position i are ``indices[indptr[i]:indptr[i + 1]]``."""
        indptr = np.zeros(len(self.adj) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, self.adj), dtype=np.intp, count=len(self.adj)),
                  out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self.adj), dtype=np.intp,
                              count=int(indptr[-1]))
        return indptr, indices


@dataclass
class PrunedSet:
    kept: np.ndarray        # sorted original indices
    matching_size: int
    n: int

    @property
    def kept_fraction(self) -> float:
        """Upper bound on any classifier's astuteness at radius r on the
        sample itself: each conflicting pair forces an error or a
        non-robust point."""
        return len(self.kept) / self.n if self.n else 1.0


def build_conflict_graph(ds: Dataset, r: float) -> ConflictGraph:
    """Edges join opposite-label pairs at l-inf distance <= 2r (closed
    condition, no epsilon: equality is a conflict).

    The +1 points are swept in blocks of ``_BLOCK`` by their first
    coordinate, and each block is tested only against the -1 points whose
    first coordinate lies within 2r of the block's range.  The edges are
    exactly those of the dense rule ``pairwise_distances(LINF, lp, rp) <= 2r``.
    """
    require_positive("r", r)
    two_r = 2.0 * r
    left = np.flatnonzero(ds.labels == 1)
    right = np.flatnonzero(ds.labels == -1)
    adj: list = [[] for _ in range(len(left))]
    if len(left) and len(right):
        lp = ds.points[left]
        rp = ds.points[right]
        r0 = rp[:, 0]
        order = np.argsort(lp[:, 0], kind="stable")
        for start in range(0, len(left), _BLOCK):
            blk = order[start:start + _BLOCK]
            x0 = lp[blk, 0]
            # The window holds every conflict of the block: a conflict needs
            # fl(|l0 - r0|) <= 2r; the window tests the same float
            # subtraction from the block's extreme first coordinate, and
            # rounding is monotone, so the bound carries over with no pad.
            win = np.flatnonzero((x0.min() - r0 <= two_r) & (r0 - x0.max() <= two_r))
            pts, cols = lp[blk], rp[win]
            close = np.abs(pts[:, :1] - cols[:, 0]) <= two_r
            for j in range(1, ds.dim):
                close &= np.abs(pts[:, j:j + 1] - cols[:, j]) <= two_r
            # np.nonzero walks rows in order and win is ascending, so each
            # row's slice of flat is its ascending adjacency list
            flat = win[np.nonzero(close)[1]].tolist()
            ends = np.cumsum(np.count_nonzero(close, axis=1)).tolist()
            for u, a, b in zip(blk.tolist(), [0] + ends, ends):
                adj[u] = flat[a:b]
    return ConflictGraph(left, right, adj, sum(map(len, adj)))


def _alternating_layers(g: ConflictGraph, pair_l, pair_r) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first layers of the alternating search from the free left
    vertices: non-matching edges to the right, matching edges back.

    Returns ``(dist, seen_r)``: each left vertex's layer (``inf`` when
    unreached) and which right vertices some reached left vertex touches.
    A whole layer is expanded at once through ``g.csr``; layer numbers do
    not depend on the order vertices are visited in.
    """
    indptr, indices = g.csr
    pair_r = np.asarray(pair_r, dtype=np.intp)
    dist = np.full(len(g.left), np.inf)
    seen_r = np.zeros(len(g.right), dtype=bool)
    frontier = np.flatnonzero(np.asarray(pair_l, dtype=np.intp) == -1)
    dist[frontier] = 0
    layer = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        edge = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        edge += np.arange(len(edge))
        v = indices[edge]
        seen_r[v] = True
        w = pair_r[v]
        w = w[w >= 0]
        w = w[dist[w] == np.inf]
        layer += 1
        dist[w] = layer
        frontier = np.flatnonzero(dist == layer)
    return dist, seen_r


def max_matching(g: ConflictGraph) -> tuple[list, list]:
    """Hopcroft-Karp maximum matching.

    Returns (pair_left, pair_right) position arrays with -1 for unmatched.
    Free vertices are processed in ascending position order and adjacency
    lists are ascending, so the result is deterministic.
    """
    return _hopcroft_karp(g)[:2]


def _hopcroft_karp(g: ConflictGraph) -> tuple[list, list, np.ndarray, np.ndarray]:
    """``max_matching``'s pairs, then the ``(dist, seen_r)`` of the final
    alternating search, the one that found no augmenting path."""
    nl, nr = len(g.left), len(g.right)
    pair_l = [-1] * nl
    pair_r = [-1] * nr
    INF = float("inf")

    def dfs(root: int) -> None:
        # depth-first search kept on an explicit stack of (vertex, adjacency
        # iterator), so an augmenting path may outgrow the recursion limit;
        # via[i] is the right vertex leading from stack[i] to stack[i + 1]
        stack = [(root, iter(g.adj[root]))]
        via: list = []
        while stack:
            u, edges = stack[-1]
            for v in edges:
                w = pair_r[v]
                if w == -1:
                    via.append(v)
                    for (a, _), b in zip(stack, via):
                        pair_l[a] = b
                        pair_r[b] = a
                    return
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    stack.append((w, iter(g.adj[w])))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if via:
                    via.pop()

    while True:
        layers, seen_r = _alternating_layers(g, pair_l, pair_r)
        # a phase augments only while some reached edge ends at a free vertex
        if not np.any(np.array(pair_r)[seen_r] == -1):
            return pair_l, pair_r, layers, seen_r
        dist = layers.tolist()
        for u in range(nl):
            if pair_l[u] == -1:
                dfs(u)


def adv_prune(ds: Dataset, r: float) -> PrunedSet:
    """Largest r-separated subset in l-inf, exactly.

    Koenig construction: run alternating BFS from the unmatched left
    positions (non-matching edges leftward, matching edges rightward); the
    maximum independent set is the reachable left side plus the unreachable
    right side.  Isolated vertices are unmatched and unreachable-from-nothing
    as appropriate, so they are always kept.  The matching's last, failed
    phase search is that BFS, so its layers are reused.
    """
    g = build_conflict_graph(ds, r)
    pair_l, _, dist, seen_r = _hopcroft_karp(g)
    matched = sum(1 for v in pair_l if v != -1)
    kept = np.concatenate([g.left[dist < np.inf], g.right[~seen_r]]).astype(int)
    kept.sort()
    assert len(kept) == len(ds) - matched
    return PrunedSet(kept=kept, matching_size=matched, n=len(ds))
