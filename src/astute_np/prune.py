"""Exact adversarial pruning: the largest r-separated subset of a sample.

Opposite-label points closer than or exactly at distance 2r conflict; the
conflict graph is bipartite (conflicts only join opposite labels), so the
largest conflict-free subset is a maximum independent set computable exactly
as n minus a maximum matching, with the set itself recovered by the
alternating-reachability construction of Koenig's theorem.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LINF, pairwise_distances


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


def build_conflict_graph(ds: Dataset, r: float, metric: str = LINF) -> ConflictGraph:
    """Edges join opposite-label pairs at distance <= 2r (closed condition,
    no epsilon: equality is a conflict)."""
    if r <= 0:
        raise ValueError("r must be positive")
    left = np.flatnonzero(ds.labels == 1)
    right = np.flatnonzero(ds.labels == -1)
    adj: list = [[] for _ in range(len(left))]
    if len(left) and len(right):
        lp = ds.points[left]
        rp = ds.points[right]
        for start in range(0, len(left), 256):
            block = pairwise_distances(metric, lp[start:start + 256], rp) <= 2.0 * r
            adj[start:start + len(block)] = [np.flatnonzero(row).tolist() for row in block]
    return ConflictGraph(left, right, adj, sum(map(len, adj)))


def max_matching(g: ConflictGraph) -> tuple[list, list]:
    """Hopcroft-Karp maximum matching.

    Returns (pair_left, pair_right) position arrays with -1 for unmatched.
    Free vertices are processed in ascending position order and adjacency
    lists are ascending, so the result is deterministic.
    """
    nl, nr = len(g.left), len(g.right)
    pair_l = [-1] * nl
    pair_r = [-1] * nr
    dist = [0] * nl
    INF = float("inf")

    def bfs() -> bool:
        q = deque()
        for u in range(nl):
            if pair_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        reachable_free = False
        while q:
            u = q.popleft()
            for v in g.adj[u]:
                w = pair_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable_free

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

    while bfs():
        for u in range(nl):
            if pair_l[u] == -1:
                dfs(u)
    return pair_l, pair_r


def adv_prune(ds: Dataset, r: float, metric: str = LINF) -> PrunedSet:
    """Largest r-separated subset, exactly.

    Koenig construction: run alternating BFS from the unmatched left
    positions (non-matching edges leftward, matching edges rightward); the
    maximum independent set is the reachable left side plus the unreachable
    right side.  Isolated vertices are unmatched and unreachable-from-nothing
    as appropriate, so they are always kept.
    """
    g = build_conflict_graph(ds, r, metric)
    pair_l, pair_r = max_matching(g)
    matched = sum(1 for v in pair_l if v != -1)

    nl, nr = len(g.left), len(g.right)
    seen_l = [False] * nl
    seen_r = [False] * nr
    q = deque()
    for u in range(nl):
        if pair_l[u] == -1:
            seen_l[u] = True
            q.append(u)
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if not seen_r[v]:
                seen_r[v] = True
                w = pair_r[v]
                if w != -1 and not seen_l[w]:
                    seen_l[w] = True
                    q.append(w)

    kept = np.concatenate([
        g.left[np.array(seen_l, dtype=bool)] if nl else np.empty(0, dtype=int),
        g.right[~np.array(seen_r, dtype=bool)] if nr else np.empty(0, dtype=int),
    ]).astype(int)
    kept.sort()
    assert len(kept) == len(ds) - matched
    return PrunedSet(kept=kept, matching_size=matched, n=len(ds))
