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

import numpy as np

from .data import Dataset, require_positive

#: +1 points per sweep block in ``build_conflict_graph``.
_BLOCK = 256


@dataclass
class ConflictGraph:
    """Bipartite conflict structure between the two classes, as compressed
    rows.

    ``left`` / ``right`` hold original training indices of the +1 and -1
    points.  The right-side positions in conflict with left position i are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending; ``indices`` is int32,
    four bytes per edge.
    """

    left: np.ndarray
    right: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @cached_property
    def adj(self) -> list:
        """The rows as Python lists, built on first read; the library itself
        never reads them."""
        ends = self.indptr.tolist()
        return [self.indices[a:b].tolist() for a, b in zip(ends[:-1], ends[1:])]


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
    counts = np.zeros(len(left), dtype=np.intp)
    indptr = np.zeros(len(left) + 1, dtype=np.intp)
    indices = np.zeros(0, dtype=np.int32)
    if len(left) and len(right):
        lp = ds.points[left]
        rp = ds.points[right]
        r0 = rp[:, 0]
        order = np.argsort(lp[:, 0], kind="stable")
        runs = []
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
            # row's run is its ascending neighbour list
            runs.append(win.astype(np.int32)[np.nonzero(close)[1]])
            counts[blk] = np.count_nonzero(close, axis=1)
        np.cumsum(counts, out=indptr[1:])
        # the runs follow the sweep order; seg[u] is where u's run starts,
        # so one gather moves every run to its row's slot
        seg = np.empty_like(counts)
        seg[order] = np.cumsum(counts[order]) - counts[order]
        gather = np.repeat(seg - indptr[:-1], counts)
        gather += np.arange(len(gather))
        indices = np.concatenate(runs)[gather]
    return ConflictGraph(left, right, indptr, indices)


def _row_edges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edge ids (positions in ``indices``) of ``rows``, row after row,
    and each row's edge count.  Edge ids are int32 while they fit, as the
    graph's indices are."""
    eid = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.intp
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    edge = np.repeat((starts - (np.cumsum(counts) - counts)).astype(eid), counts)
    edge += np.arange(len(edge), dtype=eid)
    return edge, counts


def _alternating_layers(g: ConflictGraph, pair_l, pair_r) -> tuple[np.ndarray, list]:
    """Breadth-first layers of the alternating search from the free left
    vertices: non-matching edges to the right, matching edges back.

    Returns ``(dist, admissible)``: each left vertex's layer (``inf`` when
    unreached), and per layer the edges an augmenting path can follow out
    of it.  An edge is admissible when its right vertex is free, or when
    that vertex's partner is placed in the next layer; ``admissible[L]``
    holds such edges out of layer L as ``(edge ids, sources, partners)``.
    A free right vertex's partner is the sentinel ``len(g.left)``, a left
    vertex that is never placed.  A whole layer is expanded at once; layer
    numbers do not depend on the order vertices are visited in.
    """
    indptr, indices = g.indptr, g.indices
    nl = len(g.left)
    partner = np.asarray(pair_r, dtype=np.int32)
    partner[partner < 0] = nl
    unplaced = np.ones(nl + 1, dtype=bool)
    dist = np.full(nl + 1, np.inf)
    frontier = np.flatnonzero(np.asarray(pair_l, dtype=np.intp) == -1)
    dist[frontier] = 0
    unplaced[frontier] = False
    admissible = []
    layer = 0
    while frontier.size:
        edge, counts = _row_edges(indptr, frontier)
        # np.take gathers by int32 ids without first copying them to intp
        w = np.take(partner, np.take(indices, edge))
        ok = np.take(unplaced, w)
        w = w[ok]
        layer += 1
        dist[w] = layer
        unplaced[w] = False
        unplaced[nl] = True     # the sentinel is placed with the rest; undo it
        admissible.append((edge[ok], np.repeat(frontier.astype(np.int32), counts)[ok], w))
        frontier = np.flatnonzero(dist[:nl] == layer)
    return dist[:nl], admissible


def _live_edges(g: ConflictGraph, dist: np.ndarray, admissible: list) -> tuple[list, list, np.ndarray]:
    """One phase's DFS graph: ``(dist, ptr, flat)``.

    A vertex is alive when an admissible edge takes it to a free vertex or
    to an alive partner; the layers are walked top-down, so each partner is
    decided before its source.  Dead vertices get ``dist = inf``.  ``flat``
    holds the admissible edges out of alive vertices into free vertices or
    alive partners, in CSR order; left vertex u's are
    ``flat[ptr[u]:ptr[u + 1]]``.

    Why the DFS then augments along exactly the same paths:

    * Within a phase ``dist`` only ever becomes ``inf``, and ``pair_r[v]``
      changes only for a vertex v on an augmenting path.
    * If v was a free end, its edges were kept anyway.
    * Suppose v was an interior vertex, followed from a on layer L with its
      old partner on layer L + 1; its new partner is a.  An edge u' -> v
      then passes the DFS check only if u' is on layer L - 1, but then the
      BFS would have placed v's old partner on layer <= L.
    * So an edge that fails the check at the start of a phase never passes
      it later in that phase, and by induction down the layers a vertex
      that is dead at the start of a phase stays dead.  The full-list DFS
      did nothing to such vertices except scan them and set ``dist = inf``.
    """
    nl = len(g.left)
    alive = np.zeros(nl + 1, dtype=bool)
    alive[nl] = True        # the free vertices' sentinel partner
    kept = []
    for ids, src, w in reversed(admissible):
        go = np.take(alive, w)
        alive[src[go]] = True
        kept.append(ids[go])
    dist[~alive[:nl]] = np.inf
    ids = np.sort(np.concatenate(kept))
    ptr = np.searchsorted(ids, g.indptr.astype(ids.dtype))
    return dist.tolist(), ptr.tolist(), np.take(g.indices, ids)


def max_matching(g: ConflictGraph) -> tuple[list, list]:
    """Hopcroft-Karp maximum matching.

    Returns (pair_left, pair_right) position arrays with -1 for unmatched.
    Free vertices are processed in ascending position order and neighbour
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
        # depth-first search kept on an explicit stack of (vertex, neighbour
        # iterator), so an augmenting path may outgrow the recursion limit;
        # via[i] is the right vertex leading from stack[i] to stack[i + 1]
        stack = [(root, iter(flat[ptr[root]:ptr[root + 1]].tolist()))]
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
                    stack.append((w, iter(flat[ptr[w]:ptr[w + 1]].tolist())))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if via:
                    via.pop()

    while True:
        layers, admissible = _alternating_layers(g, pair_l, pair_r)
        # a phase augments only while some reached edge ends at a free vertex
        if not any((w == nl).any() for _, _, w in admissible):
            seen_r = np.zeros(nr, dtype=bool)
            seen_r[np.take(g.indices, _row_edges(g.indptr, np.flatnonzero(layers < INF))[0])] = True
            return pair_l, pair_r, layers, seen_r
        dist, ptr, flat = _live_edges(g, layers, admissible)
        for u in range(nl):
            # a dead free root has dist inf and is skipped
            if pair_l[u] == -1 and dist[u] == 0:
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
