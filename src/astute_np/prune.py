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
#: Edges per block in ``_edge_blocks``: caps the matching's temporaries.
_EDGE_BLOCK = 1 << 16


@dataclass
class ConflictGraph:
    """Bipartite conflict structure between the two classes, as compressed
    rows.

    ``left`` / ``right`` hold original training indices of the +1 and -1
    points, each side in sweep order: ascending first coordinate, ties by
    index.  The right-side positions in conflict with left position i are
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

    Both sides are in sweep order, and the +1 points are swept in blocks of
    ``_BLOCK`` rows.  A block is tested only against its window, the run of
    -1 points left once the prefix with ``x0min - r0 > 2r`` and the suffix
    with ``r0 - x0max > 2r`` are cut off (``x0`` the block's first
    coordinates, ``r0`` the -1 side's).  The edges are exactly those of the
    dense rule ``pairwise_distances(LINF, lp, rp) <= 2r``.
    """
    require_positive("r", r)
    two_r = 2.0 * r
    left, right = (np.flatnonzero(ds.labels == y) for y in (1, -1))
    left, right = (s[np.argsort(ds.points[s, 0], kind="stable")] for s in (left, right))
    lp, rp = ds.points[left], ds.points[right]
    r0 = rp[:, 0]
    indptr = np.zeros(len(left) + 1, dtype=np.intp)
    runs = [np.zeros(0, dtype=np.int32)]    # so a graph with no rows concatenates
    # a gap between finite coordinates near the float limits may overflow to
    # inf, which exceeds 2r: no conflict, which is right, and not a warning
    with np.errstate(over="ignore"):
        for start in range(0, len(left), _BLOCK):
            pts = lp[start:start + _BLOCK]
            # r0 ascends, so the -1 points too far below the block are a
            # prefix and those too far above it a suffix.  Each cut makes the
            # edge test's float subtraction from the block's extreme first
            # coordinate, and rounding is monotone, so it cuts no conflict.
            a = np.count_nonzero(pts[0, 0] - r0 > two_r)
            b = len(r0) - np.count_nonzero(r0 - pts[-1, 0] > two_r)
            cols = rp[a:b]
            gap = np.empty((len(pts), len(cols)))
            close = np.ones(gap.shape, dtype=bool)
            for j in range(ds.dim):
                np.subtract(pts[:, j:j + 1], cols[:, j], out=gap)
                close &= np.abs(gap, out=gap) <= two_r
            del gap     # before the next block allocates its own
            # a mask walks rows in order and the columns ascend, so the run
            # is the block's rows' ascending neighbour lists, one after another
            runs.append(np.broadcast_to(np.arange(a, b, dtype=np.int32), close.shape)[close])
            indptr[start + 1:start + 1 + len(pts)] = np.count_nonzero(close, axis=1)
    np.cumsum(indptr, out=indptr)
    return ConflictGraph(left, right, indptr, np.concatenate(runs))


def _edge_blocks(indptr: np.ndarray, rows: np.ndarray):
    """The edge ids (positions in ``indices``) of ``rows``, row after row,
    and each edge's row, in blocks of at most ``_EDGE_BLOCK`` edges; a block
    may end inside a row.  Ids and rows are int32 while the ids fit, as the
    graph's indices are."""
    eid = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.intp
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    # an edge's id is its position in the run of all rows' edges plus its
    # row's shift
    shift = (starts - (ends - counts)).astype(eid)
    rows = rows.astype(eid)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _EDGE_BLOCK):
        hi = min(lo + _EDGE_BLOCK, total)
        a = np.searchsorted(ends, lo, side="right")
        b = np.searchsorted(ends, hi, side="left") + 1
        take = np.minimum(ends[a:b], hi) - np.maximum(ends[a:b] - counts[a:b], lo)
        edge = np.repeat(shift[a:b], take)
        edge += np.arange(lo, hi, dtype=eid)
        yield edge, np.repeat(rows[a:b], take)


def _greedy_matching(g: ConflictGraph) -> tuple[list, list]:
    """Hopcroft-Karp's first phase.  It starts from the empty matching, so
    every left vertex is a root on layer 0 and every right vertex is free:
    each augmenting path is one edge, and the depth-first search from the
    roots in ascending order gives each left vertex its lowest free
    neighbour."""
    pair_l = [-1] * len(g.left)
    pair_r = [-1] * len(g.right)
    taken = np.zeros(len(g.right), dtype=bool)
    ends = g.indptr.tolist()
    for u, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        row = g.indices[a:b]
        free = row[~taken[row]]
        if len(free):
            v = int(free[0])
            taken[v] = True
            pair_l[u] = v
            pair_r[v] = u
    return pair_l, pair_r


def _alternating_layers(g: ConflictGraph, pair_l, pair_r) -> tuple[np.ndarray, list]:
    """Breadth-first layers of the alternating search from the free left
    vertices: non-matching edges to the right, matching edges back.

    Returns ``(dist, admissible)``: each left vertex's layer (``inf`` when
    unreached), and the edges an augmenting path can follow out of each
    layer.  An edge is admissible when its right vertex is free, or when
    that vertex's partner is placed in the next layer.  A free right
    vertex's partner is the sentinel ``len(g.left)``, a left vertex that is
    never placed.  Each layer's frontier is expanded in ``_edge_blocks``,
    and ``admissible`` is the list of ``(edge ids, sources, partners)``
    each block keeps, layer after layer.  A layer's partners are placed
    only after all of its blocks, so which edges are admissible does not
    depend on the block size; nor do the layer numbers depend on the order
    vertices are visited in.
    """
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
        first = len(admissible)
        for edge, src in _edge_blocks(g.indptr, frontier):
            # np.take gathers by int32 ids without first copying them to intp
            w = np.take(partner, np.take(g.indices, edge))
            ok = np.take(unplaced, w)
            admissible.append((edge[ok], src[ok], w[ok]))
        layer += 1
        for _, _, w in admissible[first:]:
            dist[w] = layer
            unplaced[w] = False
        unplaced[nl] = True     # the sentinel is placed with the rest; undo it
        frontier = np.flatnonzero(dist[:nl] == layer)
    return dist[:nl], admissible


def _live_edges(g: ConflictGraph, dist: np.ndarray, admissible: list) -> tuple[list, list, np.ndarray]:
    """One phase's DFS graph: ``(dist, ptr, flat)``.  ``admissible`` is
    emptied as it is read.

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
    while admissible:
        # a block's partners lie one layer above its sources
        ids, src, w = admissible.pop()
        go = np.take(alive, w)
        alive[src[go]] = True
        kept.append(ids[go])
    dist[~alive[:nl]] = np.inf
    ids = np.concatenate(kept)
    del kept
    ids.sort()
    ptr = np.searchsorted(ids, g.indptr.astype(ids.dtype))
    return dist.tolist(), ptr.tolist(), np.take(g.indices, ids)


def _augment(pair_l: list, pair_r: list, dist: list, ptr: list, flat: np.ndarray) -> None:
    """One phase's depth-first searches over ``_live_edges``'s graph, from
    the free left vertices in ascending order."""
    INF = float("inf")
    for root in range(len(pair_l)):
        # a dead free root has dist inf and is skipped
        if pair_l[root] != -1 or dist[root] != 0:
            continue
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
                    stack = []      # augmented: this root is done
                    break
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    stack.append((w, iter(flat[ptr[w]:ptr[w + 1]].tolist())))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if via:
                    via.pop()


def max_matching(g: ConflictGraph) -> tuple[list, list]:
    """Hopcroft-Karp maximum matching.

    Returns (pair_left, pair_right) position arrays with -1 for unmatched.
    The first phase is ``_greedy_matching``; each later phase runs
    ``_alternating_layers``, ``_live_edges`` and the depth-first searches,
    and drops its temporaries before the next phase builds its own.  Free
    vertices are processed in ascending position order and neighbour lists
    are ascending, so the result is deterministic.
    """
    return _hopcroft_karp(g)[:2]


def _hopcroft_karp(g: ConflictGraph) -> tuple[list, list, np.ndarray]:
    """``max_matching``'s pairs, then the layers of the final alternating
    search, the one that found no augmenting path."""
    nl = len(g.left)
    pair_l, pair_r = _greedy_matching(g)
    while True:
        layers, admissible = _alternating_layers(g, pair_l, pair_r)
        # a phase augments only while some reached edge ends at a free vertex
        if not any((w == nl).any() for _, _, w in admissible):
            return pair_l, pair_r, layers
        _augment(pair_l, pair_r, *_live_edges(g, layers, admissible))


def adv_prune(ds: Dataset, r: float) -> PrunedSet:
    """Largest r-separated subset in l-inf, exactly.

    Koenig construction: run alternating BFS from the unmatched left
    positions (non-matching edges leftward, matching edges rightward); the
    maximum independent set is the reachable left side plus the unreachable
    right side.  Isolated vertices are unmatched and unreachable-from-nothing
    as appropriate, so they are always kept.  The matching's last, failed
    phase search is that BFS, so its layers are reused.  That search reached
    no free right vertex, so the right vertices it reached are exactly those
    whose partner it reached, and no edge is read again.
    """
    g = build_conflict_graph(ds, r)
    pair_l, pair_r, dist = _hopcroft_karp(g)
    matched = sum(1 for v in pair_l if v != -1)
    # a free right vertex's partner -1 reads the appended False
    reached = np.append(dist < np.inf, False)
    kept = np.concatenate([g.left[reached[:-1]], g.right[~reached[pair_r]]]).astype(int)
    kept.sort()
    assert len(kept) == len(ds) - matched
    return PrunedSet(kept=kept, matching_size=matched, n=len(ds))
