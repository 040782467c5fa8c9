"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive brute force written from the problem
definitions, not from the library internals, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from astute_np import L2, LINF, pairwise_distances


def linf(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def l2(a, b) -> float:
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.sqrt(np.sum(d * d)))


def distance(metric: str, a, b) -> float:
    """Distance between two points under the named metric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if metric == L2:
        return float(np.sqrt(np.sum((a - b) ** 2)))
    if metric == LINF:
        return float(np.max(np.abs(a - b))) if a.size else 0.0
    raise ValueError(f"unknown metric {metric!r}")


def min_interclass_distance(ds, metric: str) -> float:
    """Smallest distance between any +1 point and any -1 point.

    Returns +inf when either class is empty.
    """
    plus = ds.points[ds.labels == 1]
    minus = ds.points[ds.labels == -1]
    if len(plus) == 0 or len(minus) == 0:
        return math.inf
    best = math.inf
    for start in range(0, len(plus), 512):
        block = pairwise_distances(metric, plus[start:start + 512], minus)
        best = min(best, float(block.min()))
    return best


def conflict_adjacency(points, labels, r, dist=linf):
    """Bitmask adjacency of the conflict graph: opposite labels within 2r."""
    n = len(points)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] != labels[j] and dist(points[i], points[j]) <= 2 * r:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def max_separated_subset_size(points, labels, r, dist=linf) -> int:
    """Exact maximum size of an r-separated subset (max independent set in
    the conflict graph), by branch and bound over vertex bitmasks."""
    n = len(points)
    adj = conflict_adjacency(points, labels, r, dist)
    memo: dict = {}

    def mis(mask: int) -> int:
        if mask == 0:
            return 0
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        if adj[v] & mask == 0:
            # v has no conflicts left, always include it
            best = 1 + mis(mask & ~(1 << v))
        else:
            best = max(mis(mask & ~(1 << v)),
                       1 + mis(mask & ~((1 << v) | adj[v])))
        memo[mask] = best
        return best

    return mis((1 << n) - 1)


def hopcroft_karp_reference(adj, n_right: int) -> tuple[list, list]:
    """Hopcroft-Karp on adjacency lists, the breadth-first search one vertex
    at a time from a queue.

    ``adj[u]`` lists the right vertices of left vertex u.  Free left vertices
    are tried in ascending order and each list in its own order, as in the
    library, so a matching with the same tie rule is identical.
    """
    nl = len(adj)
    pair_l = [-1] * nl
    pair_r = [-1] * n_right
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
            for v in adj[u]:
                w = pair_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable_free

    def dfs(root: int) -> None:
        stack = [(root, iter(adj[root]))]
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
                    stack.append((w, iter(adj[w])))
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


def knn_weights_oracle(points, query, k: int, dist=l2) -> np.ndarray:
    """Full-sort k-NN weights with the lowest-index tie rule."""
    n = len(points)
    order = sorted(range(n), key=lambda i: (dist(points[i], query), i))
    w = np.zeros(n)
    for i in order[:k]:
        w[i] = 1.0 / k
    return w


def kernel_weights_oracle(points, query, log_kernel, h: float, dist=l2) -> np.ndarray:
    """Direct kernel-ratio weights; callers pick scales where float64 ratios
    are safe without the max-division trick."""
    u = np.array([dist(p, query) for p in points]) / h
    vals = np.exp(log_kernel(u))
    return vals / vals.sum()


def linf_cell_distance(x: np.ndarray, lo: np.ndarray, side) -> np.ndarray:
    """l-inf distance from x to each half-open cell [lo, lo+side) (0 inside).

    Vectorized over a leaf array: ``lo`` is (m, d), ``side`` is (m,).
    """
    hi = lo + np.asarray(side).reshape(-1, 1)
    gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    return gap.max(axis=1)


def cell_reachable_center_form(x: np.ndarray, lo: np.ndarray, side, r: float) -> np.ndarray:
    """Equivalent reachability test via cell centers: for a hypercube of side
    s centered at c, some cell point lies within r of x iff
    linf(x, c) <= s/2 + r."""
    side = np.asarray(side, dtype=float).reshape(-1, 1)
    center = lo + side / 2.0
    return np.max(np.abs(center - x), axis=1) <= side[:, 0] / 2.0 + r


def leaf_cells(model):
    """Every histogram leaf as ``(lo, side, label)``; empty leaves carry
    label -1.

    The returned cells partition the root cell exactly; together with the
    -1 exterior they tile all of space.
    """
    labels = np.where(model.leaf_vote > 0, 1, -1)
    return [(model.leaf_lo[i], float(model.leaf_side[i]), int(labels[i]))
            for i in range(len(model.leaf_vote))]


def histogram_attack_radius(model, x, y: int) -> float:
    """Brute-force l-inf distance from x to where the histogram predicts -y
    (0 when x is already there, inf when that region is empty).

    The minimum over every leaf cell of label -y, measured to
    ``[lo, lo + side)``, and for y = +1 over the root cube's faces, outside
    of which the model predicts -1.  Reads neither ``leaf_hi`` nor
    ``regions``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    cells = [(lo, side) for lo, side, label in leaf_cells(model) if label == -y]
    best = math.inf
    if cells:
        lo = np.array([lo for lo, _ in cells])
        best = float(linf_cell_distance(x, lo, [side for _, side in cells]).min())
    if y == 1:
        lo = np.asarray(model.root_lo, dtype=float)
        face_gaps = np.concatenate([x - lo, lo + model.root_side - x])
        best = min(best, max(0.0, float(face_gaps.min())))
    return best


def nn1_attack_radius(points, labels, x, y: int) -> float:
    """l-inf distance from x to where 1-NN on (points, labels) predicts -y,
    by linear programming (0 when x is already there, inf when no point has
    label -y).

    For each site z labelled -y, scipy's HiGHS solver minimises t over
    (p, t) subject to |p - x|_inf <= t and |p - z|^2 <= |p - s|^2, a
    halfplane, for every point s labelled y; the radius is the minimum over
    z.  Shares no code with the library's branch and bound.
    """
    from scipy.optimize import linprog

    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    x = np.asarray(x, dtype=float).reshape(-1)
    d = len(x)
    same = points[labels == y]
    eye = np.eye(d)
    # |p - x|_inf <= t as 2d rows over the variables (p, t)
    box_A = np.block([[eye, -np.ones((d, 1))], [-eye, -np.ones((d, 1))]])
    box_b = np.concatenate([x, -x])
    best = math.inf
    for z in points[labels == -y]:
        # |p - z|^2 <= |p - s|^2  <=>  2 (s - z) . p <= |s|^2 - |z|^2
        bis_A = np.column_stack([2.0 * (same - z), np.zeros(len(same))])
        bis_b = np.einsum("ij,ij->i", same, same) - float(np.dot(z, z))
        res = linprog(np.eye(d + 1)[d], A_ub=np.vstack([box_A, bis_A]),
                      b_ub=np.concatenate([box_b, bis_b]),
                      bounds=[(None, None)] * d + [(0, None)], method="highs")
        assert res.status == 0, res.message
        best = min(best, float(res.fun))
    return best


def histogram_walk_leaves(model, queries) -> list:
    """Leaf id of each query row found by descending the split tree, or -1
    outside the root (non-finite rows included).

    Starts each row from ``root_lo`` / ``root_side`` and halves the cell,
    moving to the upper half in coordinate j when x[j] >= lo[j] + half,
    until the cell's (lo, side) is a stored leaf.  Reads neither ``leaf_hi``
    nor the library's lookup.
    """
    leaves = {(tuple(l), float(s)): i
              for i, (l, s) in enumerate(zip(model.leaf_lo, model.leaf_side))}
    assert len(leaves) == len(model.leaf_lo), "two leaves share (lo, side)"
    out = []
    for x in np.asarray(queries, dtype=float):
        lo = np.array(model.root_lo, dtype=float)
        side = float(model.root_side)
        # asked as "all inside" so that a NaN coordinate is outside
        if not (np.all(lo <= x) and np.all(x < lo + side)):
            out.append(-1)
            continue
        while (tuple(lo), side) not in leaves:
            half = side / 2.0
            for j in range(len(x)):
                if x[j] >= lo[j] + half:
                    lo[j] = lo[j] + half
            side = half
        out.append(leaves[(tuple(lo), side)])
    return out


def grid_misprediction_radius(predict_fn, x, y: int, r: float, resolution: float):
    """First lattice point where predict_fn disagrees with y, as
    ``(radius, point)``, or ``(None, None)`` when none does.

    Any dimension; checks shells in increasing radius like the library's
    oracle, each in lexicographic order, but one point at a time from its
    own ``itertools.product`` loop per shell.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if predict_fn(x) != y:
        return 0.0, x
    steps = int(np.floor(r / resolution + 1e-12))
    for k in range(1, steps + 1):
        for off in itertools.product(range(-k, k + 1), repeat=len(x)):
            if max(abs(o) for o in off) == k:
                point = x + np.array(off) * resolution
                if predict_fn(point) != y:
                    return k * resolution, point
    return None, None


def random_two_class(rng, n: int, d: int = 2, box: float = 1.0):
    """Random dataset guaranteed to contain both labels."""
    pts = rng.uniform(0.0, box, (n, d))
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    if np.all(labels == labels[0]):
        labels[rng.integers(0, n)] *= -1
    return pts, labels
