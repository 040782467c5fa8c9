"""Weight-function classifiers: k-nearest-neighbor, kernel, and recursive
histogram.

All three share one prediction rule: a query x receives a nonnegative weight
per training point (summing to 1, and depending only on training positions,
never labels), and the predicted label is +1 exactly when the weighted label
sum is positive.  A weighted sum of zero, including the all-zero weight
vector a histogram emits outside its root cell, predicts -1.  k-NN and
kernel distances are Euclidean (L2).  Models are frozen: the tables derived
from them (``HistogramModel.regions``, ``KnnModel.by_label``) are cached on
first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .data import (Dataset, L2, _require_count, pairwise_distances, require_positive,
                   row_blocks)

GAUSSIAN = "gaussian"
PLATEAU_EXAMPLE3 = "plateau_example3"
INVERSE_POLY = "inverse_poly"
KERNELS = (GAUSSIAN, PLATEAU_EXAMPLE3, INVERSE_POLY)
MODELS = ("knn", "histogram", "kernel")


def default_bandwidth(n: int, d: int) -> float:
    """Shrinking bandwidth rule h = n^(-1/(d+2))."""
    return float(n) ** (-1.0 / (d + 2))


def default_cell_threshold(n: int) -> int:
    """Default histogram split threshold, ceil(n^(1/3)).

    Any rule that grows without bound while vanishing relative to n keeps the
    histogram consistent; the cube-root rule splits aggressively enough that
    desk-scale histograms resolve the class boundary with empty cells between
    the classes, which is the regime the benchmark experiments probe.
    """
    return math.ceil(n ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# k-nearest-neighbor


@dataclass(frozen=True)
class KnnModel:
    train: Dataset
    k: int

    @cached_property
    def by_label(self) -> dict:
        """The training set split by label, ``{label: (points, sq_norms,
        index)}`` for each label in {+1, -1}: the rows labelled so, in
        training order, their squared Euclidean norms and their training
        indices."""
        pts, labels = self.train.points, self.train.labels
        split = {}
        for y in (1, -1):
            index = np.flatnonzero(labels == y)
            p = pts[index]
            split[y] = (p, (p * p).sum(axis=1), index)
        return split


def train_knn(ds: Dataset, k: int = 1) -> KnnModel:
    if len(ds) == 0:
        raise ValueError("empty training set")
    return KnnModel(ds, min(int(_require_count("k", k)), len(ds)))


def _knn_neighbor_rows(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Indices of the k nearest training points per query row, shape (m, k).

    Ties on the k-th distance go to the lowest training index: ``argmin``
    returns the first minimum, and a stable argsort keeps index order among
    equal distances.  Both read the same distance values.  The queries run
    in row blocks of at most ``data.BLOCK_CELLS`` difference entries, so
    memory does not grow with the query count.
    """
    train = model.train.points
    out = np.empty((len(queries), model.k), dtype=np.intp)
    for block in row_blocks(len(queries), train.size):
        dist = pairwise_distances(L2, queries[block], train)
        if model.k == 1:
            out[block, 0] = dist.argmin(axis=1)
        else:
            out[block] = np.argsort(dist, axis=1, kind="stable")[:, :model.k]
    return out


# ---------------------------------------------------------------------------
# kernel


def log_kernel(kind: str, u: np.ndarray) -> np.ndarray:
    """log K(u) of kernel ``kind`` (one of ``KERNELS``) at scaled distances u >= 0."""
    if kind == GAUSSIAN:
        return -np.square(u)
    if kind == PLATEAU_EXAMPLE3:
        # flattens beyond u = 0.2, so far points keep substantial weight
        return -np.square(np.minimum(np.abs(u), 0.2))
    # INVERSE_POLY, K(u) = (1 + u)^(-2): heavy tail, decays too slowly for
    # concentration; kept as a deliberately ill-behaved contrast case
    return -2.0 * np.log1p(u)


@dataclass(frozen=True)
class KernelModel:
    train: Dataset
    kind: str
    h: float

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "h", float(require_positive("h", self.h)))


def train_kernel(ds: Dataset, kind: str = GAUSSIAN,
                 h: Optional[float] = None) -> KernelModel:
    if len(ds) == 0:
        raise ValueError("empty training set")
    return KernelModel(ds, kind, default_bandwidth(len(ds), ds.dim) if h is None else h)


# ---------------------------------------------------------------------------
# recursive histogram


@dataclass(frozen=True)
class HistogramModel:
    """A trained histogram: its leaves, and the split tree that finds them.
    A lookup descends the tree, O(depth * d) per query at any leaf count;
    the tree takes O(nodes * d) memory."""

    train: Dataset
    root_lo: np.ndarray
    root_side: float
    # parallel per-leaf arrays; leaf_lo / leaf_hi hold the exact split
    # boundaries (each a ``lo + half`` computed once while training; lo +
    # side only up to rounding), so the half-open boxes [leaf_lo, leaf_hi)
    # partition the root cell and are exactly the predicted regions
    leaf_lo: np.ndarray = field(repr=False)
    leaf_hi: np.ndarray = field(repr=False)
    leaf_side: np.ndarray = field(repr=False)
    leaf_vote: np.ndarray = field(repr=False)
    leaf_members: list = field(repr=False)
    # split tree, one entry per node, node 0 the root.  A split numbers its
    # 2^d children consecutively from ``node_first``; child c holds x >= mid
    # in the coordinates of c's set bits.  A leaf node is its own first
    # child and its mid is NaN, so every code is 0 there and a descent step
    # stays put.  ``node_leaf`` is a node's leaf id or -1; depth is the
    # deepest leaf's level
    node_mid: np.ndarray = field(repr=False)
    node_first: np.ndarray = field(repr=False)
    node_leaf: np.ndarray = field(repr=False)
    depth: int

    def leaf_index(self, queries: np.ndarray) -> np.ndarray:
        """Leaf containing each query row, or -1 outside the root cell.

        All rows descend the split tree together, ``depth`` steps of
        ``node = node_first[node] + code(x >= node_mid[node])``: the child
        code that training split on, so a row inside the root reaches the
        leaf whose box [leaf_lo, leaf_hi) holds it.  Rows outside the root,
        NaN ones included, map to -1.  O(depth * d) per row, no per-leaf work.
        """
        queries = as_queries(self, queries)
        code_weight = 1 << np.arange(queries.shape[1])
        node = np.zeros(len(queries), dtype=np.intp)
        for _ in range(self.depth):
            node = self.node_first[node] + (queries >= self.node_mid[node]) @ code_weight
        inside = np.all((self.root_lo <= queries)
                        & (queries < self.root_lo + self.root_side), axis=1)
        return np.where(inside, self.node_leaf[node], -1)

    @cached_property
    def regions(self) -> dict:
        """Where the model predicts each label, as half-open boxes
        ``{label: (lo, hi)}``, each of shape (boxes, d).

        ``regions[+1]`` holds the +1 leaves.  ``regions[-1]`` holds the -1
        leaves, then the root's exterior as 2d slabs unbounded (+-inf) in
        every other coordinate: first ``x_j < root_lo_j`` for each j, then
        ``x_j >= root_lo_j + root_side`` for each j.  Scans that take the
        first nearest box inherit this order as their tie rule: leaves before
        the exterior, low faces before high ones, lower coordinates first.
        """
        d = len(self.root_lo)
        inf = np.full((d, d), np.inf)
        axis = np.eye(d, dtype=bool)
        plus = self.leaf_vote > 0
        return {1: (self.leaf_lo[plus], self.leaf_hi[plus]),
                -1: (np.concatenate([self.leaf_lo[~plus], -inf,
                                     np.where(axis, self.root_lo + self.root_side, -inf)]),
                     np.concatenate([self.leaf_hi[~plus],
                                     np.where(axis, self.root_lo, inf), inf]))}


def train_histogram(ds: Dataset, kn: Optional[int] = None,
                    root: Optional[tuple] = None) -> HistogramModel:
    """Build the recursive-splitting histogram.

    The root cell is the axis-aligned data bounding cube (min corner at the
    per-dimension minimum, side equal to the largest extent inflated by
    1 + 1e-9 so every point is strictly interior), unless an explicit
    ``root = (lo, side)`` is given, e.g. a known domain like ([0], 1).
    Explicit roots are used exactly as provided and must cover every training
    point (half-open: lo <= x < lo + side per coordinate).  Any
    cell holding strictly more than ``kn`` points is split into 2^d equal
    half-open children.  Splitting also stops when a cell's occupants are all
    coincident or its side underflows, which keeps duplicated points (point
    masses) from splitting forever.  Leaves are numbered in depth-first
    order, children in ascending order of their bit code (bit j set for the
    upper half in coordinate j).  The split tree is kept as well (each
    node's split point and first child, each leaf node's leaf id, the
    depth), so ``leaf_index`` finds a query's leaf in O(depth * d) steps
    instead of testing every leaf box.
    """
    if len(ds) == 0:
        raise ValueError("empty training set")
    if kn is None:
        kn = default_cell_threshold(len(ds))
    if not kn >= 1:
        raise ValueError("cell threshold must be >= 1")
    pts = ds.points
    d = ds.dim
    if root is not None:
        # explicit roots are taken exactly as given so cell boundaries land on
        # the coordinates the caller asked for; the caller owns coverage
        lo = np.asarray(root[0], dtype=float).reshape(-1)
        side = require_positive("root side", float(root[1]))
        if lo.shape[0] != d:
            raise ValueError("root dimension mismatch")
        # asked as "all inside" so that a NaN corner fails it
        if not (np.all(lo <= pts) and np.all(pts < lo + side)):
            raise ValueError("explicit root does not cover the data")
    else:
        lo = pts.min(axis=0)
        extent = float((pts.max(axis=0) - lo).max())
        side = extent * (1.0 + 1e-9) if extent > 0 else 1e-9

    leaf_lo, leaf_hi, leaf_side, leaf_vote, leaf_members = [], [], [], [], []
    # every node starts as a leaf (NaN mid, its own first child) and is
    # overwritten when it splits
    nan_mid = np.full(d, np.nan)
    node_mid, node_first, node_leaf = [nan_mid], [0], [-1]
    depth = 0

    # bit j of child code c: the child is the upper half in coordinate j
    code_weight = 1 << np.arange(d)
    push_order = list(enumerate((np.arange(1 << d)[:, None] & code_weight) > 0))[::-1]
    # explicit depth-first stack of (node, depth, lo, hi, side, member
    # indices); children are pushed in reverse so they pop in ascending code
    # order, and leaves are numbered in pop order
    stack = [(0, 0, lo.copy(), lo + side, side, np.arange(len(ds)))]
    while stack:
        node, level, clo, chi, cside, idx = stack.pop()
        depth = max(depth, level)
        sub = pts[idx]
        if not (len(idx) > kn and cside > 1e-12
                and float(np.max(sub.max(axis=0) - sub.min(axis=0))) > 0.0):
            node_leaf[node] = len(leaf_lo)
            leaf_lo.append(clo)
            leaf_hi.append(chi)
            leaf_side.append(cside)
            leaf_vote.append(int(ds.labels[idx].sum()) if len(idx) else 0)
            leaf_members.append(idx)
            continue
        half = cside / 2.0
        # the children's boxes meet exactly at this float value, which both
        # the split and every later lookup compare against
        mid = node_mid[node] = clo + half
        first = node_first[node] = len(node_first)
        node_first.extend(range(first, first + (1 << d)))
        node_mid.extend([nan_mid] * (1 << d))
        node_leaf.extend([-1] * (1 << d))
        # the child code that ``leaf_index`` computes
        code = (sub >= mid) @ code_weight
        stack.extend((first + c, level + 1, np.where(bits, mid, clo), np.where(bits, chi, mid),
                      half, idx[code == c])
                     for c, bits in push_order)

    return HistogramModel(
        train=ds, root_lo=lo, root_side=side,
        leaf_lo=np.array(leaf_lo), leaf_hi=np.array(leaf_hi),
        leaf_side=np.array(leaf_side), leaf_vote=np.array(leaf_vote),
        leaf_members=leaf_members, node_mid=np.array(node_mid),
        node_first=np.array(node_first, dtype=np.intp),
        node_leaf=np.array(node_leaf, dtype=np.intp), depth=depth,
    )


def make_model(kind: str, ds: Dataset, *, k: int = 1, kn: Optional[int] = None,
               kernel: str = GAUSSIAN, root: Optional[tuple] = None):
    """Train the ``kind`` family (one of ``MODELS``) on ``ds``.

    ``k`` applies to knn, ``kn`` and ``root`` to histogram, ``kernel`` (one
    of ``KERNELS``) to kernel; the others are ignored.
    """
    if kind == "knn":
        return train_knn(ds, k=k)
    if kind == "histogram":
        return train_histogram(ds, kn=kn, root=root)
    if kind == "kernel":
        return train_kernel(ds, kind=kernel)
    raise ValueError(f"unknown model {kind!r}")


# ---------------------------------------------------------------------------
# shared prediction surface


def as_queries(model, queries) -> np.ndarray:
    """``queries`` as a float ``(m, d)`` array in the model's dimension d;
    ValueError otherwise, where numpy would broadcast a wrong width."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.ndim != 2 or queries.shape[1] != model.train.dim:
        raise ValueError("query dimension mismatch")
    return queries


def weights(model, x) -> np.ndarray:
    """Per-training-point weight vector at query x (sums to 1).

    Histogram queries outside the root cell, or in an empty leaf, return the
    all-zero vector; prediction then falls to the -1 default through the
    tie rule.
    """
    return weights_batch(model, x)[0]


def weights_batch(model, queries: np.ndarray) -> np.ndarray:
    queries = as_queries(model, queries)
    out = np.zeros((len(queries), len(model.train)))
    if isinstance(model, KnnModel):
        rows = _knn_neighbor_rows(model, queries)
        np.put_along_axis(out, rows, 1.0 / model.k, axis=1)
        return out
    if isinstance(model, KernelModel):
        u = pairwise_distances(L2, queries, model.train.points) / model.h
        logk = log_kernel(model.kind, u)
        # divide through by the max kernel value before normalizing: exact in
        # real arithmetic, and keeps tiny bandwidths from flushing every
        # numerator to zero
        logk -= logk.max(axis=1, keepdims=True)
        k = np.exp(logk)
        return k / k.sum(axis=1, keepdims=True)
    if isinstance(model, HistogramModel):
        leaves = model.leaf_index(queries)
        for leaf in np.unique(leaves[leaves >= 0]):
            members = model.leaf_members[leaf]
            if len(members):
                out[np.ix_(np.flatnonzero(leaves == leaf), members)] = 1.0 / len(members)
        return out
    raise TypeError(f"unknown model type {type(model).__name__}")


def predict(model, x) -> int:
    return int(predict_batch(model, x)[0])


def predict_batch(model, queries: np.ndarray) -> np.ndarray:
    """Vectorized prediction; +1 iff the weighted label vote is positive."""
    queries = as_queries(model, queries)
    if isinstance(model, KnnModel):
        # the k nearest labels, no dense weight matrix
        votes = model.train.labels[_knn_neighbor_rows(model, queries)].sum(axis=1)
    elif isinstance(model, HistogramModel):
        leaves = model.leaf_index(queries)
        votes = np.where(leaves >= 0, model.leaf_vote[leaves], 0)
    elif isinstance(model, KernelModel):
        # an elementwise product summed along each row reduces every row in
        # the same order whatever the batch size; a matrix product does not,
        # and a true tie of 0 would then read as +-1e-18.  That lets the vote
        # run in row blocks, like the k-NN search, so memory does not grow
        # with the query count
        votes = np.empty(len(queries))
        for block in row_blocks(len(queries), model.train.points.size):
            votes[block] = (weights_batch(model, queries[block]) * model.train.labels).sum(axis=1)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return np.where(votes > 0, 1, -1).astype(np.int8)
