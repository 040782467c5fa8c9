"""Weight-function classifiers: k-nearest-neighbor, kernel, and recursive
histogram.

All three share one prediction rule: a query x receives a nonnegative weight
per training point (summing to 1, and depending only on training positions,
never labels), and the predicted label is +1 exactly when the weighted label
sum is positive.  A weighted sum of zero, including the all-zero weight
vector a histogram emits outside its root cell, predicts -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import Dataset, L2, LINF, pairwise_distances

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


@dataclass
class KnnModel:
    train: Dataset
    k: int
    metric: str = L2

    @property
    def n(self) -> int:
        return len(self.train)


def train_knn(ds: Dataset, k: int = 1, metric: str = L2) -> KnnModel:
    if len(ds) == 0:
        raise ValueError("empty training set")
    k = max(1, min(int(k), len(ds)))
    return KnnModel(ds, k, metric)


def _knn_neighbor_rows(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Indices of the k nearest training points per query row.

    Ties on the k-th distance go to the lowest training index; a stable
    argsort on the distance row gives exactly that order.
    """
    dist = pairwise_distances(model.metric, queries, model.train.points)
    order = np.argsort(dist, axis=1, kind="stable")
    return order[:, : model.k]


# ---------------------------------------------------------------------------
# kernel


@dataclass
class KernelSpec:
    kind: str = GAUSSIAN
    p: float = 2.0
    bandwidth_rule: Callable[[int, int], float] = default_bandwidth

    def log_kernel(self, u: np.ndarray) -> np.ndarray:
        """log K(u) for scaled distances u >= 0."""
        if self.kind == GAUSSIAN:
            return -np.square(u)
        if self.kind == PLATEAU_EXAMPLE3:
            # flattens beyond u = 0.2, so far points keep substantial weight
            return -np.square(np.minimum(np.abs(u), 0.2))
        if self.kind == INVERSE_POLY:
            # K(u) = (1 + u)^(-p): heavy tail, decays too slowly for
            # concentration; kept as a deliberately ill-behaved contrast case
            return -self.p * np.log1p(u)
        raise ValueError(f"unknown kernel kind {self.kind!r}")


@dataclass
class KernelModel:
    train: Dataset
    spec: KernelSpec
    h: float
    metric: str = L2

    @property
    def n(self) -> int:
        return len(self.train)


def train_kernel(ds: Dataset, spec: Optional[KernelSpec] = None,
                 h: Optional[float] = None, metric: str = L2) -> KernelModel:
    if len(ds) == 0:
        raise ValueError("empty training set")
    spec = spec or KernelSpec()
    if h is None:
        h = spec.bandwidth_rule(len(ds), ds.dim)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return KernelModel(ds, spec, float(h), metric)


# ---------------------------------------------------------------------------
# recursive histogram


class _Cell:
    __slots__ = ("lo", "hi", "side", "children", "leaf_id")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, side: float):
        self.lo = lo
        # hi carries the exact per-coordinate upper boundaries used by the
        # tree walk; recomputing lo + side can drift by an ulp
        self.hi = hi
        self.side = side
        self.children: Optional[list] = None
        self.leaf_id: int = -1


@dataclass
class HistogramModel:
    train: Dataset
    kn: int
    root_lo: np.ndarray
    root_side: float
    # parallel per-leaf arrays; leaf_hi holds the exact upper boundaries of
    # each half-open leaf as the tree walk sees them (lo + side only up to
    # rounding), so [leaf_lo, leaf_hi) is the true predicted region
    leaf_lo: np.ndarray = field(repr=False, default=None)
    leaf_hi: np.ndarray = field(repr=False, default=None)
    leaf_side: np.ndarray = field(repr=False, default=None)
    leaf_vote: np.ndarray = field(repr=False, default=None)
    leaf_count: np.ndarray = field(repr=False, default=None)
    leaf_members: list = field(repr=False, default=None)
    _root_cell: _Cell = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.train)

    def leaf_index(self, x: np.ndarray) -> int:
        """Leaf containing x, or -1 when x is outside the root cell."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if np.any(x < self.root_lo) or np.any(x >= self.root_lo + self.root_side):
            return -1
        cell = self._root_cell
        while cell.children is not None:
            half = cell.side / 2.0
            code = 0
            for j in range(x.shape[0]):
                if x[j] >= cell.lo[j] + half:
                    code |= 1 << j
            cell = cell.children[code]
        return cell.leaf_id


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
    masses) from recursing forever.
    """
    if len(ds) == 0:
        raise ValueError("empty training set")
    if kn is None:
        kn = default_cell_threshold(len(ds))
    if kn < 1:
        raise ValueError("cell threshold must be >= 1")
    pts = ds.points
    d = ds.dim
    if root is not None:
        # explicit roots are taken exactly as given so cell boundaries land on
        # the coordinates the caller asked for; the caller owns coverage
        lo = np.asarray(root[0], dtype=float).reshape(-1)
        side = float(root[1])
        if lo.shape[0] != d:
            raise ValueError("root dimension mismatch")
        if side <= 0:
            raise ValueError("root side must be positive")
        if np.any(pts < lo) or np.any(pts >= lo + side):
            raise ValueError("explicit root does not cover the data")
    else:
        lo = pts.min(axis=0)
        extent = float((pts.max(axis=0) - lo).max())
        side = extent * (1.0 + 1e-9) if extent > 0 else 1e-9

    leaf_lo, leaf_hi, leaf_side = [], [], []
    leaf_vote, leaf_count, leaf_members = [], [], []

    def build(cell: _Cell, idx: np.ndarray) -> None:
        splittable = (
            len(idx) > kn
            and cell.side > 1e-12
            and (len(idx) == 0 or float(np.max(pts[idx].max(axis=0) - pts[idx].min(axis=0))) > 0.0)
        )
        if splittable:
            half = cell.side / 2.0
            cell.children = []
            sub = pts[idx]
            for code in range(1 << d):
                clo = cell.lo.copy()
                chi = cell.hi.copy()
                mask = np.ones(len(idx), dtype=bool)
                for j in range(d):
                    # the same float expression the tree walk compares
                    # against, so stored boundaries match it bit for bit
                    mid = cell.lo[j] + half
                    if code & (1 << j):
                        clo[j] = mid
                        mask &= sub[:, j] >= mid
                    else:
                        chi[j] = mid
                        mask &= sub[:, j] < mid
                child = _Cell(clo, chi, half)
                cell.children.append(child)
                build(child, idx[mask])
        else:
            cell.leaf_id = len(leaf_lo)
            leaf_lo.append(cell.lo)
            leaf_hi.append(cell.hi)
            leaf_side.append(cell.side)
            leaf_vote.append(int(ds.labels[idx].sum()) if len(idx) else 0)
            leaf_count.append(len(idx))
            leaf_members.append(idx)

    root_cell = _Cell(lo.copy(), lo + side, side)
    build(root_cell, np.arange(len(ds)))
    return HistogramModel(
        train=ds, kn=kn, root_lo=lo, root_side=side,
        leaf_lo=np.array(leaf_lo), leaf_hi=np.array(leaf_hi),
        leaf_side=np.array(leaf_side),
        leaf_vote=np.array(leaf_vote), leaf_count=np.array(leaf_count),
        leaf_members=leaf_members, _root_cell=root_cell,
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
        return train_kernel(ds, KernelSpec(kind=kernel))
    raise ValueError(f"unknown model {kind!r}")


# ---------------------------------------------------------------------------
# shared prediction surface


def weights(model, x) -> np.ndarray:
    """Per-training-point weight vector at query x (sums to 1).

    Histogram queries outside the root cell, or in an empty leaf, return the
    all-zero vector; prediction then falls to the -1 default through the
    tie rule.
    """
    return weights_batch(model, np.atleast_2d(np.asarray(x, dtype=float)))[0]


def weights_batch(model, queries: np.ndarray) -> np.ndarray:
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    m = queries.shape[0]
    if queries.shape[1] != model.train.dim:
        raise ValueError("query dimension mismatch")
    n = model.n
    out = np.zeros((m, n))
    if isinstance(model, KnnModel):
        rows = _knn_neighbor_rows(model, queries)
        np.put_along_axis(out, rows, 1.0 / model.k, axis=1)
        return out
    if isinstance(model, KernelModel):
        u = pairwise_distances(model.metric, queries, model.train.points) / model.h
        logk = model.spec.log_kernel(u)
        # divide through by the max kernel value before normalizing: exact in
        # real arithmetic, and keeps tiny bandwidths from flushing every
        # numerator to zero
        logk -= logk.max(axis=1, keepdims=True)
        k = np.exp(logk)
        return k / k.sum(axis=1, keepdims=True)
    if isinstance(model, HistogramModel):
        for i in range(m):
            leaf = model.leaf_index(queries[i])
            if leaf >= 0 and model.leaf_count[leaf] > 0:
                out[i, model.leaf_members[leaf]] = 1.0 / model.leaf_count[leaf]
        return out
    raise TypeError(f"unknown model type {type(model).__name__}")


def predict(model, x) -> int:
    return int(predict_batch(model, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def predict_batch(model, queries: np.ndarray) -> np.ndarray:
    """Vectorized prediction; +1 iff the weighted label vote is positive."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if isinstance(model, KnnModel):
        # fast path: vote of the k nearest labels, no dense weight matrix
        rows = _knn_neighbor_rows(model, queries)
        votes = model.train.labels[rows].sum(axis=1)
        return np.where(votes > 0, 1, -1).astype(np.int8)
    if isinstance(model, HistogramModel):
        preds = np.empty(queries.shape[0], dtype=np.int8)
        for i in range(queries.shape[0]):
            leaf = model.leaf_index(queries[i])
            preds[i] = 1 if (leaf >= 0 and model.leaf_vote[leaf] > 0) else -1
        return preds
    w = weights_batch(model, queries)
    votes = w @ model.train.labels.astype(float)
    return np.where(votes > 0, 1, -1).astype(np.int8)
