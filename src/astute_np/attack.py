"""Minimal-perturbation attacks under the l-inf metric.

Exact attacks exist for two families:

* histograms, whose decision regions are finite lists of axis-aligned
  boxes (``HistogramModel.regions``; the -1 region includes the exterior of
  the root cube), and
* 1-nearest-neighbor in 2-D, whose decision regions are intersections of
  halfspaces (one bisector per training point pair).

Everything else goes through a grid-search oracle that can find adversarial
examples but can never certify their absence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .data import Dataset, require_positive
from .models import HistogramModel, KnnModel, as_queries, predict, predict_batch

FOUND = "found"
CERTIFIED_ASTUTE = "certified_astute"
UNKNOWN = "unknown"
METHODS = ("auto", "histogram", "nn1", "grid")

#: the exact 1-NN solver's one tolerance, relative to the numbers it judges
#: (``_met``, ``_small_lp``), so its verdicts commute with rescaling
_REL_TOL = 1e-9
#: r / resolution within this of an integer counts as that integer.
_STEP_TOL = 1e-12

#: a grid scan past this many lattice points raises CostGuardError.
_GRID_MAX_POINTS = 2_000_000
#: fewest lattice points per ``predict_batch`` call of a grid scan, unless the
#: lattice ends first.  On a depth-6 histogram a call costs about 50 us fixed
#: plus 0.17 us per row (2 CPUs), so one call per shell of 8 to 88 rows is
#: mostly overhead; at 512 rows the fixed part is about a third of the call.
_GRID_CHUNK = 512


class AttackMethodError(ValueError):
    """The requested exact attack does not cover this model family."""


class CostGuardError(RuntimeError):
    """Grid scan would exceed the configured point budget."""


@dataclass(frozen=True)
class AttackBudget:
    r: float
    #: slack a checker allows a witness past r (the 1-NN witness is nudged); radii use r itself
    tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        require_positive("r", self.r)


@dataclass(frozen=True)
class AttackResult:
    outcome: str
    witness: Optional[np.ndarray] = None
    radius: Optional[float] = None

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


# ---------------------------------------------------------------------------
# Each method is one row (model, x, y, prediction, budget, resolution) ->
# AttackResult of ``_ATTACKS``.  Its callers pass a finite x in the model's
# dimension and y in {+1, -1}.  ``prediction`` is the model's label at x for
# the 1-NN row; the histogram row never reads it, and the grid row takes
# None to mean "not predicted yet" and predicts x in its own scan.
#
# histogram attack


def _attack_histogram(model: HistogramModel, x: np.ndarray, y: int, prediction,
                      budget: AttackBudget, resolution: float) -> AttackResult:
    """Exact minimal l-inf adversarial radius against a histogram.

    Scans every box of ``model.regions[-y]``, the region the model labels
    -y; for y = +1 that includes the exterior of the root cube.  The
    returned radius is the exact infimum, and ties go to the first nearest
    box in ``regions`` order.  The witness is nudged just inside the open
    faces so that it actually misclassifies.  ``prediction`` is not read:
    the half-open box test below detects a mispredicted x by itself.
    """
    lo, hi = model.regions[-y]
    if len(lo) == 0:
        return AttackResult(CERTIFIED_ASTUTE)
    # l-inf distance to each box, max(lo - x, x - hi, 0) over coordinates,
    # one coordinate at a time so that numpy runs along the boxes; a max is
    # exact in any order, and on a tie np.maximum keeps its second operand,
    # the running distance, so a zero distance stays +0.0
    dists = np.zeros(len(lo))
    for j, xj in enumerate(x):
        np.maximum(lo[:, j] - xj, dists, out=dists)
        np.maximum(xj - hi[:, j], dists, out=dists)
    j = int(np.argmin(dists))
    best = float(dists[j])
    # distance 0 means x is in a closed box; in the half-open one it is
    # already mispredicted
    if best == 0.0 and np.any(np.all(x < hi[dists == 0.0], axis=1)):
        return AttackResult(FOUND, witness=x.copy(), radius=0.0)
    if best <= budget.r:
        # clip into the box, then back off its open upper faces by one ulp;
        # the bounds are the exact split boundaries, so the witness lands in
        # the box with certainty, not merely up to an ulp
        witness = np.minimum(np.maximum(x, lo[j]), np.nextafter(hi[j], -np.inf))
        return AttackResult(FOUND, witness=witness, radius=best)
    return AttackResult(CERTIFIED_ASTUTE)


# ---------------------------------------------------------------------------
# exact 1-NN attack (2-D, L2 neighbors)
#
# The attack reads 1-NN's sites (``KnnModel.by_label``): distinct training
# locations, each with the label that wins its ties.  For an opposite-label
# site z, the region where z is the nearest neighbor is a convex polygon: for
# every same-label site s,
#       ||p - z||^2 <= ||p - s||^2   <=>   2 (s - z) . p <= |s|^2 - |z|^2.
# The minimal l-inf distance from x to that polygon is a tiny linear program
# in (p1, p2, t):  minimize t  s.t.  |p_j - x_j| <= t,  A p <= b.
# Its optimum is always attained at one of:
#   * x itself (when x already lies in the polygon),
#   * the l-inf projection of x onto one constraint line, at distance
#     (a.x - b) / |a|_1, reached by moving every coordinate against sign(a),
#   * the intersection vertex of two constraint lines.
# We solve over a small working set of constraints and grow it cutting-plane
# style with the most violated bisector until the candidate is feasible for
# all of them; each round can only raise the working optimum, so aborting
# once it exceeds the current global bound is sound.


def _met(gap, l1, b, p):
    """Residuals a.p - b count as met up to _REL_TOL (|a|_1 |p|_inf + |b|)."""
    return gap <= _REL_TOL * (l1 * np.max(np.abs(p)) + np.abs(b))


def _normals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisector normals ``2.0 * (a - b)``, one of a, b an (n, d) array and
    the other a point, and their rows' L1 norms, filled one coordinate at a
    time so that numpy runs along n.  Each entry is the broadcast form's
    float, and so is each norm for d <= 7, where numpy's row sum adds in
    column order too."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    normals = np.empty(np.broadcast_shapes(a.shape, b.shape))
    l1 = np.zeros(len(normals))
    for j, col in enumerate(normals.T):
        np.subtract(a[:, j], b[:, j], out=col)
        col *= 2.0
        l1 += np.abs(col)
    return normals, l1


def _small_lp(x: np.ndarray, A: np.ndarray, b: np.ndarray,
              l1: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact minimizer of linf(x, p) over {A p <= b} (A is small, its rows'
    L1 norms ``l1``), or (inf, None) when no candidate meets every row by
    ``_met``."""
    viol = A @ x - b
    if np.all(viol <= 0.0):
        return 0.0, x.copy()

    cand_p = []
    # single-line projections
    for i in range(len(A)):
        t = max(0.0, viol[i] / l1[i])
        cand_p.append(x - t * np.sign(A[i]))
    # pairwise intersection vertices
    for i, j in itertools.combinations(range(len(A)), 2):
        det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
        if abs(det) <= _REL_TOL * l1[i] * l1[j]:
            continue
        px = (b[i] * A[j, 1] - b[j] * A[i, 1]) / det
        py = (A[i, 0] * b[j] - A[j, 0] * b[i]) / det
        cand_p.append(np.array([px, py]))

    best_t, best_p = np.inf, None
    for p in cand_p:
        if np.all(_met(A @ p - b, l1, b, p)):
            t = float(np.max(np.abs(p - x)))
            if t < best_t:
                best_t, best_p = t, p
    return best_t, best_p


def _polygon_linf_distance(x: np.ndarray, z: np.ndarray, same_pts: np.ndarray,
                           same_sq: np.ndarray,
                           abort_above: float) -> tuple[float, Optional[np.ndarray]]:
    """Distance from x to the region where site z beats every site in
    same_pts, whose squared norms are same_sq.  No site of same_pts lies at
    z, so every bisector is a proper line.

    Returns (distance, optimal point); (inf, None) when the working bound
    proves the distance exceeds ``abort_above``.  Raises RuntimeError when
    no candidate of the working set meets its bisectors by ``_met``: the
    region always contains z, so float64 could not resolve the bisectors.
    """
    A_full, l1_full = _normals(same_pts, z)
    b_full = same_sq - float(z @ z)

    # seed the working set with the strongest cut at x
    work = [int(np.argmax((A_full @ x - b_full) / l1_full))]
    # every pass returns or adds a bisector not yet in work, so the loop ends
    # within len(same_pts) passes
    while True:
        t, p = _small_lp(x, A_full[work], b_full[work], l1_full[work])
        if p is None:
            raise RuntimeError(
                "exact 1-NN attack: float64 cannot resolve these nearly coincident "
                "bisectors; use method 'grid'")
        if t > abort_above:
            return np.inf, None
        gaps = A_full @ p - b_full
        worst = int(np.argmax(gaps / l1_full))
        # _small_lp accepted p on every working bisector by _met, so a worst
        # bisector already in work is met by the same rule
        if _met(gaps[worst], l1_full[worst], b_full[worst], p) or worst in work:
            return t, p
        work.append(worst)


def _attack_nn1(model: KnnModel, x: np.ndarray, y: int, prediction: int,
                budget: AttackBudget, resolution: float) -> AttackResult:
    """Exact minimal l-inf adversarial radius against 2-D 1-NN.

    Branch and bound over the opposite-label sites of ``model.by_label``,
    ordered by a cheap single-halfspace lower bound; each candidate's
    polygon distance is solved exactly.  Coincident training rows are one
    site with the label of the lowest-index row, so the polygons are those
    of the 1-NN tie rule.  The reported radius is the true minimum, up to the
    solver's relative tolerance ``_REL_TOL``, whenever it is at most r;
    otherwise the point is certified astute.  Raises RuntimeError when
    float64 cannot resolve the bisectors.
    """
    if prediction != y:
        return AttackResult(FOUND, witness=x.copy(), radius=0.0)

    zs, zz = model.by_label[-y]
    if len(zs) == 0:
        return AttackResult(CERTIFIED_ASTUTE)
    same_pts, same_sq = model.by_label[y]

    # lower bound per z: distance to the single bisector against the
    # same-label site nearest to x (a superset of the true polygon)
    d_same = np.abs(same_pts[:, 0] - x[0])
    for j in range(1, len(x)):
        d_same = np.maximum(d_same, np.abs(same_pts[:, j] - x[j]))
    s0 = same_pts[int(np.argmin(d_same))]
    A0, l1 = _normals(s0, zs)
    b0 = float(s0 @ s0) - zz
    lb = np.maximum(0.0, (A0 @ x - b0) / l1)

    # a site with lb > r cannot be within r, so only the others are sorted;
    # their stable order is the full order's prefix
    near = np.flatnonzero(lb <= budget.r)
    best = np.inf
    best_p = None
    best_z = None
    for zi in near[np.argsort(lb[near], kind="stable")]:
        if lb[zi] >= best:
            break
        d, p = _polygon_linf_distance(x, zs[zi], same_pts, same_sq, min(best, budget.r))
        if d < best:
            best, best_p, best_z = d, p, zs[zi]

    if best <= budget.r:
        # nudge toward the site whose region was solved: its polygon is
        # convex and contains the site strictly inside every bisector, so any
        # step along that segment flips the prediction; the reported radius
        # stays the exact infimum
        nudged = [best_p + eps * (best_z - best_p) for eps in (1e-9, 1e-7, 1e-5)]
        for witness in (*nudged, best_p):
            if predict(model, witness) != y:
                return AttackResult(FOUND, witness=witness, radius=float(best))
        raise RuntimeError(
            "exact 1-NN attack: no point at the solved radius flips the "
            "prediction; use method 'grid'")
    return AttackResult(CERTIFIED_ASTUTE)


# ---------------------------------------------------------------------------
# grid oracle


@functools.lru_cache(maxsize=1)
def _lattice(steps: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every integer offset in {-steps..steps}^d and each shell's end:
    shell k = max|o| is ``offsets[ends[k - 1]:ends[k]]``.

    Shells come in order of k, each in lexicographic order (the last
    coordinate varies fastest): C-order indices are lexicographic, and a
    stable sort by shell keeps that order within a shell.  The attacks of
    one ``attack_all`` or sweep all scan the same (steps, d), so only the
    last shape is cached; both arrays are read-only.  The offsets are
    int32, exact for every scan ``_GRID_MAX_POINTS`` allows.
    """
    offsets = np.indices((2 * steps + 1,) * d, dtype=np.int32).reshape(d, -1).T - steps
    shell = np.abs(offsets).max(axis=1)
    offsets = offsets[np.argsort(shell, kind="stable")]
    ends = np.cumsum(np.bincount(shell))
    offsets.flags.writeable = ends.flags.writeable = False
    return offsets, ends


def _attack_grid(model, x: np.ndarray, y: int, prediction: Optional[int],
                 budget: AttackBudget, resolution: float) -> AttackResult:
    """Scan the l-inf ball on a regular grid, nearest shells first.

    FOUND on the first misprediction in (shell radius, lexicographic) order,
    so witnesses are deterministic.  A clean scan yields UNKNOWN: a grid can
    never certify astuteness.  Scans whose point count would exceed
    ``_GRID_MAX_POINTS`` raise CostGuardError instead of running forever.

    Shells are predicted in chunks: a chunk is the next run of whole shells,
    extended until it holds at least ``_GRID_CHUNK`` points or the lattice
    ends, so one ``predict_batch`` call takes at most one shell plus
    ``_GRID_CHUNK - 1`` points.  Predictions are per row, so the first
    misprediction of a chunk is the first in scan order.

    ``prediction`` is x's label when the caller has it: a mismatch is FOUND
    at radius 0 and the scan starts at shell 1.  With None the scan starts
    at shell 0, so x is the first chunk's row 0 and costs no predict call
    of its own.  Either way a misprediction at x returns a copy of x itself
    at radius 0.  The chunk ends are the same both ways, since a shell end
    (2k + 1)^d is odd and so never equals ``_GRID_CHUNK``.
    """
    d = x.shape[0]
    if not 0 < resolution <= budget.r:
        raise ValueError("resolution must lie in (0, r]")
    steps = int(np.floor(budget.r / resolution + _STEP_TOL))
    total = (2 * steps + 1) ** d
    if total > _GRID_MAX_POINTS:
        raise CostGuardError(
            f"grid of {total} points exceeds cap {_GRID_MAX_POINTS}; "
            "coarsen the resolution")

    if prediction is not None and prediction != y:
        return AttackResult(FOUND, witness=x.copy(), radius=0.0)

    offsets, ends = _lattice(steps, d)
    start = 0 if prediction is None else ends[0]
    while start < len(offsets):
        # the end of the first shell that brings the chunk to _GRID_CHUNK
        # points, or of the last shell
        stop = ends[min(np.searchsorted(ends, start + _GRID_CHUNK), steps)]
        queries = x + offsets[start:stop] * resolution
        hits = np.flatnonzero(predict_batch(model, queries) != y)
        if len(hits):
            # a copy, not a view that would keep the whole chunk alive; a
            # hit on x copies x, since x + 0 * resolution turns -0.0 into +0.0
            w = x.copy() if start + hits[0] == 0 else queries[hits[0]].copy()
            return AttackResult(FOUND, witness=w, radius=float(np.max(np.abs(w - x))))
        start = stop
    return AttackResult(UNKNOWN)


_ATTACKS = {"histogram": _attack_histogram, "nn1": _attack_nn1, "grid": _attack_grid}


# ---------------------------------------------------------------------------
# dispatch


def resolve_attack(model, method: str = "auto") -> tuple[str, bool]:
    """The attack that ``method`` (one of ``METHODS``) runs on this model:
    (name, is_approximate).

    ``auto`` takes the exact attack that covers the model family, or the
    grid when none does.  An exact method that does not cover the model, or
    an unknown name, raises AttackMethodError.
    """
    exact = None
    if isinstance(model, HistogramModel):
        exact = "histogram"
    elif isinstance(model, KnnModel) and model.k == 1 and model.train.dim == 2:
        exact = "nn1"
    if method == "grid" or (method == "auto" and exact is None):
        return "grid", True
    if method in ("auto", exact):
        return exact, False
    if method in METHODS:
        raise AttackMethodError(f"exact method {method!r} does not cover this model")
    raise AttackMethodError(f"unknown attack method {method!r}")


def run_attack(model, x, y: int, budget: AttackBudget, method: str = "auto",
               resolution: float = 1e-3) -> AttackResult:
    """Attack one point with the method ``resolve_attack`` picks.  Every
    attack reports a misprediction at x as FOUND at radius 0.  A label
    other than +1 or -1, or an x that is not one finite point in the
    model's dimension, raises ValueError before any attack runs.  Only the
    1-NN row gets a prediction of x from here; the histogram row never
    reads one, and the grid predicts x in its first chunk."""
    method, _ = resolve_attack(model, method)
    if y not in (1, -1):
        raise ValueError(f"label must be +1 or -1, got {y!r}")
    x = as_queries(model, np.ravel(x))[0]
    if not np.isfinite(x).all():
        raise ValueError("query must be finite")
    prediction = predict(model, x) if method == "nn1" else None
    return _ATTACKS[method](model, x, y, prediction, budget, resolution)


def grid_attack(model, x, y: int, budget: AttackBudget, resolution: float) -> AttackResult:
    """``run_attack`` with the grid oracle."""
    return run_attack(model, x, y, budget, "grid", resolution)


@dataclass(frozen=True)
class AttackTable:
    """One attack method's verdict on every test point.

    ``accuracy`` is the share of test points predicted correctly and
    ``astuteness`` the share with no attack found within r (every method
    finds a mispredicted point at radius 0).
    ``prediction``, ``outcome`` and ``radius`` have one entry per test row,
    ``witness`` one row; ``radius`` and ``witness`` are NaN where no attack
    was found.
    """
    method: str
    approximate: bool
    accuracy: float
    astuteness: float
    prediction: np.ndarray
    outcome: np.ndarray
    radius: np.ndarray
    witness: np.ndarray


def attack_all(model, test: Dataset, budget: AttackBudget, method: str = "auto",
               resolution: float = 1e-3) -> AttackTable:
    """Attack every test point with one method.

    ``resolve_attack`` picks the method, so an exact method that does not
    cover the model is rejected before any attack; so is an empty test set.
    Duplicate (point, label) rows are attacked once and their result is
    shared, which matters for discrete scenarios where the test set
    collapses to a handful of distinct points.
    """
    if len(test) == 0:
        raise ValueError("empty test set")
    resolved, approximate = resolve_attack(model, method)
    # every family votes row by row, so the batch prediction is the one
    # predict(x) would make
    prediction = predict_batch(model, test.points)
    attack = _ATTACKS[resolved]
    keyed = np.concatenate([test.points, test.labels[:, None].astype(float)], axis=1)
    _, first, inverse = np.unique(keyed, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)       # numpy 2.0.0 returns it as (n, 1)
    results = [attack(model, test.points[i], int(test.labels[i]), int(prediction[i]),
                      budget, resolution) for i in first]
    nowhere = np.full(test.dim, np.nan)
    outcome = np.array([res.outcome for res in results], dtype=object)[inverse]
    return AttackTable(
        method=resolved, approximate=approximate,
        accuracy=float(np.mean(prediction == test.labels)),
        astuteness=float(np.mean(outcome != FOUND)),
        prediction=prediction, outcome=outcome,
        radius=np.array([res.radius if res.found else np.nan for res in results])[inverse],
        witness=np.array([res.witness if res.found else nowhere
                          for res in results]).reshape(-1, test.dim)[inverse])
