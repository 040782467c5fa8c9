"""Accuracy and astuteness measurement, convergence sweeps, and probes.

The sweep reproduces the convergence-versus-training-size experiment:
draw, optionally prune, train, attack every test point, aggregate over
repeats.  Histograms and 2-D 1-NN get an exact attack.  Every other model,
kernels and k > 1 among them, gets the grid scan, which counts a point it
cannot attack as astute, so its astuteness is an upper estimate.

The probes estimate the far-mass condition that governs r-consistency of
weight functions: the expected supremum, over the l-inf ball of radius a
around a query, of the total weight carried by training points farther
than b.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (LINF, Dataset, RandomStream, ScenarioSpec, _require_count,
                   _write_lines, example1_posterior, generate, pairwise_distances,
                   require_positive, row_blocks)
from .models import GAUSSIAN, KERNELS, MODELS, make_model, predict_batch, weights
from .attack import AttackBudget, attack_all
from .prune import adv_prune

DEFAULT_SIZES = (20, 50, 100, 200, 500, 1000, 2000, 3000)

SWEEP_CSV_HEADER = "n,accuracy_mean,accuracy_std,astuteness_mean,astuteness_std"


def accuracy(model, test: Dataset) -> float:
    if len(test) == 0:
        raise ValueError("empty test set")
    preds = predict_batch(model, test.points)
    return float(np.mean(preds == test.labels))


#: the astuteness report is ``attack_all``'s table; perfbench times this name
empirical_astuteness = attack_all


# ---------------------------------------------------------------------------
# convergence sweep


@dataclass(frozen=True)
class _Experiment:
    """What sweep and probe configs share, with its rules: the scenario, the
    sizes and seed to draw with, optional pruning, the model family."""

    scenario: str = "half_moons"
    sigma: float = 0.0
    model: str = "knn"           # knn | histogram | kernel
    k: int = 1
    kernel: str = GAUSSIAN
    sizes: tuple = DEFAULT_SIZES
    prune_r: Optional[float] = None
    scenario_r: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        _require_count("k", self.k)
        self.spec(0)
        if not self.sizes:
            raise ValueError("sizes must not be empty")
        for n in self.sizes:
            _require_count("sizes", n)
        if self.prune_r is not None:
            require_positive("prune_r", self.prune_r)

    def spec(self, n: int) -> ScenarioSpec:
        """The scenario with ``n`` points; ValueError if its keys are bad."""
        return ScenarioSpec(self.scenario, n, sigma=self.sigma, r=self.scenario_r)

    def fit(self, ds: Dataset, kn: Optional[int] = None):
        """The model family trained on ``ds``, pruned first if ``prune_r`` is
        set; the model's ``train`` is the set it was trained on."""
        if self.prune_r is not None:
            ds = ds.subset(adv_prune(ds, self.prune_r).kept)
        return make_model(self.model, ds, k=self.k, kn=kn, kernel=self.kernel)


@dataclass(frozen=True)
class SweepConfig(_Experiment):
    kn: Optional[int] = None
    repeats: int = 5
    n_test: int = 1000
    attack_r: float = 0.1
    resolution: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly increasing")
        _require_count("repeats", self.repeats)
        _require_count("n_test", self.n_test)
        require_positive("attack_r", self.attack_r)
        if self.kn is not None:
            _require_count("kn", self.kn)
        # resolution <= attack_r is checked by the grid attack, the one method
        # that reads resolution
        require_positive("resolution", self.resolution)


@dataclass(frozen=True)
class SweepResult:
    sizes: tuple
    accuracy_mean: np.ndarray
    accuracy_std: np.ndarray
    astuteness_mean: np.ndarray
    astuteness_std: np.ndarray

    def to_csv(self, path):
        cols = (self.accuracy_mean, self.accuracy_std, self.astuteness_mean, self.astuteness_std)
        _write_lines(path, [SWEEP_CSV_HEADER] + [f"{n}," + ",".join(f"{v:.17g}" for v in vals)
                                                 for n, *vals in zip(self.sizes, *cols)])


def _sweep_cell(cfg: SweepConfig, n: int, cell: int) -> tuple:
    """One (size, repeat) job: returns (accuracy, astuteness)."""
    root = RandomStream(cfg.seed, 0)
    train_ds = generate(cfg.spec(n), root.child(2 * cell))
    test_ds = generate(cfg.spec(cfg.n_test), root.child(2 * cell + 1))
    model = cfg.fit(train_ds, kn=cfg.kn)
    table = attack_all(model, test_ds, AttackBudget(cfg.attack_r), resolution=cfg.resolution)
    return table.accuracy, table.astuteness


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("ASTUTE_NP_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"ASTUTE_NP_THREADS must be an integer, got {raw!r}") from None
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def convergence_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every (size, repeat) cell and aggregate mean/std per size.

    Cells are independent jobs with dedicated random streams, so the result
    is identical whether they run serially or across a process pool.
    """
    jobs = [(n, i * cfg.repeats + j)
            for i, n in enumerate(cfg.sizes) for j in range(cfg.repeats)]
    workers = _worker_count(len(jobs))
    if workers == 1:
        results = [_sweep_cell(cfg, n, c) for n, c in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, [cfg] * len(jobs),
                                    [n for n, _ in jobs], [c for _, c in jobs]))

    acc = np.array([r[0] for r in results]).reshape(len(cfg.sizes), cfg.repeats)
    ast = np.array([r[1] for r in results]).reshape(len(cfg.sizes), cfg.repeats)
    return SweepResult(sizes=tuple(cfg.sizes),
                       accuracy_mean=acc.mean(axis=1), accuracy_std=acc.std(axis=1),
                       astuteness_mean=ast.mean(axis=1), astuteness_std=ast.std(axis=1))


# ---------------------------------------------------------------------------
# far-weight probes

#: random-stream offsets each probe size owns: three per draw
_STREAMS_PER_SIZE = 300_000


@dataclass(frozen=True)
class ProbeConfig(_Experiment):
    # only the default differs; the field and its rules are the base's
    sizes: tuple = (100, 1000)
    a: float = 0.05
    b: float = 0.1
    draws: int = 400
    boundary_candidates: int = 64
    interior_candidates: int = 16
    fixed_x: Optional[tuple] = None

    def __post_init__(self):
        super().__post_init__()
        dim = self.spec(0).dim
        if self.fixed_x is not None and (len(self.fixed_x) != dim
                                         or not np.isfinite(self.fixed_x).all()):
            raise ValueError(f"fixed_x must have {dim} finite coordinates "
                             f"for scenario {self.scenario!r}")
        if not 0 < self.a < self.b:
            raise ValueError("need 0 < a < b")
        if _require_count("draws", self.draws) > _STREAMS_PER_SIZE // 3:
            raise ValueError(f"draws must be at most {_STREAMS_PER_SIZE // 3}, got {self.draws}")
        _require_count("boundary_candidates", self.boundary_candidates)
        _require_count("interior_candidates", self.interior_candidates, least=0)
        if self.prune_r is not None and self.fixed_x is not None:
            raise ValueError("fixed_x and prune_r exclude each other: "
                             "the pruned probe averages over the pruned points")


@dataclass(frozen=True)
class ProbeResult:
    sizes: tuple
    estimates: np.ndarray
    std_errors: np.ndarray


def _ball_candidates(x: np.ndarray, a: float, n_boundary: int, n_interior: int,
                     rng) -> np.ndarray:
    """Center plus boundary and interior points of the l-inf ball B(x, a)."""
    d = x.shape[0]
    cands = [x]
    if d == 2:
        theta = 2 * np.pi * np.arange(n_boundary) / n_boundary
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        dirs = rng.standard_normal((n_boundary, d))
    scale = np.max(np.abs(dirs), axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    cands.append(x + a * dirs / scale)
    cands.append(x + rng.uniform(-a, a, size=(n_interior, d)))
    return np.vstack([np.atleast_2d(c) for c in cands])


def _far_weight_sup(model, cands: np.ndarray, b: float) -> float:
    best = 0.0
    far = pairwise_distances(LINF, cands, model.train.points) > b
    for c, far_row in zip(cands, far):
        w = weights(model, c)
        best = max(best, float(w[far_row].sum()))
    return best


def probe_far_weight(cfg: ProbeConfig) -> ProbeResult:
    """Monte-Carlo estimate of the expected far-weight supremum per size.

    Each draw uses a fresh training set.  Without ``cfg.prune_r`` the outer
    average is over one fresh query (or the fixed query from the config).
    With it, weights come from a model trained on the pruned set and the
    outer average runs over the pruned points themselves.  The supremum
    over the ball is lower-bounded by a finite candidate set, which is all
    the trend assertions need.
    """
    root = RandomStream(cfg.seed, 0)
    est = np.empty(len(cfg.sizes))
    se = np.empty(len(cfg.sizes))
    for i, n in enumerate(cfg.sizes):
        vals = np.empty(cfg.draws)
        for j in range(cfg.draws):
            stream = i * _STREAMS_PER_SIZE + 3 * j
            model = cfg.fit(generate(cfg.spec(n), root.child(stream)))
            if cfg.prune_r is not None:
                queries = model.train.points
            elif cfg.fixed_x is not None:
                queries = [np.asarray(cfg.fixed_x, dtype=float)]
            else:
                queries = generate(cfg.spec(1), root.child(stream + 1)).points
            c_rng = root.child(stream + 2).generator()
            total = 0.0
            for x in queries:
                cands = _ball_candidates(x, cfg.a, cfg.boundary_candidates,
                                         cfg.interior_candidates, c_rng)
                total += _far_weight_sup(model, cands, cfg.b)
            vals[j] = total / len(queries)
        est[i] = vals.mean()
        se[i] = vals.std(ddof=1) / np.sqrt(cfg.draws) if cfg.draws > 1 else 0.0
    return ProbeResult(sizes=tuple(cfg.sizes), estimates=est, std_errors=se)


# ---------------------------------------------------------------------------
# 1-D analytic demo


@dataclass(frozen=True)
class BayesGapReport:
    bayes_accuracy: float
    bayes_astuteness: float
    const_accuracy: float
    const_astuteness: float
    const_robust_fraction: float


def bayes_gap_demo(r: float, n: int, seed: int = 0) -> BayesGapReport:
    """Compare the Bayes rule against the constant +1 rule on the 1-D
    oscillating scenario.

    The Bayes rule's robustness at x is read off a scan of [x - r, x + r] at
    resolution r/1000.  A scan can only show a flip, never rule one out
    between its points; here that is enough, because the posterior
    0.5 + sin(4 pi x / r) changes sign every r/4, so every window of width
    2r holds flips the scan sees and ``bayes_astuteness`` is exactly 0.  The
    constant rule is trivially robust and keeps the majority class's
    astuteness.  The scan runs in row blocks, so memory does not grow with n.
    """
    require_positive("r", r)
    require_positive("n", n)
    ds = generate(ScenarioSpec("example1", n, r=r), RandomStream(seed, 0))
    x = ds.points[:, 0]
    y = ds.labels

    offsets = np.linspace(-r, r, 2001)
    bayes_point = np.empty(len(x), dtype=int)
    bayes_constant = np.empty(len(x), dtype=bool)
    for block in row_blocks(len(x), len(offsets)):
        bayes_grid = np.where(example1_posterior(x[block, None] + offsets, r) > 0.5, 1, -1)
        bayes_point[block] = bayes_grid[:, 1000]
        bayes_constant[block] = np.all(bayes_grid == bayes_grid[:, 1000:1001], axis=1)
    bayes_correct = bayes_point == y

    const_correct = y == 1
    return BayesGapReport(
        bayes_accuracy=float(np.mean(bayes_correct)),
        bayes_astuteness=float(np.mean(bayes_correct & bayes_constant)),
        const_accuracy=float(np.mean(const_correct)),
        const_astuteness=float(np.mean(const_correct)),
        const_robust_fraction=1.0,
    )
