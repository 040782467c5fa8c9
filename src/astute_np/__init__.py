"""Robustness toolkit for non-parametric classifiers.

Training (k-NN, kernel smoothing, recursive histograms), defense by
adversarial pruning, exact and grid-based minimal-perturbation attacks
under the l-inf metric, and the evaluation harness built on them.
"""

from .data import (L2, LINF, MOON_SCALE, Dataset, RandomStream, ScenarioSpec,
                   example1_posterior, generate, pairwise_distances, read_csv,
                   write_csv)
from .models import (GAUSSIAN, INVERSE_POLY, KERNELS, MODELS, PLATEAU_EXAMPLE3,
                     HistogramModel, KernelModel, KnnModel, default_bandwidth,
                     default_cell_threshold, make_model, predict, predict_batch,
                     train_histogram, train_kernel, train_knn, weights,
                     weights_batch)
from .prune import (ConflictGraph, PrunedSet, adv_prune, build_conflict_graph,
                    max_matching)
from .attack import (CERTIFIED_ASTUTE, FOUND, UNKNOWN, AttackBudget,
                     AttackMethodError, AttackResult, AttackTable,
                     CostGuardError, attack_all, grid_attack, resolve_attack,
                     run_attack)
from .evaluation import (DEFAULT_SIZES, BayesGapReport, ProbeConfig,
                         ProbeResult, SweepConfig, SweepResult, accuracy,
                         bayes_gap_demo, convergence_sweep,
                         empirical_astuteness, probe_far_weight)
from .chart import ACCURACY_COLOR, ASTUTENESS_COLOR, sweep_chart

__version__ = "0.1.0"

__all__ = [
    "L2", "LINF", "MOON_SCALE", "Dataset", "RandomStream", "ScenarioSpec",
    "example1_posterior", "generate", "pairwise_distances", "read_csv",
    "write_csv",
    "GAUSSIAN", "INVERSE_POLY", "KERNELS", "MODELS", "PLATEAU_EXAMPLE3",
    "HistogramModel", "KernelModel", "KnnModel", "default_bandwidth",
    "default_cell_threshold", "make_model", "predict", "predict_batch",
    "train_histogram", "train_kernel", "train_knn", "weights", "weights_batch",
    "ConflictGraph", "PrunedSet", "adv_prune", "build_conflict_graph",
    "max_matching",
    "CERTIFIED_ASTUTE", "FOUND", "UNKNOWN", "AttackBudget",
    "AttackMethodError", "AttackResult", "AttackTable", "CostGuardError",
    "attack_all", "grid_attack", "resolve_attack", "run_attack",
    "DEFAULT_SIZES", "BayesGapReport", "ProbeConfig", "ProbeResult",
    "SweepConfig", "SweepResult", "accuracy", "bayes_gap_demo",
    "convergence_sweep", "empirical_astuteness", "probe_far_weight",
    "ACCURACY_COLOR", "ASTUTENESS_COLOR", "sweep_chart",
]
