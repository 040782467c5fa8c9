"""The four benchmark workloads.

Each workload makes the same library calls as one CLI path, on inputs the
benchmark generates from its seed.  A workload has five parts:

setup      draws the inputs (``data.generate``); timed as ``setup_s``.
iterate    the pipeline a user waits for; timed as ``wall_s``.
ops        one call per item (attack per test point, ``weights`` per query),
           each timed for ``op_p50_ms`` / ``op_p99_ms``.  Where the pipeline
           itself is the only call (``noisy_prune``), ``iterate`` marks it.
decompose  traced rounds only: calls the functions nested inside the
           pipeline's outer calls again, on the same inputs, so an outer
           call's self time is its span minus these.
check      invariants on the outputs, checked on every seed.

``digest_parts`` lists the outputs whose bytes must stay identical for a
given seed: verdicts, radii, kept indices and probe estimates.
"""

from __future__ import annotations

import math

import numpy as np

import astute_np as an
from tracing import OperationFailed

OUTCOME_CODE = {an.FOUND: 1, an.CERTIFIED_ASTUTE: 2, an.UNKNOWN: 3}
OP_PASSES = 2


def _gen(run, n, sigma, stream):
    return run.call("data.generate", an.generate,
                    an.ScenarioSpec("half_moons", n, sigma=sigma), stream)


def moons_inputs(run, seed, index, n_train, n_test, sigma):
    """Train and test half-moons; both moons workloads draw the same data."""
    root = an.RandomStream(seed, 0)
    return {"train": _gen(run, n_train, sigma, root.child(2 * index)),
            "test": _gen(run, n_test, sigma, root.child(2 * index + 1))}


def each(run, span, fn, items, op=True):
    """``fn(*item)`` for every item, one operation each; a raising call
    leaves ``None`` for its item and the round goes on.

    Untraced rounds make ``OP_PASSES`` passes over the op calls, so that an
    item's latency can be its faster call: a call the machine preempted then
    does not set the tail.  The first pass's results are returned.
    """
    results = []
    for n in range(OP_PASSES if op and not run.trace else 1):
        for item in items:
            try:
                result = run.call(span, fn, *item, op=op)
            except OperationFailed:
                result = None
            if n == 0:
                results.append(result)
    return results


def attack_each(run, span, model, test, budget):
    """``run_attack`` on every test point."""
    return each(run, span, an.run_attack,
                [(model, x, int(y), budget) for x, y in zip(test.points, test.labels)])


def outcome_arrays(results):
    codes = np.array([OUTCOME_CODE[r.outcome] for r in results], dtype=np.int8)
    radii = np.array([r.radius if r.radius is not None else math.nan
                      for r in results], dtype=float)
    return codes, radii


def outcome_counts(prefix, results):
    return {f"{prefix}.found": sum(r.outcome == an.FOUND for r in results),
            f"{prefix}.certified": sum(r.outcome == an.CERTIFIED_ASTUTE for r in results)}


def edge_count(graph):
    """Conflict edges counted from the returned adjacency lists."""
    return sum(len(a) for a in graph.adj)


def conflict_free(ds, kept, r):
    """Independent check that no kept +1 / -1 pair is within 2r (l-inf)."""
    pts, labels = ds.points[kept], ds.labels[kept]
    plus, minus = pts[labels == 1], pts[labels == -1]
    for s in range(0, len(plus), 256):
        if len(minus) == 0:
            break
        gap = np.abs(plus[s:s + 256, None, :] - minus[None, :, :]).max(axis=2)
        if gap.min() <= 2.0 * r:
            return False
    return True


def check_witnesses(model, test, results, budget, what):
    """Every FOUND result lies within r and flips ``predict``."""
    bad = []
    for i, res in enumerate(results):
        if res is None or not res.found:
            continue
        x, y = test.points[i], int(test.labels[i])
        if res.radius > budget.r + budget.tol:
            bad.append(f"{what} point {i}: radius {res.radius} > r")
        if np.max(np.abs(res.witness - x)) > budget.r + budget.tol:
            bad.append(f"{what} point {i}: witness outside the ball")
        if an.predict(model, res.witness) == y:
            bad.append(f"{what} point {i}: witness does not flip the prediction")
    return bad


def check_prune(ds, pruned, r, what):
    bad = []
    if len(pruned.kept) != len(ds) - pruned.matching_size:
        bad.append(f"{what}: kept {len(pruned.kept)} != n - matching "
                   f"{len(ds) - pruned.matching_size}")
    if not conflict_free(ds, pruned.kept, r):
        bad.append(f"{what}: kept set has a conflict within 2r")
    return bad


def check_report(report, results):
    bad = []
    if report.astuteness > report.accuracy:
        bad.append(f"astuteness {report.astuteness} > accuracy {report.accuracy}")
    certified = np.mean([r.outcome == an.CERTIFIED_ASTUTE for r in results])
    if abs(certified - report.astuteness) > 1e-12:
        bad.append(f"astuteness {report.astuteness} != certified share {certified} "
                   "of the per-point attacks")
    return bad


def dedup_hits(test):
    """Test rows whose (point, label) repeats an earlier row."""
    keyed = np.concatenate([test.points, test.labels[:, None].astype(float)], axis=1)
    return len(test) - len(np.unique(keyed, axis=0))


def report_parts(report):
    return [float(report.accuracy).hex(), float(report.astuteness).hex(), report.method]


class Workload:
    """Sizes come from ``PRESETS``: ``full`` for runs, ``toy`` for the self-test."""

    PRESETS: dict
    op_passes = OP_PASSES

    def __init__(self, size):
        for key, value in self.PRESETS[size].items():
            setattr(self, key, value)


class MoonsNN1(Workload):
    """``train-eval`` with pruning and 1-NN: prune, train, attack every point."""

    name = "moons_nn1"
    exact_attack = "attack.nn1"
    PRESETS = {"full": dict(input_sets=6, n_train=3000, n_test=1000),
               "toy": dict(input_sets=2, n_train=200, n_test=60)}
    sigma, prune_r, attack_r = 0.08, 0.1, 0.09

    def __init__(self, size):
        super().__init__(size)
        self.budget = an.AttackBudget(self.attack_r)

    def setup(self, run, seed, index):
        return moons_inputs(run, seed, index, self.n_train, self.n_test, self.sigma)

    def iterate(self, run, inp):
        pruned = run.call("prune.adv_prune", an.adv_prune, inp["train"], self.prune_r)
        kept = run.call("data.subset", inp["train"].subset, pruned.kept)
        model = run.call("models.train_knn", an.train_knn, kept, k=1)
        report = run.call("evaluation.empirical_astuteness", an.empirical_astuteness,
                          model, inp["test"], self.budget)
        return {"pruned": pruned, "model": model, "report": report}

    def ops(self, run, inp, out):
        return attack_each(run, self.exact_attack, out["model"], inp["test"], self.budget)

    def decompose(self, run, inp, out, ops):
        graph = run.call("prune.build_conflict_graph", an.build_conflict_graph,
                         inp["train"], self.prune_r)
        run.call("prune.max_matching", an.max_matching, graph)
        run.call("evaluation.accuracy", an.accuracy, out["model"], inp["test"])
        run.call("models.predict_batch.knn", an.predict_batch, out["model"], inp["test"].points)
        run.call("data.pairwise_distances", an.pairwise_distances, an.L2,
                 inp["test"].points, out["model"].train.points)
        return {"prune.edges": edge_count(graph)}

    def counts(self, inp, out, ops):
        pruned = out["pruned"]
        return {"prune.matching_size": pruned.matching_size,
                "prune.kept": len(pruned.kept),
                "models.predict_batch.knn_queries": len(inp["test"]),
                "evaluation.dedup_hits": dedup_hits(inp["test"]),
                **outcome_counts("attack.nn1", ops)}

    def check(self, inp, out, ops):
        bad = []
        if an.resolve_attack(out["model"])[0] != "nn1":
            bad.append("model does not resolve to the exact 1-NN attack")
        bad += check_prune(inp["train"], out["pruned"], self.prune_r, "prune")
        bad += check_report(out["report"], ops)
        bad += check_witnesses(out["model"], inp["test"], ops, self.budget, "nn1")
        return bad

    def digest_parts(self, out, ops):
        codes, radii = outcome_arrays(ops)
        return [out["pruned"].kept.astype(np.int64), out["pruned"].matching_size,
                *report_parts(out["report"]), codes, radii]


class MoonsHist(Workload):
    """Histogram astuteness, exact over every point, then the grid oracle."""

    name = "moons_hist"
    exact_attack = "attack.histogram"
    PRESETS = {"full": dict(input_sets=10, n_train=3000, n_test=1000, n_grid=128,
                            resolution=8e-3),
               "toy": dict(input_sets=2, n_train=200, n_test=60, n_grid=4, resolution=1e-2)}
    sigma, attack_r = 0.08, 0.09

    def __init__(self, size):
        super().__init__(size)
        self.budget = an.AttackBudget(self.attack_r)

    def setup(self, run, seed, index):
        return moons_inputs(run, seed, index, self.n_train, self.n_test, self.sigma)

    def iterate(self, run, inp):
        test = inp["test"]
        model = run.call("models.train_histogram", an.train_histogram, inp["train"])
        report = run.call("evaluation.empirical_astuteness", an.empirical_astuteness,
                          model, test, self.budget)
        grid = [run.call("attack.grid", an.grid_attack, model, test.points[i],
                         int(test.labels[i]), self.budget, self.resolution)
                for i in range(self.n_grid)]
        return {"model": model, "report": report, "grid": grid}

    def ops(self, run, inp, out):
        return attack_each(run, self.exact_attack, out["model"], inp["test"], self.budget)

    def lattice(self, x, res):
        """The lattice ``grid_attack`` scanned for one point: every shell up
        to the one holding its witness, or all of them when none was found."""
        if res.found and res.radius == 0.0:
            return x[None, :]
        steps = (round(res.radius / self.resolution) if res.found
                 else int(np.floor(self.budget.r / self.resolution + 1e-12)))
        axis = np.arange(-steps, steps + 1, dtype=float) * self.resolution
        offsets = np.stack(np.meshgrid(*([axis] * len(x)), indexing="ij"), -1)
        return x + offsets.reshape(-1, len(x))

    def decompose(self, run, inp, out, ops):
        run.call("evaluation.accuracy", an.accuracy, out["model"], inp["test"])
        points = np.concatenate([self.lattice(inp["test"].points[i], res)
                                 for i, res in enumerate(out["grid"])])
        run.call("models.predict_batch.histogram", an.predict_batch, out["model"], points)
        return {"attack.grid.lattice_points": len(points)}

    def counts(self, inp, out, ops):
        grid = out["grid"]
        return {"models.histogram.leaves": len(out["model"].leaf_vote),
                "evaluation.dedup_hits": dedup_hits(inp["test"]),
                "attack.grid.found": sum(r.outcome == an.FOUND for r in grid),
                "attack.grid.unknown": sum(r.outcome == an.UNKNOWN for r in grid),
                **outcome_counts("attack.histogram", ops)}

    def check(self, inp, out, ops):
        test = inp["test"]
        bad = check_report(out["report"], ops)
        bad += check_witnesses(out["model"], test, ops, self.budget, "histogram")
        bad += check_witnesses(out["model"], test, out["grid"], self.budget, "grid")
        for i, res in enumerate(out["grid"]):
            exact = ops[i]
            if res.found and not (exact.found and exact.radius <= res.radius + self.budget.tol):
                bad.append(f"grid point {i}: grid radius {res.radius} below the exact "
                           f"result {exact.outcome} {exact.radius}")
        return bad

    def digest_parts(self, out, ops):
        codes, radii = outcome_arrays(ops)
        grid_codes, grid_radii = outcome_arrays(out["grid"])
        return [len(out["model"].leaf_vote), *report_parts(out["report"]),
                codes, radii, grid_codes, grid_radii]


class NoisyPrune(Workload):
    """``prune`` on heavily overlapping classes: a dense conflict graph."""

    name = "noisy_prune"
    exact_attack = None
    op_passes = 1               # its op is the pipeline's one call
    PRESETS = {"full": dict(input_sets=4, n=12000), "toy": dict(input_sets=2, n=400)}
    sigma, prune_r = 0.3, 0.1

    def setup(self, run, seed, index):
        return {"train": _gen(run, self.n, self.sigma, an.RandomStream(seed, 1).child(index))}

    def iterate(self, run, inp):
        return {"pruned": run.call("prune.adv_prune", an.adv_prune, inp["train"],
                                   self.prune_r, op=True)}

    def ops(self, run, inp, out):
        return []

    def decompose(self, run, inp, out, ops):
        ds = inp["train"]
        graph = run.call("prune.build_conflict_graph", an.build_conflict_graph, ds, self.prune_r)
        run.call("prune.max_matching", an.max_matching, graph)
        plus, minus = ds.points[ds.labels == 1], ds.points[ds.labels == -1]
        for s in range(0, len(plus), 256):
            run.call("data.pairwise_distances", an.pairwise_distances, an.LINF,
                     plus[s:s + 256], minus)
        return {"prune.edges": edge_count(graph)}

    def counts(self, inp, out, ops):
        return {"prune.matching_size": out["pruned"].matching_size,
                "prune.kept": len(out["pruned"].kept)}

    def check(self, inp, out, ops):
        return check_prune(inp["train"], out["pruned"], self.prune_r, "prune")

    def digest_parts(self, out, ops):
        return [out["pruned"].kept.astype(np.int64), out["pruned"].matching_size]


class FarWeightProbe(Workload):
    """``probe`` for the Gaussian kernel and 1-NN: single-query ``weights``."""

    name = "far_weight_probe"
    exact_attack = None
    PRESETS = {"full": dict(input_sets=3, probe_sizes=(100, 1000), probe_draws=150,
                            n_weights=1000, n_queries=25),
               "toy": dict(input_sets=2, probe_sizes=(20, 50), probe_draws=3,
                           n_weights=50, n_queries=3)}
    sigma, a, b = 0.08, 0.05, 0.08
    boundary, interior = 64, 16

    def config(self, model, seed):
        return an.ProbeConfig(model=model, sigma=self.sigma, a=self.a, b=self.b,
                              sizes=self.probe_sizes, draws=self.probe_draws,
                              boundary_candidates=self.boundary,
                              interior_candidates=self.interior, seed=seed)

    def setup(self, run, seed, index):
        root = an.RandomStream(seed, 2).child(index)
        train = _gen(run, self.n_weights, self.sigma, root.child(0))
        centers = _gen(run, self.n_queries, self.sigma, root.child(1)).points
        # each query's ball candidates, shaped like the probe's own: the
        # centre, points on the l-inf sphere of radius a, points inside it
        theta = 2 * np.pi * np.arange(self.boundary) / self.boundary
        ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ring = self.a * ring / np.max(np.abs(ring), axis=1, keepdims=True)
        rng = root.child(2).generator()
        balls = [np.vstack([c, c + ring, c + rng.uniform(-self.a, self.a, (self.interior, 2))])
                 for c in centers]
        return {"train": train, "balls": balls,
                "knn": run.call("models.train_knn", an.train_knn, train, k=1),
                "kernel": run.call("models.train_kernel", an.train_kernel, train),
                # the probe draws its own data from an integer seed
                "configs": [self.config(family, 1000 * seed + index)
                            for family in ("knn", "kernel")]}

    def iterate(self, run, inp):
        return {"probes": [run.call("evaluation.probe_far_weight", an.probe_far_weight, cfg)
                           for cfg in inp["configs"]]}

    def ops(self, run, inp, out):
        return each(run, "models.weights.knn", an.weights,
                    [(inp["knn"], q) for q in np.concatenate(inp["balls"])])

    def decompose(self, run, inp, out, ops):
        each(run, "models.weights.kernel", an.weights,
             [(inp["kernel"], q) for q in np.concatenate(inp["balls"])], op=False)
        for ball in inp["balls"]:
            run.call("data.pairwise_distances", an.pairwise_distances, an.LINF,
                     ball, inp["train"].points)
        return {}

    def counts(self, inp, out, ops):
        per_draw = 1 + self.boundary + self.interior
        return {"models.weights.calls": 2 * len(self.probe_sizes) * self.probe_draws * per_draw,
                "models.weights.timed_calls": len(ops)}

    def check(self, inp, out, ops):
        bad = []
        for probe in out["probes"]:
            # a far-weight sum may exceed 1 by the rounding of the weights' sum
            if not np.all((probe.estimates >= 0) & (probe.estimates <= 1 + 1e-12)):
                bad.append(f"probe estimates outside [0, 1]: {probe.estimates}")
            if not np.all(np.isfinite(probe.std_errors) & (probe.std_errors >= 0)):
                bad.append(f"probe standard errors invalid: {probe.std_errors}")
        for w in ops:
            if w is not None and not (np.count_nonzero(w) == 1 and w.max() == 1.0):
                bad.append("1-NN weights are not a single unit weight")
                break
        return bad

    def digest_parts(self, out, ops):
        return [p for probe in out["probes"] for p in (probe.estimates, probe.std_errors)]


WORKLOADS = {w.name: w for w in (MoonsNN1, MoonsHist, NoisyPrune, FarWeightProbe)}
