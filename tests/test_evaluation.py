"""Evaluation layer: astuteness reports, convergence sweeps, far-weight probes."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from astute_np import (FOUND, PLATEAU_EXAMPLE3, AttackBudget, Dataset,
                       ProbeConfig, RandomStream, ScenarioSpec, SweepConfig,
                       accuracy, adv_prune, attack_all, bayes_gap_demo,
                       convergence_sweep, empirical_astuteness, generate,
                       predict, probe_far_weight, run_attack, train_histogram,
                       train_kernel, train_knn)
from astute_np import evaluation
from astute_np.evaluation import SWEEP_CSV_HEADER

import oracles


def _random_ds(seed, n, d=2):
    rng = np.random.default_rng(seed)
    pts, labels = oracles.random_two_class(rng, n, d)
    return Dataset(pts, labels)


# ---------------------------------------------------------------------------
# accuracy and astuteness reports


def test_accuracy_simple():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    test = Dataset(np.array([[0.1, 0.0], [0.9, 1.0], [0.1, 0.1]]),
                   np.array([1, -1, -1]))
    assert accuracy(model, test) == pytest.approx(2 / 3)


def test_accuracy_rejects_empty():
    ds = Dataset(np.array([[0.0, 0.0]]), np.array([1]))
    model = train_knn(ds, k=1)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        accuracy(model, empty)
    with pytest.raises(ValueError):
        empirical_astuteness(model, empty, AttackBudget(0.1))


def test_astuteness_never_exceeds_accuracy():
    for seed in range(4):
        ds = _random_ds(seed, n=40)
        test = _random_ds(100 + seed, n=30)
        for model in (train_knn(ds, k=1), train_histogram(ds)):
            rep = empirical_astuteness(model, test, AttackBudget(0.1))
            assert rep.astuteness <= rep.accuracy + 1e-12


def test_report_method_and_flag():
    ds = _random_ds(9, n=20)
    test = _random_ds(10, n=5)
    budget = AttackBudget(0.05)
    hist = empirical_astuteness(train_histogram(ds), test, budget)
    assert hist.method == "histogram" and not hist.approximate
    nn1 = empirical_astuteness(train_knn(ds, k=1), test, budget)
    assert nn1.method == "nn1" and not nn1.approximate
    knn3 = empirical_astuteness(train_knn(ds, k=3), test, budget,
                                resolution=0.025)
    assert knn3.method == "grid" and knn3.approximate
    assert len(hist.outcome) == len(test)


def test_grid_astuteness_upper_bounds_exact():
    # the grid can only miss attacks, so its astuteness reads high
    ds = _random_ds(21, n=40)
    model = train_histogram(ds)
    test = _random_ds(22, n=25)
    exact = empirical_astuteness(model, test, AttackBudget(0.1))
    coarse = empirical_astuteness(model, test, AttackBudget(0.1),
                                  method="grid", resolution=0.05)
    assert coarse.astuteness >= exact.astuteness - 1e-12


def test_duplicate_rows_share_verdicts():
    ds = _random_ds(31, n=30)
    model = train_histogram(ds)
    base = _random_ds(32, n=8)
    rep_idx = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 3, 3, 3, 7])
    test = Dataset(base.points[rep_idx], base.labels[rep_idx])
    budget = AttackBudget(0.1)
    rep = empirical_astuteness(model, test, budget)
    direct = np.mean([not run_attack(model, test.points[i], int(test.labels[i]), budget).found
                      for i in range(len(test))])
    assert rep.astuteness == pytest.approx(float(direct), abs=1e-12)


def _family_case(family):
    """(training set, model, eight test points) for one attack family."""
    if family == "grid-kernel":
        # plateau kernel on half-moons: test rows 27 and 28 of the stream get
        # all-equal weights, a true tie of 0 that predicts -1 at any batch size
        ds = generate(ScenarioSpec("half_moons", 200, sigma=0.08), RandomStream(1, 0))
        test = generate(ScenarioSpec("half_moons", 300, sigma=0.08), RandomStream(1, 1))
        return ds, train_kernel(ds, kind=PLATEAU_EXAMPLE3), test.subset(np.arange(24, 32))
    ds = _random_ds(33, n=30)
    if family == "nn1":
        model = train_knn(ds, k=1)
    elif family == "grid-knn3":
        model = train_knn(ds, k=3)
    else:
        model = train_histogram(ds)
    return ds, model, _random_ds(34, n=8)


@pytest.mark.parametrize("family", ["histogram", "nn1", "grid", "grid-kernel", "grid-knn3"])
def test_attack_all_matches_run_attack(family):
    ds, model, base = _family_case(family)
    method = "auto" if family in ("histogram", "nn1") else "grid"
    # a training point with the opposite label is mispredicted at radius 0
    points = np.vstack([base.points, ds.points[:1]])
    labels = np.concatenate([base.labels, -ds.labels[:1]])
    rep_idx = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3, 3, 8])
    test = Dataset(points[rep_idx], labels[rep_idx])
    budget = AttackBudget(0.1)
    table = attack_all(model, test, budget, method=method, resolution=0.02)
    assert table.method == family.split("-")[0] and table.approximate == (method == "grid")
    assert np.array_equal(table.prediction, [predict(model, x) for x in test.points])
    assert table.prediction[-1] != test.labels[-1]
    assert table.outcome[-1] == FOUND and table.radius[-1] == 0.0
    for i in range(len(test)):
        res = run_attack(model, test.points[i], int(test.labels[i]), budget,
                         method=method, resolution=0.02)
        assert table.outcome[i] == res.outcome
        if res.found:
            assert table.radius[i] == res.radius
            assert np.array_equal(table.witness[i], res.witness)
        else:
            assert np.isnan(table.radius[i]) and np.all(np.isnan(table.witness[i]))


def test_train_astuteness_bounded_by_pruning_fraction():
    # no rule can beat the separated-subset fraction on its own sample
    for seed in range(3):
        ds = _random_ds(40 + seed, n=35)
        r = 0.08
        bound = adv_prune(ds, r).kept_fraction
        for model in (train_knn(ds, k=1), train_histogram(ds)):
            rep = empirical_astuteness(model, ds, AttackBudget(r))
            assert rep.astuteness <= bound + 1e-12


# ---------------------------------------------------------------------------
# convergence sweep


def _tiny_cfg(**kw):
    base = dict(scenario="half_moons", sigma=0.0, model="knn", k=1,
                sizes=(12, 24), repeats=2, n_test=30, attack_r=0.1, seed=3)
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_shapes_and_ranges(monkeypatch):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    res = convergence_sweep(_tiny_cfg())
    assert res.sizes == (12, 24)
    for arr in (res.accuracy_mean, res.accuracy_std,
                res.astuteness_mean, res.astuteness_std):
        assert arr.shape == (2,)
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
    assert np.all(res.astuteness_mean <= res.accuracy_mean + 1e-12)


def test_sweep_deterministic_and_csv_stable(monkeypatch, tmp_path):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    a = convergence_sweep(_tiny_cfg())
    b = convergence_sweep(_tiny_cfg())
    assert np.array_equal(a.accuracy_mean, b.accuracy_mean)
    assert np.array_equal(a.astuteness_mean, b.astuteness_mean)
    assert np.array_equal(a.astuteness_std, b.astuteness_std)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    lines = pa.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("12,") and lines[2].startswith("24,")


def test_sweep_cell_follows_the_recipe(monkeypatch):
    # cell c draws its training set from child 2c and its test set from
    # child 2c + 1, prunes, trains with the config's kn, then attacks
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    res = convergence_sweep(_tiny_cfg(model="histogram", kn=1, sizes=(40,), repeats=1,
                                      sigma=0.1, prune_r=0.05))
    root = RandomStream(3, 0)
    train = generate(ScenarioSpec("half_moons", 40, sigma=0.1), root.child(0))
    test = generate(ScenarioSpec("half_moons", 30, sigma=0.1), root.child(1))
    model = train_histogram(train.subset(adv_prune(train, 0.05).kept), kn=1)
    report = empirical_astuteness(model, test, AttackBudget(0.1))
    assert (res.accuracy_mean[0], res.astuteness_mean[0]) == (report.accuracy,
                                                              report.astuteness)


def test_sweep_rejects_non_integer_thread_count(monkeypatch):
    # unset or <= 0 means every CPU; a value that is not an integer is an error
    monkeypatch.setenv("ASTUTE_NP_THREADS", "abc")
    with pytest.raises(ValueError, match="ASTUTE_NP_THREADS must be an integer, got 'abc'"):
        convergence_sweep(_tiny_cfg())


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_worker_count_non_positive_means_every_cpu(monkeypatch, raw):
    # calls the private helper directly, so no process pool starts
    monkeypatch.setenv("ASTUTE_NP_THREADS", raw)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 3)
    assert evaluation._worker_count(10) == 3
    assert evaluation._worker_count(2) == 2
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: None)
    assert evaluation._worker_count(10) == 1


def test_sweep_parallel_matches_serial(monkeypatch):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    serial = convergence_sweep(_tiny_cfg())
    monkeypatch.setenv("ASTUTE_NP_THREADS", "2")
    parallel = convergence_sweep(_tiny_cfg())
    assert np.array_equal(serial.accuracy_mean, parallel.accuracy_mean)
    assert np.array_equal(serial.accuracy_std, parallel.accuracy_std)
    assert np.array_equal(serial.astuteness_mean, parallel.astuteness_mean)
    assert np.array_equal(serial.astuteness_std, parallel.astuteness_std)


def test_import_loads_no_process_pool():
    # only a parallel sweep starts a pool, so a fresh import of the package
    # leaves its modules unloaded
    pkg_root = str(Path(evaluation.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, astute_np; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_prune_path(monkeypatch):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    res = convergence_sweep(_tiny_cfg(sizes=(20,), repeats=1, prune_r=0.05))
    assert res.accuracy_mean.shape == (1,)


@pytest.mark.parametrize("bad", [
    dict(sizes=()),
    dict(sizes=(50, 20)),
    dict(sizes=(20, 20)),
    dict(repeats=0),
    dict(n_test=0),
    dict(attack_r=0.0),
    dict(prune_r=-1.0),
    dict(model="forest"),
    dict(kernel="bogus"),
    dict(k=0),
    dict(model="histogram", kn=0),
    dict(sizes=(10.5,)),
    dict(sizes=(10.0,)),
    dict(repeats=1.5),
    dict(n_test=5.5),
    dict(k=2.5),
    dict(model="histogram", kn=2.5),
])
def test_sweep_config_validation(bad):
    with pytest.raises(ValueError):
        _tiny_cfg(**bad)


# ---------------------------------------------------------------------------
# far-weight probes


def test_probe_zero_when_nothing_is_far():
    # data lives in the unit box, so with b = 10 no weight is ever far
    cfg = ProbeConfig(scenario="half_moons", model="knn", k=1, a=0.05, b=10.0,
                      sizes=(25,), draws=3, seed=1)
    res = probe_far_weight(cfg)
    assert res.sizes == (25,)
    assert np.all(res.estimates == 0.0)
    assert np.all(res.std_errors == 0.0)


def test_probe_one_when_everything_is_far():
    # a fixed query far outside the data means every candidate sees only
    # far training points; k-NN weights always sum to one
    cfg = ProbeConfig(scenario="half_moons", model="knn", k=1, a=0.05, b=0.5,
                      sizes=(25,), draws=3, fixed_x=(5.0, 5.0), seed=1)
    res = probe_far_weight(cfg)
    assert np.all(res.estimates == 1.0)
    assert np.all(res.std_errors == 0.0)


def test_probe_outputs_in_unit_interval():
    cfg = ProbeConfig(scenario="half_moons", model="knn", k=1, a=0.05, b=0.1,
                      sizes=(20, 60), draws=4, seed=5)
    res = probe_far_weight(cfg)
    assert res.estimates.shape == (2,) and res.std_errors.shape == (2,)
    assert np.all((res.estimates >= 0.0) & (res.estimates <= 1.0))
    assert np.all(res.std_errors >= 0.0)


def test_probe_deterministic():
    cfg = ProbeConfig(scenario="half_moons", model="knn", k=1, a=0.05, b=0.1,
                      sizes=(30,), draws=4, seed=7)
    a = probe_far_weight(cfg)
    b = probe_far_weight(cfg)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.std_errors, b.std_errors)


def test_probe_validation():
    with pytest.raises(ValueError):
        probe_far_weight(ProbeConfig(a=0.2, b=0.1))
    with pytest.raises(ValueError):
        probe_far_weight(ProbeConfig(a=0.0, b=0.1))
    with pytest.raises(ValueError):
        probe_far_weight(ProbeConfig(draws=0))
    # each size owns 300,000 random streams, three per draw; more draws would
    # share a stream with the next size's draws
    with pytest.raises(ValueError, match="draws"):
        ProbeConfig(draws=100_001)
    ProbeConfig(draws=100_000)
    with pytest.raises(ValueError):
        probe_far_weight(ProbeConfig(sizes=()))
    # counts must be integers; a float fails in the config, not in numpy
    for bad in (dict(draws=2.5), dict(sizes=(10.5,)), dict(k=1.5),
                dict(boundary_candidates=4.5), dict(interior_candidates=0.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            ProbeConfig(**bad)
    ProbeConfig(draws=np.int64(2), sizes=(np.int32(10),), interior_candidates=0)
    with pytest.raises(ValueError, match="unknown model"):
        probe_far_weight(ProbeConfig(model="forest"))
    with pytest.raises(ValueError, match="unknown kernel"):
        probe_far_weight(ProbeConfig(model="kernel", kernel="bogus"))
    for prune_r in (0.0, -1.0):
        with pytest.raises(ValueError, match="prune_r"):
            probe_far_weight(ProbeConfig(prune_r=prune_r))
    for scenario, fixed_x in [("half_moons", (0.1,)), ("half_moons", (0.1, 0.2, 0.3)),
                              ("example2", (0.1, 0.2)), ("half_moons", (np.nan, 0.0)),
                              ("half_moons", (0.1, np.inf))]:
        with pytest.raises(ValueError, match="fixed_x"):
            ProbeConfig(scenario=scenario, fixed_x=fixed_x)


def test_pruned_probe_rejects_fixed_query():
    # the pruned probe averages over the pruned points, so a fixed query
    # would be silently ignored
    with pytest.raises(ValueError, match="fixed_x"):
        probe_far_weight(ProbeConfig(prune_r=0.1, fixed_x=(0.5, 0.5)))


def test_pruned_probe_zero_when_nothing_is_far():
    cfg = ProbeConfig(scenario="half_moons", model="knn", k=1, a=0.05, b=10.0,
                      sizes=(25,), draws=2, prune_r=0.05, seed=2)
    res = probe_far_weight(cfg)
    assert np.all(res.estimates == 0.0)


def test_pruned_probe_in_unit_interval():
    cfg = ProbeConfig(scenario="half_moons", model="knn", k=1, a=0.05, b=0.1,
                      sizes=(30,), draws=2, prune_r=0.1, seed=4)
    res = probe_far_weight(cfg)
    assert np.all((res.estimates >= 0.0) & (res.estimates <= 1.0))


@pytest.mark.parametrize("model, extra, estimates, std_errors", [
    ("kernel", dict(b=0.1),
     ("0x1.b4516c5898428p-1", "0x1.b6998817dc1dcp-1"),
     ("0x1.63661f3f51e07p-9", "0x1.32eeea9acd084p-8")),
    ("knn", dict(k=3, b=0.06),
     ("0x1.4d203b9e5f557p-1", "0x1.4376e8302adc6p-1"),
     ("0x1.1beae45458487p-8", "0x1.173665152bf84p-11")),
])
def test_pruned_probe_pinned_values(model, extra, estimates, std_errors):
    # recorded with the separate pruned-probe implementation the unified
    # probe replaced; the random streams and the averaging must not move
    cfg = ProbeConfig(model=model, sizes=(30, 60), draws=3, prune_r=0.1,
                      sigma=0.08, a=0.05, seed=4, **extra)
    res = probe_far_weight(cfg)
    assert tuple(float(v).hex() for v in res.estimates) == estimates
    assert tuple(float(v).hex() for v in res.std_errors) == std_errors


# ---------------------------------------------------------------------------
# 1-D analytic demo


def test_bayes_gap_demo_values():
    rep = bayes_gap_demo(0.1, 400, seed=0)
    # the posterior rule wins pointwise but flips sign every quarter of r,
    # so no width-2r window is constant and nothing it does is robust
    assert rep.bayes_accuracy > rep.const_accuracy
    assert 0.85 < rep.bayes_accuracy < 0.97
    assert rep.bayes_astuteness == 0.0
    assert rep.const_astuteness == rep.const_accuracy
    assert 0.3 < rep.const_accuracy < 0.7
    assert rep.const_robust_fraction == 1.0


def test_bayes_gap_demo_memory_is_bounded():
    # the (20000, 2001) offset grid alone would take 305 MiB per temporary
    tracemalloc.start()
    try:
        rep = bayes_gap_demo(0.1, 20_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert rep.bayes_astuteness == 0.0 and rep.bayes_accuracy > rep.const_accuracy


def test_bayes_gap_demo_validation():
    with pytest.raises(ValueError):
        bayes_gap_demo(0.0, 100)
    with pytest.raises(ValueError):
        bayes_gap_demo(0.1, 0)
