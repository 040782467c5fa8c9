"""End-to-end acceptance suite.

Each test covers one numbered claim about the package: convergence bands for
the half-moons experiments, the three constructed scenarios, exactness of
pruning and attacks against brute-force oracles, probe trends, and the
structural invariants.  Every test prints a single summary line before its
assertion so failures carry the measured value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astute_np import (CERTIFIED_ASTUTE, PLATEAU_EXAMPLE3, AttackBudget,
                       Dataset, ProbeConfig, RandomStream,
                       ScenarioSpec, SweepConfig, accuracy, adv_prune,
                       bayes_gap_demo, convergence_sweep, empirical_astuteness,
                       generate, grid_attack, predict, probe_far_weight,
                       run_attack, sweep_chart, train_histogram, train_kernel,
                       train_knn, weights)

import oracles

SEEDS = range(5)


def _moons(seed, n, sigma):
    spec = ScenarioSpec("half_moons", n, sigma=sigma)
    train = generate(spec, RandomStream(seed, 1))
    test = generate(ScenarioSpec("half_moons", 1000, sigma=sigma), RandomStream(seed, 2))
    return train, test


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# half-moons convergence bands


def test_criterion_01_noiseless_nn1_high_astuteness():
    vals = []
    for seed in SEEDS:
        train, test = _moons(seed, 3000, 0.0)
        model = train_knn(train, k=1)
        rep = empirical_astuteness(model, test, AttackBudget(0.1))
        assert not rep.approximate
        vals.append(rep.astuteness)
    mean = float(np.mean(vals))
    ok = mean >= 0.95
    _line(1, ok, f"noiseless 1-NN mean astuteness {mean:.4f} (need >= 0.95)")
    assert ok


def test_criterion_02_noiseless_histogram_half_astuteness():
    accs, asts = [], []
    for seed in SEEDS:
        train, test = _moons(seed, 3000, 0.0)
        model = train_histogram(train)
        rep = empirical_astuteness(model, test, AttackBudget(0.1))
        assert not rep.approximate
        accs.append(rep.accuracy)
        asts.append(rep.astuteness)
    mean_acc, mean_ast = float(np.mean(accs)), float(np.mean(asts))
    ok = 0.40 <= mean_ast <= 0.60 and mean_acc >= 0.90
    _line(2, ok, f"noiseless histogram astuteness {mean_ast:.4f} in [0.40, 0.60], "
                 f"accuracy {mean_acc:.4f} (need >= 0.90)")
    assert ok


def test_criterion_03_noisy_pruned_nn1_band():
    vals = []
    for seed in SEEDS:
        train, test = _moons(seed, 3000, 0.08)
        kept = adv_prune(train, 0.1).kept
        model = train_knn(train.subset(kept), k=1)
        rep = empirical_astuteness(model, test, AttackBudget(0.09))
        vals.append(rep.astuteness)
    mean = float(np.mean(vals))
    ok = 0.72 <= mean <= 0.88
    _line(3, ok, f"noisy pruned 1-NN mean astuteness {mean:.4f} (need in [0.72, 0.88])")
    assert ok


def test_criterion_04_noisy_pruned_histogram_band():
    vals = []
    for seed in SEEDS:
        train, test = _moons(seed, 3000, 0.08)
        kept = adv_prune(train, 0.1).kept
        model = train_histogram(train.subset(kept))
        rep = empirical_astuteness(model, test, AttackBudget(0.09))
        vals.append(rep.astuteness)
    mean = float(np.mean(vals))
    ok = 0.60 <= mean <= 0.80
    _line(4, ok, f"noisy pruned histogram mean astuteness {mean:.4f} (need in [0.60, 0.80])")
    assert ok


# ---------------------------------------------------------------------------
# constructed scenarios


def test_criterion_05_interval_histogram_astuteness():
    # the root cube is anchored below the support so the first splits put a
    # populated cell under the +1 mass and the exposed band next to the gap
    root = (np.array([-0.999]), 2.0)
    budget = AttackBudget(0.1)
    asts, bad_all = [], []
    for seed in SEEDS:
        train = generate(ScenarioSpec("example2", 5000), RandomStream(seed, 1))
        test = generate(ScenarioSpec("example2", 4000), RandomStream(seed, 2))
        model = train_histogram(train, root=root)
        astute = 0
        for x, y in zip(test.points, test.labels):
            res = run_attack(model, x, int(y), budget, "histogram")
            if predict(model, x) == y and not res.found:
                astute += 1
            elif y == 1:
                bad_all.append(float(x[0]))
        asts.append(astute / len(test))
    in_band = all(abs(a - 0.8) <= 0.03 for a in asts)
    lo = min(bad_all) if bad_all else math.nan
    hi = max(bad_all) if bad_all else math.nan
    located = bool(bad_all) and 0.15 < lo and hi < 0.25
    ok = in_band and located
    _line(5, ok, f"interval histogram astuteness {min(asts):.4f}..{max(asts):.4f} "
                 f"(need 0.8 +- 0.03), non-astute +1 points span "
                 f"[{lo:.4f}, {hi:.4f}] (need inside (0.15, 0.25))")
    assert ok


def test_criterion_06_plateau_kernel_astuteness_cap():
    budget = AttackBudget(0.3)
    asts = []
    attacked = 0
    for seed in range(20):
        train = generate(ScenarioSpec("example3", 1000), RandomStream(seed, 1))
        test = generate(ScenarioSpec("example3", 4000), RandomStream(seed, 2))
        model = train_kernel(train, kind=PLATEAU_EXAMPLE3)
        rep = empirical_astuteness(model, test, budget, resolution=1e-3)
        asts.append(rep.astuteness)
        res = run_attack(model, [-1.0], -1, budget, method="grid", resolution=1e-3)
        if res.found:
            attacked += 1
    cap_ok = max(asts) <= 0.92
    attack_ok = attacked >= 19
    ok = cap_ok and attack_ok
    _line(6, ok, f"plateau kernel max astuteness {max(asts):.4f} (need <= 0.92), "
                 f"x=-1 attacked in {attacked}/20 seeds (need >= 19)")
    assert ok


def test_criterion_07_oscillating_posterior_gap():
    rep = bayes_gap_demo(0.1, 2000, seed=0)
    ok = (rep.bayes_astuteness <= 0.02
          and abs(rep.const_astuteness - 0.5) <= 0.03
          and rep.const_robust_fraction == 1.0)
    _line(7, ok, f"posterior-rule astuteness {rep.bayes_astuteness:.4f} (need <= 0.02), "
                 f"constant-rule astuteness {rep.const_astuteness:.4f} (need 0.5 +- 0.03)")
    assert ok


# ---------------------------------------------------------------------------
# exactness gates


def test_criterion_08_pruning_matches_exhaustive_search():
    rng = np.random.default_rng(88)
    mismatches = 0
    half_violations = 0
    for _ in range(100):
        n = int(rng.integers(4, 19))
        pts, labels = oracles.random_two_class(rng, n, 2, box=0.4)
        r = float(rng.uniform(0.02, 0.2))
        kept = adv_prune(Dataset(pts, labels), r).kept
        if len(kept) != oracles.max_separated_subset_size(pts, labels, r):
            mismatches += 1
        if len(kept) < (n + 1) // 2:
            half_violations += 1
    ok = mismatches == 0 and half_violations == 0
    _line(8, ok, f"pruning vs exhaustive search: {mismatches}/100 size mismatches, "
                 f"{half_violations} below the half-sample floor (need 0 and 0)")
    assert ok


def test_criterion_09_exact_attacks_match_grid_oracle():
    budget = AttackBudget(0.1)
    step = 1e-3
    cases = []
    rng = np.random.default_rng(99)
    for i in range(100):
        pts, labels = oracles.random_two_class(rng, 30, 2)
        model = train_knn(Dataset(pts, labels), k=1)
        cases.append((model, "nn1"))
    for i in range(50):
        pts, labels = oracles.random_two_class(rng, 40, 2)
        model = train_histogram(Dataset(pts, labels))
        cases.append((model, "histogram"))

    disagreements = 0
    contradictions = 0
    for model, method in cases:
        x = rng.uniform(0.05, 0.95, 2)
        y = predict(model, x)
        res = run_attack(model, x, y, budget, method)
        grid = grid_attack(model, x, y, budget, resolution=step)
        if res.outcome == CERTIFIED_ASTUTE:
            if grid.found:
                contradictions += 1
            continue
        assert res.found
        assert predict(model, res.witness) != y
        if grid.found and grid.radius < res.radius - 1e-9:
            # the lattice can never beat the proven minimum
            contradictions += 1
        else:
            # the best lattice answer rounds the minimum up to the next
            # shell; allow the scan one further shell beyond that
            cap = math.ceil(res.radius / step - 1e-12) * step + step + 1e-9
            if not grid.found or grid.radius > cap:
                disagreements += 1
    ok = disagreements == 0 and contradictions == 0
    _line(9, ok, f"exact vs grid oracle on 150 instances: {disagreements} beyond "
                 f"one shell of rounding, {contradictions} contradictions (need 0 and 0)")
    assert ok


# ---------------------------------------------------------------------------
# probe trends


def test_criterion_10_far_weight_probe_trends():
    shrink = probe_far_weight(ProbeConfig(
        scenario="half_moons", model="knn", k=1, a=0.05, b=0.08,
        sizes=(100, 1000), draws=400, seed=0))
    diff = shrink.estimates[0] - shrink.estimates[1]
    se = math.hypot(shrink.std_errors[0], shrink.std_errors[1])
    shrink_ok = diff >= 3.0 * se

    plateau = probe_far_weight(ProbeConfig(
        scenario="example3", model="kernel", kernel=PLATEAU_EXAMPLE3,
        a=0.25, b=0.5, sizes=(100, 400, 1000), draws=60,
        fixed_x=(-0.7,), seed=0))
    plateau_ok = bool(np.all(plateau.estimates >= 0.5))

    ok = shrink_ok and plateau_ok
    _line(10, ok, f"1-NN far-weight drop {diff:.4f} vs 3se={3 * se:.4f}; "
                  f"plateau kernel estimates min {plateau.estimates.min():.3f} "
                  f"(need >= 0.5 at every n)")
    assert ok


# ---------------------------------------------------------------------------
# structural invariants


@st.composite
def _weight_instance(draw):
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(["knn1", "knn3", "kernel", "histogram"]))
    qx = draw(st.floats(-0.5, 1.5, allow_nan=False))
    qy = draw(st.floats(-0.5, 1.5, allow_nan=False))
    return seed, family, (qx, qy)


def _build(family, ds):
    if family == "knn1":
        return train_knn(ds, k=1)
    if family == "knn3":
        return train_knn(ds, k=3)
    if family == "kernel":
        return train_kernel(ds)
    return train_histogram(ds)


@given(_weight_instance())
@settings(max_examples=60, deadline=None)
def test_criterion_11a_weights_normalized_and_label_free(inst):
    seed, family, q = inst
    rng = np.random.default_rng(seed)
    pts, labels = oracles.random_two_class(rng, 20, 2)
    model = _build(family, Dataset(pts, labels))
    w = weights(model, q)
    assert np.all(w >= 0.0)
    total = float(w.sum())
    assert total == pytest.approx(1.0, abs=1e-9) or (family == "histogram" and total == 0.0)
    # the same positions with shuffled labels must weight identically
    flipped = _build(family, Dataset(pts, -labels))
    assert np.allclose(weights(flipped, q), w, atol=1e-12)


def test_criterion_11b_astuteness_bounds():
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        pts, labels = oracles.random_two_class(rng, 40, 2)
        ds = Dataset(pts, labels)
        test_pts, test_labels = oracles.random_two_class(rng, 30, 2)
        test = Dataset(test_pts, test_labels)
        r = 0.08
        for model in (train_knn(ds, k=1), train_histogram(ds)):
            rep = empirical_astuteness(model, test, AttackBudget(r))
            assert rep.astuteness <= rep.accuracy + 1e-12
            self_rep = empirical_astuteness(model, ds, AttackBudget(r))
            assert self_rep.astuteness <= adv_prune(ds, r).kept_fraction + 1e-12


def test_criterion_11c_sweep_and_chart_deterministic(monkeypatch, tmp_path):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    cfg = SweepConfig(scenario="half_moons", model="knn", k=1, sizes=(15, 30),
                      repeats=2, n_test=25, attack_r=0.1, seed=11)
    a = convergence_sweep(cfg)
    b = convergence_sweep(cfg)
    same_sweep = (np.array_equal(a.accuracy_mean, b.accuracy_mean)
                  and np.array_equal(a.astuteness_mean, b.astuteness_mean)
                  and np.array_equal(a.accuracy_std, b.accuracy_std)
                  and np.array_equal(a.astuteness_std, b.astuteness_std))
    charts = [sweep_chart(a.sizes, a.accuracy_mean, a.accuracy_std, a.astuteness_mean,
                          a.astuteness_std, str(tmp_path / f"{name}.svg"))
              for name in ("a", "b")]
    same_chart = (charts[0] == charts[1]
                  and (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes())
    ok = same_sweep and same_chart
    _line(11, ok, f"sweep deterministic: {same_sweep}, chart deterministic: {same_chart}")
    assert ok
