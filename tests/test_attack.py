"""Minimal-perturbation attacks: exact histogram and 1-NN solvers, grid oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astute_np import (CERTIFIED_ASTUTE, FOUND, UNKNOWN, AttackBudget,
                       AttackMethodError, CostGuardError, Dataset,
                       RandomStream, ScenarioSpec, adv_prune, attack_all,
                       generate, grid_attack, predict, predict_batch,
                       resolve_attack, run_attack, train_histogram, train_kernel,
                       train_knn)
import astute_np.attack as attack_mod
from astute_np.attack import _lattice

import oracles


def _random_ds(seed, n, d=2):
    rng = np.random.default_rng(seed)
    pts, labels = oracles.random_two_class(rng, n, d)
    return Dataset(pts, labels)


def _check_witness(model, res, x, y, budget, slack=None):
    """FOUND results must carry a real adversarial example at the radius, at
    most ``slack`` (by default a millionth of r) beyond it."""
    if slack is None:
        slack = 1e-6 * budget.r
    assert res.found
    assert predict(model, res.witness) != y
    dist = oracles.linf(res.witness, x)
    assert dist <= budget.r + slack
    assert res.radius <= budget.r + budget.tol
    assert dist <= res.radius + slack


# ---------------------------------------------------------------------------
# budget and result plumbing


def test_budget_requires_positive_radius():
    with pytest.raises(ValueError):
        AttackBudget(0.0)
    with pytest.raises(ValueError):
        AttackBudget(-0.1)


def test_mispredicted_point_found_at_zero():
    ds = Dataset(np.array([[0.0, 0.0]]), np.array([-1]))
    model = train_knn(ds, k=1)
    res = run_attack(model, [0.3, 0.3], 1, AttackBudget(0.1))
    assert res.found and res.radius == 0.0
    assert np.array_equal(res.witness, [0.3, 0.3])


# ---------------------------------------------------------------------------
# cell distance helpers


def test_cell_distance_values():
    lo = np.array([[0.25, 0.0]])
    side = np.array([0.25])
    assert oracles.linf_cell_distance(np.array([0.2, 0.1]), lo, side)[0] == pytest.approx(0.05)
    # inside the cell
    assert oracles.linf_cell_distance(np.array([0.3, 0.1]), lo, side)[0] == 0.0
    # diagonal: max over coordinates
    assert oracles.linf_cell_distance(np.array([0.1, 0.5]), lo, side)[0] == pytest.approx(0.25)


@st.composite
def _dyadic_instance(draw):
    # dyadic rationals keep every intermediate exact in float64, so the two
    # reachability formulations must agree bit for bit
    xi = draw(st.tuples(st.integers(-640, 640), st.integers(-640, 640)))
    li = draw(st.tuples(st.integers(-640, 640), st.integers(-640, 640)))
    si = draw(st.integers(1, 512))
    ri = draw(st.integers(1, 512))
    return (np.array(xi, dtype=float) / 64.0, np.array(li, dtype=float) / 64.0,
            si / 64.0, ri / 64.0)


@given(_dyadic_instance())
@settings(max_examples=300, deadline=None)
def test_center_form_matches_face_form(inst):
    x, lo, side, r = inst
    lo2 = lo[None, :]
    side2 = np.array([side])
    face = oracles.linf_cell_distance(x, lo2, side2)[0] <= r
    center = oracles.cell_reachable_center_form(x, lo2, side2, r)[0]
    assert face == center


# ---------------------------------------------------------------------------
# histogram attack


def _example2_model(n=4000, seed=0):
    ds = generate(ScenarioSpec("example2", n), RandomStream(seed, 0))
    return train_histogram(ds, root=(np.array([0.0]), 1.0))


def test_histogram_attack_reaches_empty_cell():
    model = _example2_model()
    res = run_attack(model, [0.2], 1, AttackBudget(0.1), "histogram")
    assert res.found
    # nearest opposite region is the empty quarter cell starting at 0.25
    assert res.radius == pytest.approx(0.05, abs=1e-12)
    assert res.witness[0] == pytest.approx(0.25, abs=1e-12)
    assert predict(model, res.witness) == -1


def test_histogram_attack_certifies_out_of_reach():
    model = _example2_model()
    res = run_attack(model, [0.2], 1, AttackBudget(0.04), "histogram")
    assert res.outcome == CERTIFIED_ASTUTE
    assert res.witness is None and res.radius is None


def test_histogram_exterior_low_face():
    # all-positive data: the only -1 region is outside the root cube
    ds = Dataset(np.array([[0.1], [0.9]]), np.array([1, 1]))
    model = train_histogram(ds, root=(np.array([0.0]), 1.0))
    res = run_attack(model, [0.1], 1, AttackBudget(0.1), "histogram")
    assert res.found
    assert res.radius == pytest.approx(0.1, abs=0.0)
    assert res.witness[0] < 0.0
    assert predict(model, res.witness) == -1


def test_histogram_exterior_high_face_attained_exactly():
    ds = Dataset(np.array([[0.1], [0.9]]), np.array([1, 1]))
    model = train_histogram(ds, root=(np.array([0.0]), 1.0))
    res = run_attack(model, [0.9], 1, AttackBudget(0.1), "histogram")
    assert res.found
    # half-open cells: the high root face itself is already outside
    assert res.radius == pytest.approx(0.1, abs=1e-12)
    assert res.witness[0] == 1.0
    assert predict(model, [1.0]) == -1


def test_histogram_exterior_boundary_certifies_just_under():
    ds = Dataset(np.array([[0.1], [0.9]]), np.array([1, 1]))
    model = train_histogram(ds, root=(np.array([0.0]), 1.0))
    res = run_attack(model, [0.5], 1, AttackBudget(0.3), "histogram")
    assert res.outcome == CERTIFIED_ASTUTE


def test_histogram_exterior_not_a_target_for_negative_label():
    # a -1 point sitting 0.03 from the root face stays astute: the exterior
    # already agrees with its label
    ds = generate(ScenarioSpec("example2", 4000), RandomStream(0, 0))
    model = train_histogram(ds, root=(np.array([0.0]), 1.0))
    assert predict(model, [0.97]) == -1
    res = run_attack(model, [0.97], -1, AttackBudget(0.1), "histogram")
    assert res.outcome == CERTIFIED_ASTUTE


def test_histogram_witness_invariants_random():
    for seed in range(6):
        ds = _random_ds(500 + seed, n=40)
        model = train_histogram(ds)
        rng = np.random.default_rng(900 + seed)
        budget = AttackBudget(0.15)
        for _ in range(10):
            x = rng.uniform(0.05, 0.95, 2)
            y = predict(model, x)
            res = run_attack(model, x, y, budget, "histogram")
            if res.found:
                _check_witness(model, res, x, y, budget, slack=1e-9)


def test_histogram_zero_radius_iff_mispredicted_on_cell_faces():
    # queries on leaf corners and one ulp to either side, including the root
    # faces, where the closed and the half-open box disagree
    ds = _random_ds(77, n=120)
    model = train_histogram(ds, kn=4, root=(np.array([0.0, 0.0]), 1.0))
    corners = np.concatenate([model.leaf_lo, model.leaf_hi,
                              np.c_[model.leaf_lo[:, 0], model.leaf_hi[:, 1]]])
    budget = AttackBudget(0.05)
    for x in np.concatenate([corners, np.nextafter(corners, -np.inf),
                             np.nextafter(corners, np.inf)]):
        for y in (1, -1):
            res = run_attack(model, x, y, budget, "histogram")
            at_x = res.found and res.radius == 0.0 and np.array_equal(res.witness, x)
            assert at_x == (predict(model, x) != y)
            if res.found:
                _check_witness(model, res, x, y, budget, slack=1e-9)


def test_histogram_found_monotone_in_r():
    model = _example2_model()
    ds = generate(ScenarioSpec("example2", 300), RandomStream(3, 5))
    for x, y in zip(ds.points, ds.labels):
        prev_found = False
        radii = []
        for r in (0.02, 0.05, 0.1, 0.2, 0.4):
            res = run_attack(model, x, int(y), AttackBudget(r), "histogram")
            assert res.found or not prev_found or r < max(radii, default=0)
            if prev_found:
                assert res.found
            if res.found:
                prev_found = True
                radii.append(res.radius)
        # the reported infimum does not depend on the budget
        assert all(abs(a - radii[0]) <= 1e-12 for a in radii)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_histogram_attack_matches_brute_force_radius(d):
    rng = np.random.default_rng(40 + d)
    budget = AttackBudget(0.1)
    for trial in range(8):
        ds = _random_ds(1000 * d + trial, n=int(rng.integers(10, 80)), d=d)
        root = None if trial % 2 else (np.full(d, -0.25), 1.5)
        model = train_histogram(ds, kn=int(rng.integers(1, 6)), root=root)
        for x in rng.uniform(-0.4, 1.4, (40, d)):
            for y in (1, -1):
                res = run_attack(model, x, y, budget, "histogram")
                want = oracles.histogram_attack_radius(model, x, y)
                assert res.found == (want <= budget.r)
                if res.found:
                    assert res.radius == pytest.approx(want, abs=1e-12)


def _same_bits(a, b):
    """Equal as float64 bytes, so signed zeros must match too; None only
    equals None."""
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("root_lo, root_side", [(-1.0, 2.0), (-0.0, 1.0)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_histogram_attack_matches_rowwise_formula(d, root_lo, root_side):
    # the root [-1, 1)^d puts the first split's faces at +0.0 and the root
    # [-0.0, 1)^d puts its low faces at -0.0; queries at +-0.0 then make
    # signed-zero gaps.  The queries also sit on leaf corners and one ulp to
    # either side, and outside the root, where the +-inf exterior slabs are
    # the nearest boxes
    rng = np.random.default_rng(20 + d)
    model = train_histogram(_random_ds(30 + d, n=60, d=d), kn=3,
                            root=(np.full(d, root_lo), root_side))
    corners = np.concatenate([model.leaf_lo, model.leaf_hi])
    # every corner again with the sign of its zero coordinates flipped
    corners = np.concatenate([corners, np.where(corners == 0.0, -corners, corners)])
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=d)))
    mixed = rng.uniform(-0.2, 1.2, (20, d))
    mixed[:, 0] = np.where(np.arange(20) % 2, 0.0, -0.0)
    queries = np.concatenate([corners, np.nextafter(corners, -np.inf),
                              np.nextafter(corners, np.inf), zeros, mixed,
                              rng.uniform(-1.6, 1.6, (60, d))])
    for x in queries:
        for y in (1, -1):
            for r in (0.05, 0.5):
                res = run_attack(model, x, y, AttackBudget(r), "histogram")
                outcome, radius, witness = oracles.histogram_attack_rowwise(model, x, y, r)
                assert res.outcome == outcome
                assert _same_bits(res.radius, radius)
                assert _same_bits(res.witness, witness)


@pytest.mark.parametrize("d", range(1, 8))
def test_normals_match_rowwise_formula(d):
    # signed zeros, equal coordinates and magnitudes from 1e-6 to 1e6, so the
    # norms round; for d <= 7 numpy's row sum adds in column order too
    rng = np.random.default_rng(60 + d)
    pts = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-6, 7, (300, d))
    pts[rng.random((300, d)) < 0.2] = 0.0
    pts[rng.random((300, d)) < 0.2] = -0.0
    pts[5] = pts[4]
    for a, b in ((pts, pts[4]), (pts[4], pts), (pts, -pts[7]), (-0.0 * pts[9], pts)):
        normals, l1 = attack_mod._normals(a, b)
        want_normals, want_l1 = oracles.normals_rowwise(a, b)
        assert _same_bits(normals, want_normals)
        assert _same_bits(l1, want_l1)


def test_histogram_tie_low_face_before_high_face():
    ds = Dataset(np.array([[0.1], [0.9]]), np.array([1, 1]))
    model = train_histogram(ds, root=(np.array([0.0]), 1.0))
    res = run_attack(model, [0.5], 1, AttackBudget(0.5), "histogram")
    assert res.found and res.radius == 0.5
    assert res.witness[0] < 0.0


def test_histogram_tie_leaf_before_exterior():
    # the -1 leaf [0.5, 1) and the exterior below 0 are both 0.25 away
    ds = Dataset(np.array([[0.3], [0.8]]), np.array([1, -1]))
    model = train_histogram(ds, kn=1, root=(np.array([0.0]), 1.0))
    res = run_attack(model, [0.25], 1, AttackBudget(0.3), "histogram")
    assert res.found and res.radius == 0.25
    assert res.witness[0] == 0.5


def test_histogram_attack_rejects_non_finite_query():
    model = _example2_model(n=200)
    for x in ([np.inf], [-np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            run_attack(model, x, 1, AttackBudget(0.1), "histogram")


# ---------------------------------------------------------------------------
# exact 1-NN attack


def test_nn1_two_point_bisector():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    res = run_attack(model, [0.2, 0.0], 1, AttackBudget(0.5), "nn1")
    assert res.found
    assert res.radius == pytest.approx(0.3, abs=1e-12)
    assert res.witness[0] == pytest.approx(0.5, abs=1e-4)
    assert res.witness[1] == pytest.approx(0.0, abs=1e-4)
    assert predict(model, res.witness) == -1


def test_nn1_certifies_below_bisector_distance():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    res = run_attack(model, [0.2, 0.0], 1, AttackBudget(0.2), "nn1")
    assert res.outcome == CERTIFIED_ASTUTE


def test_nn1_finds_a_site_whose_bound_is_exactly_r():
    # the bisector x_0 = 1 lies exactly r = 0.25 from x, so the -1 site's
    # lower bound equals r and the site must still be solved
    ds = Dataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    x, budget = np.array([0.75, 0.0]), AttackBudget(0.25)
    res = run_attack(model, x, 1, budget, "nn1")
    assert res.radius == 0.25
    _check_witness(model, res, x, 1, budget)


@pytest.mark.parametrize("path", ["run_attack", "attack_all"])
def test_nn1_no_opposite_label_certifies(path):
    """With no -1 training point, every y = +1 point is certified and every
    y = -1 point is FOUND where it stands."""
    ds = Dataset(np.array([[0.0, 0.0], [0.4, 0.1], [0.9, 0.3]]), np.array([1, 1, 1]))
    model = train_knn(ds, k=1)
    test = Dataset(np.array([[0.5, 0.5], [0.5, 0.5], [-2.0, 3.0]]), np.array([1, -1, -1]))
    budget = AttackBudget(5.0)
    if path == "attack_all":
        table = attack_all(model, test, budget, method="nn1")
        outcomes, radii = list(table.outcome), list(table.radius)
    else:
        results = [run_attack(model, x, int(y), budget, "nn1")
                   for x, y in zip(test.points, test.labels)]
        outcomes, radii = [r.outcome for r in results], [r.radius for r in results]
    assert outcomes == [CERTIFIED_ASTUTE, FOUND, FOUND]
    assert radii[1:] == [0.0, 0.0]


@pytest.mark.parametrize("path", ["run_attack", "attack_all"])
def test_nn1_coincident_opposite_labels(path):
    """A -1 site at the place of a lower-index +1 point loses every tie to
    it, so the model predicts +1 everywhere and x is certified; listed the
    other way round, the -1 twin wins its ties and x is FOUND at 0.4.  The
    LP oracle counts ties as reachable, so the verdicts are asserted
    directly."""
    x, budget = np.array([[0.9, 0.9]]), AttackBudget(0.5)
    for labels, outcome in (([1, -1, 1], CERTIFIED_ASTUTE), ([-1, 1, 1], FOUND)):
        model = train_knn(Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                                  np.array(labels)), k=1)
        if path == "attack_all":
            table = attack_all(model, Dataset(x, np.array([1])), budget, method="nn1")
            got, radius, witness = table.outcome[0], table.radius[0], table.witness[0]
        else:
            res = run_attack(model, x[0], 1, budget, "nn1")
            got, radius, witness = res.outcome, res.radius, res.witness
        assert got == outcome
        if outcome == FOUND:
            assert radius == pytest.approx(0.4, abs=1e-9)
            assert predict(model, witness) == -1


@pytest.mark.parametrize("path", ["run_attack", "attack_all"])
def test_nn1_exact_tie_is_found_at_radius_zero(path):
    """x = (1, 0) is equidistant from the +1 point (index 0) and the -1
    point, so it takes +1 on the tie; any step toward (2, 0) flips it, so the
    exact radius is 0.0 and the witness predicts -1.  The grid's first
    flipped point is one step away."""
    model = train_knn(Dataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1, -1])), k=1)
    x, budget = np.array([1.0, 0.0]), AttackBudget(0.1)
    assert predict(model, x) == 1
    if path == "attack_all":
        table = attack_all(model, Dataset(x[None], np.array([1])), budget, method="nn1")
        got, radius, witness = table.outcome[0], table.radius[0], table.witness[0]
    else:
        res = run_attack(model, x, 1, budget, "nn1")
        got, radius, witness = res.outcome, res.radius, res.witness
    assert got == FOUND
    assert radius == 0.0
    assert predict(model, witness) == -1
    grid = run_attack(model, x, 1, budget, "grid", resolution=0.01)
    assert grid.found and grid.radius == pytest.approx(0.01) and grid.radius >= radius


def test_nn1_attack_ignores_repeated_rows():
    """Appending every training row again, with its label, changes no
    prediction, so the exact attack must return the same table."""
    ds = generate(ScenarioSpec("half_moons", 60, sigma=0.1), RandomStream(40, 0))
    twice = Dataset(np.concatenate([ds.points, ds.points]),
                    np.concatenate([ds.labels, ds.labels]))
    test = generate(ScenarioSpec("half_moons", 12, sigma=0.1), RandomStream(40, 1))
    budget = AttackBudget(0.15)
    a = attack_all(train_knn(ds, k=1), test, budget, method="nn1")
    b = attack_all(train_knn(twice, k=1), test, budget, method="nn1")
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(a.radius, b.radius, equal_nan=True)
    assert np.array_equal(a.witness, b.witness, equal_nan=True)
    assert (a.outcome == FOUND).any() and (a.outcome == CERTIFIED_ASTUTE).any()


def test_nn1_raises_when_no_witness_flips(monkeypatch):
    # a solved region that no nudge can enter is an error, never a FOUND
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    monkeypatch.setattr(attack_mod, "predict", lambda model, x: 1)
    with pytest.raises(RuntimeError, match="flips"):
        run_attack(model, [0.2, 0.0], 1, AttackBudget(0.5), "nn1")


def test_nn1_requires_k1_l2_2d():
    ds2 = _random_ds(1, n=10, d=2)
    ds3 = _random_ds(2, n=10, d=3)
    with pytest.raises(AttackMethodError):
        run_attack(train_knn(ds2, k=3), [0.5, 0.5], 1, AttackBudget(0.1), "nn1")
    with pytest.raises(AttackMethodError):
        run_attack(train_knn(ds3, k=1), [0.5, 0.5, 0.5], 1, AttackBudget(0.1), "nn1")
    for model in (train_histogram(ds2), train_kernel(ds2)):
        with pytest.raises(AttackMethodError):
            run_attack(model, [0.5, 0.5], 1, AttackBudget(0.1), "nn1")
    with pytest.raises(AttackMethodError):
        run_attack(train_knn(ds2, k=1), [0.5, 0.5], 1, AttackBudget(0.1), "histogram")


def test_nn1_witness_invariants_random():
    for seed in range(6):
        ds = _random_ds(700 + seed, n=30)
        model = train_knn(ds, k=1)
        rng = np.random.default_rng(800 + seed)
        budget = AttackBudget(0.2)
        for _ in range(10):
            x = rng.uniform(0, 1, 2)
            y = predict(model, x)
            res = run_attack(model, x, y, budget, "nn1")
            if res.found:
                _check_witness(model, res, x, y, budget)


def test_nn1_radius_independent_of_budget():
    ds = _random_ds(77, n=25)
    model = train_knn(ds, k=1)
    rng = np.random.default_rng(78)
    for _ in range(8):
        x = rng.uniform(0, 1, 2)
        y = predict(model, x)
        radii = [run_attack(model, x, y, AttackBudget(r), "nn1").radius
                 for r in (0.3, 0.6, 1.5)]
        found = [r for r in radii if r is not None]
        assert all(abs(r - found[0]) <= 1e-9 for r in found)
        # once found at a smaller budget, larger budgets must also find it
        for a, b in zip(radii, radii[1:]):
            assert b is not None or a is None


def test_small_lp_skips_parallel_bisectors():
    # the strip |p_x| <= 0.5: two anti-parallel rows meet at no vertex, so
    # the optimum is the projection onto the nearer row
    t, p = attack_mod._small_lp(np.array([-0.9, 0.0]), np.array([[-2.0, 0.0], [2.0, 0.0]]),
                                np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert t == 0.4
    assert np.array_equal(p, [-0.5, 0.0])


def test_nn1_affine_map_agrees():
    """Mapping p -> scale p + shift (and r with it) changes no verdict on any
    of 200 points, and each radius only by rounding: the solver's tolerance
    is relative, so neither large nor tiny coordinates make it raise."""
    train = generate(ScenarioSpec("half_moons", 600, sigma=0.08), RandomStream(0, 0))
    test = generate(ScenarioSpec("half_moons", 200, sigma=0.08), RandomStream(0, 1))
    r = 0.09
    model = train_knn(train, k=1)
    wants = [run_attack(model, x, int(y), AttackBudget(r), "nn1")
             for x, y in zip(test.points, test.labels)]
    for scale, shift in ((1e4, 5e4), (1e-6, 3e-6)):
        mapped = train_knn(Dataset(train.points * scale + shift, train.labels), k=1)
        for x, y, want in zip(test.points, test.labels, wants):
            got = run_attack(mapped, x * scale + shift, int(y), AttackBudget(r * scale), "nn1")
            assert got.outcome == want.outcome
            if got.found:
                assert abs(got.radius / scale - want.radius) <= 1e-9 * r


# ---------------------------------------------------------------------------
# grid oracle


def _constant_plus_model():
    ds = Dataset(np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]]), np.array([1, 1, 1]))
    return train_knn(ds, k=3)


def test_grid_clean_scan_is_unknown_not_certified():
    model = _constant_plus_model()
    res = grid_attack(model, [0.5, 0.5], 1, AttackBudget(0.1), resolution=0.05)
    assert res.outcome == UNKNOWN
    assert not res.found


def test_grid_finds_misprediction():
    model = _constant_plus_model()
    res = grid_attack(model, [0.5, 0.5], -1, AttackBudget(0.1), resolution=0.05)
    assert res.found and res.radius == 0.0


def test_grid_witness_on_lattice():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    res = grid_attack(model, [0.2, 0.0], 1, AttackBudget(0.4), resolution=0.1)
    assert res.found
    # the bisector at offset 0.3 stays +1 under the lowest-index tie rule,
    # so the first flipped shell is 0.4
    assert res.radius == pytest.approx(0.4, abs=1e-12)
    off = (res.witness - np.array([0.2, 0.0])) / 0.1
    assert np.allclose(off, np.round(off), atol=1e-9)
    assert predict(model, res.witness) == -1
    # its own array, not a view that keeps the scanned lattice points alive
    assert res.witness.base is None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_shells_in_product_order(d):
    offsets, ends = _lattice(4, d)
    assert ends[0] == 1 and not offsets[0].any()
    assert ends[-1] == len(offsets) == 9 ** d
    for k in range(1, 5):
        reference = [off for off in itertools.product(range(-k, k + 1), repeat=d)
                     if max(abs(o) for o in off) == k]
        assert np.array_equal(offsets[ends[k - 1]:ends[k]], np.array(reference))


# per dimension: two coarse resolutions, alternated so that the one cached
# lattice is rebuilt between calls, and a fine one whose lattice spans
# more than one scan chunk (601, 3,721 and 2,197 points)
ORACLE_RESOLUTIONS = {1: ((0.012, 0.02), 4e-4), 2: ((0.012, 0.02), 0.004),
                      3: ((0.04, 0.06), 0.02)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_radius_matches_oracle(d):
    """The first flipped lattice point, radius and bits, agrees with an
    independent shell loop on 3-NN, Gaussian kernel and histogram models,
    also where it lies past the first chunk of a fine scan."""
    rng = np.random.default_rng(50 + d)
    fine_rng = np.random.default_rng(150 + d)
    budget = AttackBudget(0.12)
    coarse, fine = ORACLE_RESOLUTIONS[d]
    # the radius of the last shell of a fine scan's first chunk
    _, ends = _lattice(int(budget.r / fine + 1e-9), d)
    first_chunk_r = fine * np.searchsorted(ends, 1 + attack_mod._GRID_CHUNK)
    past_first_chunk = 0
    for seed in range(3):
        ds = _random_ds(60 + 10 * d + seed, n=30, d=d)
        for model in (train_knn(ds, k=3), train_kernel(ds, h=0.08), train_histogram(ds)):
            cases = [(coarse[i % 2], rng.uniform(0.05, 0.95, d)) for i in range(8)]
            cases.append((fine, fine_rng.uniform(0.05, 0.95, d)))
            for resolution, x in cases:
                y = predict(model, x)
                res = grid_attack(model, x, y, budget, resolution)
                want, point = oracles.grid_misprediction_radius(
                    lambda q: predict(model, q), x, y, budget.r, resolution)
                if want is None:
                    assert res.outcome == UNKNOWN
                    continue
                assert res.found and abs(res.radius - want) <= 1e-12
                assert np.array_equal(res.witness, point)
                assert predict(model, res.witness) != y
                past_first_chunk += resolution == fine and want > first_chunk_r + 1e-12
    assert past_first_chunk > 0


def _record_scan_rows(monkeypatch) -> list:
    """Row counts of every ``predict_batch`` call the attack module makes."""
    rows = []

    def recording(model, queries):
        rows.append(len(queries))
        return predict_batch(model, queries)

    monkeypatch.setattr(attack_mod, "predict_batch", recording)
    return rows


def test_grid_moons_hist_scan_is_one_call(monkeypatch):
    # perfbench's moons_hist scan: histogram, r 0.09 at resolution 8e-3, so
    # 529 lattice points; shells 0 to 10 hold 441 of them, so shells 0 to 11
    # go in one call, x included, not one call per shell
    model = _moons_model("histogram")
    rows = _record_scan_rows(monkeypatch)
    # every point far outside the root cube predicts -1, so the scan is clean
    res = grid_attack(model, [10.0, 10.0], -1, AttackBudget(0.09), resolution=8e-3)
    assert res.outcome == UNKNOWN
    assert rows == [529]


@pytest.mark.parametrize("d, resolution", [(1, 1e-4), (2, 0.004), (3, 0.012)])
def test_grid_chunks_are_whole_shells(monkeypatch, d, resolution):
    model = train_knn(Dataset(np.zeros((1, d)), np.array([1])), k=1)
    rows = _record_scan_rows(monkeypatch)
    res = grid_attack(model, np.full(d, 0.5), 1, AttackBudget(0.12), resolution)
    assert res.outcome == UNKNOWN
    offsets, ends = _lattice(int(0.12 / resolution + 1e-9), d)
    assert len(rows) > 2 and sum(rows) == len(offsets)
    # each chunk ends on a shell boundary, holds at least _GRID_CHUNK rows
    # unless it is the last, and less than that before its last shell
    chunk_ends = np.cumsum(rows)
    shell_of_end = np.searchsorted(ends, chunk_ends)
    assert np.array_equal(ends[shell_of_end], chunk_ends)
    assert all(n >= attack_mod._GRID_CHUNK for n in rows[:-1])
    last_shell = ends[shell_of_end] - ends[shell_of_end - 1]
    assert np.all(np.array(rows) - last_shell < attack_mod._GRID_CHUNK)


def test_grid_lattice_is_read_only():
    offsets, ends = _lattice(2, 2)
    # int32 offsets times a float64 resolution give the same float64 products
    assert offsets.dtype == np.int32
    with pytest.raises(ValueError):
        offsets[0, 0] = 1
    with pytest.raises(ValueError):
        ends[0] = 0


def test_grid_resolution_validation():
    model = _constant_plus_model()
    with pytest.raises(ValueError):
        grid_attack(model, [0.5, 0.5], 1, AttackBudget(0.1), resolution=0.0)
    with pytest.raises(ValueError):
        grid_attack(model, [0.5, 0.5], 1, AttackBudget(0.1), resolution=0.2)


def test_grid_cost_guard():
    model = _constant_plus_model()
    with pytest.raises(CostGuardError):
        grid_attack(model, [0.5, 0.5], 1, AttackBudget(1.0), resolution=1e-4)


def test_grid_cost_guard_builds_no_lattice():
    _lattice.cache_clear()
    with pytest.raises(CostGuardError):
        grid_attack(_constant_plus_model(), [0.5, 0.5], 1, AttackBudget(1.0),
                    resolution=1e-4)
    assert _lattice.cache_info().currsize == 0


def test_grid_checks_come_before_predicting_a_mispredicted_x(monkeypatch):
    model = _constant_plus_model()
    rows = _record_scan_rows(monkeypatch)
    with pytest.raises(CostGuardError):
        grid_attack(model, [0.5, 0.5], -1, AttackBudget(1.0), resolution=1e-4)
    with pytest.raises(ValueError):
        grid_attack(model, [0.5, 0.5], -1, AttackBudget(0.1), resolution=0.2)
    assert rows == []


@pytest.mark.parametrize("family", ["histogram", "kernel", "knn3"])
def test_grid_mispredicted_x_is_found_in_the_first_chunk(monkeypatch, family):
    """Without the caller's prediction x is row 0 of the first chunk: a
    misprediction there is FOUND at radius 0 with x's own bits, a -0.0
    coordinate included, and the scan makes that one predict_batch call."""
    ds = _random_ds(7, n=30)
    model = {"histogram": train_histogram, "kernel": lambda d: train_kernel(d, h=0.08),
             "knn3": lambda d: train_knn(d, k=3)}[family](ds)
    rows = _record_scan_rows(monkeypatch)
    for x in ([-0.0, 0.4], [0.6, -0.0], [0.3, 0.7]):
        x = np.array(x)
        rows.clear()
        res = grid_attack(model, x, -predict(model, x), AttackBudget(0.1), 0.01)
        assert res.found and res.radius == 0.0
        assert res.witness.tobytes() == x.tobytes()
        assert np.array_equal(np.signbit(res.witness), np.signbit(x))
        assert res.witness.base is None
        assert rows == [21 ** 2]


def test_run_attack_predicts_x_alone_only_for_nn1(monkeypatch):
    """The histogram row never reads x's label and the grid predicts x in
    its scan, so only the 1-NN row gets a one-row predict."""
    class OneRowPredict(Exception):
        pass

    def refuse(model, x):
        raise OneRowPredict

    hist, nn1 = _moons_model("histogram"), _moons_model("nn1")
    monkeypatch.setattr(attack_mod, "predict", refuse)
    budget = AttackBudget(0.05)
    for x in ([0.2, 0.1], [0.9, 0.4]):
        for y in (1, -1):
            run_attack(hist, x, y, budget, "histogram")
            for model in (hist, nn1):
                run_attack(model, x, y, budget, "grid", resolution=0.01)
                grid_attack(model, x, y, budget, resolution=0.01)
    with pytest.raises(OneRowPredict):
        run_attack(nn1, [0.2, 0.1], 1, budget, "nn1")


def test_attack_all_grid_scans_no_mispredicted_row(monkeypatch):
    """``attack_all`` hands the grid its batch prediction: a mispredicted
    row is FOUND with no scan, and a scanned row starts at shell 1."""
    model = _constant_plus_model()     # +1 everywhere
    test = Dataset(np.array([[0.5, 0.5], [0.3, 0.6], [0.4, 0.4]]), np.array([-1, -1, 1]))
    rows = _record_scan_rows(monkeypatch)
    table = attack_all(model, test, AttackBudget(0.1), method="grid", resolution=0.05)
    assert list(table.outcome) == [FOUND, FOUND, UNKNOWN]
    assert np.array_equal(table.radius[:2], [0.0, 0.0])
    assert np.array_equal(table.witness[:2], test.points[:2])
    # the batch predict, then the one clean row's shells 1 and 2
    assert rows == [3, 5 ** 2 - 1]


# ---------------------------------------------------------------------------
# dispatch


GRID = ("grid", True)
# model -> the attack each method runs on it; None where it must be rejected
ROUTES = {
    "histogram": {"auto": ("histogram", False), "histogram": ("histogram", False),
                  "nn1": None, "grid": GRID, "simplex": None},
    "nn1-2d": {"auto": ("nn1", False), "histogram": None, "nn1": ("nn1", False),
               "grid": GRID, "simplex": None},
    "knn3-2d": {"auto": GRID, "histogram": None, "nn1": None, "grid": GRID, "simplex": None},
    "nn1-3d": {"auto": GRID, "histogram": None, "nn1": None, "grid": GRID, "simplex": None},
    "kernel": {"auto": GRID, "histogram": None, "nn1": None, "grid": GRID, "simplex": None},
}


def test_resolve_attack_routing():
    ds2 = _random_ds(4, n=12, d=2)
    ds3 = _random_ds(5, n=12, d=3)
    models = {"histogram": train_histogram(ds2), "nn1-2d": train_knn(ds2, k=1),
              "knn3-2d": train_knn(ds2, k=3), "nn1-3d": train_knn(ds3, k=1),
              "kernel": train_kernel(ds2)}
    budget = AttackBudget(0.1)
    for name, model in models.items():
        assert resolve_attack(model) == ROUTES[name]["auto"]
        test = Dataset(model.train.points[:2], model.train.labels[:2])
        for method, route in ROUTES[name].items():
            if route is None:
                with pytest.raises(AttackMethodError):
                    resolve_attack(model, method)
                with pytest.raises(AttackMethodError):
                    run_attack(model, test.points[0], 1, budget, method=method)
                with pytest.raises(AttackMethodError):
                    attack_all(model, test, budget, method=method)
                continue
            assert resolve_attack(model, method) == route
            table = attack_all(model, test, budget, method=method, resolution=0.05)
            assert (table.method, table.approximate) == route


def test_run_attack_auto_matches_direct():
    ds = _random_ds(6, n=30)
    hist = train_histogram(ds)
    budget = AttackBudget(0.1)
    x = np.array([0.4, 0.6])
    y = predict(hist, x)
    auto = run_attack(hist, x, y, budget)
    direct = run_attack(hist, x, y, budget, "histogram")
    assert auto.outcome == direct.outcome and auto.radius == direct.radius


def _moons_model(method):
    ds = generate(ScenarioSpec("half_moons", 200, sigma=0.05), RandomStream(3, 0))
    return train_histogram(ds) if method == "histogram" else train_knn(ds, k=1)


@pytest.mark.parametrize("x", [[np.nan, np.nan], [np.nan, 0.1], [0.2, np.inf],
                               [-np.inf, 0.0]])
@pytest.mark.parametrize("method", ["histogram", "nn1", "grid"])
def test_attacks_reject_non_finite_query(method, x):
    model = _moons_model(method)
    for y in (1, -1):
        with pytest.raises(ValueError, match="query must be finite"):
            run_attack(model, x, y, AttackBudget(0.1), method=method, resolution=0.05)


@pytest.mark.parametrize("method", ["histogram", "nn1", "grid"])
def test_attacks_reject_bad_label(method):
    model = _moons_model(method)
    for y in (0, 2, -2, 0.5):
        with pytest.raises(ValueError, match="label"):
            run_attack(model, [0.2, 0.1], y, AttackBudget(0.05), method=method,
                       resolution=0.05)


@pytest.mark.parametrize("x", [[0.9], [0.1, 0.2, 0.3]])
@pytest.mark.parametrize("method", ["histogram", "nn1", "grid"])
def test_attacks_reject_query_of_wrong_dimension(method, x):
    model = _moons_model(method)
    with pytest.raises(ValueError, match="query dimension mismatch"):
        run_attack(model, x, 1, AttackBudget(0.1), method=method, resolution=0.05)


# ---------------------------------------------------------------------------
# exact methods vs the grid oracle


def _cross_check(model, method, seed, budget, resolution, queries=6):
    rng = np.random.default_rng(seed)
    pfn = lambda q: predict(model, q)
    for _ in range(queries):
        x = rng.uniform(0.05, 0.95, 2)
        y = predict(model, x)
        res = run_attack(model, x, y, budget, method)
        g, _ = oracles.grid_misprediction_radius(pfn, x, y, budget.r, resolution)
        if g is not None:
            # a grid witness is a real adversarial example, so the exact
            # method must find one at most that far away
            assert res.found
            assert res.radius <= g + 1e-9
        if res.outcome == CERTIFIED_ASTUTE:
            assert g is None
        if res.found:
            _check_witness(model, res, x, y, budget)


@pytest.mark.parametrize("seed", range(4))
def test_histogram_attack_vs_grid_oracle(seed):
    ds = _random_ds(1000 + seed, n=40)
    model = train_histogram(ds)
    _cross_check(model, "histogram", 2000 + seed, AttackBudget(0.12), 0.012)


@pytest.mark.parametrize("seed", range(4))
def test_nn1_attack_vs_grid_oracle(seed):
    ds = _random_ds(3000 + seed, n=25)
    model = train_knn(ds, k=1)
    _cross_check(model, "nn1", 4000 + seed, AttackBudget(0.12), 0.012)


def test_nn1_radius_matches_lp_oracle():
    """The exact radius agrees with a per-site linear program, and so does
    the verdict at a budget that splits the points, on noisy half-moons and
    on one pruned set."""
    pytest.importorskip("scipy")
    for seed, prune_r in ((40, None), (41, None), (42, 0.1)):
        train = generate(ScenarioSpec("half_moons", 60, sigma=0.1), RandomStream(seed, 0))
        test = generate(ScenarioSpec("half_moons", 12, sigma=0.1), RandomStream(seed, 1))
        if prune_r is not None:
            train = train.subset(adv_prune(train, prune_r).kept)
        model = train_knn(train, k=1)
        radii = np.array([oracles.nn1_attack_radius(train.points, train.labels, x, int(y))
                          for x, y in zip(test.points, test.labels)])
        for budget in (AttackBudget(0.3), AttackBudget(0.15)):
            table = attack_all(model, test, budget, method="nn1")
            found = table.outcome == FOUND
            assert np.array_equal(found, radii <= budget.r + budget.tol)
            assert np.all(np.abs(table.radius[found] - radii[found]) <= 1e-9)


# ---------------------------------------------------------------------------
# astute verdicts: a point is astute iff no attack within budget is found


def test_is_astute_false_on_misprediction():
    ds = Dataset(np.array([[0.0, 0.0]]), np.array([-1]))
    model = train_knn(ds, k=1)
    assert run_attack(model, [0.5, 0.5], 1, AttackBudget(0.1)).found


def test_is_astute_on_separated_pair():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1, -1]))
    model = train_knn(ds, k=1)
    budget = AttackBudget(0.2)
    assert not run_attack(model, [0.0, 0.0], 1, budget).found
    assert not run_attack(model, [1.0, 1.0], -1, budget).found
    assert run_attack(model, [0.45, 0.45], 1, budget).found
