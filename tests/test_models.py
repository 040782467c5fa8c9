"""Classifier families: weights, predictions, histogram structure."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astute_np import (CERTIFIED_ASTUTE, GAUSSIAN, INVERSE_POLY, PLATEAU_EXAMPLE3,
                       AttackBudget, Dataset, KernelModel, RandomStream, ScenarioSpec,
                       default_bandwidth, default_cell_threshold, generate,
                       make_model, predict, predict_batch, run_attack, train_histogram,
                       train_kernel, train_knn, weights, weights_batch)
from astute_np.data import row_blocks
from astute_np.models import log_kernel

import oracles


def _random_ds(seed, n=30, d=2):
    rng = np.random.default_rng(seed)
    pts, labels = oracles.random_two_class(rng, n, d)
    return Dataset(pts, labels)


# ---------------------------------------------------------------------------
# k-NN


def test_knn_single_point():
    ds = Dataset(np.array([[0.3, 0.4]]), np.array([1]))
    model = train_knn(ds, k=1)
    assert weights(model, [9.0, 9.0]) == pytest.approx([1.0])
    assert predict(model, [9.0, 9.0]) == 1


def test_knn_k_equals_n_uniform():
    ds = _random_ds(0, n=12)
    model = train_knn(ds, k=12)
    w = weights(model, [0.5, 0.5])
    assert np.allclose(w, 1 / 12)


def test_knn_k_clamped_to_n():
    ds = _random_ds(1, n=5)
    model = train_knn(ds, k=50)
    assert model.k == 5


@pytest.mark.parametrize("k", [0, 2.5, 2.0, np.nan])
def test_knn_rejects_non_integral_k(k):
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        train_knn(_random_ds(1, n=5), k=k)


def test_knn_accepts_numpy_integer_k():
    assert train_knn(_random_ds(1, n=5), k=np.int64(3)).k == 3


def test_knn_empty_rejected():
    with pytest.raises(ValueError):
        train_knn(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int8)), k=1)


def test_knn_weights_match_full_sort_oracle():
    ds = _random_ds(2, n=50)
    rng = np.random.default_rng(3)
    for k in (1, 3, 7):
        model = train_knn(ds, k=k)
        for _ in range(20):
            q = rng.uniform(-0.2, 1.2, 2)
            expect = oracles.knn_weights_oracle(ds.points, q, k)
            assert np.allclose(weights(model, q), expect)


def test_knn_tie_breaks_by_lowest_index():
    # indices 1 and 2 are equidistant; k=2 must pick index 1
    ds = Dataset(np.array([[0.0], [1.0], [-1.0]]), np.array([1, 1, -1]))
    model = train_knn(ds, k=2)
    assert np.allclose(weights(model, [0.0]), [0.5, 0.5, 0.0])
    # indices 1 and 2 are equidistant and nearest; k=1 must pick index 1
    ds = Dataset(np.array([[5.0], [1.0], [-1.0]]), np.array([-1, 1, -1]))
    model = train_knn(ds, k=1)
    assert np.array_equal(weights(model, [0.0]), [0.0, 1.0, 0.0])
    assert predict(model, [0.0]) == 1


def test_knn_batch_matches_scalar():
    ds = _random_ds(4, n=25)
    model = train_knn(ds, k=3)
    queries = np.random.default_rng(5).uniform(0, 1, (15, 2))
    batch = weights_batch(model, queries)
    for i, q in enumerate(queries):
        assert np.allclose(batch[i], weights(model, q))
    assert np.array_equal(predict_batch(model, queries),
                          [predict(model, q) for q in queries])


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_knn_tie_rule_across_row_blocks(monkeypatch, d, k):
    # integer training points and half-integer queries: many exact ties,
    # coincident training points included
    rng = np.random.default_rng(90 + 10 * d + k)
    pts = rng.integers(-2, 3, (40, d)).astype(float)
    ds = Dataset(pts, np.where(rng.random(40) < 0.5, 1, -1))
    queries = rng.integers(-5, 6, (50, d)) / 2.0
    model = train_knn(ds, k=k)
    monkeypatch.setattr("astute_np.data.BLOCK_CELLS", 7 * pts.size)
    assert len(row_blocks(len(queries), pts.size)) == 8
    batch = weights_batch(model, queries)
    for q, row in zip(queries, batch):
        assert np.array_equal(row, oracles.knn_weights_oracle(pts, q, k))
    assert np.array_equal(predict_batch(model, queries),
                          [predict(model, q) for q in queries])
    assert weights_batch(model, np.zeros((0, d))).shape == (0, 40)
    assert predict_batch(model, np.zeros((0, d))).shape == (0,)


@pytest.mark.parametrize("family", ["knn", GAUSSIAN, PLATEAU_EXAMPLE3, INVERSE_POLY,
                                    "histogram"])
def test_predict_batch_memory_is_bounded(family):
    # the full (2000, 3000, 2) difference tensor alone would take 96 MB, and
    # one (2000, 3000) kernel weight matrix 46 MB
    rng = np.random.default_rng(95)
    ds = Dataset(rng.random((3000, 2)), np.where(rng.random(3000) < 0.5, 1, -1))
    model = (make_model(family, ds) if family in ("knn", "histogram")
             else make_model("kernel", ds, kernel=family))
    queries = rng.random((2000, 2))
    tracemalloc.start()
    try:
        predict_batch(model, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_knn_by_label_is_the_cached_label_split():
    ds = _random_ds(96, n=40)
    model = train_knn(ds, k=1)
    assert model.by_label is model.by_label
    assert set(model.by_label) == {1, -1}
    for y in (1, -1):
        pts, sq, index = model.by_label[y]
        expected = ds.points[ds.labels == y]
        assert np.array_equal(index, np.flatnonzero(ds.labels == y))
        assert np.array_equal(pts, expected)
        assert np.array_equal(sq, (expected * expected).sum(axis=1))


def test_dataset_arrays_are_read_only_copies():
    pts, labels = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, -1])
    ds = Dataset(pts, labels)
    model = train_knn(ds, k=1)
    model.by_label
    # moving the -1 point to (0.1, 0) in place would leave the cached
    # tables stale, and the model would still certify x = (0.05, 0)
    with pytest.raises(ValueError):
        ds.points[1] = [0.1, 0.0]
    with pytest.raises(ValueError):
        ds.labels[0] = -1
    # the caller's own arrays stay writeable and are not shared
    pts[1], labels[0] = [0.1, 0.0], -1
    assert ds.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert ds.labels.tolist() == [1, -1]
    assert run_attack(model, [0.05, 0.0], 1, AttackBudget(0.1)).outcome == CERTIFIED_ASTUTE


# ---------------------------------------------------------------------------
# kernels


def test_kernel_symmetric_pair():
    ds = Dataset(np.array([[-1.0], [1.0]]), np.array([1, -1]))
    model = train_kernel(ds)
    assert np.allclose(weights(model, [0.0]), [0.5, 0.5])
    assert predict(model, [0.0]) == -1  # exact tie goes negative


def test_kernel_weights_sum_to_one():
    ds = _random_ds(6, n=40)
    model = train_kernel(ds, kind=GAUSSIAN)
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(-2, 3, 2)
        assert weights(model, q).sum() == pytest.approx(1.0, abs=1e-9)


def test_kernel_far_query_does_not_underflow():
    # naive exp ratios hit 0/0 here; the max-division form must survive
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, -1]))
    model = train_kernel(ds, kind=GAUSSIAN, h=1e-3)
    w = weights(model, [500.0])
    assert np.isfinite(w).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert w[1] > w[0]


def test_gaussian_closer_point_gets_more_weight():
    ds = _random_ds(8, n=20)
    model = train_kernel(ds, kind=GAUSSIAN)
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.uniform(0, 1, 2)
        d = np.linalg.norm(ds.points - q, axis=1)
        w = weights(model, q)
        order = np.argsort(d)
        assert np.all(np.diff(w[order]) <= 1e-15)


def test_kernel_matches_direct_ratio_oracle():
    ds = _random_ds(10, n=15)
    model = train_kernel(ds, kind=GAUSSIAN, h=0.5)  # benign scale, no underflow
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = rng.uniform(0, 1, 2)
        expect = oracles.kernel_weights_oracle(
            ds.points, q, lambda u: log_kernel(GAUSSIAN, u), 0.5)
        assert np.allclose(weights(model, q), expect)


def test_plateau_kernel_uniform_on_far_masses():
    # point masses at -1 and +1 with a small bandwidth: every scaled
    # distance clears the plateau knee, so all weights collapse to 1/n
    ds = generate(ScenarioSpec("example3", 200), RandomStream(0, 0))
    model = train_kernel(ds, kind=PLATEAU_EXAMPLE3)
    w = weights(model, [-0.7])
    assert np.allclose(w, 1.0 / len(ds))
    assert predict(model, [-0.7]) == 1  # 90 percent mass wins


def test_inverse_poly_kernel_shape():
    u = np.array([0.0, 1.0, 3.0])
    assert np.allclose(np.exp(log_kernel(INVERSE_POLY, u)), [1.0, 0.25, 0.0625])


def test_unknown_kernel_kind_rejected_before_training():
    ds = _random_ds(7, n=10)
    with pytest.raises(ValueError, match="unknown kernel kind 'bogus'"):
        make_model("kernel", ds, kernel="bogus")
    with pytest.raises(ValueError, match="unknown kernel kind"):
        train_kernel(ds, kind="bogus")


@pytest.mark.parametrize("kind", [GAUSSIAN, PLATEAU_EXAMPLE3, INVERSE_POLY])
def test_kernel_batch_matches_scalar(kind):
    """The vote of one row does not depend on the rows batched with it.  On
    these half-moons (100 points per label) the plateau kernel gives 54 of
    the 300 queries all-equal weights: a true tie of 0 that takes -1."""
    train = generate(ScenarioSpec("half_moons", 200, sigma=0.08), RandomStream(1, 0))
    test = generate(ScenarioSpec("half_moons", 300, sigma=0.08), RandomStream(1, 1))
    model = train_kernel(train, kind=kind)
    single = np.array([predict(model, x) for x in test.points])
    for size in (1, 2, 7, 64, 300):
        batched = np.concatenate([predict_batch(model, test.points[i:i + size])
                                  for i in range(0, len(test), size)])
        assert np.array_equal(batched, single)
    if kind == PLATEAU_EXAMPLE3:
        w = weights_batch(model, test.points)
        tie = (w == w[:, :1]).all(axis=1)
        assert tie.sum() == 54 and np.all(single[tie] == -1)


def test_default_bandwidth_rule():
    assert default_bandwidth(1000, 1) == pytest.approx(0.1)
    assert default_bandwidth(16, 2) == pytest.approx(16 ** -0.25)


# ---------------------------------------------------------------------------
# histograms


def test_default_cell_threshold_rule():
    assert default_cell_threshold(1) == 1
    assert default_cell_threshold(27) == 3
    assert default_cell_threshold(1000) == 10
    assert default_cell_threshold(5000) == 18


def test_histogram_single_leaf_when_small():
    ds = _random_ds(12, n=4)
    model = train_histogram(ds, kn=10)
    cells = oracles.leaf_cells(model)
    assert len(cells) == 1
    lo, side, label = cells[0]
    vote = int(ds.labels.sum())
    assert label == (1 if vote > 0 else -1)


def test_histogram_partition_invariants():
    for seed in range(5):
        ds = _random_ds(20 + seed, n=120)
        model = train_histogram(ds)
        counts = np.array([len(m) for m in model.leaf_members])
        assert counts.sum() == len(ds)
        kn = default_cell_threshold(len(ds))
        assert np.all(counts <= kn)
        # every training point lands in exactly one leaf, the one storing it
        for i, leaf in enumerate(model.leaf_index(ds.points)):
            assert leaf >= 0
            assert i in model.leaf_members[leaf]


def test_histogram_cells_tile_root():
    ds = _random_ds(30, n=80)
    model = train_histogram(ds)
    cells = oracles.leaf_cells(model)
    rng = np.random.default_rng(31)
    qs = rng.uniform(model.root_lo, model.root_lo + model.root_side, (300, 2))
    for q in qs:
        hits = [i for i, (lo, side, _) in enumerate(cells)
                if np.all(q >= lo) and np.all(q < lo + side)]
        assert len(hits) == 1


def test_histogram_outside_root_defaults_negative():
    ds = Dataset(np.array([[0.2, 0.2], [0.3, 0.3]]), np.array([1, 1]))
    model = train_histogram(ds)
    assert predict(model, [50.0, 50.0]) == -1
    assert np.all(weights(model, [50.0, 50.0]) == 0.0)


def test_histogram_empty_leaf_defaults_negative():
    # one tight cluster of +1 and a far +1 point force empty subcells
    pts = np.concatenate([np.full((10, 2), 0.01) + np.arange(10)[:, None] * 1e-4,
                          [[0.9, 0.9]] * 2])
    ds = Dataset(pts, np.ones(12, dtype=int))
    model = train_histogram(ds, kn=3)
    labels = [label for _, _, label in oracles.leaf_cells(model)]
    assert -1 in labels  # some empty region exists and votes -1


def test_histogram_coincident_points_terminate():
    ds = Dataset(np.zeros((50, 2)), np.concatenate([np.ones(30), -np.ones(20)]))
    model = train_histogram(ds, kn=5)  # can never reach the threshold
    assert predict(model, [0.0, 0.0]) == 1


def test_histogram_explicit_root_override():
    ds = generate(ScenarioSpec("example2", 4000), RandomStream(0, 0))
    model = train_histogram(ds, root=(np.array([0.0]), 1.0))
    # the support gap produces an empty cell exactly on [0.25, 0.5)
    gap = [(lo, side) for lo, side, label in oracles.leaf_cells(model)
           if label == -1 and lo[0] == 0.25 and side == 0.25]
    assert gap, "expected the empty quarter cell on [0.25, 0.5)"
    assert predict(model, [0.3]) == -1
    assert predict(model, [0.1]) == 1


def _leaf_lookup_queries(model, rng):
    """Random queries around the root, plus every leaf's lo and hi corners
    and their float neighbours on both sides."""
    lo, side, d = model.root_lo, model.root_side, len(model.root_lo)
    random = rng.uniform(lo - 0.1 * side, lo + 1.1 * side, (400, d))
    corners = np.concatenate([model.leaf_lo, model.leaf_hi])
    return np.concatenate([random, corners, np.nextafter(corners, -np.inf),
                           np.nextafter(corners, np.inf)])


def _leaf_path(model, i):
    """Child codes from the root down to leaf i, read off its lo corner."""
    x, lo, side = model.leaf_lo[i], model.root_lo.copy(), float(model.root_side)
    path = []
    while side > model.leaf_side[i]:
        half = side / 2.0
        upper = x >= lo + half
        path.append(int(upper @ (1 << np.arange(len(x)))))
        lo, side = np.where(upper, lo + half, lo), half
    return path


@pytest.mark.parametrize("d", [1, 2, 3])
def test_histogram_leaves_numbered_depth_first(d):
    # depth-first, children in ascending code order: the leaves' paths sort
    model = train_histogram(_random_ds(70 + d, n=150, d=d), kn=3)
    paths = [_leaf_path(model, i) for i in range(len(model.leaf_lo))]
    assert max(map(len, paths)) == model.depth > 1
    assert paths == sorted(paths)


def _assert_leaf_index_matches_tree_walk(model, queries):
    walked = oracles.histogram_walk_leaves(model, queries)
    assert model.leaf_index(queries).tolist() == walked
    assert np.array_equal(predict_batch(model, queries),
                          [1 if leaf >= 0 and model.leaf_vote[leaf] > 0 else -1
                           for leaf in walked])


@pytest.mark.parametrize("origin", [0.0, 1e6])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_histogram_leaf_index_matches_tree_walk(d, origin):
    rng = np.random.default_rng(40 + d)
    root_lo, side = np.full(d, origin - 0.3), 0.7
    pts = root_lo + side * rng.beta(0.5, 0.5, (300, d))
    ds = Dataset(pts, np.where(rng.random(300) < 0.5, 1, -1))
    model = train_histogram(ds, kn=4, root=(root_lo, side))
    assert len(model.leaf_vote) > 2 ** d
    _assert_leaf_index_matches_tree_walk(model, _leaf_lookup_queries(model, rng))


@pytest.mark.parametrize("kind, kn, min_depth", [
    ("example1", 1, 15), ("example2", 1, 15),   # deep trees
    ("example3", 1, 1),                         # coincident point masses
    ("half_moons", None, 5)])
def test_histogram_leaf_index_matches_tree_walk_on_scenarios(kind, kn, min_depth):
    ds = generate(ScenarioSpec(kind, 400, sigma=0.08 if kind == "half_moons" else 0.0),
                  RandomStream(7, 0))
    model = train_histogram(ds, kn=kn)
    assert model.depth >= min_depth
    queries = _leaf_lookup_queries(model, np.random.default_rng(8))
    _assert_leaf_index_matches_tree_walk(model, np.concatenate([queries, ds.points]))


def test_histogram_leaf_index_on_a_root_leaf():
    ds = _random_ds(9, n=5)
    model = train_histogram(ds, kn=5)
    assert model.depth == 0 and len(model.leaf_vote) == 1
    _assert_leaf_index_matches_tree_walk(
        model, _leaf_lookup_queries(model, np.random.default_rng(10)))


def test_histogram_tree_memory_is_bounded():
    # 60 uniform points in d = 12: the root splits into 4,096 children, and
    # a (nodes, 2^d) child table would hold 128 MiB of child ids
    rng = np.random.default_rng(12)
    ds = Dataset(rng.random((60, 12)), np.where(rng.random(60) < 0.5, 1, -1))
    tracemalloc.start()
    try:
        model = train_histogram(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    nodes = len(model.node_leaf)
    assert model.node_mid.shape == (nodes, 12) and model.node_first.shape == (nodes,)
    assert len(model.leaf_vote) == 4096
    _assert_leaf_index_matches_tree_walk(model, np.concatenate([ds.points, rng.random((200, 12))]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_histogram_non_finite_queries_are_outside(d):
    model = train_histogram(_random_ds(50 + d, n=200, d=d), kn=2)
    inside = model.root_lo + model.root_side / 3
    queries = []
    for value in (np.nan, np.inf, -np.inf):
        queries.append(np.full(d, value))
        for j in range(d):
            q = inside.copy()
            q[j] = value
            queries.append(q)
    queries = np.array(queries)
    assert model.leaf_index(queries).tolist() == [-1] * len(queries)
    assert predict_batch(model, queries).tolist() == [-1] * len(queries)
    assert oracles.histogram_walk_leaves(model, queries) == [-1] * len(queries)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_histogram_regions_are_the_predicted_sets(d):
    rng = np.random.default_rng(60 + d)
    ds = _random_ds(61 + d, n=80, d=d)
    model = train_histogram(ds, kn=3)
    queries = _leaf_lookup_queries(model, rng)
    pred = predict_batch(model, queries)
    for label in (1, -1):
        lo, hi = model.regions[label]
        inside = np.all((lo <= queries[:, None]) & (queries[:, None] < hi), axis=2)
        # exterior slabs overlap at the root's corners; leaves are disjoint
        assert np.array_equal(inside.any(axis=1), pred == label)
        assert inside[:, :np.sum((model.leaf_vote > 0) == (label > 0))].sum(axis=1).max() <= 1
    assert len(model.regions[-1][0]) - np.sum(model.leaf_vote <= 0) == 2 * d


def test_histogram_root_must_cover_data():
    ds = Dataset(np.array([[0.5], [1.5]]), np.array([1, -1]))
    with pytest.raises(ValueError):
        train_histogram(ds, root=(np.array([0.0]), 1.0))


def test_histogram_weights_uniform_within_leaf():
    ds = _random_ds(33, n=60)
    model = train_histogram(ds)
    rng = np.random.default_rng(34)
    for _ in range(40):
        q = rng.uniform(0, 1, 2)
        w = weights(model, q)
        [leaf] = model.leaf_index(q)
        if leaf == -1:
            # query landed outside the data bounding cube
            assert np.all(w == 0.0)
            continue
        members = model.leaf_members[leaf]
        if len(members):
            assert np.allclose(w[members], 1.0 / len(members))
            assert w.sum() == pytest.approx(1.0)
        else:
            assert np.all(w == 0.0)


# ---------------------------------------------------------------------------
# shared weight-function laws


@pytest.mark.parametrize("family", ["knn", "kernel", "histogram"])
def test_models_are_frozen(family):
    ds = _random_ds(97, n=20)
    model = make_model(family, ds)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.train = _random_ds(98, n=20)
    assert model.train is ds


@pytest.mark.parametrize("family", ["knn", "kernel", "histogram"])
def test_label_independence_of_weights(family):
    ds = _random_ds(40, n=50)
    flipped = Dataset(ds.points.copy(), -ds.labels)
    trainers = {
        "knn": lambda d: train_knn(d, k=3),
        "kernel": lambda d: train_kernel(d),
        "histogram": lambda d: train_histogram(d),
    }
    m1, m2 = trainers[family](ds), trainers[family](flipped)
    rng = np.random.default_rng(41)
    for _ in range(25):
        q = rng.uniform(-0.2, 1.2, 2)
        assert np.array_equal(weights(m1, q), weights(m2, q))


def test_prediction_sign_rule():
    # vote strictly positive iff +1; zero or negative votes give -1
    ds = Dataset(np.array([[0.0], [2.0]]), np.array([1, -1]))
    model = train_knn(ds, k=2)  # uniform weights, vote exactly 0
    assert predict(model, [1.0]) == -1


_EMPTY = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int8))


@pytest.mark.parametrize("call, error, match", [
    (lambda ds: train_kernel(_EMPTY), ValueError, "empty training set"),
    (lambda ds: train_histogram(_EMPTY), ValueError, "empty training set"),
    (lambda ds: train_histogram(ds, kn=0), ValueError, "cell threshold must be >= 1"),
    (lambda ds: train_histogram(ds, root=(np.zeros(3), 2.0)), ValueError,
     "root dimension mismatch"),
    (lambda ds: make_model("bogus", ds), ValueError, "unknown model 'bogus'"),
    (lambda ds: KernelModel(ds, "gausian", 0.5), ValueError, "unknown kernel kind 'gausian'"),
    # an object with a training set that is no model family
    (lambda ds: weights_batch(types.SimpleNamespace(train=ds), [[0.5, 0.5]]),
     TypeError, "unknown model type SimpleNamespace"),
    (lambda ds: predict_batch(types.SimpleNamespace(train=ds), [[0.5, 0.5]]),
     TypeError, "unknown model type SimpleNamespace"),
    (lambda ds: predict_batch(types.SimpleNamespace(train=ds), np.zeros((0, 2))),
     TypeError, "unknown model type SimpleNamespace"),
], ids=["kernel-empty", "histogram-empty", "histogram-kn-0", "histogram-root-dim",
        "make-model-bogus", "kernel-kind-typo", "weights-batch-non-model",
        "predict-batch-non-model", "predict-batch-non-model-empty"])
def test_bad_model_arguments_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call(_random_ds(44, n=10))


@pytest.mark.parametrize("family", ["knn", "kernel", "histogram"])
def test_query_dimension_mismatch_rejected(family):
    model = make_model(family, _random_ds(43, n=30), k=3)
    for q in ([0.9], [[0.9], [0.4]], [0.1, 0.2, 0.3], np.zeros((0, 3))):
        for call in (predict, predict_batch, weights, weights_batch):
            with pytest.raises(ValueError, match="query dimension mismatch"):
                call(model, q)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_predict_is_sign_of_weighted_vote(seed):
    ds = _random_ds(seed % 1000, n=18)
    for model in (train_knn(ds, k=3), train_kernel(ds), train_histogram(ds)):
        q = np.random.default_rng(seed).uniform(-0.5, 1.5, 2)
        vote = float(np.dot(weights(model, q), ds.labels))
        assert predict(model, q) == (1 if vote > 0 else -1)
