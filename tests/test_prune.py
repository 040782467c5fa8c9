"""Adversarial pruning: conflict graph, matching, maximum separated subset."""

import numpy as np
import pytest

from astute_np import (L2, LINF, Dataset, adv_prune, build_conflict_graph,
                       max_matching, train_knn)

import oracles


def _random_ds(seed, n, d=2, box=1.0):
    rng = np.random.default_rng(seed)
    pts, labels = oracles.random_two_class(rng, n, d, box)
    return Dataset(pts, labels)


def _is_separated(ds, kept, r, dist=oracles.linf):
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            i, j = kept[a], kept[b]
            if ds.labels[i] != ds.labels[j] and dist(ds.points[i], ds.points[j]) <= 2 * r:
                return False
    return True


# ---------------------------------------------------------------------------
# conflict graph


def test_conflict_graph_edges_match_bruteforce():
    ds = _random_ds(7, n=25)
    r = 0.08
    g = build_conflict_graph(ds, r)
    adj = oracles.conflict_adjacency(ds.points, ds.labels, r)
    expected = sum(bin(a).count("1") for a in adj) // 2
    assert g.edge_count == expected
    for li, u in enumerate(g.left):
        for v in g.adj[li]:
            assert adj[u] & (1 << g.right[v])


def test_conflict_at_exactly_two_r():
    ds = Dataset(np.array([[0.0, 0.0], [0.2, 0.0]]), np.array([1, -1]))
    # closed condition: distance == 2r conflicts
    assert build_conflict_graph(ds, 0.1).edge_count == 1
    assert build_conflict_graph(ds, 0.0999).edge_count == 0


def test_conflict_requires_positive_radius():
    ds = _random_ds(1, n=6)
    with pytest.raises(ValueError):
        build_conflict_graph(ds, 0.0)


def test_same_label_points_never_conflict():
    ds = Dataset(np.zeros((4, 2)), np.array([1, 1, 1, 1]))
    g = build_conflict_graph(ds, 5.0)
    assert g.edge_count == 0
    assert adv_prune(ds, 5.0).kept_fraction == 1.0


# ---------------------------------------------------------------------------
# matching


def test_matching_is_valid():
    ds = _random_ds(11, n=40, box=0.5)
    g = build_conflict_graph(ds, 0.06)
    pair_l, pair_r = max_matching(g)
    for u, v in enumerate(pair_l):
        if v != -1:
            assert v in g.adj[u]
            assert pair_r[v] == u
    matched_r = [u for u in pair_r if u != -1]
    assert len(matched_r) == len(set(matched_r))


def test_long_augmenting_path_does_not_recurse():
    # 1-D chain L_m R_0 L_0 R_1 ... L_{m-1} R_m, spacing 0.15, so only
    # neighbours conflict at r = 0.1.  With L_m (x = 0) listed last, the
    # first phase matches L_i with R_i, and the second finds one augmenting
    # path through the whole chain, far longer than the recursion limit.
    m = 2000
    pos = 0.15 * np.arange(2 * m + 2)
    labels = np.where(np.arange(2 * m + 2) % 2 == 0, 1, -1)
    order = np.r_[1:2 * m + 2, 0]
    ds = Dataset(pos[order, None], labels[order])
    pruned = adv_prune(ds, 0.1)
    assert pruned.matching_size == m + 1
    assert len(pruned.kept) == m + 1
    kept_pos = ds.points[pruned.kept, 0]
    kept_labels = ds.labels[pruned.kept]
    close = np.abs(kept_pos[:, None] - kept_pos[None, :]) <= 0.2
    assert not np.any(close & (kept_labels[:, None] != kept_labels[None, :]))


# ---------------------------------------------------------------------------
# pruning


@pytest.mark.parametrize("seed", range(12))
def test_prune_matches_bruteforce_mis(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 15))
    pts, labels = oracles.random_two_class(rng, n, 2, box=0.4)
    ds = Dataset(pts, labels)
    r = float(rng.uniform(0.02, 0.2))
    pruned = adv_prune(ds, r)
    assert len(pruned.kept) == oracles.max_separated_subset_size(pts, labels, r)


def test_kept_set_has_no_conflicts():
    for seed in range(5):
        ds = _random_ds(200 + seed, n=60, box=0.6)
        r = 0.05
        pruned = adv_prune(ds, r)
        assert _is_separated(ds, pruned.kept, r)


def test_kept_size_consistent_with_matching():
    ds = _random_ds(3, n=50, box=0.5)
    pruned = adv_prune(ds, 0.07)
    assert len(pruned.kept) == pruned.n - pruned.matching_size


def test_at_least_half_survive():
    # matching removes one endpoint per matched pair, so at most n // 2 points
    for seed in range(8):
        ds = _random_ds(300 + seed, n=30, box=0.2)
        pruned = adv_prune(ds, 0.3)  # dense conflicts
        assert len(pruned.kept) >= (len(ds) + 1) // 2


def test_kept_count_nonincreasing_in_r():
    ds = _random_ds(17, n=45)
    sizes = [len(adv_prune(ds, r).kept) for r in (0.01, 0.05, 0.1, 0.2, 0.4)]
    assert sizes == sorted(sizes, reverse=True)


def test_prune_deterministic():
    ds = _random_ds(23, n=55, box=0.5)
    a = adv_prune(ds, 0.08)
    b = adv_prune(ds, 0.08)
    assert np.array_equal(a.kept, b.kept)
    assert a.matching_size == b.matching_size


def test_separated_data_kept_whole():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                 np.array([1, 1, -1, -1]))
    pruned = adv_prune(ds, 0.4)
    assert np.array_equal(pruned.kept, np.arange(4))
    assert pruned.kept_fraction == 1.0


def test_prune_idempotent():
    ds = _random_ds(31, n=40, box=0.4)
    r = 0.06
    first = adv_prune(ds, r)
    survivors = ds.subset(first.kept)
    second = adv_prune(survivors, r)
    assert len(second.kept) == len(survivors)


def test_prune_l2_metric():
    # conflict under LINF at r=0.05 (both coords differ by 0.1) but not
    # under L2 (distance ~0.141 > 2r)
    ds = Dataset(np.array([[0.0, 0.0], [0.1, 0.1]]), np.array([1, -1]))
    assert len(adv_prune(ds, 0.05, metric=LINF).kept) == 1
    assert len(adv_prune(ds, 0.05, metric=L2).kept) == 2


def test_kept_indices_sorted_and_unique():
    ds = _random_ds(41, n=35, box=0.3)
    kept = adv_prune(ds, 0.1).kept
    assert np.array_equal(kept, np.unique(kept))


# ---------------------------------------------------------------------------
# training on the survivors


def test_robust_train_uses_survivors():
    ds = _random_ds(9, n=30, box=0.3)
    pruned = adv_prune(ds, 0.1)
    model = train_knn(ds.subset(pruned.kept), k=1)
    assert model.n == len(pruned.kept)
    assert np.array_equal(model.train.points, ds.points[pruned.kept])
    assert np.array_equal(model.train.labels, ds.labels[pruned.kept])
