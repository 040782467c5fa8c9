"""Adversarial pruning: conflict graph, matching, maximum separated subset."""

import tracemalloc

import numpy as np
import pytest

from astute_np import (LINF, ConflictGraph, Dataset, RandomStream, ScenarioSpec,
                       adv_prune, build_conflict_graph, generate, max_matching,
                       pairwise_distances, train_knn)
from astute_np import prune

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
    assert g.indptr[-1] == expected
    for li, u in enumerate(g.left):
        for v in g.adj[li]:
            assert adj[u] & (1 << g.right[v])


def test_conflict_at_exactly_two_r():
    ds = Dataset(np.array([[0.0, 0.0], [0.2, 0.0]]), np.array([1, -1]))
    # closed condition: distance == 2r conflicts
    assert build_conflict_graph(ds, 0.1).indptr[-1] == 1
    assert build_conflict_graph(ds, 0.0999).indptr[-1] == 0


def _dense_adj(ds, g, r, metric):
    """Adjacency lists of the all-pairs rule the sweep must reproduce, over
    ``g``'s sides in ``g``'s order.  The sweep tests pass the conflict
    metric, l-inf, as a one-value parameter, so each case keeps its
    ``linf`` id."""
    close = pairwise_distances(metric, ds.points[g.left], ds.points[g.right]) <= 2.0 * r
    return [np.flatnonzero(row).tolist() for row in close]


def _assert_sweep_exact(ds, r, metric, oracle=True):
    g = build_conflict_graph(ds, r)
    assert g.indices.dtype == np.int32
    assert len(g.indptr) == len(g.left) + 1
    if (ds.labels == 1).any() and (ds.labels == -1).any():
        assert g.adj == _dense_adj(ds, g, r, metric)
    else:
        assert g.adj == [[]] * len(g.left)
    if oracle:
        adj = oracles.conflict_adjacency(ds.points, ds.labels, r, oracles.linf)
        left, right = g.left.tolist(), g.right.tolist()
        expected = {(u, v) for u in left for v in right if adj[u] >> v & 1}
        assert {(left[i], right[j]) for i, row in enumerate(g.adj) for j in row} == expected
    return g


def _lattice_chain(n, d, r, offset, seed):
    """Points at offset + r * k along the first axis, labelled ++--++--, so
    every +1 point has -1 neighbours at exactly r and exactly 2r.  Other
    coordinates sit on the same lattice, 0 to 2 steps from offset."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    pts = offset + r * np.column_stack([k] + [rng.integers(0, 3, n) for _ in range(d - 1)])
    return Dataset(pts, np.where(k % 4 < 2, 1, -1))


@pytest.mark.parametrize("metric", [LINF])
@pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
@pytest.mark.parametrize("r", [0.125, 0.1])
def test_sweep_exact_across_blocks_and_offsets(monkeypatch, metric, offset, r):
    # BLOCK_CELLS is cut so that row_blocks makes 256-row blocks: 600 +1
    # points fill three; with r = 0.125 the lattice is exact, so the last +1
    # point of a block (k = 509) meets a -1 point (k = 511) at exactly 2r,
    # on the edge of the block's window.  With r = 0.1 at large offsets the
    # subtractions round, and a pad relative to r would be too small.
    ds = _lattice_chain(1200, 2, r, offset, seed=1)
    monkeypatch.setattr("astute_np.data.BLOCK_CELLS", 256 * ds.points.size)
    g = _assert_sweep_exact(ds, r, metric, oracle=False)
    if r == 0.125:
        (u,), (v,) = np.flatnonzero(g.left == 509), np.flatnonzero(g.right == 511)
        assert ds.points[g.right[v], 0] - ds.points[g.left[u], 0] == 2 * r
        assert v in g.adj[u]


@pytest.mark.parametrize("metric", [LINF])
@pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sweep_matches_oracle(metric, offset, d):
    rng = np.random.default_rng(int(offset) % 97 + d)
    pts, labels = oracles.random_two_class(rng, 80, d)
    _assert_sweep_exact(Dataset(offset + pts, labels), 0.1, metric)
    _assert_sweep_exact(_lattice_chain(60, d, 0.125, offset, seed=d), 0.125, metric)


@pytest.mark.parametrize("metric", [LINF])
def test_sweep_tied_first_coordinates(monkeypatch, metric):
    # three distinct first coordinates: with BLOCK_CELLS cut to make
    # 256-row blocks, every block shares them, and the windows overlap
    # completely
    rng = np.random.default_rng(5)
    pts = np.column_stack([0.2 * rng.integers(0, 3, 700), rng.uniform(0, 1, 700)])
    ds = Dataset(pts, np.where(rng.random(700) < 0.5, 1, -1))
    monkeypatch.setattr("astute_np.data.BLOCK_CELLS", 256 * ds.points.size)
    _assert_sweep_exact(ds, 0.05, metric, oracle=False)
    _assert_sweep_exact(ds.subset(np.arange(90)), 0.05, metric)


def test_sweep_block_size_does_not_change_the_graph(monkeypatch):
    ds = generate(ScenarioSpec("half_moons", 600, sigma=0.2), RandomStream(3, 1))
    default = build_conflict_graph(ds, 0.1)
    assert default.indptr[-1] > 0
    monkeypatch.setattr("astute_np.data.BLOCK_CELLS", ds.points.size)
    one_row = build_conflict_graph(ds, 0.1)
    for name in ("left", "right", "indptr", "indices"):
        assert np.array_equal(getattr(one_row, name), getattr(default, name)), name


def test_build_memory_is_bounded():
    # noiseless half-moons have no conflict at r = 0.1, so the peak is the
    # sweep's own buffers: row_blocks keeps each under BLOCK_CELLS cells
    # whatever n (256-row blocks peaked near 34 MiB here)
    ds = generate(ScenarioSpec("half_moons", 60000), RandomStream(7, 1))
    tracemalloc.start()
    try:
        build_conflict_graph(ds, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("metric", [LINF])
@pytest.mark.parametrize("label", [1, -1])
def test_sweep_one_class(metric, label):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(0, 1, (300, 2)), np.full(300, label))
    g = _assert_sweep_exact(ds, 0.2, metric)
    assert g.indptr[-1] == 0


@pytest.mark.parametrize("seed", range(4))
def test_extreme_coordinates(seed):
    # gaps between coordinates at +-1e308 overflow to inf, which is no
    # conflict; ties at the same extreme coordinate still conflict
    rng = np.random.default_rng(60 + seed)
    pts = rng.choice([-1e308, 0.0, 1e308], (14, 2)) + rng.uniform(0, 0.2, (14, 2))
    labels = np.where(rng.random(14) < 0.5, 1, -1)
    r = 0.05
    g = build_conflict_graph(Dataset(pts, labels), r)
    with np.errstate(over="ignore"):
        adj = oracles.conflict_adjacency(pts, labels, r)
        best = oracles.max_separated_subset_size(pts, labels, r)
    assert g.indptr[-1] == sum(bin(a).count("1") for a in adj) // 2
    assert len(adv_prune(Dataset(pts, labels), r).kept) == best


def test_conflict_requires_positive_radius():
    ds = _random_ds(1, n=6)
    with pytest.raises(ValueError):
        build_conflict_graph(ds, 0.0)


def test_same_label_points_never_conflict():
    ds = Dataset(np.zeros((4, 2)), np.array([1, 1, 1, 1]))
    g = build_conflict_graph(ds, 5.0)
    assert g.indptr[-1] == 0
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


def _chain(m):
    # chain L_m R_0 L_0 R_1 ... L_{m-1} R_m along the second coordinate,
    # spacing 0.15, so only neighbours conflict at r = 0.1.  The first
    # coordinate is 0 throughout, so the graph's sweep order is the listing
    # order.  With L_m (y = 0) listed last, the first phase matches L_i with
    # R_i, and the second finds one augmenting path through the whole chain,
    # far longer than the recursion limit.
    pos = 0.15 * np.arange(2 * m + 2)
    labels = np.where(np.arange(2 * m + 2) % 2 == 0, 1, -1)
    order = np.r_[1:2 * m + 2, 0]
    return Dataset(np.column_stack([np.zeros_like(pos), pos])[order], labels[order])


def test_long_augmenting_path_does_not_recurse():
    m = 2000
    ds = _chain(m)
    # the first phase leaves one vertex for the long path to match
    greedy_l, _ = prune._greedy_matching(build_conflict_graph(ds, 0.1))
    assert sum(v != -1 for v in greedy_l) == m
    pruned = adv_prune(ds, 0.1)
    assert pruned.matching_size == m + 1
    assert len(pruned.kept) == m + 1
    kept_pos = ds.points[pruned.kept, 1]
    kept_labels = ds.labels[pruned.kept]
    close = np.abs(kept_pos[:, None] - kept_pos[None, :]) <= 0.2
    assert not np.any(close & (kept_labels[:, None] != kept_labels[None, :]))


def _graph(adj, nr):
    """The graph with adjacency lists ``adj``, as the compressed rows
    ``build_conflict_graph`` returns."""
    indptr = np.cumsum([0] + [len(row) for row in adj])
    indices = np.array([v for row in adj for v in row], dtype=np.int32)
    return ConflictGraph(np.arange(len(adj)), np.arange(nr), indptr, indices)


def _assert_matches_reference(g):
    ref = oracles.hopcroft_karp_reference(g.adj, len(g.right))
    assert max_matching(g) == ref


@pytest.mark.parametrize("seed", range(8))
def test_matching_matches_reference_random(seed):
    rng = np.random.default_rng(400 + seed)
    nl, nr = rng.integers(1, 120, 2)
    density = rng.choice([0.01, 0.05, 0.3])
    adj = [np.flatnonzero(rng.random(nr) < density).tolist() for _ in range(nl)]
    _assert_matches_reference(_graph(adj, nr))


@pytest.mark.parametrize("seed", range(6))
def test_matching_matches_reference_multi_layer(seed):
    # sparse graphs with a few edges per vertex need several phases, and
    # later phases augment along paths through matched vertices, which
    # re-pairs them within the phase
    rng = np.random.default_rng(700 + seed)
    for density in (0.01, 0.03, 0.1, 0.3):
        nl, nr = rng.integers(20, 300, 2)
        p = min(density, 3.0 / nr) if seed % 2 else density
        adj = [np.flatnonzero(rng.random(nr) < p).tolist() for _ in range(nl)]
        _assert_matches_reference(_graph(adj, nr))


@pytest.mark.parametrize("seed", range(4))
def test_matching_matches_reference_shuffled_chain(seed):
    # the chain's rows in random order: its augmenting paths run through
    # many matched vertices, in an order the listing does not give away
    ds = _chain(300)
    ds = ds.subset(np.random.default_rng(seed).permutation(len(ds)))
    _assert_matches_reference(build_conflict_graph(ds, 0.1))


def test_matching_matches_reference_special_graphs():
    for nl, nr in ((0, 0), (0, 5), (5, 0)):
        g = _graph([[] for _ in range(nl)], nr)
        assert max_matching(g) == ([-1] * nl, [-1] * nr)
    # isolated vertices on both sides
    _assert_matches_reference(_graph([[], [1, 3], [], [3], [], [1]], 6))
    for nl, nr in ((1, 1), (4, 7), (7, 4), (30, 30)):
        _assert_matches_reference(_graph([list(range(nr))] * nl, nr))


def test_matching_matches_reference_on_data():
    _assert_matches_reference(build_conflict_graph(_chain(2000), 0.1))
    ds = _random_ds(13, n=1500, box=2.0)
    _assert_matches_reference(build_conflict_graph(ds, 0.1))


def test_adv_prune_memory_is_bounded():
    # overlapping half-moons: about 1.5 M conflict edges.  The graph holds 4
    # bytes per edge; the matching's temporaries are edge-blocked, so the
    # peak stays within 12 bytes per edge
    ds = generate(ScenarioSpec("half_moons", 12000, sigma=0.3), RandomStream(7, 1))
    edges = build_conflict_graph(ds, 0.1).indptr[-1]
    tracemalloc.start()
    try:
        adv_prune(ds, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * edges


def _random_graph(seed, nl, nr, p):
    rng = np.random.default_rng(seed)
    return _graph([np.flatnonzero(rng.random(nr) < p).tolist() for _ in range(nl)], nr)


@pytest.mark.parametrize("block", [1, 7])
def test_edge_block_boundaries_keep_pairs_and_kept(monkeypatch, block):
    # the alternating search cuts its edge lists into blocks of
    # prune._EDGE_BLOCK edges; with blocks of 1 and 7 edges, rows split
    # across blocks, yet the pairs and the kept set match
    graphs = [_random_graph(900 + s, 60, 50, p) for s, p in enumerate((0.02, 0.1, 0.4))]
    graphs += [_random_graph(910 + s, 200, 180, 3.0 / 180) for s in range(2)]
    chains = [_chain(300).subset(np.random.default_rng(s).permutation(602)) for s in range(2)]
    chains.append(_chain(2000))
    data = [_random_ds(17, n=300, box=0.5), *chains]
    default = [(build_conflict_graph(ds, 0.1), adv_prune(ds, 0.1)) for ds in data]
    monkeypatch.setattr(prune, "_EDGE_BLOCK", block)
    for g in graphs:
        _assert_matches_reference(g)
    for ds, (g, pruned) in zip(data, default):
        _assert_matches_reference(g)
        assert np.array_equal(adv_prune(ds, 0.1).kept, pruned.kept)


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


def test_prune_invariant_under_row_order():
    # the kept set depends only on the conflict graph, whichever maximum
    # matching the rows' order leads to.  The graph orders each side by
    # first coordinate, ties by index, so a permutation moves vertices only
    # among ties; rounding the first coordinate makes many
    rng = np.random.default_rng(51)
    cases = [(int(rng.integers(10, 600)), float(rng.uniform(0, 0.5)),
              float(rng.uniform(0.01, 0.3)), seed) for seed in range(60)]
    cases.append((12000, 0.3, 0.1, 60))
    for n, sigma, r, seed in cases:
        ds = generate(ScenarioSpec("half_moons", n, sigma=sigma), RandomStream(seed, 2))
        tied = Dataset(np.column_stack([np.round(ds.points[:, 0], 1), ds.points[:, 1]]), ds.labels)
        perm = rng.permutation(n)
        for data in (ds, tied):
            pruned, shuffled = adv_prune(data, r), adv_prune(data.subset(perm), r)
            assert np.array_equal(np.sort(perm[shuffled.kept]), pruned.kept)
            assert shuffled.matching_size == pruned.matching_size


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


def test_prune_linf_diagonal_conflict():
    # both coordinates differ by 0.1 = 2r, so the pair conflicts in l-inf
    # although its L2 distance (~0.141) is above 2r
    ds = Dataset(np.array([[0.0, 0.0], [0.1, 0.1]]), np.array([1, -1]))
    assert len(adv_prune(ds, 0.05).kept) == 1


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
    assert len(model.train) == len(pruned.kept)
    assert np.array_equal(model.train.points, ds.points[pruned.kept])
    assert np.array_equal(model.train.labels, ds.labels[pruned.kept])
