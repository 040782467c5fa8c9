"""Core layer: metrics, streams, scenarios, dataset IO."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import astute_np
from astute_np import (L2, LINF, MOON_SCALE, AttackBudget, Dataset, KernelModel,
                       ProbeConfig, RandomStream, ScenarioSpec, SweepConfig,
                       bayes_gap_demo, build_conflict_graph, example1_posterior,
                       generate, grid_attack, pairwise_distances, read_csv,
                       train_histogram, train_kernel, train_knn, write_csv)

import oracles
from oracles import distance, min_interclass_distance

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
point3 = st.tuples(coord, coord, coord)


def test_distance_known_values():
    assert distance(L2, [0, 0], [3, 4]) == 5.0
    assert distance(LINF, [0, 0], [3, 4]) == 4.0
    assert distance(L2, [1.5], [1.5]) == 0.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(L2, [0, 0], [1, 2, 3])


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        distance("l1", [0], [1])


@given(point3, point3)
def test_metric_symmetry_and_identity(a, b):
    for m in (L2, LINF):
        d = distance(m, a, b)
        assert d >= 0
        assert d == distance(m, b, a)
        assert distance(m, a, a) == 0.0


@given(point3, point3, point3)
def test_metric_triangle_inequality(a, b, c):
    for m in (L2, LINF):
        dab = distance(m, a, b)
        dbc = distance(m, b, c)
        dac = distance(m, a, c)
        assert dac <= dab + dbc + 1e-6 * (1 + dab + dbc)


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(7, 3))
    cols = rng.normal(size=(5, 3))
    for m in (L2, LINF):
        mat = pairwise_distances(m, rows, cols)
        for i in range(7):
            for j in range(5):
                assert mat[i, j] == pytest.approx(distance(m, rows[i], cols[j]))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 10])
def test_pairwise_row_blocks_match_whole_tensor(monkeypatch, d):
    # the reference reduces the whole (m, n, d) tensor at once; blocking the
    # rows must not change a bit, including where numpy's pairwise sum
    # regroups (d >= 8)
    rng = np.random.default_rng(70 + d)
    rows, cols = rng.normal(size=(23, d)), 1e3 * rng.normal(size=(9, d))
    diff = rows[:, None, :] - cols[None, :, :]
    whole = {L2: np.sqrt(np.sum(diff * diff, axis=2)), LINF: np.max(np.abs(diff), axis=2)}
    monkeypatch.setattr("astute_np.data.BLOCK_CELLS", 4 * cols.size)
    for m in (L2, LINF):
        assert np.array_equal(pairwise_distances(m, rows, cols), whole[m])


def test_pairwise_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        pairwise_distances(L2, [[0.9]], np.zeros((3, 2)))


def test_pairwise_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'l1'"):
        pairwise_distances("l1", [[0.9]], [[0.1]])


# ---------------------------------------------------------------------------
# random streams


def test_stream_reproducible():
    s = RandomStream(42, 3)
    a = s.generator().random(8)
    b = s.generator().random(8)
    assert np.array_equal(a, b)


def test_stream_ids_differ():
    a = RandomStream(42, 0).generator().random(8)
    b = RandomStream(42, 1).generator().random(8)
    c = RandomStream(43, 0).generator().random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_streams_distinct():
    root = RandomStream(7, 0)
    ids = {root.child(i).stream_id for i in range(100)}
    assert len(ids) == 100
    assert root.child(0) == root.child(0)


def test_stream_known_values_frozen():
    # platform-independence gate: counter-based generation must reproduce
    # these exact doubles anywhere
    got = RandomStream(1, 2).generator().random(3)
    assert got == pytest.approx(
        [0.30931491118583454, 0.3569562367935075, 0.036904530468356844],
        abs=0.0)


# ---------------------------------------------------------------------------
# scenarios


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([1, -1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1, 2]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1]))


def test_dataset_reshapes_1d_points_to_a_column():
    ds = Dataset(np.array([0.5, -1.0, 2.0]), np.array([1, -1, 1]))
    assert ds.points.shape == (3, 1)
    assert ds.dim == 1
    assert np.array_equal(ds.points[:, 0], [0.5, -1.0, 2.0])


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("mystery", 5)
    with pytest.raises(ValueError):
        ScenarioSpec("half_moons", 5, sigma=-0.1)
    with pytest.raises(ValueError):
        ScenarioSpec("example1", 5, r=0.0)
    for n in (2.5, 5.0, -1):
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            ScenarioSpec("half_moons", n)
    assert ScenarioSpec("half_moons", np.int64(0)).n == 0


def test_dataset_subset_takes_indices_or_a_mask():
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, -1, 1]))
    for indices, rows in [([2, 0], [2, 0]), (np.array([1], dtype=np.int32), [1]),
                          ([True, False, True], [0, 2]), (np.ones(3, dtype=bool), [0, 1, 2]),
                          ([], [])]:
        sub = ds.subset(indices)
        assert sub.points[:, 0].tolist() == rows
        assert sub.labels.tolist() == ds.labels[rows].tolist()
    for bad in ([2.7], [0.0, 1.0], [True, False], ["0"]):
        with pytest.raises(ValueError):
            ds.subset(bad)


_LINE = Dataset(np.array([[0.0], [0.5]]), np.array([1, -1]))

# (constructor taking one value, name the error must give); each must reject
# NaN and infinity, which a bare ``value <= 0`` test lets through
_PARAMETERS = {
    "AttackBudget": (AttackBudget, "r"),
    "build_conflict_graph": (lambda v: build_conflict_graph(_LINE, v), "r"),
    "SweepConfig.attack_r": (lambda v: SweepConfig(attack_r=v), "attack_r"),
    "SweepConfig.k": (lambda v: SweepConfig(k=v), "k"),
    "SweepConfig.kn": (lambda v: SweepConfig(kn=v), "kn"),
    "SweepConfig.resolution": (lambda v: SweepConfig(resolution=v), "resolution"),
    "ProbeConfig.prune_r": (lambda v: ProbeConfig(prune_r=v), "prune_r"),
    "ScenarioSpec.sigma": (lambda v: ScenarioSpec("half_moons", 5, sigma=v), "sigma"),
    "ScenarioSpec.r": (lambda v: ScenarioSpec("example1", 5, r=v), "r"),
    "train_kernel.h": (lambda v: train_kernel(_LINE, h=v), "h"),
    "KernelModel.h": (lambda v: KernelModel(_LINE, "gaussian", v), "h"),
    "train_histogram.root": (lambda v: train_histogram(_LINE, root=([0.0], v)), "root side"),
    "grid_attack.resolution": (lambda v: grid_attack(train_knn(_LINE), [0.0], 1,
                                                     AttackBudget(0.1), v), "resolution"),
    "bayes_gap_demo": (lambda v: bayes_gap_demo(v, 10), "r"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_PARAMETERS))
def test_non_finite_parameter_rejected(name, value):
    build, reported = _PARAMETERS[name]
    with pytest.raises(ValueError, match=f"^{reported} must"):
        build(value)


def test_half_moons_geometry():
    ds = generate(ScenarioSpec("half_moons", 400, sigma=0.0), RandomStream(0, 0))
    assert ds.points.shape == (400, 2)
    assert set(np.unique(ds.labels)) <= {-1, 1}
    plus = ds.points[ds.labels == 1]
    minus = ds.points[ds.labels == -1]
    # noiseless points sit exactly on their arcs
    assert np.allclose(np.linalg.norm(plus, axis=1), MOON_SCALE, atol=1e-12)
    center = MOON_SCALE * np.array([1.0, 0.5])
    assert np.allclose(np.linalg.norm(minus - center, axis=1), MOON_SCALE, atol=1e-12)
    # fair-coin labels
    assert 120 < len(plus) < 280


def test_half_moons_noise_spreads_points():
    clean = generate(ScenarioSpec("half_moons", 200, sigma=0.0), RandomStream(5, 0))
    noisy = generate(ScenarioSpec("half_moons", 200, sigma=0.08), RandomStream(5, 0))
    assert not np.allclose(clean.points, noisy.points)


def test_half_moons_separation_exceeds_attack_diameter():
    # the two arcs keep l-inf distance > 0.2, so the distribution is
    # 0.1-separated and pruning at r=0.1 should discard nothing
    ds = generate(ScenarioSpec("half_moons", 2000, sigma=0.0), RandomStream(1, 0))
    sep = min_interclass_distance(ds, LINF)
    assert 0.2 < sep < 0.22


def test_example1_posterior_values():
    r = 0.1
    assert example1_posterior(0.0, r) == 0.5
    assert example1_posterior(r / 8, r) == 1.0       # sin peak, clamped
    assert example1_posterior(3 * r / 8, r) == 0.0   # sin trough, clamped
    ds = generate(ScenarioSpec("example1", 500, r=r), RandomStream(2, 0))
    assert ds.points.shape == (500, 1)
    assert np.all((ds.points >= 0) & (ds.points <= 1))


def test_example2_supports():
    ds = generate(ScenarioSpec("example2", 3000), RandomStream(3, 0))
    plus = ds.points[ds.labels == 1, 0]
    minus = ds.points[ds.labels == -1, 0]
    assert plus.max() < 0.25 and plus.min() >= 0.0
    assert minus.min() > 0.5 and minus.max() <= 1.0
    # the supports are 0.25 apart so the distribution is 0.1-separated
    assert min_interclass_distance(ds, LINF) > 0.25


def test_example3_point_masses():
    ds = generate(ScenarioSpec("example3", 5000), RandomStream(4, 0))
    assert set(np.unique(ds.points)) == {-1.0, 1.0}
    assert np.all(np.sign(ds.points[:, 0]) == ds.labels)
    frac_minus = np.mean(ds.labels == -1)
    assert 0.08 < frac_minus < 0.12


def test_generate_deterministic():
    a = generate(ScenarioSpec("half_moons", 50, sigma=0.05), RandomStream(9, 4))
    b = generate(ScenarioSpec("half_moons", 50, sigma=0.05), RandomStream(9, 4))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_min_interclass_distance_brute_force():
    rng = np.random.default_rng(11)
    pts, labels = oracles.random_two_class(rng, 40, d=2)
    ds = Dataset(pts, labels)
    for metric, dist in ((L2, oracles.l2), (LINF, oracles.linf)):
        expect = min(dist(p, q) for p in pts[labels == 1] for q in pts[labels == -1])
        assert min_interclass_distance(ds, metric) == pytest.approx(expect)


def test_min_interclass_distance_single_class():
    ds = Dataset(np.zeros((3, 2)), np.array([1, 1, 1]))
    assert min_interclass_distance(ds, LINF) == math.inf


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.normal(size=(20, 3)) * 1e-7,
                          rng.normal(size=(20, 3)) * 1e7])
    labels = np.where(rng.random(40) < 0.5, 1, -1)
    ds = Dataset(pts, labels)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    back = read_csv(path)
    assert np.array_equal(ds.points, back.points)
    assert np.array_equal(ds.labels, back.labels)


def test_csv_label_tokens(tmp_path):
    ds = Dataset(np.array([[0.5], [1.5]]), np.array([1, -1]))
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0].endswith(",+1")
    assert lines[1].endswith(",-1")


def test_csv_write_read_is_stable(tmp_path):
    ds = generate(ScenarioSpec("half_moons", 30, sigma=0.02), RandomStream(0, 1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds, p1)
    write_csv(read_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("content,fragment", [
    ("0.1,0.2,+2\n", "line 1"),
    ("0.1,+1\n0.2,0.3,+1\n", "line 2"),
    ("0.1,oops,+1\n", "line 1"),
    ("justonefield\n", "line 1"),
])
def test_csv_errors_name_line(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        read_csv(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n0.5,1.5,+1\n   \n\n-2.0,0.25,-1\n\n")
    ds = read_csv(path)
    assert np.array_equal(ds.points, [[0.5, 1.5], [-2.0, 0.25]])
    assert np.array_equal(ds.labels, [1, -1])


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    ds = read_csv(path)
    assert len(ds) == 0 and ds.dim == 1 and ds.labels.dtype == np.int8


# ---------------------------------------------------------------------------
# package surface


def test_perfbench_names_are_exported():
    """Every ``an.<name>`` the benchmark reads is public, so removing one
    fails here and not only in a benchmark run."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    used = {m for path in bench.glob("*.py")
            for m in re.findall(r"\ban\.(\w+)", path.read_text())}
    assert "run_attack" in used and "grid_attack" in used
    assert sorted(used - set(astute_np.__all__)) == []
