"""Mutation check: each mutant below must make its named test fail.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py

Each entry of ``MUTANTS`` is (file under ``src/astute_np``, old text, new
text, the pytest node id that must kill it).  The script copies ``src/`` to
a temporary directory and first runs every named test against the unchanged
copy, all of which must pass.  Then, one mutant at a time, it replaces the
old text, which must occur exactly once in its file, and runs the named
test against the mutated copy.  It exits 1 when the unchanged copy fails,
when an old text no longer matches, or when a mutant survives.  Nothing in
the working tree is written except the caches that ``.gitignore`` lists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the 1-NN witness keeps only its largest nudge, so it may lie up to
    # 1e-5 of the segment beyond the radius
    ("attack.py",
     "for eps in (1e-9, 1e-7, 1e-5)",
     "for eps in (1e-5,)",
     "tests/test_attack.py::test_nn1_witness_invariants_random"),
    # the histogram attack's box distances skip coordinate 0
    ("attack.py",
     "    for j, xj in enumerate(x):\n        np.maximum(lo[:, j] - xj",
     "    for j, xj in list(enumerate(x))[1:]:\n        np.maximum(lo[:, j] - xj",
     "tests/test_attack.py::test_histogram_attack_matches_rowwise_formula"),
    # the running distance as the first operand: a tie between +0.0 and
    # -0.0 then yields the gap's -0.0
    ("attack.py",
     "np.maximum(lo[:, j] - xj, dists, out=dists)",
     "np.maximum(dists, lo[:, j] - xj, out=dists)",
     "tests/test_attack.py::test_histogram_attack_matches_rowwise_formula"),
    # the bisector normals skip coordinate 0
    ("attack.py",
     "for j, col in enumerate(normals.T):",
     "for j, col in list(enumerate(normals.T))[1:]:",
     "tests/test_attack.py::test_normals_match_rowwise_formula"),
    # the L1 norm sums signed entries
    ("attack.py",
     "l1 += np.abs(col)",
     "l1 += col",
     "tests/test_attack.py::test_normals_match_rowwise_formula"),
    # the leaf descent's child code skips coordinate 0
    ("models.py",
     "zip(queries.T, mid.T, bits)",
     "zip(queries.T[1:], mid.T[1:], bits[1:])",
     "tests/test_models.py::test_histogram_leaf_index_matches_tree_walk"),
    # the root-cell test skips coordinate 0
    ("models.py",
     "zip(queries.T, self.root_lo)",
     "zip(queries.T[1:], self.root_lo[1:])",
     "tests/test_models.py::test_histogram_non_finite_queries_are_outside"),
    # the conflict-graph sweep drops one-edge runs with the empty ones
    ("prune.py",
     "if len(run):",
     "if len(run) > 1:",
     "tests/test_prune.py::test_sweep_block_size_does_not_change_the_graph"),
    # the grid scan skips shell 0 when the caller did not predict x
    ("attack.py",
     "start = 0 if prediction is None else ends[0]",
     "start = ends[0]",
     "tests/test_attack.py::test_grid_mispredicted_x_is_found_in_the_first_chunk[knn3]"),
    # a hit on x returns the lattice point x + 0 * resolution, whose -0.0
    # coordinates read +0.0
    ("attack.py",
     "w = x.copy() if start",
     "w = queries[hits[0]].copy() if start",
     "tests/test_attack.py::test_grid_mispredicted_x_is_found_in_the_first_chunk[knn3]"),
    # the histogram attack drops a box at distance exactly r
    ("attack.py",
     "if best <= budget.r:\n        # clip",
     "if best < budget.r:\n        # clip",
     "tests/test_attack.py::test_histogram_exterior_low_face"),
    # the histogram witness sits on the box's open upper face, in the next box
    ("attack.py",
     "np.nextafter(hi[j], -np.inf)",
     "hi[j]",
     "tests/test_attack.py::test_histogram_exterior_low_face"),
    # a tied vote predicts +1
    ("models.py",
     "np.where(votes > 0, 1, -1)",
     "np.where(votes >= 0, 1, -1)",
     "tests/test_models.py::test_prediction_sign_rule"),
    # the leaf descent sends a query on a split plane to the lower child
    ("models.py",
     "node += (q >= m) * bit",
     "node += (q > m) * bit",
     "tests/test_models.py::test_histogram_leaf_index_matches_tree_walk[2-0.0]"),
    # k-NN ties on the k-th distance no longer go to the lowest index
    ("models.py",
     'np.argsort(dist, axis=1, kind="stable")',
     'np.argsort(dist, axis=1, kind="quicksort")',
     "tests/test_models.py::test_knn_tie_rule_across_row_blocks[2-3]"),
    # kernel weights without the row max shifted out underflow far away
    ("models.py",
     "w -= w.max(axis=1, keepdims=True)",
     "pass",
     "tests/test_models.py::test_kernel_far_query_does_not_underflow"),
    # 1-NN sites in lexicographic order, not training order
    ("models.py",
     "first = np.sort(np.unique(self.train.points, axis=0, return_index=True)[1])",
     "first = np.unique(self.train.points, axis=0, return_index=True)[1]",
     "tests/test_models.py::test_knn_by_label_is_the_cached_label_split"),
    # row blocks one row longer than BLOCK_CELLS allows
    ("data.py",
     "step = max(1, BLOCK_CELLS // max(1, cells_per_row))",
     "step = 1 + BLOCK_CELLS // max(1, cells_per_row)",
     "tests/test_models.py::test_knn_tie_rule_across_row_blocks[1-1]"),
    # the conflict test drops pairs at distance exactly 2r
    ("prune.py",
     "close &= np.abs(gap, out=gap) <= two_r",
     "close &= np.abs(gap, out=gap) < two_r",
     "tests/test_prune.py::test_conflict_at_exactly_two_r"),
    # the sweep window's low cut drops -1 points exactly 2r below the block
    ("prune.py",
     "pts[0, 0] - v <= two_r",
     "pts[0, 0] - v < two_r",
     "tests/test_prune.py::test_sweep_exact_across_blocks_and_offsets[0.125-0.0-linf]"),
    # the sweep window's high cut drops -1 points exactly 2r above the block
    ("prune.py",
     "v - pts[-1, 0] > two_r",
     "v - pts[-1, 0] >= two_r",
     "tests/test_prune.py::test_conflict_at_exactly_two_r"),
    # the greedy phase matches each left vertex to its highest free neighbour
    ("prune.py",
     "v = int(free[0])",
     "v = int(free[-1])",
     "tests/test_prune.py::test_matching_matches_reference_special_graphs"),
    # the 1-NN attack skips a site whose lower bound equals r
    ("attack.py",
     "near = np.flatnonzero(lb <= budget.r)",
     "near = np.flatnonzero(lb < budget.r)",
     "tests/test_attack.py::test_nn1_finds_a_site_whose_bound_is_exactly_r"),
    # the tiled k-NN window drops a point exactly on the cut: below the tile
    # in the first coordinate, above it, then the same in the others
    ("models.py",
     "lo0 - v <= w",
     "lo0 - v < w",
     "tests/test_models.py::test_knn_tiled_cut_keeps_a_point_at_exactly_the_cut[low-0]"),
    ("models.py",
     "v - hi0 > w",
     "v - hi0 >= w",
     "tests/test_models.py::test_knn_tiled_cut_keeps_a_point_at_exactly_the_cut[high-0]"),
    ("models.py",
     "(lo[1:] - rest <= w)",
     "(lo[1:] - rest < w)",
     "tests/test_models.py::test_knn_tiled_cut_keeps_a_point_at_exactly_the_cut[low-1]"),
    ("models.py",
     "(rest - hi[1:] <= w)",
     "(rest - hi[1:] < w)",
     "tests/test_models.py::test_knn_tiled_cut_keeps_a_point_at_exactly_the_cut[high-1]"),
    # a tile is never searched past its first window
    ("models.py",
     "if cut > w and len(wide",
     "if False and len(wide",
     "tests/test_models.py::test_knn_tiled_cut_keeps_a_point_at_exactly_the_cut[low-0]"),
    # the cut has no floor, so a gap whose square underflows is dropped
    ("models.py",
     "cut = max(float(far.max()), _CUT_FLOOR)",
     "cut = float(far.max())",
     "tests/test_models.py::test_knn_tiled_cut_floor_keeps_gaps_whose_squares_underflow"),
    # a window's candidates in first-coordinate order: ties no longer go to
    # the lowest index
    ("models.py",
     "return np.sort(order[a:b][keep])",
     "return order[a:b][keep]",
     "tests/test_models.py::test_knn_tie_rule_across_row_blocks[2-1]"),
]


def _run_test(src: Path, node: str) -> bool:
    """Whether ``node`` passes with ``astute_np`` imported from ``src``.
    No bytecode is written: a mutant of the same size, saved within the
    same second, could otherwise load a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # the named tests must import the copy, not an installed package
        where = subprocess.run(
            [sys.executable, "-c", "import astute_np; print(astute_np.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            print(f"astute_np is not imported from the copy: {where.stdout.strip()}")
            return 1
        for node in sorted({node for *_, node in MUTANTS}):
            if not _run_test(src, node):
                problems.append(f"fails on the unchanged source: {node}")
        if problems:
            for problem in problems:
                print(problem)
            return 1
        for name, old, new, node in MUTANTS:
            path = src / "astute_np" / name
            text = path.read_text()
            label = f"{name}: {old.strip().splitlines()[0]!r} -> {new.strip().splitlines()[0]!r}"
            if text.count(old) != 1:
                problems.append(f"old text occurs {text.count(old)} times: {label}")
                continue
            path.write_text(text.replace(old, new))
            try:
                survived = _run_test(src, node)
            finally:
                path.write_text(text)
            print(f"{'SURVIVED' if survived else 'killed  '} {label}  [{node}]")
            if survived:
                problems.append(f"survived: {label}")
    for problem in problems:
        print(problem)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
