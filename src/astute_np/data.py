"""Core data layer: metrics, deterministic random streams, scenario
generators, and CSV dataset interchange.

Labels are always +1 / -1.  Points live in a plain ``(n, d)`` float64 array;
row order is significant because every tie-breaking rule downstream is
defined in terms of training indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

L2 = "l2"
LINF = "linf"

#: Isotropic scale applied to both half-moon arcs.  Chosen so the noiseless
#: arcs keep a minimum inter-class l-inf distance strictly above 0.2 (the
#: data stays 0.1-separated) while leaving as little slack as possible, which
#: maximizes class overlap once the benchmark noise level is added.
MOON_SCALE = 0.4875

#: Vertical offset between the arc centers, in arc-radius units.
MOON_DY = 0.5


def require_positive(name: str, value):
    """``value`` if finite and > 0, else ValueError (NaN too, unlike ``<= 0``)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _require_count(name: str, value, least: int = 1):
    """``value`` if an integer (numpy integers too) >= ``least``, else
    ValueError: a float count would only fail later, inside numpy."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


#: elements per block of a row-blocked computation; caps each block's
#: temporaries near 8 MB of float64 whatever the row count
BLOCK_CELLS = 1 << 20


def row_blocks(rows: int, cells_per_row: int) -> list:
    """Slices that cover ``range(rows)`` in order, each of at most
    ``BLOCK_CELLS // cells_per_row`` rows and at least one."""
    step = max(1, BLOCK_CELLS // max(1, cells_per_row))
    return [slice(start, start + step) for start in range(0, rows, step)]


def pairwise_distances(metric: str, rows, cols) -> np.ndarray:
    """All distances between two point sets, shape ``(len(rows), len(cols))``.

    Computed in row blocks, so the ``(rows, cols, d)`` difference tensor
    never exceeds ``BLOCK_CELLS`` entries; each entry is the same whatever
    the block.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if metric not in (L2, LINF):
        raise ValueError(f"unknown metric {metric!r}")
    if rows.shape[1] != cols.shape[1]:
        raise ValueError("dimension mismatch")
    out = np.empty((len(rows), len(cols)))
    for block in row_blocks(len(rows), cols.size):
        diff = rows[block, None, :] - cols[None, :, :]
        if metric == L2:
            diff *= diff
            np.sum(diff, axis=2, out=out[block])
            np.sqrt(out[block], out=out[block])
        else:
            np.abs(diff, out=diff)
            np.max(diff, axis=2, out=out[block])
    return out


@dataclass(frozen=True)
class RandomStream:
    """Deterministic, platform-independent source of randomness.

    A ``(seed, stream_id)`` pair keys a counter-based bit generator, so any
    worker can recreate exactly the same sequence regardless of thread
    schedule.  Streams with distinct ids are statistically independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream_id % 2**64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "RandomStream":
        """Derived stream for a sub-task; offsets must be unique per parent."""
        return RandomStream(self.seed, self.stream_id * 100_003 + 1 + offset)


@dataclass
class Dataset:
    """A labeled sample: ``points[i]`` carries ``labels[i]`` in {+1, -1}."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # private read-only copies: models cache tables derived from these
        # arrays, so neither the caller nor anyone else may edit them in place
        self.points = np.array(self.points, dtype=float, order="C")
        if self.points.ndim == 1:
            self.points = self.points.reshape(-1, 1)
        self.labels = np.array(self.labels, dtype=np.int8).reshape(-1)
        self.points.flags.writeable = self.labels.flags.writeable = False
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError("points and labels length mismatch")
        if self.points.size and not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite coordinate")
        bad = set(np.unique(self.labels)) - {-1, 1}
        if bad:
            raise ValueError(f"labels must be +1/-1, got {sorted(bad)}")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows that integer ``indices``, an empty list or a boolean mask
        of length n selects; ValueError for anything else."""
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.intp)
        if idx.dtype.kind not in "biu" or (idx.dtype == bool and idx.shape != (len(self),)):
            raise ValueError(f"indices must be integers or a boolean mask of length "
                             f"{len(self)}, got {idx.dtype} of shape {idx.shape}")
        return Dataset(self.points[idx], self.labels[idx])


@dataclass(frozen=True)
class ScenarioSpec:
    """Which synthetic distribution to draw from and how much of it.

    kind
        one of ``half_moons``, ``example1``, ``example2``, ``example3``
    n
        sample count, an integer >= 0
    sigma
        per-coordinate Gaussian noise (half_moons only)
    r
        oscillation scale of the example1 posterior
    """

    kind: str
    n: int
    sigma: float = 0.0
    r: float = 0.1

    def __post_init__(self):
        if self.kind not in ("half_moons", "example1", "example2", "example3"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        _require_count("n", self.n, least=0)
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be >= 0 and finite")
        if self.kind == "example1":
            require_positive("r", self.r)

    @property
    def dim(self) -> int:
        """Dimension of the points ``generate`` draws for this kind."""
        return 2 if self.kind == "half_moons" else 1


def generate(spec: ScenarioSpec, stream: RandomStream) -> Dataset:
    """Draw ``spec.n`` labeled points from the named scenario.

    Scenarios
    ---------
    half_moons
        Two interleaving circular arcs scaled by ``MOON_SCALE``.  Each point
        gets a fair-coin label; +1 points sit on the upper arc
        ``MOON_SCALE * (cos t, sin t)`` and -1 points on the lower arc
        ``MOON_SCALE * (1 - cos t, MOON_DY - sin t)`` with t uniform on
        [0, pi].  Independent N(0, sigma^2) noise is added per coordinate.
    example1
        1-D, x uniform on [0, 1]; P(y = +1 | x) is the oscillating posterior
        clamp(1/2 + sin(4 pi x / r), 0, 1).
    example2
        1-D, label +1 with x uniform on [0, 0.25), else -1 with x uniform
        on (0.5, 1]; the class supports are 0.25 apart.
    example3
        1-D point masses: (x, y) = (-1, -1) with probability 0.1 and
        (+1, +1) with probability 0.9.
    """
    rng = stream.generator()
    n = spec.n
    if spec.kind == "half_moons":
        labels = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        t = rng.uniform(0.0, math.pi, n)
        x = np.where(labels == 1, np.cos(t), 1.0 - np.cos(t))
        y = np.where(labels == 1, np.sin(t), MOON_DY - np.sin(t))
        pts = np.column_stack([x, y]) * MOON_SCALE
        if spec.sigma > 0:
            pts = pts + rng.normal(0.0, spec.sigma, pts.shape)
        return Dataset(pts, labels)
    if spec.kind == "example1":
        x = rng.uniform(0.0, 1.0, n)
        labels = np.where(rng.random(n) < example1_posterior(x, spec.r), 1, -1)
        return Dataset(x.reshape(-1, 1), labels)
    if spec.kind == "example2":
        plus = rng.random(n) < 0.5
        u = rng.random(n)
        x = np.where(plus, 0.25 * u, 1.0 - 0.5 * u)
        return Dataset(x.reshape(-1, 1), np.where(plus, 1, -1))
    # example3
    minus = rng.random(n) < 0.1
    x = np.where(minus, -1.0, 1.0)
    return Dataset(x.reshape(-1, 1), np.where(minus, -1, 1))


def example1_posterior(x, r: float):
    """P(y = +1 | x) for the oscillating-posterior scenario."""
    return np.clip(0.5 + np.sin(4.0 * math.pi * np.asarray(x, dtype=float) / r),
                   0.0, 1.0)


def write_csv(ds: Dataset, path) -> None:
    """One row per point: d coordinates then a literal "+1" or "-1" label.

    Reals are serialized with 17 significant digits so a write/read round
    trip reproduces every float64 bit-exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        for row, lab in zip(ds.points, ds.labels):
            coords = ",".join(f"{v:.17g}" for v in row)
            fh.write(f"{coords},{'+1' if lab == 1 else '-1'}\n")


def _write_lines(path, lines: list) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> Dataset:
    points: list[list[float]] = []
    labels: list[int] = []
    dim = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ValueError(f"line {lineno}: expected coordinates and a label")
            if cells[-1] == "+1":
                labels.append(1)
            elif cells[-1] == "-1":
                labels.append(-1)
            else:
                raise ValueError(f"line {lineno}: unknown label token {cells[-1]!r}")
            try:
                coords = [float(c) for c in cells[:-1]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad coordinate ({exc})") from None
            if dim is None:
                dim = len(coords)
            elif len(coords) != dim:
                raise ValueError(f"line {lineno}: dimension {len(coords)} != {dim}")
            points.append(coords)
    return Dataset(np.array(points, dtype=float), np.array(labels, dtype=np.int8))
