"""astute-np benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload moons_nn1 --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``.
Closed loop, one client, one process.  The seed gives each workload a few
independent input sets.  A round runs the workload's pipeline on one of
them (timed as ``wall_s``) and then its per-item calls (timed one by one
for the op percentiles).  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` follows each untraced round with a traced one on the same
inputs, reports the per-layer metrics from the spans of the traced rounds,
and writes the spans to ``.perfbench/``.

Outputs are checked on every seed (see ``workloads.py``); for the seeds in
``digests.json`` their digest must also match.  A human-readable report goes
to stdout, followed by one JSON line.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import OperationFailed, Runner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACE_DIR = Path(".perfbench")
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms"}

# per-layer metric -> the span whose summed duration in a round it reports
SPAN_SECONDS = {
    "data.generate_s": "data.generate",
    "data.pairwise_distances_s": "data.pairwise_distances",
    "models.predict_batch.knn_s": "models.predict_batch.knn",
    "models.train_histogram_s": "models.train_histogram",
    "prune.build_conflict_graph_s": "prune.build_conflict_graph",
    "prune.max_matching_s": "prune.max_matching",
    "prune.adv_prune_s": "prune.adv_prune",
    "attack.nn1_s": "attack.nn1",
    "attack.histogram_s": "attack.histogram",
    "attack.grid_s": "attack.grid",
    "evaluation.empirical_astuteness_s": "evaluation.empirical_astuteness",
    "evaluation.accuracy_s": "evaluation.accuracy",
    "evaluation.probe_far_weight_s": "evaluation.probe_far_weight",
}
# per-layer metric -> the span whose call count in a round it reports
SPAN_CALLS = {"attack.nn1.calls": "attack.nn1",
              "attack.histogram.calls": "attack.histogram"}
# counts the benchmark derives itself rather than reads from the program
COMPUTED = {"prune.edges": "from the adjacency lists of the returned graph",
            "attack.grid.lattice_points": "from shell index and resolution",
            "models.weights.calls": "draws x candidates x sizes x families",
            "evaluation.dedup_hits": "repeated (point, label) test rows"}

PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    "models.predict_batch.knn_queries": "count",
    "models.histogram.leaves": "count",
    "models.histogram.walk_us_per_query": "us",
    "models.weights.knn_us": "us",
    "models.weights.kernel_us": "us",
    "models.weights.calls": "count",
    "models.weights.timed_calls": "count",
    "prune.edges": "count",
    "prune.matching_size": "count",
    "prune.cover_self_s": "s",
    "prune.kept": "count",
    "attack.nn1.found": "count",
    "attack.nn1.certified": "count",
    "attack.histogram.found": "count",
    "attack.histogram.certified": "count",
    "attack.grid.found": "count",
    "attack.grid.unknown": "count",
    "attack.grid.lattice_points": "count",
    "evaluation.self_s": "s",
    "evaluation.dedup_hits": "count",
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
}


def load_package():
    """Import ``astute_np`` from this checkout's ``src/``, and nothing else."""
    if not (SRC / "astute_np" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'astute_np'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import astute_np
    if SRC not in Path(astute_np.__file__).resolve().parents:
        sys.exit(f"perfbench: astute_np imported from {astute_np.__file__}, not {SRC}")


def platform_id() -> dict:
    """What a floating-point digest depends on besides the code."""
    from numpy._core import _multiarray_umath as umath
    simd = sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    return {"machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "simd": simd}


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_metrics(wl, runner, rnd, counts):
    """Per-layer metrics of one traced round."""
    seconds, calls = runner.totals(rnd)
    setup_seconds, _ = runner.totals(-1)
    seconds["data.generate"] += setup_seconds["data.generate"]
    m = {name: seconds[span] for name, span in SPAN_SECONDS.items() if span in seconds}
    m.update({name: calls[span] for name, span in SPAN_CALLS.items() if span in calls})
    m.update(counts)
    if {"prune.adv_prune", "prune.build_conflict_graph", "prune.max_matching"} <= seconds.keys():
        m["prune.cover_self_s"] = (seconds["prune.adv_prune"] - seconds["prune.build_conflict_graph"]
                                   - seconds["prune.max_matching"])
    if {"evaluation.empirical_astuteness", "evaluation.accuracy", wl.exact_attack} <= seconds.keys():
        m["evaluation.self_s"] = (seconds["evaluation.empirical_astuteness"]
                                  - seconds["evaluation.accuracy"] - seconds[wl.exact_attack])
    if "models.predict_batch.histogram" in seconds:
        m["models.histogram.walk_us_per_query"] = (
            seconds["models.predict_batch.histogram"] / counts["attack.grid.lattice_points"] * 1e6)
    for family in ("knn", "kernel"):
        span = f"models.weights.{family}"
        if span in seconds:
            m[f"{span}_us"] = seconds[span] / calls[span] * 1e6
    return m


def run_round(wl, runner, inp, traced):
    """One pipeline iteration plus its per-item calls.

    Returns (wall seconds or None, outputs or None, complete?); the round is
    complete when none of its calls raised.
    """
    failed_before = runner.failed
    runner.trace = traced
    try:
        start = time.perf_counter()
        with runner.span("iterate"):
            out = wl.iterate(runner, inp)
        wall = time.perf_counter() - start
    except OperationFailed:
        return None, None, False
    try:
        with runner.span("ops"):
            out["ops"] = wl.ops(runner, inp, out)
        if traced:
            with runner.span("decompose"):
                out["decomposed"] = wl.decompose(runner, inp, out, out["ops"])
    except OperationFailed:
        return wall, None, False
    return wall, out, runner.failed == failed_before


def fill_layers(name, missing, seed, runner):
    """Metrics of layers this workload does not call, from one traced round
    of each workload that does, at self-test size on the same seed."""
    from workloads import WORKLOADS
    found = {}
    for cls in WORKLOADS.values():
        if not missing - found.keys():
            break
        if cls.name == name:
            continue
        other = cls("toy")
        sub = Runner(trace=True)
        inp = other.setup(sub, seed, 0)
        sub.round = 0
        _, out, complete = run_round(other, sub, inp, traced=True)
        runner.attempted += sub.attempted
        runner.failed += sub.failed
        if complete:
            counts = {**other.counts(inp, out, out["ops"]), **out["decomposed"]}
            for key, value in layer_metrics(other, sub, 0, counts).items():
                if key in missing:
                    found.setdefault(key, (value, other.name))
    return found


def setup_seconds(workload, seed, size):
    """Process start to first timed iteration, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--toy"] if size == "toy" else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def check_digests(workload, seed, values, record):
    """Compare each input set's digest with the recorded one, or record them;
    returns the problems found."""
    book = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    here = platform_id()
    if record:
        if book.get("platform") != here:
            book = {"platform": here, "digests": {}}
        book["digests"].setdefault(workload, {})[str(seed)] = values
        DIGESTS.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")
        return []
    expected = book.get("digests", {}).get(workload, {}).get(str(seed))
    if expected is None:
        return []
    if book.get("platform") != here:
        print(f"note: digests for seed {seed} were recorded on {book.get('platform')}; "
              "not comparable here", file=sys.stderr)
        return []
    return [f"input set {i}: digest {v} != recorded {e}"
            for i, (v, e) in enumerate(zip(values, expected)) if v is not None and v != e]


def run_workload(name, seed, seconds, trace, size="full", record=False, report=print):
    """Run one workload; returns the result object the JSON line carries.

    Rounds cycle over the workload's input sets, so one unusual draw moves
    the medians less.  Untraced runs repeat whole cycles while another fits
    in ``seconds``.  Traced runs give each input set an untraced round and
    then a traced one, and stop after any set once ``seconds`` is used up.
    """
    from workloads import WORKLOADS
    wl = WORKLOADS[name](size)
    runner = Runner(trace=trace)
    with runner.span("setup"):
        inputs = [wl.setup(runner, seed, i) for i in range(wl.input_sets)]

    walls, overheads, layer_rounds = [], [], []
    first = [None] * len(inputs)            # first complete output per input set
    seen = [set() for _ in inputs]          # output digests per input set
    start = time.perf_counter()
    stop, cycles = False, 0
    while not stop:
        for i, inp in enumerate(inputs):
            t = time.perf_counter()
            untraced_wall = None
            for traced in ((False, True) if trace else (False,)):
                runner.round += 1
                wall, out, complete = run_round(wl, runner, inp, traced)
                if wall is not None and not traced:
                    walls.append(wall)
                    untraced_wall = wall
                elif wall is not None and untraced_wall is not None:
                    overheads.append(wall - untraced_wall)
                if not complete:
                    continue
                first[i] = first[i] or out
                seen[i].add(digest(wl.digest_parts(out, out["ops"])))
                if traced:
                    counts = {**wl.counts(inp, out, out["ops"]), **out["decomposed"]}
                    layer_rounds.append(layer_metrics(wl, runner, runner.round, counts))
            elapsed = time.perf_counter() - start
            if trace and elapsed + (time.perf_counter() - t) > seconds:
                stop = True
                break
        else:
            cycles += 1
            elapsed = time.perf_counter() - start
            stop = elapsed + elapsed / cycles > seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for i, out in enumerate(first):
        if out is None:
            if not trace:
                problems.append(f"input set {i}: no round completed")
            continue
        problems += [f"input set {i}: {p}" for p in wl.check(inputs[i], out, out["ops"])]
        if len(seen[i]) > 1:
            problems.append(f"input set {i}: outputs differ between rounds on the same inputs")
    if not any(first):
        problems.append("no round completed")
    per_set = [next(iter(d)) if len(d) == 1 else None for d in seen]
    if size == "full":
        problems += check_digests(name, seed, per_set, record)
    report(f"digest {digest(per_set)}")

    metrics = {}
    if trace and layer_rounds and walls and overheads:
        missing = PER_LAYER.keys() - {k for m in layer_rounds for k in m}
        filled = fill_layers(name, missing, seed, runner)
        for key, unit in PER_LAYER.items():
            values = [m[key] for m in layer_rounds if key in m]
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[key] = median(values) if values else filled.get(key, (None,))[0]
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        if any(v is None for v in metrics.values()):
            problems.append("per-layer metrics missing: "
                            + ", ".join(k for k, v in metrics.items() if v is None))
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps({"workload": name, "seed": seed, "spans": runner.dump()}))
        show_layers(metrics, {k: w for k, (_, w) in filled.items()}, report)
    elif not trace and walls and runner.op_ms:
        q1, med, q3 = quartiles(walls)
        # an item's latency is its faster call over the passes; then each
        # round's percentiles, and their median over rounds: a burst of load
        # on the machine, or one draw with unusually hard points, then moves
        # one round's tail rather than the run's
        passes = wl.op_passes
        best = [np.fmin.reduce(np.reshape(v, (passes, -1)), axis=0)
                for v in runner.op_ms.values()]
        best = [b for b in best if np.isfinite(b).any()]
        p50, p90, p99 = np.median([np.nanpercentile(b, [50, 90, 99]) for b in best], axis=0)
        ops = [len(b) for b in best]
        metrics = {"wall_s": med,
                   "setup_s": setup_seconds(name, seed, size),
                   "peak_rss_mb": peak_rss_mb,
                   "op_p50_ms": float(p50)}
        report(f"wall_s       {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)} rounds "
               f"over {len(inputs)} input sets)")
        report(f"setup_s      {metrics['setup_s']:.4f} s  (median of {SETUP_SAMPLES} fresh processes)")
        report(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
        report(f"op_p50_ms    {p50:.4f} ms  (median over {len(ops)} rounds of each round's "
               f"percentile; {min(ops)}-{max(ops)} items per round, {sum(ops)} in all, "
               f"each the faster of {passes} calls)")
        for name, value in (("op_p90_ms", p90), ("op_p99_ms", p99)):
            report(f"{name}    {value:.4f} ms  (likewise; printed only, too noisy across "
                   "seeds to bound)")
    elif not problems:
        problems.append("nothing measured")
    report(f"failed_frac  {runner.failed / max(runner.attempted, 1):.6f}  "
           f"({runner.failed} failed / {runner.attempted} attempted)")
    for p in problems:
        report(f"CHECK FAILED: {p}")

    return {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": float(v), "unit": (PER_LAYER if trace else END_TO_END)[k]}
                        for k, v in metrics.items() if v is not None}}


def show_layers(m, filled_from, report):
    for key, unit in PER_LAYER.items():
        if m[key] is None:
            report(f"{key:38s} missing")
            continue
        note = f"  (computed by the benchmark: {COMPUTED[key]})" if key in COMPUTED else ""
        if key in filled_from:
            note += f"  (self-test-size {filled_from[key]} round)"
        report(f"{key:38s} {m[key]:.6g} {unit}{note}")
    if None in m.values():
        return
    report(f"  walk_us_per_query: predict_batch time over {m['attack.grid.lattice_points']:.0f} "
           "lattice points, per point")
    report(f"  weights.*_us: time of {m['models.weights.timed_calls']:.0f} direct calls per "
           "family, per call")
    report(f"  tracing overhead {m['trace.overhead_s']:+.4f} s on an untraced iteration of "
           f"{m['trace.untraced_wall_s']:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this seed's output digest in digests.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    size = "toy" if args.toy else "full"
    if args.setup_probe:
        wl, runner = WORKLOADS[args.workload](size), Runner(trace=False)
        for i in range(wl.input_sets):
            wl.setup(runner, args.seed, i)
        print(time.time())
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          size, args.record_digest)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
