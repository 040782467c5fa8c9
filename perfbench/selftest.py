"""Self-test of the benchmark at toy sizes; takes about half a minute.

    python3 perfbench/selftest.py

Checks that every workload passes its output checks in both modes and
emits exactly the metrics ``BENCHMARK.json`` declares; that a library call
made to raise is counted as a failed operation without aborting the run;
and that the benchmark refuses to run, printing no result, where the
package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager

import run

problems = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


@contextmanager
def raising_once(module, name):
    """Make ``module.name`` raise on its first call only."""
    real = getattr(module, name)
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError(f"injected failure in {name}")
        return real(*args, **kwargs)

    setattr(module, name, fake)
    try:
        yield
    finally:
        setattr(module, name, real)


def quiet(_line):
    pass


def main() -> int:
    run.load_package()
    import astute_np
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads the benchmark defines")

    for name in WORKLOADS:
        for trace in (0, 1):
            res = run.run_workload(name, 0, 0.05, bool(trace), size="toy", report=quiet)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} trace={trace}: outputs pass their checks")
            expect(units == declared[trace],
                   f"{name} trace={trace}: emits exactly the declared metrics and units")

    for fn in ("run_attack", "adv_prune"):
        with raising_once(astute_np, fn):
            res = run.run_workload("moons_nn1", 0, 0.5, False, size="toy", report=quiet)
        expect(res["failed"] == 1 and res["attempted"] > 1 and res["correct"]
               and set(res["metrics"]) == set(declared[0]),
               f"a raising {fn} counts as 1 failed of {res['attempted']} operations "
               "and the run goes on")

    bare = run.ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "moons_nn1",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package it exits nonzero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
