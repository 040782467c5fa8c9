"""Power-of-two rescaling is exact in float64: multiplying the data, r, the
grid resolution and the kernel bandwidth by 2^e must scale every kept set,
verdict, radius and witness by 2^e, bit for bit."""

import functools

import numpy as np
import pytest

from astute_np import (AttackBudget, Dataset, adv_prune, attack_all, train_histogram,
                       train_kernel, train_knn)

import oracles

#: grid steps per r in each dimension, coarse enough to keep the scans cheap
GRID_STEPS = {1: 20, 2: 10, 3: 4}


@functools.lru_cache(maxsize=None)
def _outputs(d: int, e: int) -> dict:
    """Every scale-bearing output at scale 2^e, divided back by 2^e."""
    rng = np.random.default_rng(70 + d)
    sets = [oracles.random_two_class(rng, n, d) for n in (300, 40)]
    train, test = [Dataset(np.ldexp(pts, e), labels) for pts, labels in sets]
    budget = AttackBudget(float(np.ldexp(0.1, e)))
    hist = train_histogram(train)
    out = {"kept": adv_prune(train, budget.r).kept, "leaves": len(hist.leaf_lo)}
    tables = {"histogram": attack_all(hist, test, budget)}
    if d == 2:
        tables["nn1"] = attack_all(train_knn(train, k=1), test, budget)
    few = test.subset(np.arange(3))
    for name, model in (("grid histogram", hist), ("grid 3-NN", train_knn(train, k=3)),
                        ("grid kernel", train_kernel(train, h=float(np.ldexp(0.2, e))))):
        tables[name] = attack_all(model, few, budget, method="grid",
                                  resolution=budget.r / GRID_STEPS[d])
    for name, table in tables.items():
        out[name] = (table.outcome.tolist(), np.ldexp(table.radius, -e),
                     np.ldexp(table.witness, -e))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("e", [-40, -16, -8, 8, 14, 20])
def test_outputs_commute_with_power_of_two_rescaling(d, e):
    want, got = _outputs(d, 0), _outputs(d, e)
    assert np.array_equal(got["kept"], want["kept"])
    assert got["leaves"] == want["leaves"]
    for name in want.keys() - {"kept", "leaves"}:
        outcome, *arrays = got[name]
        assert outcome == want[name][0], name
        for array, want_array in zip(arrays, want[name][1:]):
            assert np.array_equal(array, want_array, equal_nan=True), name
