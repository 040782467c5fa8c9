"""Command-line front end.

Every subcommand takes its parameters either as flags or from a flat
``key = value`` config file (``--config path``, ``#`` comments allowed);
explicit flags win over file values.  Config problems exit with code 2 and
a message naming the offending key; runtime failures exit with code 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .data import (Dataset, RandomStream, ScenarioSpec, _require_count, _write_lines,
                   generate, read_csv, require_positive, write_csv)
from .models import GAUSSIAN, KERNELS, MODELS, make_model
from .attack import FOUND, METHODS, AttackBudget, AttackMethodError, attack_all
from .evaluation import (ProbeConfig, SweepConfig, bayes_gap_demo, convergence_sweep,
                         empirical_astuteness, probe_far_weight)
from .chart import sweep_chart
from .prune import adv_prune


class ConfigError(Exception):
    def __init__(self, key: str, reason: str):
        super().__init__(f"config error: key '{key}': {reason}")


@contextmanager
def _cfg_guard(key: str):
    """Turn the ValueError of a rule that spans several keys, raised while
    building a config, into ConfigError so it maps to exit code 2."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


# ---------------------------------------------------------------------------
# parameter schemas
# Each cast also checks its key's range, so an out-of-range, NaN or infinite
# value exits 2 naming its key before any data is read or drawn; the
# scenario's own keys (sigma, its r) are checked with the scenario kind.


def _cast_positive(s: str) -> float:
    return require_positive("value", float(s))


def _cast_at_least(lo: int):
    return lambda s: _require_count("value", int(s), least=lo)


def _cast_opt(cast):
    return lambda s: None if s.strip().lower() in ("", "none") else cast(s)


def _cast_int_list(s: str) -> tuple:
    vals = tuple(_cast_at_least(1)(tok) for tok in s.split(",") if tok.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


def _cast_float_list(s: str) -> tuple:
    vals = tuple(float(tok) for tok in s.split(",") if tok.strip())
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite entry")
    return vals


def _cast_hist_root(s: str) -> tuple:
    vals = _cast_float_list(s)
    require_positive("the side length", vals[-1] if vals else 0.0)
    return vals


def _cast_choice(choices: tuple):
    def cast(s: str) -> str:
        if s not in choices:
            raise ValueError(f"expected one of {' | '.join(choices)}")
        return s
    return cast


# (key, cast, default, required, help); default is the already-cast value
_FAMILY_KEYS = [
    ("model", _cast_choice(MODELS), "knn", False,
     f"classifier family: {' | '.join(MODELS)}"),
    ("k", _cast_at_least(1), 1, False, "neighbor count for knn"),
    ("kernel", _cast_choice(KERNELS), GAUSSIAN, False,
     f"kernel kind: {' | '.join(KERNELS)}"),
]
_KN_KEY = ("kn", _cast_opt(_cast_at_least(1)), None, False,
           "histogram split threshold (default n^(1/3) rule)")
_MODEL_KEYS = [
    *_FAMILY_KEYS,
    _KN_KEY,
    ("hist-root", _cast_opt(_cast_hist_root), None, False,
     "histogram root cube: d min-corner coords then the side length "
     "(default: data bounding cube)"),
]
_METHOD_KEY = ("method", _cast_choice(METHODS), "auto", False,
               f"attack method: {' | '.join(METHODS)}")

#: probe keys named differently from their ``ProbeConfig`` field
_PROBE_KEYS = {"boundary_candidates": "boundary", "interior_candidates": "interior"}

#: default of a row whose config class owns it (see ``_config_keys``)
_FIELD = None

#: the keys of the fields ``SweepConfig`` and ``ProbeConfig`` share
_EXPERIMENT_KEYS = [
    ("scenario", str, _FIELD, False, "scenario"),
    ("sigma", float, _FIELD, False, "noise level"),
    *_FAMILY_KEYS,
    ("sizes", _cast_int_list, _FIELD, False, "comma-separated training sizes"),
    ("prune-r", _cast_opt(_cast_positive), _FIELD, False,
     "prune each training set at this radius (omit to disable)"),
    ("scenario-r", float, _FIELD, False, "example1 oscillation scale"),
    ("seed", int, _FIELD, False, "random seed"),
]


def _config_keys(cls, rows: list, **keys) -> list:
    """Schema rows of a subcommand backed by config class ``cls``: a row whose
    key names a field (``keys`` maps a field to a differently named key)
    takes the field's default, so each default is written once."""
    field = {keys.get(f.name, f.name).replace("_", "-"): f.name for f in fields(cls)}
    return [(key, cast, getattr(cls, field[key]) if key in field else default, req, text)
            for key, cast, default, req, text in rows]


_SCHEMAS = {
    "gen": [
        ("scenario", str, None, True, "half_moons | example1 | example2 | example3"),
        ("n", _cast_at_least(0), None, True, "sample count"),
        ("sigma", float, 0.0, False, "half-moons noise level"),
        ("r", float, 0.1, False, "example1 oscillation scale"),
        ("seed", int, 0, False, "random seed"),
        ("out", str, None, True, "output CSV path"),
    ],
    "train-eval": [
        ("scenario", str, "half_moons", False, "scenario when generating data"),
        ("n", _cast_at_least(1), 1000, False, "training size when generating"),
        ("n-test", _cast_at_least(1), 1000, False, "test size when generating"),
        ("sigma", float, 0.0, False, "half-moons noise level"),
        ("scenario-r", float, 0.1, False, "example1 oscillation scale"),
        ("train-csv", str, None, False, "training data path (overrides generation)"),
        ("test-csv", str, None, False, "test data path (overrides generation)"),
        *_MODEL_KEYS,
        ("attack-r", _cast_positive, 0.1, False, "robustness radius"),
        ("prune-r", _cast_opt(_cast_positive), None, False, "prune training data at this radius"),
        _METHOD_KEY,
        ("resolution", _cast_positive, 1e-3, False, "grid attack resolution"),
        ("seed", int, 0, False, "random seed"),
        ("out", str, None, False, "also write the report to this path"),
    ],
    "prune": [
        ("data", str, None, True, "input CSV path"),
        ("r", _cast_positive, None, True, "separation radius"),
        ("out", str, None, False, "write the kept subset to this CSV path"),
    ],
    "attack": [
        ("train-csv", str, None, True, "training data path"),
        ("test-csv", str, None, True, "points to attack"),
        *_MODEL_KEYS,
        ("r", _cast_positive, None, True, "attack budget radius"),
        _METHOD_KEY,
        ("resolution", _cast_positive, 1e-3, False, "grid attack resolution"),
        ("out", str, None, True, "report CSV path"),
    ],
    "sweep": _config_keys(SweepConfig, [
        *_EXPERIMENT_KEYS,
        _KN_KEY,
        ("repeats", _cast_at_least(1), _FIELD, False, "repeats per size"),
        ("n-test", _cast_at_least(1), _FIELD, False, "test size"),
        ("attack-r", _cast_positive, _FIELD, False, "robustness radius"),
        ("resolution", _cast_positive, _FIELD, False, "grid attack resolution"),
        ("out-csv", str, None, True, "results CSV path"),
        ("out-svg", str, None, False, "chart SVG path"),
        ("title", str, "", False, "chart title"),
    ]),
    "probe": _config_keys(ProbeConfig, [
        *_EXPERIMENT_KEYS,
        ("a", _cast_positive, _FIELD, False, "inner (perturbation) radius"),
        ("b", _cast_positive, _FIELD, False, "outer (far-point) radius"),
        ("draws", _cast_at_least(1), _FIELD, False, "Monte-Carlo draws per size"),
        ("boundary", _cast_at_least(1), _FIELD, False, "ball boundary candidates"),
        ("interior", _cast_at_least(0), _FIELD, False, "ball interior candidates"),
        ("fixed-x", _cast_opt(_cast_float_list), _FIELD, False,
         "fixed query point (comma coords); not with prune-r"),
        ("out", str, None, False, "results CSV path"),
    ], **_PROBE_KEYS),
    "demo-example1": [
        ("r", _cast_positive, 0.1, False, "robustness radius / oscillation scale"),
        ("n", _cast_at_least(1), 2000, False, "test draw size"),
        ("seed", int, 0, False, "random seed"),
    ],
}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}", "expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_params(command: str, config_path, flag_values: dict) -> dict:
    schema = _SCHEMAS[command]
    by_key = {key.replace("-", "_"): (key, cast, default, required)
              for key, cast, default, required, _ in schema}

    params = {k: default for k, (_, _, default, _) in by_key.items()}
    raw = {}
    if config_path is not None:
        raw.update(_read_config_file(config_path))
    for key, val in flag_values.items():
        if val is not None:
            raw[key] = val

    for key, val in raw.items():
        if key not in by_key:
            raise ConfigError(key, "unknown key")
        _, cast, _, _ = by_key[key]
        try:
            params[key] = cast(val)
        except ValueError as exc:
            raise ConfigError(by_key[key][0], f"bad value {val!r} ({exc})") from exc

    for k, (key, _, _, required) in by_key.items():
        if required and params[k] is None:
            raise ConfigError(key, "required parameter missing")
    return params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astute-np",
        description="Robustness experiments for non-parametric classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for key, _, default, required, help_text in schema:
            note = "(required)" if required else f"(default: {default})"
            p.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None,
                           metavar="V", help=f"{help_text} {note}")
    return parser


# ---------------------------------------------------------------------------
# model construction shared by subcommands


def _make_model(params: dict, ds: Dataset):
    root = params["hist_root"]
    if params["model"] == "histogram" and root is not None:
        if len(root) != ds.dim + 1:
            raise ConfigError("hist-root",
                              f"need {ds.dim} min-corner coords plus a side length")
        root = (np.asarray(root[:-1], dtype=float), float(root[-1]))
    return make_model(params["model"], ds, k=params["k"], kn=params["kn"],
                      kernel=params["kernel"], root=root)


def _config(cls, params: dict, key: str, **keys):
    """Config ``cls`` built under ``_cfg_guard(key)`` from the params named
    like its fields; ``keys`` maps a field to a differently named param."""
    with _cfg_guard(key):
        return cls(**{f.name: params[keys.get(f.name, f.name)] for f in fields(cls)})


def _draw(params: dict, n: int, scenario_r: float, stream: RandomStream) -> Dataset:
    with _cfg_guard("scenario"):
        spec = ScenarioSpec(params["scenario"], n, sigma=params["sigma"], r=scenario_r)
    return generate(spec, stream)


def _load_or_generate(params: dict, csv_key: str, n: int, stream: RandomStream) -> Dataset:
    path = params.get(csv_key)
    return read_csv(path) if path is not None else _draw(params, n, params["scenario_r"], stream)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(params: dict) -> int:
    ds = _draw(params, params["n"], params["r"], RandomStream(params["seed"], 0))
    write_csv(ds, params["out"])
    print(f"wrote {len(ds)} points to {params['out']}")
    return 0


def _cmd_train_eval(params: dict) -> int:
    train_ds = _load_or_generate(params, "train_csv", params["n"],
                                 RandomStream(params["seed"], 0))
    test_ds = _load_or_generate(params, "test_csv", params["n_test"],
                                RandomStream(params["seed"], 1))
    lines = [f"n_train = {len(train_ds)}"]
    if params["prune_r"] is not None:
        pruned = adv_prune(train_ds, params["prune_r"])
        train_ds = train_ds.subset(pruned.kept)
        lines.append(f"kept = {len(train_ds)} ({pruned.kept_fraction:.4f})")
    model = _make_model(params, train_ds)
    report = empirical_astuteness(model, test_ds, AttackBudget(params["attack_r"]),
                                  method=params["method"], resolution=params["resolution"])
    lines += [
        f"n_test = {report.n_test}",
        f"accuracy = {report.accuracy:.4f}",
        f"astuteness = {report.astuteness:.4f}",
        f"radius = {report.r:g}",
        f"method = {report.method}",
        f"approximate = {str(report.approximate).lower()}",
    ]
    print("\n".join(lines))
    if params["out"] is not None:
        _write_lines(params["out"], lines)
    return 0


def _cmd_prune(params: dict) -> int:
    ds = read_csv(params["data"])
    result = adv_prune(ds, params["r"])
    print(f"kept {len(result.kept)} of {result.n} "
          f"(fraction {result.kept_fraction:.4f}, matching {result.matching_size})")
    if params["out"] is not None:
        write_csv(ds.subset(result.kept), params["out"])
        print(f"wrote kept subset to {params['out']}")
    return 0


def _cmd_attack(params: dict) -> int:
    train_ds = read_csv(params["train_csv"])
    test_ds = read_csv(params["test_csv"])
    table = attack_all(_make_model(params, train_ds), test_ds, AttackBudget(params["r"]),
                       method=params["method"], resolution=params["resolution"])
    found = table.outcome == FOUND
    # one row per test point; radius and witness (semicolon-joined coordinates)
    # are blank where no attack was found; outcome: found | certified_astute | unknown
    lines = ["index,label,prediction,astute,radius,witness,outcome"]
    for i, (y, pred, outcome) in enumerate(zip(test_ds.labels, table.prediction, table.outcome)):
        radius = f"{table.radius[i]:.17g}" if found[i] else ""
        witness = ";".join(f"{v:.17g}" for v in table.witness[i]) if found[i] else ""
        lines.append(f"{i},{int(y):+d},{int(pred):+d},{int(not found[i])},"
                     f"{radius},{witness},{outcome}")
    _write_lines(params["out"], lines)
    print(f"attacked {len(test_ds)} points, {int(found.sum())} non-astute; "
          f"report at {params['out']}")
    return 0


def _cmd_sweep(params: dict) -> int:
    result = convergence_sweep(_config(SweepConfig, params, "sweep"))
    result.to_csv(params["out_csv"])
    print(f"wrote {params['out_csv']}")
    if params["out_svg"] is not None:
        sweep_chart(result.sizes, result.accuracy_mean, result.accuracy_std,
                    result.astuteness_mean, result.astuteness_std,
                    params["out_svg"], title=params["title"])
        print(f"wrote {params['out_svg']}")
    for i, n in enumerate(result.sizes):
        print(f"n={n}: accuracy {result.accuracy_mean[i]:.4f} "
              f"astuteness {result.astuteness_mean[i]:.4f}")
    return 0


def _cmd_probe(params: dict) -> int:
    result = probe_far_weight(_config(ProbeConfig, params, "probe", **_PROBE_KEYS))
    lines = ["n,estimate,std_error"]
    for i, n in enumerate(result.sizes):
        print(f"n={n}: estimate {result.estimates[i]:.6f} "
              f"se {result.std_errors[i]:.6f}")
        lines.append(f"{n},{result.estimates[i]:.17g},{result.std_errors[i]:.17g}")
    if params["out"] is not None:
        _write_lines(params["out"], lines)
    return 0


def _cmd_demo_example1(params: dict) -> int:
    report = bayes_gap_demo(params["r"], params["n"], seed=params["seed"])
    print(f"bayes accuracy = {report.bayes_accuracy:.4f}")
    print(f"bayes astuteness = {report.bayes_astuteness:.4f}")
    print(f"constant(+1) accuracy = {report.const_accuracy:.4f}")
    print(f"constant(+1) astuteness = {report.const_astuteness:.4f}")
    print(f"constant(+1) robust fraction = {report.const_robust_fraction:.4f}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "train-eval": _cmd_train_eval,
    "prune": _cmd_prune,
    "attack": _cmd_attack,
    "sweep": _cmd_sweep,
    "probe": _cmd_probe,
    "demo-example1": _cmd_demo_example1,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config")}
    try:
        params = _merge_params(args.command, args.config, flag_values)
        return _HANDLERS[args.command](params)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except AttackMethodError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
