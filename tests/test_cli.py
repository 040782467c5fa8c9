"""Command-line interface: config merging, exit codes, report files."""

import csv
import os
import re
import shlex
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import astute_np
from astute_np import ProbeConfig, adv_prune, probe_far_weight, read_csv
from astute_np.cli import _SCHEMAS, _build_parser, _merge_params, main
from astute_np.evaluation import SWEEP_CSV_HEADER


def _gen(tmp_path, name, scenario, n, seed=0, extra=()):
    out = tmp_path / name
    rc = main(["gen", "--scenario", scenario, "--n", str(n),
               "--seed", str(seed), "--out", str(out), *extra])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_rows(tmp_path, capsys):
    out = _gen(tmp_path, "moons.csv", "half_moons", 40)
    ds = read_csv(str(out))
    assert len(ds) == 40 and ds.dim == 2
    assert "wrote 40 points" in capsys.readouterr().out


def test_gen_missing_required_exits_2(tmp_path, capsys):
    rc = main(["gen", "--scenario", "half_moons", "--n", "10"])
    assert rc == 2
    assert "key 'out'" in capsys.readouterr().err


def test_gen_bad_cast_names_key(capsys):
    rc = main(["gen", "--scenario", "half_moons", "--n", "10",
               "--sigma", "lots", "--out", "x.csv"])
    assert rc == 2
    assert "key 'sigma'" in capsys.readouterr().err


def test_gen_invalid_scenario_value_exits_2(tmp_path, capsys):
    rc = main(["gen", "--scenario", "half_moons", "--n", "10",
               "--sigma", "-0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "sigma must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files


def test_config_file_with_comments_and_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(
        "# sample config\n"
        "scenario = example3\n"
        "n = 5   # overridden by the flag below\n"
        "out = {}\n".format(tmp_path / "data.csv"))
    rc = main(["gen", "--config", str(cfg), "--n", "9"])
    assert rc == 0
    assert len(read_csv(str(tmp_path / "data.csv"))) == 9


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["gen", "--config", str(cfg), "--scenario", "example3",
               "--n", "4", "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "key 'bogus'" in capsys.readouterr().err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("scenario example3\n")
    rc = main(["gen", "--config", str(cfg), "--n", "4",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "expected 'key = value'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train-eval


def test_train_eval_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = main(["train-eval", "--scenario", "half_moons", "--n", "200",
               "--n-test", "100", "--model", "knn", "--k", "1",
               "--attack-r", "0.1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "accuracy = " in text and "astuteness = " in text
    assert "method = nn1" in text and "approximate = false" in text
    assert capsys.readouterr().out.strip().endswith(text.strip().split("\n")[-1])


def test_train_eval_prunes_training_csv(tmp_path, monkeypatch):
    train_csv = _gen(tmp_path, "train.csv", "half_moons", 150, seed=3,
                     extra=["--sigma", "0.2"])
    test_csv = _gen(tmp_path, "test.csv", "half_moons", 30, seed=4)

    def no_data(*args, **kwargs):
        raise AssertionError("data drawn although both CSV files were given")
    monkeypatch.setattr("astute_np.cli.generate", no_data)
    out = tmp_path / "report.txt"
    rc = main(["train-eval", "--train-csv", str(train_csv), "--test-csv", str(test_csv),
               "--prune-r", "0.1", "--model", "knn", "--attack-r", "0.1",
               "--out", str(out)])
    assert rc == 0
    kept = len(adv_prune(read_csv(str(train_csv)), 0.1).kept)
    assert 0 < kept < 150
    assert out.read_text().splitlines()[:3] == [
        "n_train = 150", f"kept = {kept} ({kept / 150:.4f})", "n_test = 30"]


def test_train_eval_bad_kernel_exits_2_before_drawing_data(monkeypatch, capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("data drawn before the kernel name was checked")
    monkeypatch.setattr("astute_np.cli.generate", no_data)
    rc = main(["train-eval", "--n", "20", "--n-test", "5", "--model", "kernel",
               "--kernel", "bogus"])
    assert rc == 2
    assert "key 'kernel'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    (["train-eval", "--n", "20", "--n-test", "5"], "method"),
    (["attack", "--train-csv", "t.csv", "--test-csv", "t.csv", "--r", "0.1",
      "--out", "o.csv"], "method"),
], ids=["train-eval", "attack"])
def test_bad_method_or_metric_exits_2_before_reading_data(monkeypatch, capsys, command, key):
    def no_data(*args, **kwargs):
        raise AssertionError(f"data read or drawn before {key} was checked")
    monkeypatch.setattr("astute_np.cli.generate", no_data)
    monkeypatch.setattr("astute_np.cli.read_csv", no_data)
    rc = main([*command, f"--{key}", "bogus"])
    assert rc == 2
    assert f"key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    (["train-eval", "--n", "30", "--n-test", "5", "--prune-r", "0"], "prune-r"),
    (["probe", "--sizes", "20", "--draws", "1", "--prune-r", "-1"], "prune-r"),
    (["train-eval", "--n", "30", "--n-test", "5", "--prune-r", "nan"], "prune-r"),
    (["train-eval", "--n", "30", "--n-test", "5", "--attack-r", "nan"], "attack-r"),
    (["sweep", "--sizes", "20", "--repeats", "1", "--out-csv", "o.csv",
      "--attack-r", "nan"], "attack-r"),
    (["probe", "--sizes", "20", "--draws", "1", "--prune-r", "nan"], "prune-r"),
    (["demo-example1", "--r", "nan"], "r"),
    (["demo-example1", "--n", "-5"], "n"),
    (["train-eval", "--n", "30", "--n-test", "5", "--k", "0"], "k"),
    (["train-eval", "--n", "30", "--n-test", "5", "--model", "histogram",
      "--kn", "0"], "kn"),
    (["probe", "--fixed-x", "0.1", "--sizes", "20", "--draws", "2"], "probe"),
    (["train-eval", "--n", "30", "--n-test", "0"], "n-test"),
    (["train-eval", "--n", "0"], "n"),
    (["sweep", "--sizes", ",", "--repeats", "1", "--out-csv", "o.csv"], "sizes"),
    (["probe", "--fixed-x", "0.1,nan", "--sizes", "20", "--draws", "1"], "fixed-x"),
], ids=["train-eval", "probe", "train-eval-prune-nan", "train-eval-attack-nan",
        "sweep-attack-nan", "probe-nan", "demo-r-nan", "demo-n-negative",
        "train-eval-k-0", "train-eval-kn-0", "probe-fixed-x-dim",
        "train-eval-n-test-0", "train-eval-n-0", "sweep-sizes-empty",
        "probe-fixed-x-nan"])
def test_nonpositive_prune_radius_exits_2_before_drawing_data(monkeypatch, capsys,
                                                              command, key):
    def no_data(*args, **kwargs):
        raise AssertionError("data drawn before the prune radius was checked")
    monkeypatch.setattr("astute_np.cli.generate", no_data)
    monkeypatch.setattr("astute_np.evaluation.generate", no_data)
    rc = main(command)
    assert rc == 2
    assert f"key '{key}'" in capsys.readouterr().err


_ATTACK = ["attack", "--train-csv", "t.csv", "--test-csv", "t.csv", "--out", "o.csv"]


@pytest.mark.parametrize("command, key", [
    (["prune", "--data", "t.csv", "--r", "0"], "r"),
    ([*_ATTACK, "--r", "0"], "r"),
    (["prune", "--data", "t.csv", "--r", "nan"], "r"),
    ([*_ATTACK, "--model", "histogram", "--r", "nan"], "r"),
    ([*_ATTACK, "--r", "0.1", "--method", "grid", "--resolution", "nan"], "resolution"),
    ([*_ATTACK, "--r", "inf", "--method", "grid"], "r"),
], ids=["prune", "attack", "prune-nan", "attack-nan", "attack-resolution-nan",
        "attack-grid-inf"])
def test_nonpositive_radius_exits_2_before_reading_data(monkeypatch, capsys, command, key):
    def no_data(*args, **kwargs):
        raise AssertionError("data read before the radius was checked")
    monkeypatch.setattr("astute_np.cli.read_csv", no_data)
    rc = main(command)
    assert rc == 2
    assert f"key '{key}'" in capsys.readouterr().err


def test_train_eval_method_mismatch_exits_2(capsys):
    rc = main(["train-eval", "--scenario", "half_moons", "--n", "60",
               "--n-test", "10", "--model", "knn", "--k", "3",
               "--method", "nn1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# prune


def test_prune_roundtrip(tmp_path, capsys):
    data = _gen(tmp_path, "m.csv", "half_moons", 120, extra=("--sigma", "0.1"))
    out = tmp_path / "kept.csv"
    rc = main(["prune", "--data", str(data), "--r", "0.05", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "kept" in msg
    kept = read_csv(str(out))
    assert 0 < len(kept) <= 120


def test_prune_rejects_nonpositive_radius(tmp_path, capsys):
    data = _gen(tmp_path, "m.csv", "half_moons", 20)
    rc = main(["prune", "--data", str(data), "--r", "0"])
    assert rc == 2
    assert "key 'r'" in capsys.readouterr().err


def test_prune_metric_is_unknown_key(tmp_path, monkeypatch, capsys):
    # pruning is always l-inf, the metric of the attacks
    def no_data(*args, **kwargs):
        raise AssertionError("data read before the unknown key was rejected")
    monkeypatch.setattr("astute_np.cli.read_csv", no_data)
    _assert_unknown_key(tmp_path, capsys, ["prune", "--data", "t.csv", "--r", "0.1"],
                        "metric", "linf")


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["prune", "--data", str(tmp_path / "nope.csv"), "--r", "0.1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# attack reports


def test_attack_report_example2(tmp_path, capsys):
    train = _gen(tmp_path, "train.csv", "example2", 2000, seed=0)
    test = _gen(tmp_path, "test.csv", "example2", 500, seed=1)
    out = tmp_path / "attacks.csv"
    rc = main(["attack", "--train-csv", str(train), "--test-csv", str(test),
               "--model", "histogram", "--hist-root=-0.999,2.0",
               "--r", "0.1", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    non_astute = sum(1 for row in rows if row["astute"] == "0")
    # the engineered root leaves roughly a fifth of the mass attackable
    assert 0.12 <= non_astute / 500 <= 0.30
    for row in rows:
        assert row["label"] in ("+1", "-1") and row["prediction"] in ("+1", "-1")
        # the exact histogram attack certifies every point it cannot break
        assert row["outcome"] == ("certified_astute" if row["astute"] == "1" else "found")
        if row["astute"] == "1":
            assert row["radius"] == "" and row["witness"] == ""
        elif row["radius"] != "":
            assert 0.0 <= float(row["radius"]) <= 0.1 + 1e-9
            coords = [float(tok) for tok in row["witness"].split(";")]
            assert len(coords) == 1
    assert "non-astute" in capsys.readouterr().out


def test_attack_report_grid_outcomes(tmp_path):
    train = _gen(tmp_path, "train.csv", "half_moons", 60)
    test = _gen(tmp_path, "test.csv", "half_moons", 20, seed=1)
    out = tmp_path / "attacks.csv"
    rc = main(["attack", "--train-csv", str(train), "--test-csv", str(test),
               "--model", "knn", "--k", "3", "--method", "grid",
               "--resolution", "0.05", "--r", "0.1", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["index", "label", "prediction", "astute",
                                     "radius", "witness", "outcome"]
        rows = list(reader)
    # a clean grid scan is unknown, never certified, yet still counts astute
    assert {row["outcome"] for row in rows} <= {"found", "unknown"}
    assert any(row["outcome"] == "unknown" for row in rows)
    for row in rows:
        assert row["astute"] == ("0" if row["outcome"] == "found" else "1")


def test_attack_hist_root_must_match_dimension(tmp_path, capsys):
    train = _gen(tmp_path, "train.csv", "half_moons", 50)
    test = _gen(tmp_path, "test.csv", "half_moons", 5, seed=1)
    rc = main(["attack", "--train-csv", str(train), "--test-csv", str(test),
               "--model", "histogram", "--hist-root=0.0,1.0",
               "--r", "0.1", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "hist-root" in capsys.readouterr().err


def test_attack_test_dimension_must_match_training(tmp_path, capsys):
    train = _gen(tmp_path, "train.csv", "half_moons", 30)
    test = _gen(tmp_path, "test.csv", "example2", 5, seed=1)
    out = tmp_path / "o.csv"
    rc = main(["attack", "--train-csv", str(train), "--test-csv", str(test),
               "--model", "knn", "--k", "3", "--r", "0.1", "--out", str(out)])
    assert rc == 1
    assert "query dimension mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_attack_method_mismatch_exits_2(tmp_path, capsys):
    train = _gen(tmp_path, "train.csv", "half_moons", 30)
    test = _gen(tmp_path, "test.csv", "half_moons", 5, seed=1)
    rc = main(["attack", "--train-csv", str(train), "--test-csv", str(test),
               "--model", "knn", "--k", "3", "--method", "nn1",
               "--r", "0.1", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "does not cover" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_outputs_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "1")
    args = ["sweep", "--scenario", "half_moons", "--model", "knn", "--k", "1",
            "--sizes", "10,20", "--repeats", "1", "--n-test", "20",
            "--attack-r", "0.1", "--seed", "5"]
    csv_a, svg_a = tmp_path / "a.csv", tmp_path / "a.svg"
    csv_b, svg_b = tmp_path / "b.csv", tmp_path / "b.svg"
    assert main(args + ["--out-csv", str(csv_a), "--out-svg", str(svg_a)]) == 0
    assert main(args + ["--out-csv", str(csv_b), "--out-svg", str(svg_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()
    lines = csv_a.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 3
    ET.parse(svg_a)
    assert "n=10" in capsys.readouterr().out


def test_sweep_bad_thread_count_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ASTUTE_NP_THREADS", "abc")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sizes", "10", "--repeats", "1", "--n-test", "10",
                 "--out-csv", str(out)]) == 1
    assert "ASTUTE_NP_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_sizes_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--sizes", "50,20", "--repeats", "1",
               "--n-test", "10", "--out-csv", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "increasing" in capsys.readouterr().err


def _assert_unknown_key(tmp_path, capsys, command, key, value):
    # as a flag argparse rejects the key; in a config file the schema does
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--{key}", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([*command, "--config", str(cfg)]) == 2
    assert f"key '{key.replace('-', '_')}': unknown key" in capsys.readouterr().err


def test_sweep_hist_root_is_unknown_key(tmp_path, capsys):
    out = tmp_path / "x.csv"
    _assert_unknown_key(tmp_path, capsys,
                        ["sweep", "--model", "histogram", "--sizes", "20", "--repeats", "1",
                         "--n-test", "10", "--out-csv", str(out)], "hist-root", "50,50,1")
    assert not out.exists()


# ---------------------------------------------------------------------------
# probe


def test_probe_writes_csv(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--scenario", "half_moons", "--model", "knn",
               "--a", "0.05", "--b", "10", "--sizes", "20", "--draws", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,estimate,std_error"
    assert lines[1].startswith("20,0,")
    assert "estimate 0.000000" in capsys.readouterr().out


def test_probe_unknown_model_exits_2(capsys):
    rc = main(["probe", "--model", "bogus", "--sizes", "20", "--draws", "1"])
    assert rc == 2
    assert "key 'model'" in capsys.readouterr().err


def test_probe_pruned_key_is_unknown(tmp_path, capsys):
    _assert_unknown_key(tmp_path, capsys, ["probe", "--sizes", "20", "--draws", "1"],
                        "pruned", "true")


def test_probe_prune_radius_selects_pruned_probe(tmp_path):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--prune-r", "0.1", "--sigma", "0.08", "--sizes", "30,60",
               "--draws", "3", "--seed", "4", "--out", str(out)])
    assert rc == 0
    expect = probe_far_weight(ProbeConfig(prune_r=0.1, sigma=0.08, sizes=(30, 60),
                                          draws=3, seed=4))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(n) for n, _, _ in rows] == [30, 60]
    assert [float(est) for _, est, _ in rows] == list(expect.estimates)
    assert [float(se) for _, _, se in rows] == list(expect.std_errors)


# ---------------------------------------------------------------------------
# demo


def test_demo_example1_output(capsys):
    rc = main(["demo-example1", "--r", "0.1", "--n", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bayes astuteness = 0.0000" in out
    assert "constant(+1) robust fraction = 1.0000" in out


# ---------------------------------------------------------------------------
# console script


def _declared_entry_point(name):
    """Return (module, attr) that pyproject.toml's [project.scripts] maps
    ``name`` to."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][name]
    ep = EntryPoint(name=name, value=value, group="console_scripts")
    return ep.module, ep.attr


def test_console_script_runs(tmp_path):
    # Run the declared console script the way an installed one runs: write
    # the launcher pip writes for it and start it in a fresh interpreter.
    module, attr = _declared_entry_point("astute-np")
    launcher = tmp_path / "astute-np"
    launcher.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n")
    pkg_root = str(Path(astute_np.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    out = tmp_path / "pts.csv"
    proc = subprocess.run([sys.executable, str(launcher), "gen", "--scenario",
                           "example3", "--n", "6", "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(str(out))) == 6


def test_module_main_runs(tmp_path):
    # python -m astute_np.cli runs main() and exits with its code
    pkg_root = str(Path(astute_np.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    args = [sys.executable, "-m", "astute_np.cli", "gen", "--scenario", "example3", "--n", "3"]
    out = tmp_path / "pts.csv"
    proc = subprocess.run([*args, "--out", str(out)], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(str(out))) == 3
    proc = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 2


@pytest.mark.skipif(shutil.which("astute-np") is None,
                    reason="astute-np not installed")
def test_installed_console_script_runs(tmp_path):
    exe = shutil.which("astute-np")
    out = tmp_path / "pts.csv"
    proc = subprocess.run([exe, "gen", "--scenario", "example3", "--n", "6",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(str(out))) == 6


# ---------------------------------------------------------------------------
# README examples


def _readme_commands():
    """Each ``astute-np ...`` command of README.md's ``sh`` blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("astute-np ")]


def test_readme_commands_parse():
    # parse_args and _merge_params read no files, so a flag the docs use
    # but the CLI dropped or renamed fails here
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_SCHEMAS)
    parser = _build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        _merge_params(args.command, args.config, flags)


def test_readme_quickstart_prints_documented_figures(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block, = re.findall(r"^## Library quickstart\n\n```python\n(.*?)^```", text,
                        flags=re.M | re.S)
    documented = re.search(r"^print\(report\.accuracy, report\.astuteness\)\s+# (.*)$",
                           block, flags=re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == documented == "0.971 0.882"
