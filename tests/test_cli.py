"""Command-line surface: parsing, overrides, exit codes, artifacts."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcf.cli import build_parser, load_config, main
from flowcf.pipeline import export_trajectory


def _tiny_config(out_dir, **extra):
    cfg = {
        "dataset": {"name": "moons", "n": 160},
        "classifier": {"arch": "lr", "epochs": 60},
        "flow": {"n_transforms": 1, "hidden": 16, "epochs": 30},
        "cf": {"max_iters": 400},
        "k_folds": 1,
        "seed": 0,
        "out": str(out_dir),
    }
    cfg.update(extra)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One tiny end-to-end run shared by the artifact-inspection tests."""
    root = tmp_path_factory.mktemp("run")
    out = root / "out"
    cfg_path = _write_config(root, _tiny_config(out))
    code = main(["run", "--config", cfg_path])
    assert code == 0
    return out


# parsing -------------------------------------------------------------------


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_accepts_all_subcommands():
    parser = build_parser()
    for name in ("run", "ablate-lambda", "ablate-loss", "compare-density",
                 "export-trajectory"):
        args = parser.parse_args([name, "--out", "somewhere"])
        assert args.command == name and args.out == "somewhere"


# each override flag, a value for it, and whether a loaded config shows it
_OVERRIDE_EFFECTS = {
    "--seed": ("7", lambda c: c.seed == 7),
    "--out": ("elsewhere", lambda c: c.out == "elsewhere"),
    "--method": ("wachter", lambda c: c.method == "wachter"),
    "--lambda": ("3", lambda c: c.cf.get("lam") == 3.0),
    "--dataset": ("blobs", lambda c: c.dataset == {"name": "blobs"}),
}
_OFFERED = {
    "run": {"--seed", "--out", "--method", "--lambda", "--dataset"},
    "ablate-lambda": {"--seed", "--out", "--method", "--dataset"},
    "ablate-loss": {"--seed", "--out", "--method", "--lambda", "--dataset"},
    "compare-density": {"--seed", "--out", "--dataset"},
    "export-trajectory": {"--out"},
}


@pytest.mark.parametrize("command", list(_OFFERED))
def test_subcommands_offer_only_the_flags_they_read(tmp_path, capsys, command):
    cfg_path = _write_config(tmp_path, {"seed": 1})
    base = load_config(build_parser().parse_args([command, "--config", cfg_path]))
    assert base.seed == 1  # --config is read by every subcommand
    for flag, (value, shows) in _OVERRIDE_EFFECTS.items():
        argv = [command, "--config", cfg_path, flag, value]
        if flag in _OFFERED[command]:
            config = load_config(build_parser().parse_args(argv))
            assert shows(config) and not shows(base), flag
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_overrides_merge_into_config(tmp_path):
    cfg_path = _write_config(tmp_path, {"dataset": {"name": "moons"}, "seed": 1})
    args = build_parser().parse_args([
        "run", "--config", cfg_path, "--seed", "9", "--out", "/tmp/x",
        "--method", "wachter", "--lambda", "42", "--dataset", "blobs",
    ])
    config = load_config(args)
    assert config.seed == 9
    assert config.out == "/tmp/x"
    assert config.method == "wachter"
    assert config.cf["lam"] == 42.0
    assert config.dataset == {"name": "blobs"}


def test_dataset_override_accepts_json_spec():
    args = build_parser().parse_args(
        ["run", "--dataset", '{"name": "csv", "path": "f.csv", "label_column": "y"}']
    )
    config = load_config(args)
    assert config.dataset["path"] == "f.csv"


# exit codes ----------------------------------------------------------------


def test_bad_config_returns_2(tmp_path):
    bad = _write_config(tmp_path, {"method": "nonsense"})
    assert main(["run", "--config", bad]) == 2
    unknown_key = _write_config(tmp_path, {"frobnicate": 1}, "k.json")
    assert main(["run", "--config", unknown_key]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command,cf", [
    ("run", {"bogus": 1}),
    ("run", {"lam": "big"}),
    ("ablate-lambda", {"bogus": 1}),
    ("ablate-loss", {"bogus": 1}),
], ids=["unknown-key", "bad-value", "ablate-lambda", "ablate-loss"])
def test_bad_cf_settings_fail_when_the_config_loads(tmp_path, capsys, command, cf):
    cfg = _tiny_config(tmp_path / "out", cf=cf)
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and next(iter(cf)) in err
    assert not (tmp_path / "out").exists()  # rejected before any fold ran


def _csv_without_label_key(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("f1,f2,label\n0.0,1.0,a\n1.0,0.0,b\n", encoding="utf-8")
    return {"name": "csv", "path": str(data)}


# (subcommand, config entries, text the error must show)
_BAD_SPECS = {
    "dataset-unknown-key": ("run", {"dataset": {"name": "moons", "bogus": 1}},
                            "bogus"),
    "dataset-bad-value": ("run", {"dataset": {"name": "moons", "n": "abc"}},
                          "'abc'"),
    "dataset-negative-noise": ("run", {"dataset": {"name": "moons", "noise": -5}},
                               "noise must be a finite number >= 0"),
    "dataset-compare-density": (
        "compare-density", {"dataset": {"name": "moons", "bogus": 1}}, "bogus"),
    "csv-without-label-column": ("run", {"dataset": _csv_without_label_key},
                                 "label_column"),
    "classifier-unknown-key": (
        "run", {"classifier": {"arch": "lr", "bogus": 1}}, "bogus"),
    "classifier-unknown-arch": ("run", {"classifier": {"arch": "rf"}}, "'rf'"),
    "classifier-key-lr-ignores": (
        "run", {"classifier": {"arch": "lr", "hidden": 7}}, "hidden"),
    "classifier-seed": ("run", {"classifier": {"arch": "mlp", "seed": 3}},
                        "seed"),
    "flow-unknown-key": ("run", {"flow": {"bogus": 1}}, "bogus"),
    "flow-seed": ("run", {"flow": {"seed": 3}}, "seed"),
    "flow-compare-density": ("compare-density", {"flow": {"bogus": 1}}, "bogus"),
    "classifier-ablate-lambda": (
        "ablate-lambda", {"classifier": {"arch": "lr", "bogus": 1}}, "bogus"),
    "classifier-hidden-not-int": (
        "run", {"classifier": {"arch": "mlp", "hidden": "abc"}},
        "hidden must be an integer >= 1"),
    "classifier-hidden-0": ("run", {"classifier": {"arch": "mlp", "hidden": 0}},
                            "hidden must be an integer >= 1"),
    "flow-no-transforms": ("run", {"flow": {"n_transforms": 0}},
                           "n_transforms must be an integer >= 1"),
    "flow-hidden-0": ("run", {"flow": {"hidden": 0}},
                      "hidden must be an integer >= 1"),
    "flow-negative-jitter": ("run", {"flow": {"jitter": -1}},
                             "jitter must be a finite number >= 0"),
    "cf-max-iters-not-int": ("run", {"cf": {"max_iters": 2.5}},
                             "max_iters must be an integer >= 1"),
    "classifier-epochs-not-int": (
        "run", {"classifier": {"arch": "lr", "epochs": 2.5}},
        "epochs must be an integer >= 1"),
    "flow-patience-0": ("run", {"flow": {"patience": 0}},
                        "patience must be an integer >= 1"),
    "cf-negative-learning-rate": ("run", {"cf": {"learning_rate": -1}},
                                  "learning_rate must be a finite number > 0"),
    "cf-lam-nan": ("run", {"cf": {"lam": float("nan")}},
                   "lam must be a finite number > 0"),
    "cf-epsilon-0": ("ablate-loss", {"cf": {"epsilon": 0}},
                     "epsilon must be a finite number > 0"),
    "cf-negative-tol": ("run", {"cf": {"convergence_tol": -1e-7}},
                        "convergence_tol must be a finite number >= 0"),
    "cf-c-reg-inf": ("run", {"method": "wachter", "cf": {"c_reg": float("inf")}},
                     "c_reg must be a finite number >= 0"),
    "classifier-negative-weight-decay": (
        "run", {"classifier": {"arch": "lr", "weight_decay": -1}},
        "weight_decay must be a finite number >= 0"),
    "k-folds-not-int": ("run", {"k_folds": 2.5}, "k_folds must be an integer >= 1"),
    "k-folds-bool": ("run", {"k_folds": True}, "k_folds must be an integer >= 1"),
    "k-folds-0": ("ablate-loss", {"k_folds": 0}, "k_folds must be an integer >= 1"),
    "seed-negative": ("run", {"seed": -1}, "seed must be an integer >= 0"),
    "seed-not-int": ("run", {"seed": 1.5}, "seed must be an integer >= 0"),
    "seed-bool": ("compare-density", {"seed": True}, "seed must be an integer >= 0"),
    "out-not-str": ("run", {"out": 5}, "out must be a string or null"),
    "dataset-not-object": ("run", {"dataset": "moons"},
                           "dataset must be a JSON object"),
    "classifier-not-object": ("run", {"classifier": "lr"},
                              "classifier must be a JSON object"),
    "flow-not-object": ("run", {"flow": None}, "flow must be a JSON object"),
    "cf-not-object": ("ablate-lambda", {"cf": [1]}, "cf must be a JSON object"),
}


@pytest.mark.parametrize("command,entries,shown", list(_BAD_SPECS.values()),
                         ids=list(_BAD_SPECS))
def test_bad_specs_fail_before_anything_trains(tmp_path, capsys, command,
                                               entries, shown):
    cfg = _tiny_config(tmp_path / "out")
    for key, value in entries.items():
        cfg[key] = value(tmp_path) if callable(value) else value
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and shown in err
    assert not (tmp_path / "out").exists()


def test_export_trajectory_rejects_unknown_cf_keys(completed_run, tmp_path,
                                                   capsys):
    # a run saved by an older version can carry cf keys that no longer exist
    run_dir = tmp_path / "run"
    shutil.copytree(completed_run, run_dir)
    config = json.loads((run_dir / "config.json").read_text())
    config["cf"]["bogus"] = 1
    (run_dir / "config.json").write_text(json.dumps(config))
    assert main(["export-trajectory", "--run-dir", str(run_dir)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_data_file_returns_4(tmp_path):
    cfg = _tiny_config(tmp_path / "out")
    cfg["dataset"] = {
        "name": "csv", "path": str(tmp_path / "nope.csv"), "label_column": "y",
    }
    assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 4


def test_unparseable_csv_returns_4(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    cfg = _tiny_config(tmp_path / "out")
    cfg["dataset"] = {"name": "csv", "path": str(empty), "label_column": "y"}
    assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 4


def test_all_folds_failing_returns_3(tmp_path, capsys):
    # a valid spec whose training diverges, so every fold fails
    cfg = _tiny_config(tmp_path / "out",
                       classifier={"arch": "lr", "learning_rate": 1e307})
    assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "\nfold 0: TrainingError: " in err and "Traceback" not in err
    saved = tmp_path / "out" / "experiment.json"
    assert str(saved) in err  # the message names the saved record
    [failure] = json.loads(saved.read_text())["failed_folds"]
    assert failure["error"].startswith("TrainingError: ")
    assert failure["traceback"].startswith("Traceback (most recent call last)")


def test_export_trajectory_without_run_dir_returns_2():
    assert main(["export-trajectory"]) == 2


# end-to-end ----------------------------------------------------------------


def test_run_writes_all_artifacts(completed_run, capsys):
    out = completed_run
    assert (out / "config.json").exists()
    assert (out / "experiment.json").exists()
    fold = out / "fold_0"
    for name in ("classifier.json", "flow.json", "delta.json", "scaler.json",
                 "cfs.csv", "report.json"):
        assert (fold / name).exists(), name
    record = json.loads((out / "experiment.json").read_text())
    assert record["aggregate"]["coverage"]["mean"] > 0.9
    assert record["failed_folds"] == []
    assert record["config_hash"]


def test_run_prints_aggregate_json(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "validity" in printed and "l2_mean" in printed


def test_export_trajectory_round_trip(completed_run, capsys):
    out = completed_run
    code = main(["export-trajectory", "--run-dir", str(out), "--instance", "1"])
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    with open(paths["trajectory"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["iteration", "dim_0", "dim_1", "log_density"]
    assert rows[1][0] == "0"  # path starts at the original point
    # the re-derived endpoint matches the persisted counterfactual
    with open(out / "fold_0" / "cfs.csv", newline="") as fh:
        cf_row = list(csv.DictReader(fh))[1]
    endpoint = [float(v) for v in rows[-1][1:3]]
    stored = [float(cf_row["cf_x0"]), float(cf_row["cf_x1"])]
    assert np.allclose(endpoint, stored, atol=1e-9)
    # 2-D data also gets a density/probability grid for contour plots
    grid_rows = list(csv.reader(open(paths["density_grid"], newline="")))
    assert grid_rows[0][0] == "x0" and len(grid_rows) == 200 * 200 + 1


def test_export_trajectory_bad_instance(completed_run, capsys):
    for instance in (100000, -1):
        assert (
            main(["export-trajectory", "--run-dir", str(completed_run),
                  "--instance", str(instance)]) == 2
        )
        assert "out of range" in capsys.readouterr().err
        with pytest.raises(ValueError, match="out of range"):
            export_trajectory(completed_run, instance)


def test_compare_density_outputs_three_estimators(tmp_path, capsys):
    cfg = _tiny_config(tmp_path / "out")
    del cfg["cf"]
    assert main(["compare-density", "--config", _write_config(tmp_path, cfg)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert set(table) == {"maf", "kde", "gmm"}
    assert all(np.isfinite(table[k]["mean"]) for k in table)
    assert (tmp_path / "out" / "density_comparison.json").exists()


def test_ablate_lambda_writes_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, _tiny_config(out))
    code = main(["ablate-lambda", "--config", cfg_path, "--lambdas", "1,100"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("lambda=1")
    with open(out / "lambda_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and rows[0][0] == "lambda"
    assert (out / "lambda_1" / "experiment.json").exists()
    assert (out / "lambda_100" / "experiment.json").exists()


@pytest.mark.parametrize("lambdas,shared", [("1,1.0,2", "lambda_1"),
                                            ("1.0000001,1", "lambda_1")])
def test_ablate_lambda_rejects_settings_that_share_a_directory(
        tmp_path, capsys, lambdas, shared):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
    code = main(["ablate-lambda", "--config", cfg_path, "--lambdas", lambdas])
    assert code == 2
    assert shared in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any fold ran


@pytest.mark.parametrize("lambdas", ["", ","], ids=["empty", "comma"])
def test_ablate_lambda_rejects_an_empty_sweep(tmp_path, capsys, lambdas):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
    code = main(["ablate-lambda", "--config", cfg_path, "--lambdas", lambdas])
    assert code == 2
    assert "no settings" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any fold ran


def test_ablate_loss_writes_both_settings(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, _tiny_config(out))
    assert main(["ablate-loss", "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == ["hinge", "cross_entropy"]
    with open(out / "loss_ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["loss", "hinge", "cross_entropy"]
    for loss in ("hinge", "cross_entropy"):
        record = json.loads((out / f"loss_{loss}" / "experiment.json").read_text())
        assert record["config"]["cf"]["validity_loss"] == loss
        assert (out / f"loss_{loss}" / "fold_0" / "cfs.csv").exists()


def test_csv_dataset_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = ["f1,f2,label"]
    for c, center in enumerate([(-2.0, -2.0), (2.0, 2.0)]):
        for _ in range(60):
            x = rng.normal(center, 0.4)
            rows.append(f"{x[0]},{x[1]},c{c}")
    rows.insert(5, "oops,1.0,c0")  # a rejected row is reported on stderr
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = _tiny_config(out)
    cfg["dataset"] = {
        "name": "csv", "path": str(data_path), "label_column": "label",
    }
    with pytest.warns(UserWarning, match=r"rejected rows \[6\]"):
        assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)  # stdout holds only JSON
    record = json.loads((out / "experiment.json").read_text())
    assert printed == record["aggregate"]
    assert record["aggregate"]["validity"]["mean"] == 1.0


FAULTS_PER_TURN_SCRIPT = """
import resource
import numpy as np
from flowcf import cli
cli._keep_freed_memory()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    live = [np.ones(15000) for _ in range(8)]  # about 1 MiB, then freed
    del live
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt")
def test_the_cli_keeps_freed_heap_memory():
    # a search iteration allocates and frees the same arrays every turn; the
    # pages of the first turn must serve the next 199 without faulting again
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_TURN_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    pages_per_turn = 8 * 15000 * 8 // 4096
    assert int(out.stdout) < 2 * pages_per_turn
