"""Command-line surface: parsing, overrides, exit codes, artifacts."""

import csv
import json

import numpy as np
import pytest

from flowcf.cli import build_parser, load_config, main


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
        args = parser.parse_args([name, "--seed", "3"])
        assert args.command == name and args.seed == 3


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


def test_all_folds_failing_returns_3(tmp_path):
    cfg = _tiny_config(tmp_path / "out", classifier={"arch": "does-not-exist"})
    assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 3


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


def test_export_trajectory_bad_instance(completed_run):
    assert (
        main(["export-trajectory", "--run-dir", str(completed_run),
              "--instance", "100000"]) == 2
    )


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
