"""flowcf benchmark: ``flowcf run`` on three acceptance-test configs.

Usage, from the repository root::

    python3 perfbench/run.py --workload moons-plausible [--seed 0]
        [--seconds 30] [--trace 0|1] [--max-iters N]

With ``--trace 0`` the run times ``flowcf run`` (fold 0 of the workload's
acceptance config) in fresh child processes until ``--seconds`` are spent
and reports the end-to-end metrics. With ``--trace 1`` it first runs the
same experiment once with spans around each layer's public calls and
reports the per-layer metrics; a shorter untraced pass gives the tracing
overhead. Every run checks the outputs (see ``perfbench/README.md``), prints
each metric by name with its unit and direction, writes a full record under
``perfbench/out/`` and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# The acceptance configs use seed 0; the windows of criteria 1 and 2 were
# calibrated on it. CONFIRM_SEED is for checking a claim on a seed it was
# not tuned on.
ACCEPTANCE_SEED = 0
CONFIRM_SEED = 1
DEADLINE_S = 170.0
SETUP_REPS = 7
# share of rows allowed to miss the counterfactual promise (criteria 1, 2:
# coverage, validity and plausibility >= 0.99)
ROW_FAILURE_SHARE = 0.01

# name -> (acceptance-test config constant, overrides, criterion test, whether
# each row must also reach the density threshold, untraced runs of flowcf
# made even when --seconds is spent: a median needs three, and two blobs runs
# already take about 36 s)
WORKLOADS = {
    "moons-plausible": ("MOONS_CONFIG", {}, "test_criterion_1_moons_table_row",
                        True, 3),
    "blobs-plausible": ("BLOBS_CONFIG", {}, "test_criterion_2_blobs_multiclass",
                        True, 2),
    "moons-wachter": ("MOONS_CONFIG", {"method": "wachter"},
                      "test_criterion_6_wachter_contrast", False, 3),
}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "cf_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "coverage": ("share", "higher"),
    "validity": ("share", "higher"),
    "l1_mean": ("scaled", "lower"),
    "l2_mean": ("scaled", "lower"),
    "lof_mean": ("score", "lower"),
    "isoforest_anomaly": ("score", "lower"),
}

PER_LAYER = {
    "data.build_s": ("s", "lower"),
    "models.fit_s": ("s", "lower"),
    "flows.fit_s": ("s", "lower"),
    "flows.score_samples_ms": ("ms", "lower"),
    "flows.log_prob_grad_ms": ("ms", "lower"),
    "autodiff.objective_grad_ms": ("ms", "lower"),
    "counterfactual.compute_delta_s": ("s", "lower"),
    "counterfactual.generate_s": ("s", "lower"),
    "counterfactual.ms_per_iter": ("ms", "lower"),
    "counterfactual.us_per_row_iter": ("us", "lower"),
    "counterfactual.row_iters": ("count", "lower"),
    "counterfactual.iters_p50": ("count", "lower"),
    "counterfactual.iters_p90": ("count", "lower"),
    "counterfactual.iters_max": ("count", "lower"),
    "counterfactual.rows_at_cap": ("count", "lower"),
    "counterfactual.cap_share": ("share", "lower"),
    "counterfactual.latency_p50_s": ("s", "lower"),
    "counterfactual.latency_p90_s": ("s", "lower"),
    "metrics.lof_fit_s": ("s", "lower"),
    "metrics.lof_score_s": ("s", "lower"),
    "metrics.isoforest_fit_s": ("s", "lower"),
    "metrics.isoforest_score_s": ("s", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.prob_plausibility": ("share", "higher"),
    "pipeline.self_s": ("s", "lower"),
}

QUALITY = ("coverage", "validity", "prob_plausibility", "l1_mean", "l2_mean",
           "log_density_mean", "lof_mean", "isoforest_mean")

# Spans every traced run must produce: layer calls inside ``flowcf.run``,
# then full-batch kernel timings inside ``bench.probes``; both under ``bench``.
RUN_SPANS = (
    "data.build_dataset", "data.downsample_majority", "data.stratified_kfold",
    "pipeline.run_fold", "models.fit", "flows.fit", "counterfactual.compute_delta",
    "counterfactual.generate", "metrics.evaluate", "metrics.lof_fit",
    "metrics.lof_score", "metrics.isoforest_fit", "metrics.isoforest_score",
)
PROBE_SPANS = ("flows.score_samples", "flows.log_prob_grad", "autodiff.objective_grad")

# Fold 0, seed 0, default CfConfig, from the ROADMAP baseline table
# (2-core machine, one run each).
ROADMAP_FOLD0 = {
    "moons-plausible": {"rows_at_cap": 142, "stages_s": {
        "models.fit_s": 0.41, "flows.fit_s": 2.50,
        "counterfactual.generate_s": 9.25, "metrics.evaluate_s": 0.59}},
    "blobs-plausible": {"rows_at_cap": 244, "stages_s": {
        "models.fit_s": 0.57, "flows.fit_s": 1.23,
        "counterfactual.generate_s": 17.15, "metrics.evaluate_s": 0.61}},
}
ROADMAP_STAGE_TOLERANCE = 0.25


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, broken import)."""


def acceptance_config(constant: str) -> dict:
    """Read a module-level config dict from the acceptance tests without importing them."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == constant):
            return ast.literal_eval(node.value)
    raise BenchError(f"{constant} not found in {ACCEPTANCE}")


def load_acceptance_module():
    spec = importlib.util.spec_from_file_location("flowcf_acceptance", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Children:
    """Starts child.py processes with ``src`` on the path, within one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, *args: str) -> dict:
        timeout = self.left()
        if timeout <= 1.0:
            return {"ok": False, "error": "benchmark deadline reached"}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"child timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False,
                    "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return dict(json.loads(lines[-1]), ok=True)


def check_rows(fold_dir: Path, needs_plausible: bool) -> dict:
    """Recheck every counterfactual from the artifacts ``flowcf run`` wrote."""
    import numpy as np
    from flowcf.models import load_classifier

    clf = load_classifier(fold_dir / "classifier.json")
    with open(fold_dir / "delta.json", encoding="utf-8") as fh:
        log_delta = np.asarray(json.load(fh)["log_delta"], dtype=np.float64)
    with open(fold_dir / "cfs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cf_cols = [c for c in rows[0] if c.startswith("cf_")]
    x_cf = np.array([[float(r[c]) for c in cf_cols] for r in rows])
    target = np.array([int(r["target"]) for r in rows])
    log_density = np.array([float(r["log_density"]) for r in rows])
    covered = np.array([r["valid"] == "1" for r in rows]) & np.isfinite(x_cf).all(axis=1)
    valid = np.zeros(len(rows), dtype=bool)
    if covered.any():
        valid[covered] = clf.predict(x_cf[covered]) == target[covered]
    with np.errstate(invalid="ignore"):
        plausible = log_density >= log_delta[target]
    ok = covered & valid & (plausible if needs_plausible else True)
    n_cov = max(int(covered.sum()), 1)
    return {
        "rows": len(rows),
        "failed": int(len(rows) - ok.sum()),
        "coverage": float(covered.mean()),
        "validity": float(valid[covered].sum() / n_cov),
        "prob_plausibility": float(plausible[covered].sum() / n_cov),
        "mean_threshold": float(log_delta[target[covered]].mean()) if covered.any() else None,
    }


def fold_quality(fold_report: dict) -> dict:
    return {k: fold_report[k] for k in QUALITY}


def run_cli_rep(children: Children, config_path: Path, work: Path,
                needs_plausible: bool) -> dict:
    out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=work))
    try:
        rep = children.run("cli", str(config_path), str(out_dir))
        if rep["ok"] and rep["exit_code"] != 0:
            rep.update(ok=False, error=f"flowcf run exited {rep['exit_code']}")
        if not rep["ok"]:
            return rep
        with open(out_dir / "experiment.json", encoding="utf-8") as fh:
            experiment = json.load(fh)
        if experiment["failed_folds"] or not experiment["fold_reports"]:
            rep.update(ok=False, error=f"failed folds: {experiment['failed_folds']}")
            return rep
        report = experiment["fold_reports"][0]
        rep["quality"] = fold_quality(report)
        rep["aggregate"] = {k: experiment["aggregate"][k]["mean"] for k in QUALITY}
        rep["generate_wall_s"] = report["wall_time_secs"]
        rep["cf_per_s"] = sum(
            f["n_instances"] * f["coverage"] for f in experiment["fold_reports"]
        ) / sum(f["wall_time_secs"] for f in experiment["fold_reports"])
        rep["rows_check"] = check_rows(out_dir / "fold_0", needs_plausible)
        return rep
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def timing(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "samples": values}


def validate_spans(spans: list[dict]) -> list[str]:
    """Problems with the span tree: ids, parents, nesting, required names."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    roots = [s for s in spans if s["parent"] is None]
    if [s["name"] for s in roots] != ["bench"]:
        problems.append(f"expected one root span 'bench', got {[s['name'] for s in roots]}")
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']} has no valid end")
            continue
        parent = by_id.get(s["parent"])
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['name']} has unknown parent {s['parent']}")
        elif parent is not None and not (
            parent["start"] <= s["start"] and s["end"] <= parent["end"]
        ):
            problems.append(f"span {s['name']} is not inside its parent {parent['name']}")
    for parent_id in {s["parent"] for s in spans}:
        kids = sorted((s for s in spans if s["parent"] == parent_id),
                      key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                problems.append(f"sibling spans {a['name']} and {b['name']} overlap")
    required = {"bench", "flowcf.run", "bench.probes", *RUN_SPANS, *PROBE_SPANS}
    missing = required - {s["name"] for s in spans}
    if missing:
        problems.append(f"missing spans: {sorted(missing)}")

    def ancestors(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
            yield span["name"]

    for s in spans:
        home = "flowcf.run" if s["name"] in RUN_SPANS else \
            "bench.probes" if s["name"] in PROBE_SPANS else None
        if home and home not in ancestors(s):
            problems.append(f"span {s['name']} is outside {home}")
    return problems


def layer_metrics(traced: dict) -> dict:
    import numpy as np

    spans = traced["spans"]

    def seconds(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    fold = next(s for s in spans if s["name"] == "pipeline.run_fold")
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == fold["id"])
    iters = np.asarray(traced["iterations"], dtype=np.int64)
    latency = np.asarray(traced["row_latency_s"], dtype=np.float64)
    generate_s = seconds("counterfactual.generate")
    row_iters = int(iters.sum())
    at_cap = int((iters >= traced["max_iters"]).sum())
    return {
        "data.build_s": seconds("data.build_dataset") + seconds("data.downsample_majority")
        + seconds("data.stratified_kfold"),
        "models.fit_s": seconds("models.fit"),
        "flows.fit_s": seconds("flows.fit"),
        "flows.score_samples_ms": statistics.median(traced["probes_ms"]["flows.score_samples"]),
        "flows.log_prob_grad_ms": statistics.median(traced["probes_ms"]["flows.log_prob_grad"]),
        "autodiff.objective_grad_ms": statistics.median(
            traced["probes_ms"]["autodiff.objective_grad"]),
        "counterfactual.compute_delta_s": seconds("counterfactual.compute_delta"),
        "counterfactual.generate_s": generate_s,
        "counterfactual.ms_per_iter": generate_s * 1e3 / max(int(iters.max()), 1),
        "counterfactual.us_per_row_iter": generate_s * 1e6 / max(row_iters, 1),
        "counterfactual.row_iters": row_iters,
        "counterfactual.iters_p50": float(np.percentile(iters, 50)),
        "counterfactual.iters_p90": float(np.percentile(iters, 90)),
        "counterfactual.iters_max": int(iters.max()),
        "counterfactual.rows_at_cap": at_cap,
        "counterfactual.cap_share": at_cap / len(iters),
        "counterfactual.latency_p50_s": float(np.percentile(latency, 50)),
        "counterfactual.latency_p90_s": float(np.percentile(latency, 90)),
        "metrics.lof_fit_s": seconds("metrics.lof_fit"),
        "metrics.lof_score_s": seconds("metrics.lof_score"),
        "metrics.isoforest_fit_s": seconds("metrics.isoforest_fit"),
        "metrics.isoforest_score_s": seconds("metrics.isoforest_score"),
        "metrics.evaluate_s": seconds("metrics.evaluate"),
        "metrics.prob_plausibility": traced["fold_reports"][0]["prob_plausibility"],
        "pipeline.self_s": (fold["end"] - fold["start"]) - children,
    }


def acceptance_verdict(test_name: str, quality_record, run_s: float,
                       mean_threshold: float | None) -> tuple[bool, str]:
    """Run the workload's acceptance-test function on this run's metric row.

    The criterion-6 test pairs the Wachter fold with the plausible fold on
    log-density. This workload has no plausible run, so the plausible side
    is the mean density threshold of the rows' targets: a plausible run whose
    rows all clear their threshold has at least that mean, so passing with it
    implies passing with the real run.
    """
    module = load_acceptance_module()
    test = getattr(module, test_name)
    lines = io.StringIO()

    class Capsys:
        @contextlib.contextmanager
        def disabled(self):
            with contextlib.redirect_stdout(lines):
                yield

    try:
        if test_name == "test_criterion_6_wachter_contrast":
            stand_in = SimpleNamespace(fold_reports=[{"log_density_mean": mean_threshold}])
            test((stand_in, None), quality_record, Capsys())
        else:
            test((quality_record, run_s), Capsys())
    except AssertionError:
        return False, lines.getvalue().strip()
    except Exception as err:  # e.g. a metric row with None values; the test fails
        return False, f"{test_name} raised {type(err).__name__}: {err}"
    return True, lines.getvalue().strip()


def previous_records(key: str) -> list[dict]:
    path = OUT / "records.jsonl"
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r.get("key") == key]


def roadmap_comparison(workload: str, layer: dict) -> dict | None:
    base = ROADMAP_FOLD0.get(workload)
    if base is None:
        return None
    stages = {}
    for name, expected in base["stages_s"].items():
        ratio = layer[name] / expected
        stages[name] = {"roadmap_s": expected, "measured_s": layer[name],
                        "ratio": ratio,
                        "within": abs(ratio - 1.0) <= ROADMAP_STAGE_TOLERANCE}
    return {
        "rows_at_cap": {"roadmap": base["rows_at_cap"],
                        "measured": layer["counterfactual.rows_at_cap"],
                        "match": layer["counterfactual.rows_at_cap"] == base["rows_at_cap"]},
        "stages": stages,
    }


def describe(name: str, value, table: dict, note: str = "") -> str:
    unit, better = table[name]
    return f"{name:34s} {value:>14.6g} {unit:6s} ({better} is better){note}"


def bench(args) -> dict:
    for needed in (SRC / "flowcf" / "__init__.py", ACCEPTANCE, BENCH / "child.py"):
        if not needed.exists():
            raise BenchError(f"missing {needed.relative_to(ROOT)}: run from a flowcf checkout")
    sys.path.insert(0, str(SRC))
    constant, overrides, test_name, needs_plausible, min_reps = WORKLOADS[args.workload]
    config = dict(acceptance_config(constant), **overrides)
    config.update(seed=args.seed, k_folds=1, out=None)
    if args.max_iters is not None:
        config["cf"] = dict(config.get("cf", {}), max_iters=args.max_iters)

    children = Children(time.monotonic() + DEADLINE_S)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        setups = [children.run("setup", str(config_path)) for _ in range(SETUP_REPS)]
        broken = [s["error"] for s in setups if not s["ok"]]
        if broken:
            raise BenchError(f"setup failed: {broken[0]}")

        budget_start = time.monotonic()
        traced = None
        if args.trace:
            traced_dir = Path(tempfile.mkdtemp(prefix="traced-", dir=work))
            traced = children.run("traced", str(config_path), str(traced_dir))
        # --trace 1 needs one untraced call, for the tracing overhead
        min_reps = 1 if args.trace else min_reps
        reps = []
        while True:
            reps.append(run_cli_rep(children, config_path, work, needs_plausible))
            spent = time.monotonic() - budget_start
            per_rep = spent / len(reps)
            if len(reps) >= min_reps and spent + per_rep > args.seconds:
                break
            if per_rep * 1.5 > children.left():
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: list[str] = []
    good = [r for r in reps if r["ok"]]
    problems += [f"flowcf run failed: {r['error']}" for r in reps if not r["ok"]]
    if not good:
        raise BenchError(f"no successful flowcf run: {problems}")
    rows = good[0]["rows_check"]["rows"]
    attempted = rows * len(reps)
    failed = sum(r["rows_check"]["failed"] for r in good) + rows * (len(reps) - len(good))

    quality = good[0]["quality"]
    for rep in good:
        if rep["quality"] != quality or rep["aggregate"] != quality:
            problems.append("metric rows differ between runs of the same inputs")
        for col in ("coverage", "validity", "prob_plausibility"):
            if abs(rep["rows_check"][col] - quality[col]) > 1e-12:
                problems.append(f"{col} in experiment.json disagrees with the artifacts")

    layer = None
    if traced is not None:
        if not traced["ok"]:
            problems.append(f"traced run failed: {traced['error']}")
        else:
            span_problems = validate_spans(traced["spans"])
            problems += span_problems
            if traced["failed_folds"]:
                problems.append(f"traced run failed folds: {traced['failed_folds']}")
            elif fold_quality(traced["fold_reports"][0]) != quality:
                problems.append("traced run's metric row differs from the untraced run's")
            if not span_problems:
                layer = layer_metrics(traced)
        if layer is None:
            raise BenchError(f"no per-layer metrics: {problems}")

    run_s = timing([r["run_s"] for r in good])
    quality_record = SimpleNamespace(aggregate={k: {"mean": v} for k, v in quality.items()},
                                     fold_reports=[quality])
    verdict_ok, verdict = acceptance_verdict(
        test_name, quality_record, run_s["median"], good[0]["rows_check"]["mean_threshold"]
    )
    # Criteria 1 and 2 bound distances and log-density with windows fitted to
    # seed 0; at other seeds only their coverage/validity/plausibility floor
    # applies. Criterion 6 is a contrast that holds at every seed.
    gated = args.max_iters is None and (
        test_name == "test_criterion_6_wachter_contrast" or args.seed == ACCEPTANCE_SEED
    )
    if gated and not verdict_ok:
        problems.append(f"acceptance window missed: {verdict}")
    if args.max_iters is None and needs_plausible and failed > ROW_FAILURE_SHARE * attempted:
        problems.append(f"{failed} of {attempted} rows miss the counterfactual promise")

    key = f"{source_digest()}|{args.workload}|{args.seed}|{args.max_iters}"
    earlier = previous_records(key)
    for prev in earlier:
        if prev["quality"] != quality:
            problems.append("metric row differs from an earlier run of the same code")
        if layer and prev.get("row_iters") is not None and \
                prev["row_iters"] != layer["counterfactual.row_iters"]:
            problems.append("counterfactual.row_iters differs from an earlier run of the same code")

    if layer is not None:
        flowcf_run = next(s for s in traced["spans"] if s["name"] == "flowcf.run")
        overhead = (flowcf_run["end"] - flowcf_run["start"]) - run_s["median"]
    else:
        overheads = [p["tracing_overhead_s"] for p in earlier
                     if p.get("tracing_overhead_s") is not None]
        overhead = overheads[-1] if overheads else None

    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": run_s["median"],
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "cf_per_s": statistics.median(r["cf_per_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "coverage": quality["coverage"],
        "validity": quality["validity"],
        "l1_mean": quality["l1_mean"],
        "l2_mean": quality["l2_mean"],
        "lof_mean": quality["lof_mean"],
        "isoforest_anomaly": 0.5 - quality["isoforest_mean"],
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "max_iters_override": args.max_iters,
        "key": key,
        "env": {
            "git_sha": git_sha(),
            "src_sha256": key.split("|")[0],
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "blas": good[0]["blas"],
        },
        "config": config,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "acceptance": {"test": test_name, "passed": verdict_ok, "verdict": verdict,
                       "gated": gated},
        "quality": quality,
        "row_iters": layer["counterfactual.row_iters"] if layer else None,
        "tracing_overhead_s": overhead,
        "timings": {
            "setup_s": timing([s["setup_s"] for s in setups]),
            "run_s": run_s,
            "cpu_s": timing([r["cpu_s"] for r in good]),
            "generate_wall_s": timing([r["generate_wall_s"] for r in good]),
        },
        "end_to_end": end_to_end,
        "per_layer": layer,
        "roadmap_fold0": roadmap_comparison(args.workload, layer)
        if layer and args.seed == ACCEPTANCE_SEED and args.max_iters is None else None,
        "spans": traced["spans"] if layer else None,
    }


def save(record: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    summary = {k: record[k] for k in ("key", "workload", "seed", "trace", "quality",
                                      "row_iters", "tracing_overhead_s", "correct")}
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")
    return path


def report(record: dict, path: Path) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"git {env['git_sha']}  src {env['src_sha256']}  nproc {env['nproc']}")
    blas = env["blas"]
    print(f"numpy {blas['numpy']}  blas threads {blas['blas_threads']}  "
          f"{blas['openblas_config']}  env {blas['env']}")
    timings = record["timings"]
    for name, value in record["end_to_end"].items():
        note = ""
        if name in timings:
            t = timings[name]
            note = f"  [median of n={t['n']}, max {t['max']:.6g}]"
        print(describe(name, value, END_TO_END, note))
    if record["per_layer"]:
        for name, value in record["per_layer"].items():
            print(describe(name, value, PER_LAYER))
    overhead = record["tracing_overhead_s"]
    print(f"tracing overhead: {'n/a' if overhead is None else f'{overhead:.3f} s'}")
    print(f"acceptance: {record['acceptance']['verdict'] or record['acceptance']['test']}"
          f"{'' if record['acceptance']['gated'] else ' (recorded, not gated)'}")
    if record["roadmap_fold0"]:
        print(f"roadmap fold-0 check: {json.dumps(record['roadmap_fold0'])}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED,
                        help=f"workload seed; {ACCEPTANCE_SEED} is the acceptance "
                             f"seed, {CONFIRM_SEED} the confirmation seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-iters", type=int, default=None,
                        help="override cf.max_iters (self-test only; skips the "
                             "acceptance windows)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = bench(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    except Exception:  # report the traceback, print no result
        traceback.print_exc()
        return 3
    path = save(record)
    report(record, path)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    table = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
