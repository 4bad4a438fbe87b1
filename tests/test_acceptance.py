"""End-to-end acceptance checks for the full counterfactual pipeline.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line outside of pytest's capture so the verdicts survive into logs.
"""

import time

import numpy as np
import pytest

from flowcf import autodiff as ad
from flowcf.autodiff import Tensor, finite_difference_check, finite_difference_error
from flowcf.counterfactual import (
    CfConfig,
    _plausible_objective,
    _validity_and_grad,
    compute_delta,
    distance,
    generate,
    plausibility_loss,
    validity_loss_binary,
)
from flowcf.data import Dataset, MinMaxScaler, make_moons, stratified_kfold
from flowcf.flows import MaskedAutoregressiveFlow
from flowcf.metrics import IsolationForest, LocalOutlierFactor, _avg_path_correction
from flowcf.models import LogisticRegression, TrainConfig
from flowcf.pipeline import (
    RunConfig,
    ablate_lambda,
    ablate_loss,
    compare_density,
    run_experiment,
    select_targets,
)

MOONS_CONFIG = {
    "dataset": {"name": "moons"},
    "classifier": {"arch": "lr"},
    "flow": {"n_transforms": 1, "jitter": 0.02},
    "method": "plausible",
    "k_folds": 5,
    "seed": 0,
}

BLOBS_CONFIG = {
    "dataset": {"name": "blobs"},
    "classifier": {"arch": "lr"},
    "flow": {"n_transforms": 2, "jitter": 0.02},
    "method": "plausible",
    "k_folds": 5,
    "seed": 0,
}


def _verdict(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] acceptance criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _mean(record, col):
    return record.aggregate[col]["mean"]


# heavyweight shared runs ---------------------------------------------------


@pytest.fixture(scope="module")
def moons_run():
    start = time.perf_counter()
    record = run_experiment(RunConfig(**MOONS_CONFIG))
    return record, time.perf_counter() - start


@pytest.fixture(scope="module")
def blobs_run():
    start = time.perf_counter()
    record = run_experiment(RunConfig(**BLOBS_CONFIG))
    return record, time.perf_counter() - start


@pytest.fixture(scope="module")
def wachter_run():
    return run_experiment(RunConfig(**dict(MOONS_CONFIG, method="wachter")))


@pytest.fixture(scope="module")
def property_setup():
    """Trained fold-0 models plus one generated batch for the property checks."""
    data = make_moons(seed=0)
    plan = stratified_kfold(data, k=5, seed=0)
    train_idx, test_idx = plan.train_test(0)
    scaler = MinMaxScaler().fit(data.features[train_idx])
    X_train = scaler.transform(data.features[train_idx])
    y_train = data.labels[train_idx]
    X_test = scaler.transform(data.features[test_idx])

    clf = LogisticRegression(train_config=TrainConfig(seed=0)).fit(X_train, y_train)
    flow = MaskedAutoregressiveFlow(
        n_transforms=1, jitter=0.02, train_config=TrainConfig(seed=0)
    ).fit(X_train, y_train)
    delta = compute_delta(flow, X_train, y_train)
    targets = select_targets(clf, X_test)
    cfg = CfConfig()
    results = generate(X_test, targets, clf, flow, delta, cfg)
    return X_train, y_train, X_test, targets, clf, flow, delta, cfg, results


@pytest.fixture(scope="module")
def batch_vs_sequential(property_setup):
    """200 instances once as a batch and once row by row, same settings."""
    X_train, y_train, X_test, targets, clf, flow, delta, _, _ = property_setup
    n = 200
    cfg = CfConfig(max_iters=150)
    start = time.perf_counter()
    batch = generate(X_test[:n], targets[:n], clf, flow, delta, cfg)
    batch_secs = time.perf_counter() - start
    start = time.perf_counter()
    sequential = [
        generate(X_test[i : i + 1], targets[i : i + 1], clf, flow, delta, cfg)[0]
        for i in range(n)
    ]
    seq_secs = time.perf_counter() - start
    return batch, batch_secs, sequential, seq_secs


# criteria ------------------------------------------------------------------


def test_criterion_1_moons_table_row(moons_run, capsys):
    record, elapsed = moons_run
    cov = _mean(record, "coverage")
    val = _mean(record, "validity")
    pp = _mean(record, "prob_plausibility")
    l1 = _mean(record, "l1_mean")
    l2 = _mean(record, "l2_mean")
    logp = _mean(record, "log_density_mean")
    ok = (
        cov == 1.0
        and val >= 0.99
        and pp >= 0.99
        and 1.3 <= logp <= 2.1
        and 0.25 <= l2 <= 0.50
        and 0.30 <= l1 <= 0.65
        and elapsed < 300
    )
    _verdict(
        capsys, 1, ok,
        f"moons cov={cov:.2f} val={val:.2f} pp={pp:.2f} "
        f"l1={l1:.3f} l2={l2:.3f} logp={logp:.3f} time={elapsed:.0f}s",
    )


def test_criterion_2_blobs_multiclass(blobs_run, capsys):
    record, elapsed = blobs_run
    cov = _mean(record, "coverage")
    val = _mean(record, "validity")
    pp = _mean(record, "prob_plausibility")
    logp = _mean(record, "log_density_mean")
    ok = (
        cov >= 0.99 and val >= 0.99 and pp >= 0.99
        and 2.5 <= logp <= 3.4 and elapsed < 300
    )
    _verdict(
        capsys, 2, ok,
        f"blobs cov={cov:.2f} val={val:.2f} pp={pp:.2f} "
        f"logp={logp:.3f} time={elapsed:.0f}s",
    )


def test_criterion_3_lambda_trend(capsys):
    config = RunConfig(**dict(MOONS_CONFIG, k_folds=1))
    rows = ablate_lambda(config, [1, 2, 5, 10, 100, 1000])
    validities = {lam: _mean(record, "validity") for lam, record in rows}
    vals = [validities[lam] for lam in (1, 2, 5, 10, 100, 1000)]
    monotone = all(b >= a - 0.03 for a, b in zip(vals, vals[1:]))
    ok = vals[0] <= 0.7 and validities[100] >= 0.99 and validities[1000] >= 0.99 \
        and monotone
    _verdict(
        capsys, 3, ok,
        "validity by lambda " + " ".join(f"{l}:{v:.2f}" for l, v in validities.items()),
    )


def test_criterion_4_loss_ablation(capsys):
    config = RunConfig(**dict(MOONS_CONFIG, k_folds=1))
    records = ablate_loss(config)
    h_l1, h_l2 = _mean(records["hinge"], "l1_mean"), _mean(records["hinge"], "l2_mean")
    c_l1 = _mean(records["cross_entropy"], "l1_mean")
    c_l2 = _mean(records["cross_entropy"], "l2_mean")
    h_pp = _mean(records["hinge"], "prob_plausibility")
    c_pp = _mean(records["cross_entropy"], "prob_plausibility")
    ok = h_l1 < c_l1 and h_l2 < c_l2 and h_pp >= 0.99 and c_pp >= 0.99
    _verdict(
        capsys, 4, ok,
        f"hinge l1={h_l1:.3f} l2={h_l2:.3f} pp={h_pp:.2f}; "
        f"cross-entropy l1={c_l1:.3f} l2={c_l2:.3f} pp={c_pp:.2f}",
    )


def test_criterion_5_density_reproduction(capsys):
    moons_table = compare_density(RunConfig(**MOONS_CONFIG))
    blobs_table = compare_density(RunConfig(**BLOBS_CONFIG))
    maf_m = moons_table["maf"]["mean"]
    maf_b = blobs_table["maf"]["mean"]
    kde_m = moons_table["kde"]["mean"]
    gmm_m = moons_table["gmm"]["mean"]
    ok = (
        1.0 <= maf_m <= 1.8
        and 2.2 <= maf_b <= 3.0
        and maf_m >= kde_m >= gmm_m
    )
    _verdict(
        capsys, 5, ok,
        f"moons maf={maf_m:.3f} kde={kde_m:.3f} gmm={gmm_m:.3f}; "
        f"blobs maf={maf_b:.3f}",
    )


def test_criterion_6_wachter_contrast(moons_run, wachter_run, capsys):
    plaus_record, _ = moons_run
    w_val = _mean(wachter_run, "validity")
    w_pp = _mean(wachter_run, "prob_plausibility")
    gaps = [
        p["log_density_mean"] - w["log_density_mean"]
        for p, w in zip(plaus_record.fold_reports, wachter_run.fold_reports)
    ]
    ok = w_val >= 0.95 and w_pp <= 0.5 and min(gaps) >= 2.0
    _verdict(
        capsys, 6, ok,
        f"wachter val={w_val:.2f} pp={w_pp:.2f} "
        f"min paired log-density gap={min(gaps):.1f} nats",
    )


def test_criterion_7_property_suite(property_setup, batch_vs_sequential, capsys):
    X_train, y_train, X_test, targets, clf, flow, delta, cfg, results = property_setup
    checks = {}
    rng = np.random.default_rng(0)
    points = rng.uniform(0.05, 0.95, size=(20, 2))
    labels = rng.integers(0, 2, 20)

    # (a) gradient checks on classifier loss, flow NLL, and the objective
    onehot = np.eye(2)[labels]
    err_clf = finite_difference_check(
        lambda xt: -1.0 * ad.tsum(
            ad.log(ad.tsum(clf.predict_proba_tensor(xt) * Tensor(onehot), axis=1))
        ),
        points,
    )
    err_flow = finite_difference_check(
        lambda xt: -1.0 * ad.tsum(flow.log_prob_tensor(xt, labels)), points
    )
    x0 = points + rng.normal(0.0, 0.05, size=points.shape)

    def objective(xt):
        dist = distance(Tensor(x0), xt, cfg.distance_kind)
        lv = validity_loss_binary(
            clf.predict_proba_tensor(xt), labels, cfg.epsilon
        )
        lp = plausibility_loss(
            flow.log_prob_tensor(xt, labels), delta.for_labels(labels)
        )
        return ad.tsum(dist + Tensor(cfg.lam) * (lv + lp))

    err_obj = finite_difference_check(objective, points)

    # the same objective through the closed-form gradient the search runs on
    search = _plausible_objective(x0, labels, clf, flow, delta, cfg)
    rows = np.arange(len(points))

    def search_value_and_grad(x):
        obj, grad, _ = search(rows, x)
        return float(obj.sum()), grad

    err_search = finite_difference_error(
        lambda x: search_value_and_grad(x)[0],
        search_value_and_grad(points)[1],
        points,
    )
    checks["gradients"] = max(err_clf, err_flow, err_obj, err_search) < 1e-4

    # (b) flow round-trip invertibility
    z, _ = flow.inverse(X_test, 1 - targets)
    back, _ = flow.forward(z, 1 - targets)
    checks["round_trip"] = float(np.abs(back - X_test).max()) < 1e-5

    # (c) per-class density quadrature over the scaled data window
    ticks = np.linspace(-0.5, 1.5, 400)
    cell = (ticks[1] - ticks[0]) ** 2
    gx, gy = np.meshgrid(ticks, ticks)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    masses = [
        float(np.exp(flow.score_samples(grid, np.full(len(grid), c))).sum() * cell)
        for c in (0, 1)
    ]
    checks["quadrature"] = all(0.98 <= m <= 1.02 for m in masses)

    # (d) hinge zero exactly when the constraint holds, on every CF; the
    # hinges come from the pieces the search's objective is built from
    xcf = np.stack([r.x_cf for r in results])
    probs, _ = clf.proba_and_input_vjp(xcf)
    val, _, _ = _validity_and_grad(probs, targets, cfg.validity_loss, cfg.epsilon)
    logp_search, _ = flow.log_prob_and_input_grad(xcf, targets)
    thresholds = delta.for_labels(targets)
    plaus = np.maximum(thresholds - logp_search, 0.0)
    p_t = clf.predict_proba(xcf)[np.arange(len(results)), targets]
    logp = flow.score_samples(xcf, targets)
    val_ok = all(
        (v <= 1e-12) == (p >= 0.5 + cfg.epsilon - 1e-9) for v, p in zip(val, p_t)
    )
    plaus_ok = all(
        (h <= 1e-12) == (lp >= thr - 1e-9)
        for h, lp, thr in zip(plaus, logp, thresholds)
    )
    checks["hinge_equivalence"] = val_ok and plaus_ok

    # (e) frozen models make repeated identical calls bit-identical
    again = generate(X_test, targets, clf, flow, delta, cfg)
    checks["bit_identity"] = all(
        np.array_equal(a.x_cf, b.x_cf) and a.iterations_used == b.iterations_used
        for a, b in zip(results, again)
    )

    # (f) batch equals per-row sequential generation
    batch, _, sequential, _ = batch_vs_sequential
    diff = max(
        float(np.abs(b.x_cf - s.x_cf).max()) for b, s in zip(batch, sequential)
    )
    checks["batch_single"] = diff < 1e-6

    # (g) the threshold is the median: ~50% of each class at or above it
    for c in (0, 1):
        mask = y_train == c
        frac = np.mean(
            flow.score_samples(X_train[mask], y_train[mask])
            >= delta.log_delta[c]
        )
        checks[f"median_class_{c}"] = 0.45 <= frac <= 0.55

    # (h) outlier scorers vs brute-force references
    ref = X_train[:150]
    queries = X_test[:40]
    k = 20
    lof = LocalOutlierFactor(n_neighbors=k).fit(ref)
    got = lof.score_samples(queries)
    brute = _brute_lof(ref, queries, k)
    forest = IsolationForest(n_trees=50, subsample=128, seed=0).fit(ref)
    got_if = forest.score_samples(queries)
    brute_if = _brute_isoforest(forest, queries)
    checks["outlier_refs"] = (
        np.allclose(got, brute, atol=1e-9) and np.allclose(got_if, brute_if, atol=1e-9)
    )

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(
        capsys, 7, ok,
        "all properties hold" if ok else f"failed: {failed}",
    )


def test_criterion_8_csv_pipeline_runs_to_completion(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lines = ["income,tenure,rating,label"]
    for c, center in enumerate([(-1.5, 0.0, 1.0), (1.5, 1.0, -1.0)]):
        for _ in range(150):
            x = rng.normal(center, 0.5)
            lines.append(f"{x[0]:.6f},{x[1]:.6f},{x[2]:.6f},grade_{c}")
    lines.insert(5, "not-a-number,1.0,1.0,grade_0")  # malformed rows are skipped
    lines.insert(9, "0.1,0.2,grade_1")
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = RunConfig(
        dataset={"name": "csv", "path": str(path), "label_column": "label"},
        classifier={"arch": "lr", "epochs": 80},
        flow={"n_transforms": 1, "hidden": 32, "epochs": 60},
        cf={"max_iters": 2000},
        k_folds=1,
        seed=0,
        out=str(tmp_path / "out"),
    )
    record = run_experiment(config)
    cols = set(record.aggregate)
    shaped = {
        "coverage", "validity", "prob_plausibility", "l1_mean", "l2_mean",
        "log_density_mean", "lof_mean", "isoforest_mean",
    } <= cols
    ok = shaped and record.failed_folds == [] and (tmp_path / "out" / "experiment.json").exists()
    _verdict(
        capsys, 8, ok,
        f"csv run completed: validity={_mean(record, 'validity'):.2f} "
        f"coverage={_mean(record, 'coverage'):.2f}",
    )


def test_criterion_9_batch_faster_than_sequential(batch_vs_sequential, capsys):
    _, batch_secs, _, seq_secs = batch_vs_sequential
    ok = batch_secs < seq_secs
    _verdict(
        capsys, 9, ok,
        f"batch {batch_secs:.1f}s vs sequential {seq_secs:.1f}s for 200 instances",
    )


# brute-force references for criterion 7(h) ---------------------------------


def _brute_lof(reference, queries, k):
    def dist(a, b):
        return np.sqrt(((a - b) ** 2).sum())

    n = len(reference)
    ref_knn, ref_kdist = [], []
    for i in range(n):
        d = sorted(
            (dist(reference[i], reference[j]), j) for j in range(n) if j != i
        )
        ref_knn.append([j for _, j in d[:k]])
        ref_kdist.append(d[k - 1][0])
    ref_lrd = [
        1.0
        / np.mean(
            [max(ref_kdist[j], dist(reference[i], reference[j])) for j in ref_knn[i]]
        )
        for i in range(n)
    ]
    out = []
    for q in queries:
        d = sorted((dist(q, reference[j]), j) for j in range(n))
        neigh = [j for _, j in d[:k]]
        reach = [max(ref_kdist[j], dist(q, reference[j])) for j in neigh]
        out.append(np.mean([ref_lrd[j] for j in neigh]) * np.mean(reach))
    return np.array(out)


def _brute_isoforest(forest, queries):
    def path(node, x, depth):
        if node.feature is None:
            return depth + _avg_path_correction(node.size)
        child = node.left if x[node.feature] < node.threshold else node.right
        return path(child, x, depth + 1)

    c = _avg_path_correction(forest._psi)
    return np.array(
        [
            0.5 - 2.0 ** (-np.mean([path(t, q, 0.0) for t in forest.trees_]) / c)
            for q in queries
        ]
    )
