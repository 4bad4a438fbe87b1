"""Outlier scorers against brute-force references, plus the report plumbing."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcf import base
from flowcf.counterfactual import CfResult, DensityThreshold
from flowcf.density import KernelDensity
from flowcf.flows import MaskedAutoregressiveFlow
from flowcf.metrics import (
    LOF_SENTINEL,
    EvaluationReport,
    IsolationForest,
    LocalOutlierFactor,
    evaluate,
    fit_detectors,
    _avg_path_correction,
)
from flowcf.models import LogisticRegression, TrainConfig


def _result(x, target=1, covered=True):
    return CfResult(
        x_cf=np.asarray(x, dtype=float),
        target=target,
        covered=covered,
        iterations_used=10,
        wall_time_secs=0.1,
    )


# LOF ----------------------------------------------------------------------


def _brute_lof(reference, queries, k):
    """Textbook novelty LOF written with plain loops."""

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
    ref_lrd = []
    for i in range(n):
        reach = [
            max(ref_kdist[j], dist(reference[i], reference[j])) for j in ref_knn[i]
        ]
        ref_lrd.append(1.0 / np.mean(reach))
    out = []
    for q in queries:
        d = sorted((dist(q, reference[j]), j) for j in range(n))
        neigh = [j for _, j in d[:k]]
        reach = [max(ref_kdist[j], dist(q, reference[j])) for j in neigh]
        lrd_q = 1.0 / np.mean(reach)
        out.append(np.mean([ref_lrd[j] for j in neigh]) / lrd_q)
    return np.array(out)


def test_lof_matches_brute_force():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=(60, 3))
    queries = rng.normal(size=(10, 3))
    k = 7
    got = LocalOutlierFactor(n_neighbors=k).fit(ref).score_samples(queries)
    assert np.allclose(got, _brute_lof(ref, queries, k), atol=1e-9)


def test_lof_flags_far_outlier():
    rng = np.random.default_rng(1)
    ref = rng.normal(size=(100, 2))
    lof = LocalOutlierFactor(n_neighbors=10).fit(ref)
    scores = lof.score_samples(np.array([[0.0, 0.0], [50.0, 50.0]]))
    assert scores[0] < 1.5
    assert scores[1] > 10.0


def test_lof_degenerate_duplicates_use_sentinel():
    ref = np.zeros((25, 2))  # every reference point identical
    lof = LocalOutlierFactor(n_neighbors=5).fit(ref)
    scores = lof.score_samples(np.zeros((1, 2)))
    assert scores[0] == LOF_SENTINEL


def test_lof_mixes_sentinel_and_brute_force_rows_in_one_call():
    rng = np.random.default_rng(5)
    clusters = np.repeat(rng.normal(size=(3, 2)) + 50.0, 10, axis=0)  # duplicates
    ref = np.vstack([clusters, rng.normal(size=(20, 2))])
    normal = rng.normal(size=(4, 2))
    # on a duplicate the mean reachability is 0; beside one it is not, but
    # the neighbours' lrd is infinite
    near = clusters[[20]] + 0.01
    queries = np.vstack([clusters[[0]], normal[:2], near, normal[2:]])
    degenerate = np.array([True, False, False, True, False, False])
    k = 5
    lof = LocalOutlierFactor(n_neighbors=k).fit(ref)
    got = lof.score_samples(queries)
    assert np.all(got[degenerate] == LOF_SENTINEL)
    with np.errstate(divide="ignore"):  # the duplicates' lrd is 1 / 0
        brute = _brute_lof(ref, normal, k)
    assert np.allclose(got[~degenerate], brute, atol=1e-9)
    # scoring keeps no state: earlier calls, degenerate or not, change nothing
    assert np.array_equal(lof.score_samples(normal), got[~degenerate])
    assert np.array_equal(lof.score_samples(queries), got)


def test_lof_neighbor_count_validation():
    with pytest.raises(ValueError):
        LocalOutlierFactor(n_neighbors=10).fit(np.zeros((5, 2)))


def _block_scores(ref, y_ref, queries, y_queries):
    lof = LocalOutlierFactor(n_neighbors=5).fit(ref)
    kde = KernelDensity().fit(ref, y_ref)
    return (lof._ref_kdist, lof._ref_lrd, lof.score_samples(queries),
            kde.score_samples(queries, y_queries))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40 * 37 * 3 * 8), st.integers(0, 2**32 - 1))
def test_distance_blocks_leave_lof_and_kde_bit_identical(block_bytes, seed):
    # 37 reference rows and 23 queries, both prime, so most block heights
    # leave a short last block; the default block holds each table whole
    rng = np.random.default_rng(seed)
    args = (rng.normal(size=(37, 3)), np.arange(37) % 2,
            rng.normal(size=(23, 3)), np.arange(23) % 2)
    whole = _block_scores(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "_BLOCK_BYTES", block_bytes)
        blocked = _block_scores(*args)
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


def test_lof_fit_memory_stays_bounded():
    X = np.random.default_rng(0).normal(size=(2000, 2))
    tracemalloc.start()
    try:
        LocalOutlierFactor().fit(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# Isolation forest ---------------------------------------------------------


def test_average_path_correction_oracle():
    assert _avg_path_correction(1) == 0.0
    assert _avg_path_correction(2) == 1.0
    euler = 0.5772156649015329
    expected = 2.0 * (np.log(255.0) + euler) - 2.0 * 255.0 / 256.0
    assert np.isclose(_avg_path_correction(256), expected, atol=1e-12)
    assert np.isclose(_avg_path_correction(256), 10.2445, atol=1e-3)


def test_isoforest_scores_bounded_and_ranked():
    rng = np.random.default_rng(2)
    ref = rng.normal(size=(300, 2))
    forest = IsolationForest(n_trees=100, seed=0).fit(ref)
    scores = forest.score_samples(np.array([[0.0, 0.0], [8.0, 8.0]]))
    assert np.all(scores > -0.5) and np.all(scores < 0.5)
    assert scores[0] > 0.0 > scores[1]  # inlier positive, outlier negative


def test_isoforest_seed_determinism():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(100, 2))
    q = rng.normal(size=(5, 2))
    a = IsolationForest(n_trees=20, seed=9).fit(ref).score_samples(q)
    b = IsolationForest(n_trees=20, seed=9).fit(ref).score_samples(q)
    assert np.array_equal(a, b)


def test_isoforest_trees_are_preorder_arrays():
    rng = np.random.default_rng(4)
    # eight equal rows: a subsample can hold a leaf of several points that no
    # split separates
    ref = np.vstack([rng.normal(size=(60, 3)), np.zeros((8, 3))])
    forest = IsolationForest(n_trees=10, subsample=64, seed=0).fit(ref)
    for feature, threshold, right, size in forest.trees_:
        split = np.flatnonzero(feature >= 0)
        leaf = feature < 0
        # a split's children are the next row and ``right``; their sizes add up
        assert np.all(right[split] > split + 1)
        assert np.array_equal(size[split + 1] + size[right[split]], size[split])
        assert size[0] == size[leaf].sum() == 64
        assert np.all(feature[leaf] == -1)


def test_isoforest_needs_two_points():
    with pytest.raises(ValueError):
        IsolationForest().fit(np.zeros((1, 2)))


# aggregate metrics --------------------------------------------------------


@pytest.fixture(scope="module")
def models():
    """Two separated classes, a classifier and a standard-normal flow."""
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(-2, 0.5, (60, 2)), rng.normal(2, 0.5, (60, 2))])
    y = np.array([0] * 60 + [1] * 60)
    clf = LogisticRegression(train_config=TrainConfig(seed=0, epochs=40)).fit(X, y)
    flow = MaskedAutoregressiveFlow(n_transforms=1, hidden=8)
    flow._build(2, 2, np.random.default_rng(0))  # standard normal density
    return clf, flow, fit_detectors(X)


def test_evaluate_counts_unflagged_and_non_finite_rows_as_uncovered(models):
    clf, flow, detectors = models
    delta = DensityThreshold(log_delta=np.array([-10.0, -10.0]))
    x_cf = np.array([[2.0, 2.0], [1.5, 2.5], [2.0, 1.0]])
    results = [
        _result(x_cf[0]),
        _result(x_cf[1], target=0, covered=False),
        _result([np.nan, 1.0]),  # a non-finite point
    ]
    x0 = x_cf + np.array([[0.1], [0.3], [0.5]])
    report, log_density = evaluate(results, clf, flow, delta, x0, detectors,
                                   wall_time_secs=1.0)
    assert report.coverage == pytest.approx(1 / 3)
    # only the first row is scored: the second would be invalid, and each
    # row's L1 distance differs
    assert report.validity == 1.0
    assert report.l1_mean == pytest.approx(0.2)
    assert log_density.shape == (3,)
    assert log_density[0] == flow.score_samples(x_cf[:1], np.array([1]))[0]
    assert np.isnan(log_density[1]) and np.isnan(log_density[2])


def test_evaluate_changes_nothing_it_is_handed(models):
    clf, flow, detectors = models
    delta = DensityThreshold(log_delta=np.array([-10.0, -10.0]))
    x_cf = np.array([[2.0, 2.0], [1.5, 2.5]])
    results = [_result(x_cf[0]), _result(x_cf[1])]
    before = [dataclasses.astuple(r) for r in results]
    x0 = x_cf + 0.1
    x0_before = x0.copy()
    evaluate(results, clf, flow, delta, x0, detectors, wall_time_secs=1.0)
    np.testing.assert_equal([dataclasses.astuple(r) for r in results], before)
    assert np.array_equal(x0, x0_before)
    with pytest.raises(dataclasses.FrozenInstanceError):
        results[0].covered = False


def test_evaluate_rejects_an_empty_batch(models):
    clf, flow, detectors = models
    delta = DensityThreshold(log_delta=np.zeros(2))
    with pytest.raises(ValueError, match="empty"):
        evaluate([], clf, flow, delta, np.zeros((0, 2)), detectors,
                 wall_time_secs=0.0)


def test_evaluate_plausibility_includes_the_threshold(models):
    clf, flow, detectors = models
    x_cf = np.array([[2.0, 2.0], [1.5, 2.5], [2.0, 1.0], [2.0, 1.0]])
    targets = np.array([1, 1, 1, 0])
    logp = flow.score_samples(x_cf, targets)
    # class 1's threshold is exactly the first point's density; the second
    # point lies below it and the third above. Class 0's threshold is above
    # every density, so the last point is judged against its own class.
    assert logp[1] < logp[0] < logp[2] and logp.max() < 0.0
    delta = DensityThreshold(log_delta=np.array([0.0, logp[0]]))
    results = [_result(x, target=t) for x, t in zip(x_cf, targets)]
    report, _ = evaluate(results, clf, flow, delta, x_cf, detectors,
                         wall_time_secs=1.0)
    assert report.prob_plausibility == 0.5


def test_evaluate_refreshes_density_and_serializes(models, tmp_path):
    clf, flow, detectors = models
    delta = DensityThreshold(log_delta=np.array([-10.0, -10.0]))

    x_cf = np.array([[2.0, 2.0], [1.5, 2.5]])
    results = [_result(x_cf[0]), _result(x_cf[1])]
    report, log_density = evaluate(results, clf, flow, delta, x_cf, detectors,
                                   wall_time_secs=1.5)

    expected_lp = -0.5 * (x_cf**2).sum(axis=1) - np.log(2 * np.pi)
    assert report.coverage == 1.0
    assert report.validity == 1.0
    assert report.log_density_mean == pytest.approx(expected_lp.mean())
    assert log_density == pytest.approx(expected_lp)
    assert report.l1_mean == pytest.approx(0.0, abs=1e-5)
    assert report.wall_time_secs == 1.5

    jpath = tmp_path / "report.json"
    report.to_json(jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded == report.to_dict()


def test_evaluate_with_no_covered_rows():
    clf = LogisticRegression()
    flow = MaskedAutoregressiveFlow(n_transforms=1, hidden=8)
    flow._build(2, 2, np.random.default_rng(0))
    delta = DensityThreshold(log_delta=np.zeros(2))
    results = [_result([0.0, 0.0], covered=False)]
    report, log_density = evaluate(
        results, clf, flow, delta, np.zeros((1, 2)),
        fit_detectors(np.zeros((30, 2))), wall_time_secs=0.5,
    )
    assert report.coverage == 0.0
    assert report.l1_mean is None and report.log_density_mean is None
    assert report.wall_time_secs == 0.5
    assert log_density.shape == (1,) and np.isnan(log_density[0])
