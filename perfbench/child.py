"""One measured call of flowcf, run in a fresh interpreter.

``run.py`` starts this script once per measurement, so that the wall time,
CPU time and peak memory of a child belong to that call alone. Run it from
the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py setup  <config.json>
    python3 perfbench/child.py cli    <config.json> <out_dir>
    python3 perfbench/child.py traced <config.json> <out_dir>

``setup`` times ``import flowcf`` plus building, downsampling and splitting
the dataset. ``cli`` times ``flowcf run`` through ``flowcf.cli.main``.
``traced`` runs the same experiment with spans around the public calls of
each layer, then times a few full-batch kernels. Each mode prints one JSON
object as its last line of standard output. Only the standard library is
imported at module level, so ``setup`` also times the numpy import.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time

PROBE_SECONDS = 0.4
PROBE_MIN_CALLS = 5
PROBE_MAX_CALLS = 200


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_info() -> dict:
    """numpy and OpenBLAS versions and the BLAS thread count, as found."""
    import numpy as np

    info = {
        "numpy": np.__version__,
        "openblas_config": None,
        "blas_threads": None,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                              "OMP_NUM_THREADS")},
    }
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["blas_threads"] = int(threads())
                info["openblas_config"] = config().decode()
                return info
    return info


def mode_setup(config_path: str) -> None:
    start = time.perf_counter()
    import numpy as np
    from flowcf import pipeline as pl

    with open(config_path, encoding="utf-8") as fh:
        config = pl.RunConfig(**json.load(fh))
    data = pl.downsample_majority(
        pl.build_dataset(config.dataset, config.seed), seed=config.seed
    )
    plan = pl.stratified_kfold(data, k=5, seed=config.seed)
    test_idx = plan.folds[0]
    np.setdiff1d(np.arange(data.n_samples), test_idx)
    _emit({"setup_s": time.perf_counter() - start})


def mode_cli(config_path: str, out_dir: str) -> None:
    from flowcf.cli import main

    cpu0 = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", config_path, "--out", out_dir])
    run_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    _emit({
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "blas": blas_info(),
    })


class Tracer:
    """Spans kept in memory: id, name, parent, start, end and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, func, on_return=None):
        """``func`` with a span around every call; ``on_return`` sees args and result."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if on_return is not None:
                    on_return(record, args, kwargs, result)
            return result

        return traced

    def wrap_methods(self, obj, **names):
        """Shadow each named method of one instance with a traced version."""
        for method, span_name in names.items():
            setattr(obj, method, self.wrap(span_name, getattr(obj, method)))
        return obj


def _probe(tracer: Tracer, name: str, call) -> list[float]:
    """Repeat ``call`` inside one span; return per-call milliseconds."""
    samples = []
    with tracer.span(name) as record:
        start = time.perf_counter()
        while len(samples) < PROBE_MIN_CALLS or (
            len(samples) < PROBE_MAX_CALLS
            and time.perf_counter() - start < PROBE_SECONDS
        ):
            t0 = time.perf_counter()
            call()
            samples.append((time.perf_counter() - t0) * 1e3)
        record["attrs"]["calls"] = len(samples)
    return samples


def mode_traced(config_path: str, out_dir: str) -> None:
    import numpy as np
    from flowcf import autodiff as ad
    from flowcf import metrics as metrics_mod
    from flowcf import pipeline as pl
    from flowcf.autodiff import Tensor
    from flowcf.counterfactual import (
        distance,
        plausibility_loss,
        validity_loss_binary,
        validity_loss_multiclass,
    )

    with open(config_path, encoding="utf-8") as fh:
        config = pl.RunConfig(**json.load(fh))
    config.out = out_dir
    tracer = Tracer()
    seen: dict = {}

    def keep(key):
        def store(record, args, kwargs, result):
            seen[key] = result
        return store

    def traced_builder(build, span_name, key):
        def make(spec, seed):
            est = build(spec, seed)
            seen[key] = est
            return tracer.wrap_methods(est, fit=span_name)
        return make

    def traced_scorer(cls, prefix):
        def make(*args, **kwargs):
            return tracer.wrap_methods(
                cls(*args, **kwargs), fit=f"{prefix}_fit",
                score_samples=f"{prefix}_score",
            )
        return make

    def count_iterations(record, args, kwargs, result):
        seen["generate"] = (args, result)
        iters = [r.iterations_used for r in result]
        record["attrs"].update(rows=len(result), row_iters=int(sum(iters)))

    # Spans go around the public calls that run_experiment and run_fold
    # make, by rebinding the names those functions look up at call time.
    pl.build_dataset = tracer.wrap("data.build_dataset", pl.build_dataset)
    pl.downsample_majority = tracer.wrap(
        "data.downsample_majority", pl.downsample_majority
    )
    pl.stratified_kfold = tracer.wrap("data.stratified_kfold", pl.stratified_kfold)
    pl.run_fold = tracer.wrap("pipeline.run_fold", pl.run_fold)
    pl.build_classifier = traced_builder(pl.build_classifier, "models.fit", "clf")
    pl.build_flow = traced_builder(pl.build_flow, "flows.fit", "flow")
    pl.compute_delta = tracer.wrap(
        "counterfactual.compute_delta", pl.compute_delta, keep("delta")
    )
    pl.generate = tracer.wrap(
        "counterfactual.generate", pl.generate, count_iterations
    )
    pl.wachter_generate = tracer.wrap(
        "counterfactual.generate", pl.wachter_generate, count_iterations
    )
    pl.evaluate = tracer.wrap("metrics.evaluate", pl.evaluate)
    metrics_mod.LocalOutlierFactor = traced_scorer(
        metrics_mod.LocalOutlierFactor, "metrics.lof"
    )
    metrics_mod.IsolationForest = traced_scorer(
        metrics_mod.IsolationForest, "metrics.isoforest"
    )

    with tracer.span("bench"):
        with tracer.span("flowcf.run"):
            record = pl.run_experiment(config)

        (x0, targets, *_, cf_cfg), results = seen["generate"]
        clf, flow = seen["clf"], seen["flow"]
        delta = seen["delta"]
        x0 = np.asarray(x0, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.int64)
        thresholds = delta.for_labels(targets)

        def log_prob_grad():
            xt = Tensor(x0, requires_grad=True)
            ad.tsum(flow.log_prob_tensor(xt, targets)).backward()
            return xt.grad

        def objective_grad():
            # the plausible objective as acceptance criterion 7(a) builds it
            xt = Tensor(x0, requires_grad=True)
            probs = clf.predict_proba_tensor(xt)
            if clf.n_classes_ == 2:
                lv = validity_loss_binary(probs, targets, cf_cfg.epsilon)
            else:
                lv = validity_loss_multiclass(probs, targets, cf_cfg.epsilon)
            lp = plausibility_loss(flow.log_prob_tensor(xt, targets), thresholds)
            dist = distance(Tensor(x0), xt, cf_cfg.distance_kind)
            ad.tsum(dist + Tensor(cf_cfg.lam) * (lv + lp)).backward()
            return xt.grad

        with tracer.span("bench.probes", rows=int(x0.shape[0])):
            probes = {
                "flows.score_samples": _probe(
                    tracer, "flows.score_samples",
                    lambda: flow.score_samples(x0, targets),
                ),
                "flows.log_prob_grad": _probe(
                    tracer, "flows.log_prob_grad", log_prob_grad
                ),
                "autodiff.objective_grad": _probe(
                    tracer, "autodiff.objective_grad", objective_grad
                ),
            }

    _emit({
        "spans": tracer.spans,
        "probes_ms": probes,
        "max_iters": cf_cfg.max_iters,
        "iterations": [r.iterations_used for r in results],
        "row_latency_s": [r.wall_time_secs for r in results],
        "failed_folds": record.failed_folds,
        "fold_reports": record.fold_reports,
    })


def main(argv: list[str]) -> None:
    modes = {"setup": mode_setup, "cli": mode_cli, "traced": mode_traced}
    if not argv or argv[0] not in modes:
        raise SystemExit(f"usage: child.py {{{','.join(modes)}}} <config.json> [out_dir]")
    modes[argv[0]](*argv[1:])


if __name__ == "__main__":
    main(sys.argv[1:])
