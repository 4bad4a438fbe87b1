"""Fast self-test of the benchmark harness.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/selftest.py

It runs every workload once untraced and once traced with a small
``--max-iters`` override, and asserts that:

- ``run.py``'s metric tables match ``BENCHMARK.json`` by name, unit and
  direction;
- each run exits 0 and its last line is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and is correct;
- every metric ``BENCHMARK.json`` names for the mode is emitted, with its
  unit, a finite value, and a printed line stating its direction;
- the traced run's span tree is well formed (``run.validate_spans``): one
  root, parents that exist and enclose their children, no overlapping
  siblings, and every layer's spans inside the ``flowcf.run`` span;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

MAX_ITERS = "30"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_tables(benchmark: dict) -> None:
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in benchmark[key]}
        assert listed == table, f"{key}: BENCHMARK.json {listed} != run.py {table}"
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)


def bench_once(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--max-iters", MAX_ITERS],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(benchmark: dict, workload: str, trace: int) -> None:
    proc = bench_once(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] is True, f"{workload} trace {trace}: {lines}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)

    expected = benchmark["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
        direction = f"({metric['better']} is better)"
        assert any(line.startswith(metric["name"] + " ") and direction in line
                   for line in lines), f"no printed line for {metric['name']}"

    if trace:
        record_line = next(line for line in lines if line.startswith("record: "))
        record = json.loads((ROOT / record_line.split(" ", 1)[1]).read_text())
        problems = run.validate_spans(record["spans"])
        assert problems == [], problems
    print(f"ok  {workload:16s} trace {trace}  attempted {result['attempted']}")


def check_bare_directory() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench_once(bare, "moons-plausible", 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory exits non-zero without a result")


def main() -> int:
    benchmark = spec()
    check_tables(benchmark)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(benchmark, workload, trace)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
