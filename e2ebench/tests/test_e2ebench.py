"""Tests of the benchmark itself: tiny smoke runs with the checks on, the
traced run's wrapping leaving the program untouched, and the printed metric
names matching BENCHMARK.json.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, out: Path, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            "e2ebench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0.01",
            "--trace", str(trace),
            "--scale", "tiny",
            "--out", str(out),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(
        (tmp_path / f"{workload}-tiny-seed5-trace{trace}.json").read_text()
    )
    assert record["seed"] == 5
    assert {"cpu_model", "nproc", "python", "numpy"} <= set(record["host"])
    assert record["rev"]["source_sha256"]
    if trace:
        events = json.loads(
            (tmp_path / f"{workload}-tiny-seed5-trace1.trace.json").read_text()
        )["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all("parent" in e["args"] for e in spans)


def test_sweep_traced_run_sees_no_serving_layer(tmp_path):
    proc = run_bench("sweep_paper", 1, tmp_path)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("cache.fingerprint_calls", "router.self_ms", "sharder.calls"):
        assert metrics[name]["value"] == 0
    assert metrics["radix.encode_calls"]["value"] > 0


def _all_bindings():
    """Every binding of every wrapped target, as (place, attr, object)."""
    found = []
    for target in layers.TARGETS:
        namespace, original = layers.resolve(target)
        if isinstance(namespace, type):
            found.append((namespace, target.attr, original))
        else:
            found += [(m, a, original) for m, a in layers.bindings(original)]
    return found


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_leaves_program_untouched(workload):
    wl = WORKLOADS[workload]("tiny")
    wl.prepare()
    before = _all_bindings()
    state = wl.setup(1)
    wl.run(state)
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{owner}.{attr} was replaced"


def test_traced_run_wraps_every_copy_and_restores_them():
    wl = WORKLOADS["cluster_fanout"]("tiny")
    wl.prepare()
    import repro.cluster.router as router
    import repro.serve.cache as cache

    original = cache.fingerprint
    before = _all_bindings()
    state = wl.setup(1)
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert cache.fingerprint is not original
        assert router.fingerprint is cache.fingerprint
        with tracer.root(wl.name):
            wl.run(state)
    finally:
        tracer.uninstall()
    for owner, attr, obj in before:
        assert getattr(owner, attr) is obj, f"{owner}.{attr} not restored"
    assert tracer.counter("cache.fingerprint") > 0
    # layer self times plus the unattributed remainder cover the root span
    root = next(s for s in tracer.spans if s.layer == "trace.root")
    total = sum(tracer.self_ms().values())
    assert total == pytest.approx((root.end_ns - root.start_ns) / 1e6, rel=1e-6)


@pytest.mark.parametrize("workload", ["serve_hotset", "cluster_fanout"])
def test_checks_catch_a_wrong_answer(workload):
    wl = WORKLOADS[workload]("tiny")
    wl.prepare()
    state = wl.setup(2)
    wl.run(state)
    assert wl.check(state)[1] == []
    served = next(o for o in wl.outcomes(state) if o.ok and o.exact)
    served.values = np.array(served.values, copy=True)
    served.values[0] = served.values[-1]
    assert wl.check(state)[1]


def test_sweep_check_catches_a_model_change():
    wl = WORKLOADS["sweep_paper"]("tiny")
    wl.prepare()
    state = wl.setup(3)
    wl.run(state)
    assert wl.check(state)[1] == []
    wl.reference["seeds"]["3"][0] *= 1.01
    assert wl.check(state)[1]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"
    ))
    proc = run_bench("serve_hotset", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
