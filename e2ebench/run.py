"""Run one benchmark workload and print its metrics as one JSON line.

    python3 e2ebench/run.py --workload serve_hotset --seed 3 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` additionally runs one traced rep and prints the per-layer
metrics and table instead, writing the spans as Trace Event JSON.  Every
run writes a result file (host record, source revision, seed, metrics,
check failures) under ``e2ebench/results/``.  Outputs are checked on every
run; any failed check makes the exit code 1.  See e2ebench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metrics and their units (BENCHMARK.json lists the same)
E2E_UNITS = {
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "availability": "ratio",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_capacity_rps": "req/s",
}

ROSTER = (
    "air_topk",
    "auto",
    "bitonic_topk",
    "block_select",
    "bucket_approx",
    "bucket_select",
    "drtopk_hybrid",
    "grid_select",
    "quick_select",
    "radix_select",
    "sample_select",
    "sort",
    "twostage_approx",
    "warp_select",
)

#: per-layer metrics of the traced run and their units
LAYER_UNITS = {
    "cache.fingerprint_calls": "count",
    "cache.fingerprint_mb": "MB",
    "cache.fingerprint_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.result_hit_ratio": "ratio",
    "cache.plan_hit_ratio": "ratio",
    "radix.encode_calls": "count",
    "radix.encode_elems": "count",
    "radix.encode_ms": "ms",
    "api.topk_calls": "count",
    "api.topk_rows": "count",
    "api.topk_self_ms": "ms",
    **{f"algos.{name}.ms": "ms" for name in ROSTER},
    "batcher.batches": "count",
    "batcher.occupancy_mean": "count",
    "batcher.sim_wait_p50_ms": "ms",
    "batcher.sim_wait_p99_ms": "ms",
    "sharder.calls": "count",
    "sharder.self_ms": "ms",
    "merge.calls": "count",
    "merge.candidates": "count",
    "merge.ms": "ms",
    "service.self_ms": "ms",
    "obs.telemetry_ms": "ms",
    "router.self_ms": "ms",
    "router.partitions_per_request": "count",
    "router.failovers": "count",
    "router.wasted_dispatch_ratio": "ratio",
    "node.sim_busy_imbalance": "ratio",
    "device.launches": "count",
    "device.bytes_moved_mb": "MB",
    "costmodel.rank_calls": "count",
    "costmodel.rank_ms": "ms",
    "datagen.ms": "ms",
    "exec.self_ms": "ms",
    "exec.parallel_efficiency": "ratio",
    "exec.retries": "count",
    "exec.timeouts": "count",
    "trace.wall_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
}

#: metrics the device model computes rather than anything measuring them
COMPUTED = (
    "availability",
    "sim_latency_p50_ms",
    "sim_latency_p99_ms",
    "sim_capacity_rps",
    "device.launches",
    "device.bytes_moved_mb",
    "batcher.sim_wait_p50_ms",
    "batcher.sim_wait_p99_ms",
    "node.sim_busy_imbalance",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: smoke-test input sizes (checks stay on)",
    )
    parser.add_argument(
        "--out", default=None, help="result directory (default e2ebench/results)"
    )
    return parser.parse_args(argv)


def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def source_rev() -> dict:
    """The git revision when there is one, and always a digest of the
    program's source, which identifies a checkout without git."""
    from repro.bench.perfgate import git_rev

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git": git_rev(ROOT), "source_sha256": digest.hexdigest()}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any of its pool workers (MB)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def timed_run(wl, state, *, serial: bool = False) -> float:
    """Wall seconds of one rep's timed region, started from a collected heap."""
    gc.collect()
    t = time.perf_counter()
    wl.run(state, serial=serial)
    return time.perf_counter() - t


def timed_reps(wl, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Set up and run reps until ``seconds`` of timed region are spent
    (another rep starts while at least half a rep's time remains).
    Returns the per-rep records and the first rep's state."""
    reps: list[dict] = []
    first = None
    spent = 0.0
    while True:
        t = time.perf_counter()
        state = wl.setup(seed)
        setup_s = time.perf_counter() - t
        wall_s = timed_run(wl, state)
        spent += wall_s
        reps.append(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "ops": wl.answered(state),
                "digest": wl.digest(state),
            }
        )
        if first is None:
            first = state
        if spent + wall_s / 2 > seconds:
            return reps, first


def traced_rep(wl, seed: int):
    """One inline rep with every layer boundary wrapped; returns (tracer,
    state, wall seconds).  The originals are back in place when it returns."""
    from layers import LayerTracer

    state = wl.setup(seed)
    gc.collect()
    tracer = LayerTracer()
    tracer.install()
    try:
        with tracer.root(wl.name):
            t = time.perf_counter()
            wl.run(state, serial=True)
            wall_s = time.perf_counter() - t
    finally:
        tracer.uninstall()
    return tracer, state, wall_s


def layer_metrics(wl, tracer, state, *, traced_s, base_s, pooled_s):
    own = tracer.self_ms()
    count = tracer.counter
    # a layer the workload never reaches reads 0
    metrics = dict.fromkeys(LAYER_UNITS, 0)
    metrics.update({
        "cache.fingerprint_calls": count("cache.fingerprint"),
        "cache.fingerprint_mb": count("cache.fingerprint", "bytes") / 1e6,
        "cache.fingerprint_ms": own.get("cache.fingerprint", 0.0),
        "cache.lookup_ms": own.get("cache.lookup", 0.0),
        "radix.encode_calls": count("radix.encode"),
        "radix.encode_elems": count("radix.encode", "elems"),
        "radix.encode_ms": own.get("radix.encode", 0.0),
        "api.topk_calls": count("api.topk"),
        "api.topk_rows": count("api.topk", "rows"),
        "api.topk_self_ms": own.get("api.topk", 0.0),
        **{f"algos.{n}.ms": own.get(f"algos.{n}", 0.0) for n in ROSTER},
        "sharder.calls": count("sharder"),
        "sharder.self_ms": own.get("sharder", 0.0),
        "merge.calls": count("merge"),
        "merge.candidates": count("merge", "candidates"),
        "merge.ms": own.get("merge", 0.0),
        "service.self_ms": own.get("service", 0.0),
        "obs.telemetry_ms": own.get("obs.telemetry", 0.0),
        "router.self_ms": own.get("router", 0.0),
        "device.launches": count("device", "launches"),
        "device.bytes_moved_mb": count("device", "bytes") / 1e6,
        "costmodel.rank_calls": count("costmodel.rank"),
        "costmodel.rank_ms": own.get("costmodel.rank", 0.0),
        "datagen.ms": own.get("datagen", 0.0),
        "exec.self_ms": own.get("exec", 0.0),
        # traced per-point host time over the untraced pooled wall time
        # of all workers
        "exec.parallel_efficiency": tracer.total_ms("exec")
        / (wl.workers * pooled_s * 1e3)
        if count("exec")
        else 0.0,
        "exec.retries": count("exec.attempt") - count("exec"),
        "trace.wall_ms": traced_s * 1e3,
        "trace.overhead_ratio": traced_s / base_s,
        "trace.unattributed_ms": own.get("trace.root", 0.0),
    })
    metrics.update(wl.layer_sim(state))
    return metrics


def layer_table(tracer, traced_s: float) -> list[str]:
    own = tracer.self_ms()
    wall_ms = traced_s * 1e3
    lines = [f"{'layer':<26}{'self ms':>12}{'share':>8}{'calls':>10}"]
    for layer, ms in sorted(own.items(), key=lambda kv: -kv[1]):
        calls = "" if layer == "trace.root" else int(tracer.counter(layer))
        name = "(unattributed)" if layer == "trace.root" else layer
        lines.append(f"{name:<26}{ms:>12.1f}{ms / wall_ms:>8.1%}{calls:>10}")
    lines.append(f"{'traced wall':<26}{wall_ms:>12.1f}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.scale)
    wl.prepare()
    import_s = time.perf_counter() - _T0

    reps, first = timed_reps(wl, args.seed, args.seconds)
    operations, failures = wl.check(first)
    attempted = operations * len(reps)
    failed = len(failures)
    digest = reps[0]["digest"]
    for i, rep in enumerate(reps[1:], start=2):
        if rep["digest"] != digest:
            failures.append(f"rep {i} outputs differ from rep 1")
            failed += operations
    e2e = {
        "host_ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in reps),
        "setup_s": import_s + statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb(),
        **wl.e2e_sim(first),
    }
    del first

    out_dir = Path(args.out) if args.out else HERE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "rev": source_rev(),
        "reps": reps,
        "end_to_end": e2e,
        "computed": list(COMPUTED),
    }

    if args.trace:
        # the traced rep runs inline (the sweep with one worker); an
        # untraced inline rep right before it makes the overhead ratio
        # like for like
        state = wl.setup(args.seed)
        base_s = timed_run(wl, state, serial=True)
        inline_digest = wl.digest(state)
        del state
        tracer, traced, traced_s = traced_rep(wl, args.seed)
        for label, got in (
            ("untraced inline", inline_digest),
            ("traced", wl.digest(traced)),
        ):
            attempted += operations
            if got != digest:
                failures.append(f"{label} rep outputs differ from rep 1")
                failed += operations
        metrics = layer_metrics(
            wl,
            tracer,
            traced,
            traced_s=traced_s,
            base_s=base_s,
            pooled_s=statistics.median(r["wall_s"] for r in reps),
        )
        units = LAYER_UNITS
        table = layer_table(tracer, traced_s)
        print(f"per-layer host time, {args.workload} seed {args.seed}:")
        print("\n".join(table))
        tracer.write_trace(
            out_dir / f"{stem}.trace.json",
            {"workload": args.workload, "seed": args.seed, "rev": record["rev"],
             **record["host"]},
        )
        record["layers"] = metrics
        record["layer_table"] = table
    else:
        metrics, units = e2e, E2E_UNITS

    correct = failed == 0
    record.update(correct=correct, attempted=attempted, failed=failed)
    record["failures"] = failures[:50]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
