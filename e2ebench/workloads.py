"""The benchmark's three workloads: inputs from a seed, one timed rep, checks.

Each workload is a small class with the same four steps:

* ``setup(seed)`` builds the inputs and the system under test (timed as
  set-up, repeated once per rep so the median is steady);
* ``run(state)`` is the timed region: the whole request trace or sweep grid;
* ``check(state)`` compares the rep's outputs with independent oracles and
  returns ``(operations, failure messages)``;
* ``digest(state)`` fingerprints the outputs, so every later rep (and the
  traced rep) must reproduce the first rep byte for byte.

``scale="tiny"`` shrinks every workload to a smoke-test size; the checks
stay on.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SWEEP_REFERENCE = HERE / "sweep_reference.json"

def nearest_rank(values, q: float) -> float:
    """The q-th percentile by nearest rank (exact; ``inf`` entries allowed)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _oracle_values(payloads: dict, k: int, largest: bool) -> dict:
    """``{payload key: repro.verify oracle values}``, in row chunks."""
    from repro.verify import oracle_topk_values

    keys = list(payloads)
    out = {}
    for start in range(0, len(keys), 32):
        chunk = keys[start : start + 32]
        rows = np.stack([payloads[key] for key in chunk])
        for key, values in zip(chunk, oracle_topk_values(rows, k, largest=largest)):
            out[key] = values
    return out


def _payload_key(data: np.ndarray) -> int:
    # payloads are windows of one base buffer: equal address, equal payload
    return data.__array_interface__["data"][0]


class _Serving:
    """Shared run, checks and metrics of the request-serving workloads.

    Per-layer metrics a workload does not produce read 0 (see run.py)."""

    #: host processes the timed region uses
    workers = 1

    def __init__(self, scale: str = "full") -> None:
        self.p = self.SIZES[scale]

    def _requests(self, seed: int, *, min_recall=None, approx_fraction=0.0):
        from repro.serve import LoadSpec, build_requests

        p = self.p
        # an open loop: Poisson arrivals at `qps`, cut to exactly `requests`
        # so every seed does the same amount of work
        spec = LoadSpec(
            qps=p["qps"],
            duration_s=1.5 * p["requests"] / p["qps"],
            n=p["n"],
            k=p["k"],
            payload_pool=p["pool"],
            min_recall=min_recall,
            approx_fraction=approx_fraction,
            seed=seed,
        )
        requests = build_requests(spec)[: p["requests"]]
        if len(requests) < p["requests"]:
            raise RuntimeError("arrival trace shorter than the request count")
        return requests

    def prepare(self) -> None:
        import repro.cluster  # noqa: F401 — imports count as set-up
        import repro.verify  # noqa: F401

    def run(self, state, *, serial: bool = False) -> None:
        state["system"].run(state["requests"])

    @staticmethod
    def outcomes(state):
        return state["system"].outcomes

    @staticmethod
    def stats(state):
        return state["system"].stats

    def answered(self, state) -> int:
        return sum(1 for o in self.outcomes(state) if o.ok)

    def digest(self, state) -> str:
        h = hashlib.sha256()
        for o in self.outcomes(state):
            h.update(f"{o.rid}|{o.status}|{o.finish_s!r}|{o.exact}|".encode())
            if o.values is not None:
                h.update(np.ascontiguousarray(o.values).tobytes())
                h.update(np.ascontiguousarray(o.indices).tobytes())
        return h.hexdigest()

    def check(self, state) -> tuple[int, list[str]]:
        from repro.serve import OUTCOMES
        from repro.primitives import priority_keys

        requests = state["requests"]
        outcomes = self.outcomes(state)
        stats = self.stats(state)
        failures = []
        by_rid: dict[int, list] = {}
        for o in outcomes:
            by_rid.setdefault(o.rid, []).append(o)
        for r in requests:
            got = by_rid.get(r.rid, [])
            if len(got) != 1 or got[0].status not in OUTCOMES:
                failures.append(f"rid {r.rid}: {len(got)} terminal outcomes")
        if len(outcomes) != len(requests) or stats.total != len(requests):
            failures.append(
                f"{len(outcomes)} outcomes / {stats.total} counted for "
                f"{len(requests)} requests"
            )
        if stats.recall_violations:
            failures.append(f"{stats.recall_violations} recall violations")
        if stats.answered < self.p["min_answered"]:
            # p99 needs at least ten answered samples beyond it
            failures.append(f"only {stats.answered} answered requests")
        k, largest = self.p["k"], False
        payloads = {_payload_key(r.data): r.data for r in requests}
        oracle = _oracle_values(payloads, k, largest)
        for r in requests:
            got = by_rid.get(r.rid, [])
            if len(got) != 1 or not got[0].ok:
                continue
            o = got[0]
            expect = oracle[_payload_key(r.data)]
            if not np.array_equal(r.data[o.indices], o.values):
                failures.append(f"rid {r.rid}: data[indices] != values")
            elif o.exact:
                if not np.array_equal(o.values, expect):
                    failures.append(f"rid {r.rid}: exact result != oracle")
            else:
                # recall against the oracle's k-th key: approximate
                # results must meet the floor they promised
                kth = priority_keys(expect[-1:], largest=largest)[0]
                got_keys = priority_keys(np.asarray(o.values), largest=largest)
                recall = min(int(np.sum(got_keys <= kth)), k) / k
                if o.recall_bound is None or recall < o.recall_bound:
                    failures.append(
                        f"rid {r.rid}: recall {recall:.4f} below promised "
                        f"{o.recall_bound}"
                    )
        return len(requests), failures

    def e2e_sim(self, state) -> dict:
        outcomes = self.outcomes(state)
        stats = self.stats(state)
        # non-answered requests never met any latency limit
        latencies = [o.latency_s if o.ok else math.inf for o in outcomes]
        return {
            "availability": stats.answered / len(state["requests"]),
            "sim_latency_p50_ms": nearest_rank(latencies, 50.0) * 1e3,
            "sim_latency_p99_ms": nearest_rank(latencies, 99.0) * 1e3,
            "sim_capacity_rps": stats.capacity_rps,
        }

    @staticmethod
    def _batch_waits(service) -> list[float]:
        """Simulated seconds each executed request queued before its batch
        started (batches on one device never finish at the same instant)."""
        start_of = {b.finish_s: b.start_s for b in service.batch_records}
        return [
            start_of[o.finish_s] - o.arrival_s
            for o in service.outcomes
            if o.ok and not o.cache_hit and o.finish_s in start_of
        ]

    def layer_sim(self, state) -> dict:
        stats = self.stats(state)
        cache = stats.cache
        lookups = cache.get("result_hits", 0) + cache.get("result_misses", 0)
        plans = cache.get("plan_hits", 0) + cache.get("plan_misses", 0)
        waits = [w for s in self.services(state) for w in self._batch_waits(s)]
        return {
            "cache.result_hit_ratio": cache.get("result_hits", 0) / lookups
            if lookups
            else 0.0,
            "cache.plan_hit_ratio": cache.get("plan_hits", 0) / plans if plans else 0.0,
            "batcher.batches": stats.batches,
            "batcher.occupancy_mean": stats.mean_occupancy,
            "batcher.sim_wait_p50_ms": nearest_rank(waits, 50.0) * 1e3
            if waits
            else 0.0,
            "batcher.sim_wait_p99_ms": nearest_rank(waits, 99.0) * 1e3
            if waits
            else 0.0,
        }


class ServeHotset(_Serving):
    """One sharded ``TopKService`` under many small, often repeated requests.

    Per-request overheads dominate (admission, batcher, cache reads,
    telemetry, shard merge).  A quarter of requests carry
    ``min_recall=0.95`` and take the approximate tier.  The payload pool is
    sized for about 28% result-cache hits: hits answer in zero simulated
    time, so at half or more hits the simulated median would read 0, and
    near half it would swing with each seed's hit count.
    """

    name = "serve_hotset"
    SIZES = {
        "full": dict(
            n=1 << 16, k=64, requests=2400, qps=1000.0, pool=512, min_answered=1000
        ),
        "tiny": dict(
            n=1 << 12, k=16, requests=160, qps=1000.0, pool=48, min_answered=1
        ),
    }

    def setup(self, seed: int) -> dict:
        from repro.serve import ServeConfig, TopKService

        requests = self._requests(seed, min_recall=0.95, approx_fraction=0.25)
        service = TopKService(ServeConfig(shards=2, shard_min_n=self.p["n"]))
        return {"requests": requests, "system": service}

    @staticmethod
    def services(state):
        return [state["system"]]


class ClusterFanout(_Serving):
    """A 4-node, R=2 consistent-hash cluster under large, unique payloads.

    Each request is partitioned across the nodes, so fingerprinting and key
    encoding repeat per partition and replica; almost no payload repeats,
    so node caches run their write (miss + put) path.  The placement ring
    and node config are fixed; the seed only draws the requests.
    """

    name = "cluster_fanout"
    SIZES = {
        "full": dict(
            n=1 << 17, k=128, requests=1100, qps=500.0, pool=4096, min_answered=1000
        ),
        "tiny": dict(
            n=1 << 14, k=32, requests=120, qps=500.0, pool=512, min_answered=1
        ),
    }

    def setup(self, seed: int) -> dict:
        from repro.bench.clusterbench import node_template
        from repro.cluster import ClusterConfig, ClusterRouter

        requests = self._requests(seed)
        router = ClusterRouter(
            ClusterConfig(
                nodes=4,
                replication=2,
                placement="consistent-hash",
                node_config=node_template(),
            )
        )
        return {"requests": requests, "system": router}

    @staticmethod
    def services(state):
        return [node.service for node in state["system"].nodes]

    def layer_sim(self, state) -> dict:
        router = state["system"]
        stats = router.stats
        dispatched = sum(len(node.requests) for node in router.nodes)
        busy = stats.node_busy_s
        mean_busy = sum(busy) / len(busy) if busy else 0.0
        return {
            **super().layer_sim(state),
            "router.partitions_per_request": dispatched / len(state["requests"]),
            "router.failovers": stats.failovers,
            "router.wasted_dispatch_ratio": stats.wasted_dispatches / dispatched
            if dispatched
            else 0.0,
            "node.sim_busy_imbalance": max(busy) / mean_busy if mean_busy else 0.0,
        }


class SweepPaper:
    """The paper-reproduction grid through ``repro.exec.parallel_sweep``.

    Kernel emulation, the device cost model, datagen and the process-pool
    engine do all the work; no serving layer runs.  The grid's data seed is
    ``seed mod 8`` so that every seed has recorded simulated times in
    ``sweep_reference.json`` to check against.
    """

    name = "sweep_paper"
    workers = 2
    REFERENCE_SEEDS = 8
    GRIDS = {
        "full": dict(
            distributions=("uniform", "normal", "adversarial"),
            ns=(1 << 14, 1 << 18, 1 << 22),
            ks=(32, 1024),
            batches=(1, 100),
        ),
        "tiny": dict(
            distributions=("uniform", "normal", "adversarial"),
            ns=(1 << 10,),
            ks=(8, 512),
            batches=(1, 2),
        ),
    }

    def __init__(self, scale: str = "full") -> None:
        self.scale = scale
        self.grid = self.GRIDS[scale]

    def prepare(self) -> None:
        import repro.exec  # noqa: F401 — imports count as set-up

        self.reference = json.loads(SWEEP_REFERENCE.read_text())["grids"][self.scale]

    def setup(self, seed: int) -> dict:
        return {"data_seed": seed % self.REFERENCE_SEEDS, "result": None}

    def sweep(self, data_seed: int, workers: int):
        from repro.bench.runner import ALL_ALGORITHMS
        from repro.exec import parallel_sweep

        return parallel_sweep(
            algos=ALL_ALGORITHMS, seed=data_seed, workers=workers, **self.grid
        )

    def run(self, state, *, serial: bool = False) -> None:
        state["result"] = self.sweep(
            state["data_seed"], 1 if serial else self.workers
        )

    @staticmethod
    def points(state):
        return state["result"].points

    def answered(self, state) -> int:
        return len(self.points(state))

    def digest(self, state) -> str:
        h = hashlib.sha256()
        for p in self.points(state):
            h.update(f"{p.algo}|{p.distribution}|{p.n}|{p.k}|{p.batch}|".encode())
            h.update(f"{p.status}|{p.time!r}|{p.mode}\n".encode())
        return h.hexdigest()

    def check(self, state) -> tuple[int, list[str]]:
        points = self.points(state)
        expected = self.reference["seeds"][str(state["data_seed"])]
        coords = [tuple(c) for c in self.reference["points"]]
        failures = []
        if len(points) != len(coords):
            failures.append(f"{len(points)} points, reference has {len(coords)}")
        for p, coord, ref in zip(points, coords, expected):
            where = f"{p.algo}/{p.distribution}/n={p.n}/k={p.k}/b={p.batch}"
            if (p.algo, p.distribution, p.n, p.k, p.batch) != coord:
                failures.append(f"{where}: grid order differs from reference")
            elif p.status not in ("ok", "unsupported"):
                failures.append(f"{where}: {p.status} row ({p.detail})")
            elif p.time != ref:
                # simulated time is deterministic: any change is a model change
                failures.append(f"{where}: simulated {p.time!r} != reference {ref!r}")
        return len(points), failures

    def e2e_sim(self, state) -> dict:
        points = self.points(state)
        times = [p.time for p in points if p.status == "ok"]
        good = sum(1 for p in points if p.status in ("ok", "unsupported"))
        # a grid point is the sweep's request: its simulated device time is
        # its latency, and ok points per simulated busy second its capacity
        return {
            "availability": good / len(points),
            "sim_latency_p50_ms": nearest_rank(times, 50.0) * 1e3,
            "sim_latency_p99_ms": nearest_rank(times, 99.0) * 1e3,
            "sim_capacity_rps": len(times) / sum(times),
        }

    def layer_sim(self, state) -> dict:
        points = self.points(state)
        return {"exec.timeouts": sum(1 for p in points if p.status == "timeout")}

    def record_reference(self) -> dict:
        """Simulated times of every grid point for each reference seed."""
        grid = None
        seeds = {}
        for data_seed in range(self.REFERENCE_SEEDS):
            points = self.sweep(data_seed, self.workers).points
            grid = [[p.algo, p.distribution, p.n, p.k, p.batch] for p in points]
            bad = [p for p in points if p.status not in ("ok", "unsupported")]
            if bad:
                raise RuntimeError(f"cannot record reference: {bad[0]}")
            seeds[str(data_seed)] = [p.time for p in points]
        return {"points": grid, "seeds": seeds}


WORKLOADS = {w.name: w for w in (ServeHotset, ClusterFanout, SweepPaper)}
