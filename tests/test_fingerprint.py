"""One payload hash per request: where fingerprints are taken and how
the result-cache keys derived from them behave.

The service hashes a request's payload once, at admission, and carries
the digest on ``Request.fingerprint``; a disabled result cache hashes
nothing.  In a cluster the router's placement hash is the only hash:
nodes receive keys derived from it, and a partition's key can never
alias a whole payload's.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import topk
from repro.cluster import ClusterConfig, ClusterRouter
from repro.faults import FaultPlan, FaultRule
from repro.serve import (
    LoadSpec,
    Request,
    ServeConfig,
    TopKService,
    build_requests,
    fingerprint,
)
from repro.serve.sharder import shard_bounds

#: large enough that the router partitions it (>= partition_min_n)
PARTITIONED_N = 1 << 15

#: repeats (cache hits) and a quarter approximate-tier traffic
SPEC = LoadSpec(
    qps=400.0,
    duration_s=0.1,
    n=4096,
    k=16,
    payload_pool=8,
    seed=3,
    min_recall=0.9,
    approx_fraction=0.25,
)


@pytest.fixture
def hashed(monkeypatch) -> list[np.ndarray]:
    """Record :func:`repro.serve.cache.fingerprint` calls: the defining
    module and every module that imported it by name are patched.
    Returns the hashed payloads, one entry per call."""
    calls: list[np.ndarray] = []

    def counted(data):
        calls.append(data)
        return fingerprint(data)

    for name, module in list(sys.modules.items()):
        bound = vars(module).get("fingerprint") if module else None
        if name.startswith("repro") and bound is fingerprint:
            monkeypatch.setattr(module, "fingerprint", counted)
    return calls


def cluster(**overrides) -> ClusterRouter:
    kwargs = dict(
        nodes=4,
        replication=2,
        partitions=4,
        placement="consistent-hash",
        node_config=ServeConfig(),
    )
    kwargs.update(overrides)
    return ClusterRouter(ClusterConfig(**kwargs))


def payload(seed: int, n: int = PARTITIONED_N) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n).astype(np.float32)


class TestFingerprint:
    def test_digest_is_pinned(self):
        # the digest places payloads on the cluster's hash ring: if it
        # moves, every replica assignment (and simulated metric) moves
        assert (
            fingerprint(np.arange(16, dtype=np.float32))
            == "57dd3827bb453ac58e84ee3c7c747a42"
        )
        assert (
            fingerprint(np.arange(8, dtype=np.int16))
            == "29137403c138be02c13b09c3283246a7"
        )

    def test_strided_view_hashes_like_its_copy(self):
        view = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
        assert fingerprint(view) == fingerprint(view.copy())
        assert fingerprint(view) == "d32e68b429b9b81fa1599c1e6067291c"


class TestServiceHashesOnce:
    def test_one_hash_per_request(self, hashed):
        requests = build_requests(SPEC)
        service = TopKService(ServeConfig())
        stats = service.run(requests)
        assert len(hashed) == len(requests)
        assert stats.cache["result_hits"] > 0
        for request in requests:
            assert request.fingerprint == fingerprint(request.data)

    def test_corruption_seam_reuses_the_admission_hash(self, hashed):
        plan = FaultPlan(
            seed=6, rules=(FaultRule(kind="cache_corruption", rate=1.0),)
        )
        service = TopKService(ServeConfig(faults=plan, breaker_threshold=3))
        requests = build_requests(SPEC)
        service.run(requests)
        assert service.cache.corruptions >= 1
        assert len(hashed) == len(requests)

    def test_disabled_result_cache_hashes_nothing(self, hashed):
        requests = build_requests(SPEC)
        service = TopKService(ServeConfig(result_cache=0))
        stats = service.run(requests)
        assert hashed == []
        assert stats.served == len(requests)
        assert stats.cache["result_hits"] == 0
        assert len(service.cache.results) == 0
        assert all(r.fingerprint is None for r in requests)

    def test_preset_fingerprint_is_used_as_is(self, hashed):
        data = payload(1, 4096)
        service = TopKService(ServeConfig())
        service.run(
            [
                Request(rid=i, data=data, k=8, largest=True,
                        arrival_s=0.2 * i, fingerprint="caller-key")
                for i in range(2)
            ]
        )
        assert hashed == []
        assert [o.cache_hit for o in service.outcomes] == [False, True]


class TestClusterHashesOnce:
    def test_router_hash_is_the_only_hash(self, hashed):
        requests = [
            Request(rid=i, data=payload(i), k=32, largest=True,
                    arrival_s=0.01 * i, slo=(None, 0.9) if i % 4 == 3 else None)
            for i in range(8)
        ]
        router = cluster()
        router.run(requests)
        assert len(hashed) == len(requests)
        assert all(o.ok for o in router.outcomes)

    def test_sub_query_keys_derive_from_the_placement_hash(self):
        data = payload(5)
        router = cluster(nodes=1, replication=1)
        router.run(
            [
                Request(rid=0, data=data, k=32, largest=True, arrival_s=0.0),
                Request(rid=1, data=data, k=32, largest=True, arrival_s=0.0,
                        slo=(None, 0.9)),
            ]
        )
        whole = fingerprint(data)
        keys = [r.fingerprint for r in router.nodes[0].requests]
        parts = [f"{whole}[{s}:{e}]" for s, e in shard_bounds(data.size, 4)]
        # four partitions of the exact request, then the whole-routed one
        assert keys == parts + [whole]

    def test_partition_key_never_aliases_the_whole_payload(self):
        # same node, k and quality class: the four partition entries and
        # a whole-payload entry are five distinct keys, each with its own
        # answer
        data = payload(7)
        router = cluster(nodes=1, replication=1)
        router.run([Request(rid=0, data=data, k=32, largest=True, arrival_s=0.0)])
        cache = router.nodes[0].service.cache
        whole = fingerprint(data)
        assert len(cache.results) == 4
        assert cache.get_result(whole, 32, True) is None
        single = topk(data, 32, largest=True)
        cache.put_result(whole, 32, True, single.values, single.indices)
        assert len(cache.results) == 5
        bounds = shard_bounds(data.size, 4)
        for request, (start, end) in zip(router.nodes[0].requests, bounds):
            values, indices, _ = cache.get_result(request.fingerprint, 32, True)
            part = topk(data[start:end], 32, largest=True)
            assert np.array_equal(values, part.values)
            assert np.array_equal(indices, part.indices)
