"""Cluster chaos properties: crash/partition churn, quorum, determinism.

The cluster-grade guarantees this PR promises, pinned as properties:

* every request gets exactly one terminal outcome under any seeded node
  fault mix — never a silent drop, never a duplicate verdict;
* availability stays >= 99% with R=2 replication while a replica is
  sticky-crashed (the pinned plan at benchmarks/fault_plans/cluster.json);
* replay determinism: the same plan produces byte-identical outcomes
  for workers=1 and workers=N;
* sticky node faults are permanent leaves, transient ones are per-epoch
  churn; degraded merges always carry a recall bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.clusterbench import DEFAULT_CHAOS_PLAN, crashed_nodes
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    node_fault_plan,
)
from repro.faults import FaultPlan, FaultRule, fault_draw
from repro.serve import LoadSpec, Request, ServeConfig, build_requests
from repro.serve.request import OUTCOMES

PLAN_PATH = "benchmarks/fault_plans/cluster.json"


def chaos_router(plan, **overrides) -> ClusterRouter:
    kwargs = dict(
        nodes=4,
        replication=2,
        placement="least-loaded",
        node_config=ServeConfig(),
        faults=plan,
    )
    kwargs.update(overrides)
    return ClusterRouter(ClusterConfig(**kwargs))


def chaos_trace(*, count=40, n=1 << 15, seed=0):
    spec = LoadSpec(
        qps=count / 1.0, duration_s=1.0, n=n, k=32, payload_pool=16, seed=seed
    )
    return build_requests(spec)


# --------------------------------------------------------------------------- #
# the pinned plan
# --------------------------------------------------------------------------- #
class TestPinnedPlan:
    def test_plan_file_matches_the_bench_default(self):
        # the chaos cell of `bench cluster` runs the built-in default; the
        # plan file documents it and must stay the same scenario
        assert FaultPlan.load(PLAN_PATH) == DEFAULT_CHAOS_PLAN

    def test_plan_crashes_exactly_one_replica_of_four(self):
        # the availability gate is only meaningful if a replica really is
        # down — pinned: seed 3 sticky-crashes node 0 and nobody else
        assert crashed_nodes(DEFAULT_CHAOS_PLAN, 4) == [0]

    def test_crashed_nodes_respects_rate_and_stickiness(self):
        quiet = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    kind="node_crash", rate=0.0, site="cluster.node", sticky=True
                ),
            ),
        )
        assert crashed_nodes(quiet, 8) == []
        transient_only = FaultPlan(
            seed=3,
            rules=(
                FaultRule(kind="node_crash", rate=1.0, site="cluster.node"),
            ),
        )
        # transient crashes are churn, not permanent leaves
        assert crashed_nodes(transient_only, 8) == []


# --------------------------------------------------------------------------- #
# one terminal outcome per request, whatever the weather
# --------------------------------------------------------------------------- #
class TestOneTerminalOutcome:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        crash=st.floats(min_value=0.0, max_value=1.0),
        partition=st.floats(min_value=0.0, max_value=0.6),
        sticky=st.booleans(),
        replication=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_rid_resolves_exactly_once(
        self, seed, crash, partition, sticky, replication
    ):
        plan = FaultPlan(
            seed=seed,
            rules=(
                FaultRule(
                    kind="node_crash",
                    rate=crash,
                    site="cluster.node",
                    sticky=sticky,
                ),
                FaultRule(
                    kind="node_partition", rate=partition, site="cluster.node"
                ),
            ),
        )
        router = chaos_router(plan, replication=replication)
        requests = chaos_trace(count=20, seed=seed)
        router.run(requests)
        assert sorted(o.rid for o in router.outcomes) == sorted(
            r.rid for r in requests
        )
        assert all(o.status in OUTCOMES for o in router.outcomes)

    def test_total_outage_fails_loudly(self):
        # every node down: every request must resolve as a terminal
        # failure carrying a diagnosis, not vanish
        plan = FaultPlan(
            seed=0,
            rules=(
                FaultRule(
                    kind="node_crash", rate=1.0, site="cluster.node", sticky=True
                ),
            ),
        )
        router = chaos_router(plan)
        requests = chaos_trace(count=10)
        stats = router.run(requests)
        assert stats.failed == len(requests)
        assert stats.availability == 0.0
        assert all(o.status == "failed" for o in router.outcomes)
        assert all("quorum not met" in o.error for o in router.outcomes)


# --------------------------------------------------------------------------- #
# availability under replica loss
# --------------------------------------------------------------------------- #
class TestAvailabilityUnderCrash:
    def test_r2_cluster_survives_one_crashed_replica(self):
        router = chaos_router(FaultPlan.load(PLAN_PATH))
        stats = router.run(chaos_trace(count=60))
        assert stats.availability >= 0.99
        assert stats.failovers > 0  # the crash was actually routed around
        # the crashed replica never served anything
        assert router.nodes[0].stats.total == 0

    def test_r1_cluster_does_lose_requests(self):
        # the control: without replication the same plan loses work, so
        # the R=2 assertion above is not vacuous
        plan = FaultPlan.load(PLAN_PATH)
        router = chaos_router(plan, replication=1, placement="locality-aware")
        stats = router.run(chaos_trace(count=60))
        assert stats.availability < 0.99

    def test_partitioned_nodes_burn_work_but_answers_survive(self):
        plan = FaultPlan(
            seed=11,
            rules=(
                FaultRule(
                    kind="node_partition", rate=0.25, site="cluster.node"
                ),
            ),
        )
        router = chaos_router(plan)
        stats = router.run(chaos_trace(count=40))
        assert stats.availability >= 0.99
        assert stats.wasted_dispatches > 0
        orphaned = sum(len(node.orphans) for node in router.nodes)
        assert orphaned > 0


# --------------------------------------------------------------------------- #
# replay determinism
# --------------------------------------------------------------------------- #
class TestReplayDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_never_changes_results(self, workers):
        plan = FaultPlan.load(PLAN_PATH)

        def replay(w):
            router = chaos_router(plan, workers=w)
            stats = router.run(chaos_trace(count=30))
            return router, stats

        base_router, base_stats = replay(1)
        router, stats = replay(workers)
        assert stats == base_stats
        assert len(router.outcomes) == len(base_router.outcomes)
        for a, b in zip(base_router.outcomes, router.outcomes):
            assert (a.rid, a.status, a.finish_s) == (b.rid, b.status, b.finish_s)
            if a.values is not None:
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.indices, b.indices)

    def test_same_seed_same_verdicts_across_routers(self):
        plan = FaultPlan.load(PLAN_PATH)
        runs = [chaos_router(plan).run(chaos_trace(count=25)) for _ in range(2)]
        assert runs[0] == runs[1]


# --------------------------------------------------------------------------- #
# node fault semantics
# --------------------------------------------------------------------------- #
class TestNodeFaultSemantics:
    def test_sticky_crash_is_permanent_across_epochs(self):
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    kind="node_crash", rate=0.3, site="cluster.node", sticky=True
                ),
            ),
        )
        router = chaos_router(plan)
        verdicts = {
            router._node_down("node_crash", 0, t)
            for t in (0.0, 0.3, 1.7, 9.9)
        }
        assert verdicts == {True}

    def test_transient_partition_churns_per_epoch(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(
                    kind="node_partition", rate=0.5, site="cluster.node"
                ),
            ),
        )
        router = chaos_router(plan)
        epoch_s = router.config.fault_epoch_s
        verdicts = [
            router._node_down("node_partition", 1, epoch * epoch_s)
            for epoch in range(32)
        ]
        assert True in verdicts and False in verdicts
        # within one epoch the verdict is stable (leave/rejoin churn,
        # not per-packet noise)
        assert router._node_down(
            "node_partition", 1, 0.0
        ) == router._node_down("node_partition", 1, epoch_s * 0.99)

    def test_node_plans_strip_router_kinds_and_reseed(self):
        plan = FaultPlan(
            seed=5,
            rules=(
                FaultRule(
                    kind="node_crash", rate=1.0, site="cluster.node", sticky=True
                ),
                FaultRule(kind="straggler", rate=0.2, site="serve.shard"),
            ),
        )
        derived = [node_fault_plan(plan, i) for i in range(3)]
        for node_plan in derived:
            assert [r.kind for r in node_plan.rules] == ["straggler"]
        assert len({p.seed for p in derived}) == 3
        router_only = FaultPlan(
            seed=5,
            rules=(
                FaultRule(
                    kind="node_crash", rate=1.0, site="cluster.node", sticky=True
                ),
            ),
        )
        assert node_fault_plan(router_only, 0) is None
        assert node_fault_plan(None, 0) is None

    def test_node_level_faults_hit_replicas_independently(self):
        # the per-node reseed: replicas must not straggle in lockstep
        draws = {
            fault_draw(
                node_fault_plan(
                    FaultPlan(
                        seed=5,
                        rules=(
                            FaultRule(
                                kind="straggler", rate=0.5, site="serve.shard"
                            ),
                        ),
                    ),
                    node,
                ).seed,
                "straggler",
                "serve.shard",
                "shard=0",
            )
            for node in range(4)
        }
        assert len(draws) == 4


# --------------------------------------------------------------------------- #
# degraded merges stay recall-bounded
# --------------------------------------------------------------------------- #
class TestDegradedMerges:
    def test_lost_partition_yields_bounded_degraded_answer(self):
        # R=1 with node 0 sticky-crashed: exactly one of four partitions
        # has no reachable replica; quorum_f=1 lets the merge proceed
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    kind="node_crash", rate=0.3, site="cluster.node", sticky=True
                ),
            ),
        )
        router = chaos_router(
            plan, replication=1, placement="locality-aware", quorum_f=1
        )
        rng = np.random.default_rng(13)
        data = rng.permutation(np.arange(1 << 15)).astype(np.float32)
        stats = router.run(
            [Request(rid=0, data=data, k=32, largest=True, arrival_s=0.0)]
        )
        outcome = router.outcomes[0]
        assert outcome.status == "degraded"
        assert not outcome.exact
        assert outcome.recall_bound is not None
        assert 0.0 <= outcome.recall_bound < 1.0
        assert stats.lost_partitions == 1
        # the surviving 3/4 of the data still merges correctly: every
        # returned value really is in the top-k of the surviving slices
        assert len(outcome.values) == 32

    def test_quorum_zero_never_degrades_on_a_healthy_cluster(self):
        router = chaos_router(None, quorum_f=0)
        stats = router.run(chaos_trace(count=20))
        assert stats.degraded == 0
        assert stats.availability == 1.0
        assert all(o.exact for o in router.outcomes if o.ok)
