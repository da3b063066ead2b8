"""The approximate tier: recall contracts, quality dispatch, v2.1 API.

Four layers under test, mirroring docs/approximate.md:

* the analytic recall model and the ``(parts, keep)`` planners — sanity,
  monotonicity, and the floor-vs-expectation ordering;
* the two approximate algorithms — batched/single-shot equivalence, and the
  empirical-recall-clears-the-promised-floor contract (property-tested
  across dtypes, directions, shapes and adversarial ties);
* the quality-aware dispatcher (``choose_plan`` and the ``topk`` facade's
  ``mode=``/``min_recall=`` keywords) — safety margins, conflicts, and
  the byte-identical exact pin;
* the serving layer — cache keying that never aliases exact and
  approximate results, and a seeded mixed load that must finish with
  zero recall violations and a clean recall SLO.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    QualityPlan,
    available_algorithms,
    choose_plan,
    expected_recall,
    recall_floor,
    topk,
)
from repro.approx import plan_buckets, plan_twostage
from repro.datagen import generate

APPROX = ("bucket_approx", "twostage_approx")


def measured_recall(data, values, k, *, largest=False):
    """Value-based recall: ties never penalise an equally good answer."""
    data = np.atleast_2d(data)
    values = np.atleast_2d(values)
    if largest:
        th = np.partition(data, data.shape[1] - k, axis=1)[:, data.shape[1] - k]
        return float((values >= th[:, None]).mean())
    th = np.partition(data, k - 1, axis=1)[:, k - 1]
    return float((values <= th[:, None]).mean())


class TestRecallModel:
    def test_expected_recall_bounds(self):
        for parts, keep in [(64, 1), (1024, 1), (256, 2), (64, 8)]:
            e = expected_recall(1 << 16, 64, parts, keep)
            assert 0.0 < e <= 1.0

    def test_more_buckets_means_more_recall(self):
        n, k = 1 << 16, 64
        es = [expected_recall(n, k, parts, 1) for parts in (256, 1024, 4096)]
        assert es == sorted(es)
        assert es[-1] > es[0]

    def test_deeper_quota_means_more_recall(self):
        n, k = 1 << 18, 128
        es = [expected_recall(n, k, 512, keep) for keep in (1, 2, 4)]
        assert es == sorted(es)
        assert es[-1] > es[0]

    def test_floor_below_expectation(self):
        for n, k, parts, keep in [
            (1 << 14, 32, 512, 1),
            (1 << 18, 256, 1024, 2),
            (1 << 20, 1024, 4096, 2),
        ]:
            assert recall_floor(n, k, parts, keep) <= expected_recall(
                n, k, parts, keep
            )

    def test_planners_return_valid_configs(self):
        for n, k in [(1000, 7), (1 << 16, 64), (1 << 20, 1024), (4096, 4096)]:
            for parts, keep in (
                plan_buckets(n, k, 16 * k),
                plan_twostage(n, k, 4 * k, 2),
            ):
                assert 1 <= parts <= n
                assert keep >= 1
                # survivors must be able to cover the answer
                assert parts * keep >= k

    def test_capability_records_carry_quality_fields(self):
        by_name = {i.name: i for i in available_algorithms()}
        for name in APPROX:
            assert not by_name[name].exact
            assert by_name[name].recall_model == "hypergeometric-occupancy"
        assert by_name["air_topk"].exact
        assert by_name["air_topk"].recall_model is None


class TestApproxAlgorithms:
    @pytest.mark.parametrize("algo", APPROX)
    def test_result_contract(self, algo, rng):
        data = rng.standard_normal((4, 1 << 14)).astype(np.float32)
        r = topk(data, 64, algo=algo)
        assert r.values.shape == (4, 64)
        assert not r.exact
        assert 0.0 < r.recall_bound <= 1.0
        assert r.meta["expected_recall"] >= r.recall_bound
        # best-first ordering and per-row membership still hold
        assert np.all(np.diff(r.values, axis=1) >= 0)
        picked = np.take_along_axis(data, r.indices, axis=1)
        assert np.array_equal(picked, r.values)

    @pytest.mark.parametrize("algo", APPROX)
    def test_fused_matches_per_row(self, algo, rng):
        data = rng.standard_normal((5, 4096)).astype(np.float32)
        fused = topk(data, 32, algo=algo, seed=3)
        rows = [topk(data[r], 32, algo=algo, seed=3) for r in range(5)]
        assert np.array_equal(fused.values, np.stack([r.values for r in rows]))
        assert np.array_equal(fused.indices, np.stack([r.indices for r in rows]))

    @pytest.mark.parametrize("algo", APPROX)
    def test_unpacks_as_two_tuple(self, algo, rng):
        data = rng.standard_normal(4096).astype(np.float32)
        values, indices = topk(data, 16, algo=algo)
        assert values.shape == indices.shape == (16,)

    @settings(max_examples=25, deadline=None)
    @given(
        algo=st.sampled_from(APPROX),
        n_exp=st.integers(min_value=11, max_value=16),
        k=st.sampled_from([8, 64, 256]),
        batch=st.sampled_from([1, 3]),
        largest=st.booleans(),
        dtype=st.sampled_from(["float16", "float32", "float64", "int32", "uint64"]),
        distribution=st.sampled_from(["uniform", "normal", "adversarial"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_empirical_recall_clears_floor(
        self, algo, n_exp, k, batch, largest, dtype, distribution, seed
    ):
        """The promised floor holds empirically, whatever the payload."""
        n = 1 << n_exp
        data = generate(distribution, n, batch=batch, seed=seed)
        if dtype != "float32":
            # rescale into a safe range before casting to integer keys
            if np.dtype(dtype).kind in "iu":
                lo = 0 if np.dtype(dtype).kind == "u" else -(1 << 20)
                data = (
                    np.interp(data, (data.min(), data.max()), (lo, 1 << 20))
                ).astype(dtype)
            else:
                data = data.astype(dtype)
        r = topk(data, k, algo=algo, largest=largest, seed=seed)
        rec = measured_recall(data, r.values, k, largest=largest)
        assert rec >= r.recall_bound, (
            f"{algo} empirical recall {rec:.4f} below promised "
            f"{r.recall_bound:.4f} (n={n}, k={k}, {dtype}, {distribution})"
        )


class TestQualityDispatch:
    def test_choose_plan_prefers_cheapest_eligible(self):
        plan = choose_plan(n=1 << 18, k=256, batch=4, min_recall=0.9)
        assert isinstance(plan, QualityPlan)
        assert not plan.exact  # some approximate plan clears 0.9 + margin
        # the safety margin: expected recall covers half the allowed slack
        assert plan.predicted_recall >= 1.0 - (1.0 - 0.9) / 2.0

    def test_tighter_target_falls_back_to_exact(self):
        loose = choose_plan(n=1 << 16, k=64, min_recall=0.5)
        strict = choose_plan(n=1 << 16, k=64, min_recall=0.99999)
        assert not loose.exact
        assert strict.exact
        assert strict.recall_floor == 1.0

    def test_approx_only_raises_when_impossible(self):
        with pytest.raises(ValueError, match="no approximate plan"):
            choose_plan(n=1 << 16, k=64, min_recall=0.99999, include_exact=False)

    def test_dispatcher_never_promises_below_target(self):
        """Across a grid of targets, the chosen plan's contract holds."""
        for n_exp in (14, 18, 20):
            for k in (32, 256):
                for target in (0.5, 0.9, 0.95, 0.99):
                    plan = choose_plan(n=1 << n_exp, k=k, min_recall=target)
                    required = 1.0 - (1.0 - target) / 2.0
                    assert plan.exact or plan.predicted_recall >= required

    def test_facade_quality_dispatch_annotates_meta(self, rng):
        data = rng.standard_normal(1 << 16).astype(np.float32)
        r = topk(data, 64, min_recall=0.9)
        d = r.meta["dispatch"]
        assert d["min_recall"] == 0.9
        assert d["algo"] in APPROX or r.exact

    def test_facade_mode_approx_forces_the_tier(self, rng):
        data = rng.standard_normal(1 << 14).astype(np.float32)
        r = topk(data, 32, mode="approx")
        assert not r.exact
        assert r.meta["dispatch"]["algo"] in APPROX

    def test_facade_conflicts_raise(self, rng):
        data = rng.standard_normal(4096).astype(np.float32)
        with pytest.raises(ValueError, match="min_recall conflicts"):
            topk(data, 16, mode="exact", min_recall=0.9)
        with pytest.raises(ValueError, match="conflicts with approximate"):
            topk(data, 16, mode="exact", algo="bucket_approx")
        with pytest.raises(ValueError, match="conflicts with exact"):
            topk(data, 16, mode="approx", algo="air_topk")
        with pytest.raises(ValueError, match="below the min_recall"):
            topk(data, 16, algo="bucket_approx", min_recall=0.99999)
        with pytest.raises(ValueError, match="mode must be"):
            topk(data, 16, mode="fast")

    def test_exact_pin_is_byte_identical(self, rng):
        """mode="exact" is the pre-quality facade, bit for bit."""
        data = rng.standard_normal(1 << 14).astype(np.float32)
        default = topk(data, 64, seed=5)
        pinned = topk(data, 64, seed=5, mode="exact")
        assert default.exact and pinned.exact
        assert default.time == pinned.time
        assert np.array_equal(default.values, pinned.values)
        assert np.array_equal(default.indices, pinned.indices)

    def test_bare_auto_never_dispatches_approx(self, rng):
        data = rng.standard_normal(1 << 14).astype(np.float32)
        r = topk(data, 64)
        assert r.exact
        assert "dispatch" not in r.meta


class TestServeQuality:
    def test_cache_never_aliases_exact_and_approx(self, rng):
        from repro.serve import ServeCache

        cache = ServeCache()
        data = rng.standard_normal(256).astype(np.float32)
        exact_v, exact_i = np.zeros(4), np.arange(4)
        cache.put_result(data, 4, False, exact_v, exact_i)
        cache.put_result(
            data, 4, False, exact_v + 1, exact_i + 1, quality=0.95,
            meta={"exact": False, "recall_bound": 0.9, "expected_recall": 0.97},
        )
        values, indices, meta = cache.get_result(data, 4, False)
        assert np.array_equal(indices, exact_i)
        assert meta == {}
        values, indices, meta = cache.get_result(data, 4, False, quality=0.95)
        assert np.array_equal(indices, exact_i + 1)
        assert meta["recall_bound"] == 0.9
        # distinct quality classes never alias either
        assert cache.get_result(data, 4, False, quality=0.9) is None

    def test_quality_class_quantisation(self):
        from repro.serve import quality_class

        assert quality_class(None) is None
        assert quality_class(0.95) == 0.95
        assert quality_class(0.95000004) == 0.95
        assert quality_class(0.9) != quality_class(0.95)

    def test_mixed_load_zero_recall_violations(self):
        from repro import obs
        from repro.serve import LoadSpec, ServeConfig, run_serve_bench

        spec = LoadSpec(
            qps=300.0,
            duration_s=0.5,
            n=1 << 16,
            k=64,
            min_recall=0.95,
            approx_fraction=0.5,
            seed=7,
        )
        report, service = run_serve_bench(spec, ServeConfig(algo="auto"))
        s = report.stats
        assert s.approx_served > 0, "quality dispatch never engaged"
        assert s.recall_violations == 0
        # the recall SLO grades clean over the same run
        payload = obs.build_serve_report(
            service.telemetry,
            s,
            config={},
            slos=[obs.SLOSpec("recall-999", "recall", 0.999)],
        )
        (slo,) = payload["slos"]
        assert slo["sli"] == 1.0
        assert not slo["violated"]

    def test_quality_off_trace_is_byte_identical(self):
        from repro.serve import LoadSpec, build_requests

        base = build_requests(LoadSpec(qps=200, duration_s=0.25, seed=3))
        off = build_requests(
            LoadSpec(qps=200, duration_s=0.25, seed=3, approx_fraction=0.0,
                     min_recall=None)
        )
        assert len(base) == len(off)
        for a, b in zip(base, off):
            assert a.arrival_s == b.arrival_s
            assert a.slo is None and b.slo is None
            assert np.array_equal(a.data, b.data)


class TestRecallBench:
    def test_tiny_snapshot_validates_and_gates(self):
        from repro.bench import recallbench as rb

        snap = rb.collect_snapshot(tiny=True, seed=0)
        assert snap["schema"] == rb.SCHEMA_ID
        (cell,) = snap["cells"]
        assert cell["points"], "no approximate points measured"
        for p in cell["points"]:
            assert p["gate_ok"]
            assert p["qps_capacity"] > 0
        # speedup gate only applies to acceptance regimes (tiny has none)
        assert rb.gate_recall(snap) == []
        # the same cells at another size are not the tiny grid, so the
        # missing acceptance regime fails
        cell["n"] *= 2
        assert rb.gate_recall(snap) == [
            "pinned regimes lost their acceptance cell"
        ]

    def test_gate_flags_floor_miss_and_headline_miss(self):
        from repro.bench import recallbench as rb

        snap = {
            "schema": rb.SCHEMA_ID,
            "rev": "test",
            "gpu": "A100",
            "seed": 0,
            "cells": [
                {
                    "n": 1 << 14,
                    "k": 64,
                    "batch": 4,
                    "distribution": "uniform",
                    "acceptance": True,
                    "exact_algo": "air_topk",
                    "exact_time_s": 1e-5,
                    "points": [
                        {
                            "algo": "bucket_approx",
                            "label": "b=16k",
                            "params": {},
                            "sim_time_s": 9e-6,
                            "speedup": 1.1,
                            "qps_capacity": 4e5,
                            "expected_recall": 0.97,
                            "recall_floor": 0.9,
                            "empirical_recall": 0.85,
                            "gate_ok": False,
                        }
                    ],
                }
            ],
            "serve": {
                "requests": 10,
                "served": 10,
                "approx_served": 0,
                "recall_violations": 1,
                "min_recall": 0.95,
                "approx_fraction": 0.5,
            },
        }
        failures = rb.gate_recall(snap)
        assert any("below promised floor" in f for f in failures)
        assert any("best speedup" in f for f in failures)
        assert any("recall_violations" in f or "below" in f for f in failures)
        assert any("never engaged" in f for f in failures)
