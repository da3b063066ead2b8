"""Tests for the performance layer: scaled execution and SOL metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import UnsupportedProblem
from repro.datagen import generate
from repro.device import A100, H100, Device
from repro.perf import (
    MIN_SCALED_N,
    SimulatedRun,
    scale_factors,
    simulate_topk,
    sol_report,
)
from repro.perf import scaled


class TestScaleFactors:
    def test_exact_below_cap(self):
        n_s, k_s, scale = scale_factors(1 << 16, 100, 1, cap=1 << 20)
        assert (n_s, k_s, scale) == (1 << 16, 100, 1.0)

    def test_scaled_above_cap(self):
        n_s, k_s, scale = scale_factors(1 << 30, 2048, 1, cap=1 << 20)
        assert n_s == 1 << 20
        assert scale == pytest.approx(1 << 10)
        assert k_s == 2  # k shrinks by the same factor

    def test_k_floor(self):
        n_s, k_s, scale = scale_factors(1 << 30, 10, 1, cap=1 << 20)
        assert k_s == 1

    def test_ratio_preserved_for_k_equals_n(self):
        n_s, k_s, scale = scale_factors(1 << 28, 1 << 28, 1, cap=1 << 18)
        assert k_s == n_s

    def test_batch_shares_cap(self):
        n_s, _, _ = scale_factors(1 << 20, 10, 100, cap=1 << 20)
        assert n_s >= MIN_SCALED_N
        assert n_s * 100 <= max(1 << 20, MIN_SCALED_N * 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_factors(0, 1, 1, cap=100)
        with pytest.raises(ValueError):
            scale_factors(10, 11, 1, cap=100)
        with pytest.raises(ValueError):
            scale_factors(10, 1, 1, cap=0)


class TestSimulateTopk:
    def test_exact_mode_carries_result(self):
        run = simulate_topk(
            "air_topk", distribution="uniform", n=1 << 14, k=64
        )
        assert run.mode == "exact"
        assert run.result is not None
        assert run.time == run.result.time

    def test_scaled_mode(self):
        run = simulate_topk(
            "air_topk", distribution="uniform", n=1 << 26, k=256, cap=1 << 18
        )
        assert run.mode == "scaled"
        assert run.result is None
        assert run.device.scale > 1

    def test_scaled_time_tracks_exact(self):
        """At a size both modes can run, they agree within a few percent."""
        n, k = 1 << 20, 512
        exact = simulate_topk(
            "air_topk", distribution="uniform", n=n, k=k, cap=1 << 22
        )
        scaled = simulate_topk(
            "air_topk", distribution="uniform", n=n, k=k, cap=1 << 16
        )
        assert scaled.time == pytest.approx(exact.time, rel=0.2)

    def test_scaled_queue_algorithm_tracks_exact(self):
        n, k = 1 << 20, 64
        exact = simulate_topk(
            "grid_select", distribution="uniform", n=n, k=k, cap=1 << 22
        )
        scaled = simulate_topk(
            "grid_select", distribution="uniform", n=n, k=k, cap=1 << 16
        )
        assert scaled.time == pytest.approx(exact.time, rel=0.35)

    def test_unsupported_problem_propagates(self):
        with pytest.raises(UnsupportedProblem):
            simulate_topk(
                "warp_select", distribution="uniform", n=1 << 26, k=4096, cap=1 << 16
            )

    def test_unsupported_uses_nominal_k(self):
        """k scales below the cap, but support is checked on nominal k."""
        with pytest.raises(UnsupportedProblem):
            simulate_topk(
                "bitonic_topk", distribution="uniform", n=1 << 26, k=512, cap=1 << 16
            )

    def test_grid_input_generated_once_and_read_only(self, monkeypatch):
        drawn = []

        def counting_generate(*args, **kwargs):
            drawn.append(generate(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(scaled, "generate", counting_generate)
        scaled._grid_input.cache_clear()
        try:
            cell = dict(distribution="normal", n=1 << 12, batch=2, seed=3)
            for algo, k in (("sort", 8), ("air_topk", 8), ("sort", 64)):
                simulate_topk(algo, k=k, **cell)
            assert len(drawn) == 1
            data = drawn[0]
            assert scaled._grid_input("normal", 1 << 12, 2, 3, 20) is data
            with pytest.raises(ValueError):
                data[0, 0] = 0.0
            # any other key draws a new input
            simulate_topk("sort", k=8, **{**cell, "seed": 4})
            simulate_topk("sort", k=8, **cell)
            assert len(drawn) == 3
            assert np.array_equal(drawn[2], data) and drawn[2] is not data
        finally:
            scaled._grid_input.cache_clear()

    def test_explicit_data(self, rng):
        data = rng.standard_normal(5000).astype(np.float32)
        run = simulate_topk(
            "sort", distribution="unused", n=5000, k=10, data=data
        )
        assert run.mode == "exact"
        assert np.array_equal(run.result.values[0], np.sort(data)[:10])

    def test_explicit_data_shape_checked(self, rng):
        with pytest.raises(ValueError):
            simulate_topk(
                "sort",
                distribution="unused",
                n=100,
                k=10,
                data=rng.standard_normal(99).astype(np.float32),
            )

    def test_spec_forwarded(self):
        run = simulate_topk(
            "air_topk", distribution="uniform", n=1 << 24, k=256, spec=H100
        )
        assert run.device.spec is H100

    def test_algo_kwargs_forwarded(self):
        on = simulate_topk(
            "air_topk", distribution="adversarial", n=1 << 22, k=64, cap=1 << 18
        )
        off = simulate_topk(
            "air_topk",
            distribution="adversarial",
            n=1 << 22,
            k=64,
            cap=1 << 18,
            adaptive=False,
        )
        assert off.time > on.time


class TestSolReport:
    def test_air_report_shape(self):
        run = simulate_topk("air_topk", distribution="uniform", n=1 << 20, k=2048)
        rows = sol_report(run.device)
        names = [r.name for r in rows]
        assert "iteration_fused_kernel(1)" in names
        assert sum(r.time_fraction for r in rows) == pytest.approx(1.0)
        for r in rows:
            assert 0.0 <= r.memory_sol <= 1.0
            assert 0.0 <= r.compute_sol <= 1.0

    def test_streaming_kernel_is_memory_bound(self):
        """The paper's Table 3 observation: the big fused kernels sit near
        the memory roofline with moderate compute utilisation."""
        run = simulate_topk(
            "air_topk", distribution="uniform", n=1 << 30, k=2048, cap=1 << 20
        )
        rows = {r.name: r for r in sol_report(run.device)}
        k1 = rows["iteration_fused_kernel(1)"]
        assert k1.memory_sol > 0.75
        assert k1.compute_sol < k1.memory_sol

    def test_formatted_row(self):
        run = simulate_topk("air_topk", distribution="uniform", n=1 << 16, k=16)
        row = sol_report(run.device)[0].row()
        assert len(row) == 4
        assert row[1].endswith("%")

    def test_empty_device(self):
        assert sol_report(Device(A100)) == []
