"""Tests for the chrome-trace exporter and topk's (values, indices) unpacking."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import topk
from repro.device import STREAMS, chrome_trace, write_chrome_trace
from repro.verify import oracle_topk_values


class TestChromeTrace:
    @pytest.fixture()
    def run(self, rng):
        data = rng.standard_normal(50000).astype(np.float32)
        return topk(data, 128, algo="radix_select")

    def test_event_structure(self, run):
        payload = chrome_trace(run.device.timeline, device=run.device)
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(metas) == len(STREAMS)
        assert len(slices) == len(run.device.timeline.events)
        for e in slices:
            assert e["dur"] >= 0
            assert e["ts"] >= 0
            assert e["cat"] in STREAMS

    def test_timestamps_in_microseconds(self, run):
        payload = chrome_trace(run.device.timeline)
        last_end = max(
            e["ts"] + e["dur"] for e in payload["traceEvents"] if e["ph"] == "X"
        )
        assert last_end == pytest.approx(run.device.elapsed * 1e6, rel=0.01)

    def test_kernel_args_attached(self, run):
        payload = chrome_trace(run.device.timeline, device=run.device)
        kernel_events = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "CalculateOccurrence"
        ]
        assert kernel_events
        assert "bytes_read" in kernel_events[0]["args"]

    def test_write_roundtrip(self, run, tmp_path):
        path = write_chrome_trace(run.device, tmp_path / "deep" / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

    def test_streams_are_separate_tracks(self, run):
        payload = chrome_trace(run.device.timeline)
        tids = {
            e["cat"]: e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert tids["gpu"] != tids["cpu"]
        assert len(set(tids.values())) == len(tids)


class TestTopKUnpacking:
    """``values, indices = topk(...)`` — the tuple form v1's select_k gave."""

    def test_matches_oracle(self, rng):
        data = rng.standard_normal((3, 2000)).astype(np.float32)
        values, indices = topk(data, 16, algo="air_topk")
        assert np.array_equal(values, oracle_topk_values(data, 16))
        assert np.array_equal(np.take_along_axis(data, indices, axis=1), values)

    def test_largest(self, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        values, _ = topk(data, 4, algo="air_topk", largest=True)
        assert np.array_equal(values, oracle_topk_values(data, 4, largest=True))

    def test_algo_and_seed_forwarded(self, rng):
        data = rng.standard_normal(5000).astype(np.float32)
        values, _ = topk(data, 8, algo="grid_select", seed=5)
        assert np.array_equal(values, oracle_topk_values(data, 8))
