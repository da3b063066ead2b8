"""Tests for the perf-gate harness (``repro.bench.perfgate``).

The gate's job is to catch a de-fused hot path: a wall-clock regression on
a pinned workload grid, measured against a baseline ``BENCH_*.json``
snapshot.  These tests pin the snapshot schema, the grid-coverage check,
and — the part that must never silently rot — that the comparator actually
flags an artificially slowed run and passes an identical one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.bench import perfgate
from repro.bench.harness import load_snapshot, write_snapshot
from repro.cli import main
from repro.obs.schema import SchemaError, validate

REPO_ROOT = Path(__file__).resolve().parents[1]


def _snapshot(cells, rev="abc1234"):
    return {
        "schema": perfgate.SCHEMA_ID,
        "rev": rev,
        "gpu": "A100",
        "repeats": 1,
        "seed": 0,
        "cells": cells,
    }


def _cell(algo="air_topk", n=4096, k=16, batch=8, hot=True, sim=1e-4, wall=0.01):
    return {
        "algo": algo,
        "n": n,
        "k": k,
        "batch": batch,
        "hot": hot,
        "sim_time_s": sim,
        "wall_s": wall,
    }


class TestSnapshotRoundTrip:
    def test_collect_validate_write_load(self, tmp_path):
        snap = perfgate.collect_snapshot(tiny=True, rev="deadbee")
        validate(snap, perfgate.SNAPSHOT_SCHEMA)  # already validated inside
        assert len(snap["cells"]) == len(perfgate.TINY_GRID)
        assert snap["repeats"] == perfgate.REPEATS
        for cell in snap["cells"]:
            assert cell["sim_time_s"] > 0
            assert cell["wall_s"] > 0
        path = write_snapshot(snap, tmp_path / "BENCH_deadbee.json")
        assert load_snapshot(path) == snap

    def test_committed_snapshots_still_load(self):
        # pre-3.0 snapshots carry the retired fused-speedup fields
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            snap = load_snapshot(path)
            assert snap["cells"], path.name

    def test_invalid_snapshot_rejected(self, tmp_path):
        snap = _snapshot([_cell()])
        del snap["cells"][0]["wall_s"]
        with pytest.raises(SchemaError):
            write_snapshot(snap, tmp_path / "bad.json")
        good = _snapshot([_cell()])
        path = write_snapshot(good, tmp_path / "good.json")
        corrupted = json.loads(path.read_text())
        corrupted["schema"] = "something/else"
        path.write_text(json.dumps(corrupted))
        with pytest.raises(SchemaError):
            load_snapshot(path)


class TestComparator:
    def test_identical_snapshots_pass(self):
        base = _snapshot([_cell(), _cell(algo="bucket_select")])
        report = perfgate.compare_snapshots(base, base)
        assert report.ok and not report.notes

    def test_hot_wall_regression_fails(self):
        base = _snapshot([_cell(wall=0.010)])
        cur = _snapshot([_cell(wall=0.013)])  # +30% > 25% tolerance
        report = perfgate.compare_snapshots(base, cur)
        assert not report.ok
        assert "1.30x" in report.regressions[0]

    def test_tolerance_is_configurable(self):
        base = _snapshot([_cell(wall=0.010)])
        cur = _snapshot([_cell(wall=0.013)])
        assert perfgate.compare_snapshots(base, cur, tolerance=0.5).ok
        with pytest.raises(ValueError):
            perfgate.compare_snapshots(base, cur, tolerance=-0.1)

    def test_cold_cells_note_but_never_fail(self):
        base = _snapshot([_cell(hot=False, wall=0.010)])
        cur = _snapshot([_cell(hot=False, wall=0.100)])
        report = perfgate.compare_snapshots(base, cur)
        assert report.ok
        assert any("cold" in note for note in report.notes)

    def test_sim_time_drift_is_noted(self):
        base = _snapshot([_cell(sim=1e-4)])
        cur = _snapshot([_cell(sim=2e-4)])
        report = perfgate.compare_snapshots(base, cur)
        assert report.ok
        assert any("simulated time changed" in note for note in report.notes)

    def test_new_and_removed_cells_are_notes(self):
        base = _snapshot([_cell(), _cell(algo="sort")])
        cur = _snapshot([_cell(), _cell(algo="bucket_select")])
        report = perfgate.compare_snapshots(base, cur)
        assert report.ok
        assert any("new cell" in note for note in report.notes)
        assert any("removed" in note for note in report.notes)


class TestGateEndToEnd:
    """Tiny grid, run twice: identical runs pass, a monkeypatched slowdown
    in the measured path is flagged as a regression."""

    def test_identical_runs_pass(self):
        a = perfgate.collect_snapshot(tiny=True, rev="aaaaaaa")
        b = perfgate.collect_snapshot(tiny=True, rev="bbbbbbb")
        report = perfgate.compare_snapshots(a, b, tolerance=5.0)
        assert report.ok
        # simulated time is deterministic: bit-equal across runs, no notes
        assert not any("simulated" in note for note in report.notes)

    def test_slowed_run_is_flagged(self, monkeypatch):
        baseline = perfgate.collect_snapshot(tiny=True, rev="aaaaaaa")
        real = perfgate.simulate_topk

        def slowed(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(perfgate, "simulate_topk", slowed)
        slow = perfgate.collect_snapshot(tiny=True, rev="bbbbbbb")
        report = perfgate.compare_snapshots(baseline, slow)
        assert not report.ok
        assert len(report.regressions) == len(perfgate.TINY_GRID)


class TestGateCoverage:
    """The gate works out pinned vs tiny from the cells the snapshot holds
    and fails a snapshot that lost a hot cell of its grid."""

    @staticmethod
    def _grid_snapshot(grid):
        return _snapshot(
            [_cell(c.algo, c.n, c.k, c.batch, hot=c.hot) for c in grid]
        )

    def test_complete_grids_pass(self):
        assert perfgate.gate_perf(self._grid_snapshot(perfgate.TINY_GRID)) == []
        assert perfgate.gate_perf(self._grid_snapshot(perfgate.PINNED_GRID)) == []

    def test_missing_pinned_hot_cell_fails(self):
        grid = [c for c in perfgate.PINNED_GRID if c.algo != "quick_select"]
        failures = perfgate.gate_perf(self._grid_snapshot(grid))
        assert len(failures) == 1
        assert "quick_select(n=2048, k=16, batch=100)" in failures[0]

    def test_committed_snapshots_inspect(self, capsys):
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            assert main(["inspect", str(path)]) == 0
            assert "valid perf bench snapshot" in capsys.readouterr().out


class TestPerfBenchCLI:
    def test_baseline_is_required_unless_no_gate(self, tmp_path):
        assert main(["bench", "perf", "--tiny"]) == 2
        assert main(["bench", "recall", "--baseline", "x.json"]) == 2
        assert main(["bench", "perf", "--tiny", "--no-gate"]) == 0

    def test_baseline_must_be_a_perf_snapshot(self, tmp_path):
        serve = dict.fromkeys(
            ("requests", "served", "approx_served", "recall_violations"), 0
        )
        serve.update(min_recall=0.0, approx_fraction=0.0)
        recall = {"schema": "repro.bench.recall/v1", "rev": "x", "gpu": "A100",
                  "seed": 0, "cells": [], "serve": serve}
        path = write_snapshot(recall, tmp_path / "recall.json")
        assert main(["bench", "perf", "--tiny", "--baseline", str(path)]) == 2

    def test_writes_snapshot_then_gates_against_it(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        args = ["bench", "perf", "--tiny"]
        assert main(args + ["--no-gate", "--out", str(base)]) == 0
        capsys.readouterr()
        snap = load_snapshot(base)
        for scale, name in ((100.0, "slow.json"), (0.01, "fast.json")):
            doctored = json.loads(json.dumps(snap))
            for cell in doctored["cells"]:
                cell["wall_s"] *= scale
            write_snapshot(doctored, tmp_path / name)
        # a baseline 100x slower than this host: the gate passes
        assert main(args + ["--baseline", str(tmp_path / "slow.json")]) == 0
        assert "perf gate: ok" in capsys.readouterr().out
        # a baseline 100x faster: every hot cell regressed
        assert main(args + ["--baseline", str(tmp_path / "fast.json")]) == 1
        out = capsys.readouterr().out
        assert out.count("REGRESSION") == len(perfgate.TINY_GRID)
