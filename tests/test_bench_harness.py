"""Tests for the ``repro-topk bench`` verb and the gates behind it.

One verb runs the four gated snapshot benches through one name→module
table (:mod:`repro.bench.harness`).  These tests drive every bench end to
end on its tiny grid, check the shared snapshot I/O and ``inspect``, and
feed each gate a snapshot that breaks one of its contracts — every gate
decides pinned vs tiny from the snapshot itself, so ``inspect`` and the
verb always agree.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import adaptbench, clusterbench, recallbench
from repro.bench.harness import BENCHES, load_snapshot, write_snapshot
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """``bench NAME --tiny --out FILE`` once per bench: name -> (rc, path)."""
    root = tmp_path_factory.mktemp("bench")
    runs = {}
    for name in BENCHES:
        path = root / f"{name}.json"
        argv = ["bench", name, "--tiny", "--out", str(path), "-q"]
        if name == "perf":
            argv.append("--no-gate")  # wall-clock needs a baseline
        runs[name] = (main(argv), path)
    return runs


@pytest.mark.parametrize("name", ["perf", "recall", "adapt", "cluster"])
def test_tiny_bench_writes_inspectable_snapshot(
    name, tiny_runs, tmp_path, capsys
):
    rc, path = tiny_runs[name]
    assert rc == 0
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 0
    assert f"valid {name} bench snapshot (gate ok)" in capsys.readouterr().out
    snap = load_snapshot(path)
    assert snap["schema"] == BENCHES[name].module.SCHEMA_ID
    again = write_snapshot(snap, tmp_path / "again.json")
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["perf-bench"],
        ["recall-bench"],
        ["adapt-bench"],
        ["cluster-bench"],
        ["bench", "serve"],
        ["bench", "perf", "--repeats", "1"],
        ["bench", "perf", "--tolerance", "0.5"],
        ["bench", "recall", "--no-serve"],
        ["bench", "adapt", "--gpu-shift", "H100"],
        ["bench", "adapt", "--decisions", "10"],
        ["bench", "cluster", "--nodes", "1,2"],
        ["bench", "cluster", "--replication", "1"],
        ["bench", "cluster", "--placement", "least-loaded"],
        ["bench", "cluster", "--partitions", "2"],
        ["bench", "cluster", "--workers", "2"],
        ["bench", "cluster", "--no-chaos"],
        ["bench", "cluster", "--faults", "plan.json"],
    ],
)
def test_deleted_verbs_and_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_adapt_rejects_a_gpu_that_cannot_shift():
    with pytest.raises(ValueError, match="shift target"):
        main(["bench", "adapt", "--tiny", "--gpu", adaptbench.GPU_SHIFT])


class TestGatesOwnTheirThresholds:
    """Each case doctors a passing tiny snapshot to break one contract."""

    def _snap(self, tiny_runs, name):
        return load_snapshot(tiny_runs[name][1])

    def test_cluster_needs_the_scaling_cell(self, tiny_runs):
        snap = self._snap(tiny_runs, "cluster")
        snap["sweep"] = [c for c in snap["sweep"] if c["nodes"] < 4]
        (failure,) = clusterbench.gate_cluster(snap)
        assert "need both the 1-node and 4-node cells" in failure

    def test_cluster_needs_the_chaos_cell(self, tiny_runs):
        snap = self._snap(tiny_runs, "cluster")
        snap["chaos"] = None
        assert clusterbench.gate_cluster(snap) == [
            "chaos: cell missing from the snapshot"
        ]

    def test_pinned_cluster_load_holds_the_speedup_floor(
        self, tiny_runs, tmp_path, capsys
    ):
        snap = self._snap(tiny_runs, "cluster")
        assert snap["sweep"][-1]["speedup"] < clusterbench.ACCEPT_SPEEDUP
        # the same cells recorded against the pinned load spec
        pinned = clusterbench.sweep_spec()
        snap["spec"].update(n=pinned.n, k=pinned.k,
                            duration_s=pinned.duration_s,
                            payload_pool=pinned.payload_pool)
        (failure,) = clusterbench.gate_cluster(snap)
        assert "4-node capacity" in failure
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(snap))
        assert main(["inspect", str(path)]) == 0
        assert "(gate FAIL)" in capsys.readouterr().out

    def test_adapt_needs_a_defined_ratio(self, tiny_runs):
        snap = self._snap(tiny_runs, "adapt")
        snap["post_shift"]["ratio"] = None
        (failure,) = adaptbench.gate_adapt(snap)
        assert "ratio is undefined" in failure

    def test_recall_needs_the_serving_run(self, tiny_runs):
        snap = self._snap(tiny_runs, "recall")
        snap["serve"].update(requests=0, served=0, approx_served=0)
        (failure,) = recallbench.gate_recall(snap)
        assert "never engaged" in failure
