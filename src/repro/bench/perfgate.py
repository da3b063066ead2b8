"""Performance gate: pinned workload grid → ``BENCH_<rev>.json`` trajectory.

The fused batched hot paths (AIR Top-K, BucketSelect, the queue family)
are pure-Python emulations, so their *host wall-clock* is a real, easily
regressed quantity — a careless per-row loop reappearing in a fused path
shows up as a 10-100x slowdown long before any simulated-time drift.  This
module pins a small workload grid and measures, per cell:

* ``sim_time_s`` — simulated device seconds (deterministic; any change is
  a cost-model or accounting change, never noise);
* ``wall_s`` — best-of-:data:`REPEATS` host wall-clock of the emulation.

Snapshots written before 3.0 also carry ``wall_unfused_s`` /
``fused_speedup`` per cell and ``batch100_fused_speedup``, measured
against per-row execution paths that no longer exist; the schema keeps
them optional so those snapshots still load.

Snapshots are schema-validated JSON (``repro.bench.perfgate/v1``),
committed as ``BENCH_<rev>.json`` at the repository root.
:func:`gate_perf` checks that every hot cell of the grid was measured
and, given a baseline snapshot, fails hot cells whose wall-clock regressed
beyond :data:`DEFAULT_TOLERANCE` (:func:`compare_snapshots`; simulated
times must match exactly).  Run it with ``repro-topk bench perf
--baseline BENCH_<rev>.json`` — see docs/execution.md.
"""

from __future__ import annotations

import logging
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.schema import validate
from ..perf import simulate_topk
from .report import format_table, format_time

logger = logging.getLogger(__name__)

SCHEMA_ID = "repro.bench.perfgate/v1"

#: wall-clock regression tolerance of the gate (25% — generous enough for
#: shared CI runners, tight enough to catch a de-fused hot path)
DEFAULT_TOLERANCE = 0.25

#: wall-clock is the best of this many runs per cell
REPEATS = 3


@dataclass(frozen=True)
class GateCell:
    """One pinned workload of the perf-gate grid."""

    algo: str
    n: int
    k: int
    batch: int
    #: hot cells gate the build: a wall-clock regression beyond tolerance
    #: fails the comparison; cold cells are recorded but informational
    hot: bool = True


#: the pinned grid.  The batch=100 cells sit in the overhead-dominated
#: regime (small rows, many of them) where per-row scheduling cost — not
#: element math — is the bill, which is precisely what batch fusion
#: removes.  The large single-problem cell and the deliberately serial
#: sort baseline guard the math-dominated regime.
PINNED_GRID: tuple[GateCell, ...] = (
    GateCell("air_topk", 1024, 16, 100),
    GateCell("bucket_select", 2048, 16, 100),
    GateCell("bucket_select", 2048, 64, 100),
    GateCell("quick_select", 2048, 16, 100),
    GateCell("sample_select", 2048, 16, 100),
    GateCell("grid_select", 1 << 16, 64, 100),
    GateCell("air_topk", 1 << 18, 256, 1),
    GateCell("sort", 1 << 14, 64, 16, hot=False),
)

#: reduced grid for tests and smoke runs
TINY_GRID: tuple[GateCell, ...] = (
    GateCell("air_topk", 4096, 16, 8),
    GateCell("bucket_select", 4096, 16, 8),
)

SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["schema", "rev", "gpu", "repeats", "seed", "cells"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "rev": {"type": "string"},
        "gpu": {"type": "string"},
        "repeats": {"type": "integer"},
        "seed": {"type": "integer"},
        # optional, written only by pre-3.0 snapshots (see module docstring)
        "batch100_fused_speedup": {"type": "number"},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "algo", "n", "k", "batch", "hot", "sim_time_s", "wall_s",
                ],
                "properties": {
                    "algo": {"type": "string"},
                    "n": {"type": "integer"},
                    "k": {"type": "integer"},
                    "batch": {"type": "integer"},
                    "hot": {"type": "boolean"},
                    "sim_time_s": {"type": "number"},
                    "wall_s": {"type": "number"},
                    "wall_unfused_s": {"type": "number"},
                    "fused_speedup": {"type": "number"},
                },
            },
        },
    },
}


def git_rev(root: Path | str = ".") -> str:
    """Short git revision of ``root``, or ``"local"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _measure(cell: GateCell, *, gpu: str, seed: int):
    """Best-of-:data:`REPEATS` wall-clock and the (deterministic) sim time.

    The workload is generated once, outside the timed region, so ``wall``
    measures the emulated algorithm itself and not ``datagen``."""
    from ..datagen import generate
    from ..device import get_spec

    spec = get_spec(gpu)
    data = generate("uniform", n=cell.n, batch=cell.batch, seed=seed)
    wall = float("inf")
    sim = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = simulate_topk(
            cell.algo,
            distribution="uniform",
            n=cell.n,
            k=cell.k,
            batch=cell.batch,
            spec=spec,
            seed=seed,
            data=data,
        )
        wall = min(wall, time.perf_counter() - start)
        sim = run.time
    return sim, wall


def collect_snapshot(
    tiny: bool = False,
    *,
    gpu: str = "A100",
    seed: int = 0,
    rev: str | None = None,
) -> dict:
    """Measure every cell of the pinned (or ``tiny``) grid and return a
    validated snapshot payload."""
    cells = []
    for cell in TINY_GRID if tiny else PINNED_GRID:
        sim, wall = _measure(cell, gpu=gpu, seed=seed)
        cells.append(
            {
                "algo": cell.algo,
                "n": cell.n,
                "k": cell.k,
                "batch": cell.batch,
                "hot": cell.hot,
                "sim_time_s": sim,
                "wall_s": wall,
            }
        )
        logger.info(
            "%s n=%d k=%d batch=%d: sim %s wall %.4fs",
            cell.algo, cell.n, cell.k, cell.batch, format_time(sim), wall,
        )
    snapshot = {
        "schema": SCHEMA_ID,
        "rev": rev if rev is not None else git_rev(),
        "gpu": gpu,
        "repeats": REPEATS,
        "seed": int(seed),
        "cells": cells,
    }
    validate(snapshot, SNAPSHOT_SCHEMA)
    return snapshot


@dataclass
class GateReport:
    """Outcome of one snapshot comparison."""

    #: hot-cell wall-clock regressions beyond tolerance — these fail CI
    regressions: list[str] = field(default_factory=list)
    #: informational lines: cold-cell drift, new/removed cells, sim drift
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _cell_key(entry: dict) -> tuple:
    return (entry["algo"], entry["n"], entry["k"], entry["batch"])


def compare_snapshots(
    baseline: dict, current: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> GateReport:
    """Gate ``current`` against ``baseline``.

    A *hot* cell whose wall-clock exceeds the baseline by more than
    ``tolerance`` (fractional, default 25%) is a regression.  Simulated
    times are deterministic, so any ``sim_time_s`` change is surfaced as a
    note — it means the cost accounting itself changed, which a PR should
    be stating loudly anyway.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    report = GateReport()
    base = {_cell_key(c): c for c in baseline["cells"]}
    for entry in current["cells"]:
        key = _cell_key(entry)
        label = "{}(n={}, k={}, batch={})".format(*key)
        ref = base.pop(key, None)
        if ref is None:
            report.notes.append(f"{label}: new cell, no baseline")
            continue
        if entry["sim_time_s"] != ref["sim_time_s"]:
            report.notes.append(
                f"{label}: simulated time changed "
                f"{ref['sim_time_s']:.6e} -> {entry['sim_time_s']:.6e}"
            )
        limit = ref["wall_s"] * (1.0 + tolerance)
        if entry["wall_s"] > limit:
            ratio = entry["wall_s"] / ref["wall_s"] if ref["wall_s"] else float("inf")
            line = (
                f"{label}: wall {ref['wall_s']:.4f}s -> "
                f"{entry['wall_s']:.4f}s ({ratio:.2f}x, tolerance "
                f"{1.0 + tolerance:.2f}x)"
            )
            if entry["hot"]:
                report.regressions.append(line)
            else:
                report.notes.append(f"cold {line}")
    for key in base:
        report.notes.append(
            "{}(n={}, k={}, batch={}): cell removed".format(*key)
        )
    return report


def gate_perf(snapshot: dict, baseline: dict | None = None) -> list[str]:
    """Every gate violation in ``snapshot`` (empty list = gate passes).

    Every hot cell of the grid the snapshot was measured on must be
    present — the tiny grid when the snapshot holds exactly its cells,
    the pinned grid otherwise.  Against a ``baseline``, every hot-cell
    wall-clock regression beyond :data:`DEFAULT_TOLERANCE` fails; the
    comparison's informational notes go to the log.
    """
    measured = {_cell_key(c) for c in snapshot["cells"]}
    tiny = {(c.algo, c.n, c.k, c.batch) for c in TINY_GRID}
    grid = TINY_GRID if measured == tiny else PINNED_GRID
    failures = [
        f"{c.algo}(n={c.n}, k={c.k}, batch={c.batch}): pinned hot cell "
        "missing from the snapshot"
        for c in grid
        if c.hot and (c.algo, c.n, c.k, c.batch) not in measured
    ]
    if baseline is not None:
        report = compare_snapshots(baseline, snapshot)
        for note in report.notes:
            logger.info("note: %s", note)
        failures += [f"REGRESSION {line}" for line in report.regressions]
    return failures


def render_perf_report(snapshot: dict) -> str:
    """The per-cell table ``repro-topk bench perf`` prints."""
    rows = [
        (
            c["algo"],
            c["n"],
            c["k"],
            c["batch"],
            "hot" if c["hot"] else "cold",
            format_time(c["sim_time_s"]),
            f"{c['wall_s']:.4f}s",
        )
        for c in snapshot["cells"]
    ]
    return (
        f"bench perf on {snapshot['gpu']} (rev {snapshot['rev']}, "
        f"best of {snapshot['repeats']})\n"
        + format_table(["algo", "n", "k", "batch", "gate", "sim", "wall"], rows)
    )
