"""One harness for the gated snapshot benches behind ``repro-topk bench``.

Each bench module measures one claim into a schema-validated JSON
snapshot and follows the same shape:

* ``SCHEMA_ID`` / ``SNAPSHOT_SCHEMA`` — the snapshot's schema;
* ``collect_snapshot(tiny, *, gpu, seed)`` — measure the pinned grid (or
  the reduced ``tiny`` smoke grid) into a snapshot;
* a gate — every violation in a snapshot, empty when it passes.  The
  gate is the only place its thresholds are checked, and it tells a
  pinned snapshot from a tiny one by what the snapshot records;
* a renderer — the report the CLI prints.

:data:`BENCHES` maps the CLI name to those pieces; :func:`write_snapshot`
and :func:`load_snapshot` validate any bench snapshot against the schema
its ``schema`` field names.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

from ..obs.schema import SchemaError, validate
from . import adaptbench, clusterbench, perfgate, recallbench


class Bench(NamedTuple):
    """One gated bench: its module (schema + ``collect_snapshot``), its
    gate and its report renderer."""

    module: ModuleType
    gate: Callable[..., list[str]]
    render: Callable[[dict], str]


BENCHES: dict[str, Bench] = {
    "perf": Bench(perfgate, perfgate.gate_perf, perfgate.render_perf_report),
    "recall": Bench(
        recallbench, recallbench.gate_recall, recallbench.render_recall_report
    ),
    "adapt": Bench(
        adaptbench, adaptbench.gate_adapt, adaptbench.render_adapt_report
    ),
    "cluster": Bench(
        clusterbench, clusterbench.gate_cluster, clusterbench.render_cluster_report
    ),
}

#: snapshot schema id -> bench name
BY_SCHEMA: dict[str, str] = {
    bench.module.SCHEMA_ID: name for name, bench in BENCHES.items()
}


def _validate(snapshot: dict) -> None:
    schema = snapshot.get("schema") if isinstance(snapshot, dict) else None
    if schema not in BY_SCHEMA:
        raise SchemaError([f"$.schema: unknown bench snapshot schema {schema!r}"])
    validate(snapshot, BENCHES[BY_SCHEMA[schema]].module.SNAPSHOT_SCHEMA)


def write_snapshot(snapshot: dict, path: Path | str) -> Path:
    """Validate ``snapshot`` and write it as sorted, indented JSON."""
    _validate(snapshot)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: Path | str) -> dict:
    """Read a bench snapshot and validate it against its schema."""
    payload = json.loads(Path(path).read_text())
    _validate(payload)
    return payload
