"""Record the sweep's simulated times that every ``sweep_paper`` run checks.

    python3 e2ebench/record_reference.py

Simulated time is deterministic, so the reference changes only with a
deliberate change to the device model or an algorithm's launch accounting;
re-record it in the change that makes one, and say so there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import SWEEP_REFERENCE, SweepPaper  # noqa: E402


def main() -> None:
    grids = {}
    for scale in ("tiny", "full"):
        print(f"recording {scale} grid ...", flush=True)
        grids[scale] = SweepPaper(scale).record_reference()
    payload = {
        "description": "simulated seconds per grid point, by data seed",
        "grids": grids,
    }
    SWEEP_REFERENCE.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {SWEEP_REFERENCE}")


if __name__ == "__main__":
    main()
