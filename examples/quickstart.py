"""Quickstart: select the top-k elements and inspect the simulated run.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import available_algorithms, check_topk, topk


def main() -> None:
    rng = np.random.default_rng(7)
    data = rng.standard_normal(1 << 20).astype(np.float32)
    k = 100

    # --- the one-liner: AIR Top-K on a simulated A100 ---------------------
    result = topk(data, k)
    print(f"smallest {k} values, best first: {result.values[:5]} ...")
    print(f"their positions in the input:   {result.indices[:5]} ...")
    print(f"simulated time on {result.device.spec.name}: {result.time * 1e6:.1f} us")

    # outputs are verifiable against a full-sort oracle
    check_topk(data, result.values, result.indices)
    print("output verified against the oracle")

    # --- largest-k, different algorithm, different GPU --------------------
    largest = topk(data, k, algo="grid_select", largest=True, device="H100")
    print(
        f"\nlargest {k} via GridSelect on H100: "
        f"{largest.values[:3]} ... in {largest.time * 1e6:.1f} us"
    )

    # --- what did the device do? ------------------------------------------
    c = result.device.counters
    print(
        f"\nAIR Top-K run anatomy: {c.kernel_launches} kernel launches, "
        f"{c.bytes_total / 1e6:.1f} MB of device traffic, "
        f"{c.pcie_transfers} PCIe transfers"
    )
    print("\ntimeline:")
    print(result.device.timeline.render(width=70))

    # --- compare the whole roster on one problem ---------------------------
    # exact methods must match the oracle; approximate ones promise a
    # recall floor instead
    print(f"\nall algorithms on n=2^20, k={k} (simulated A100):")
    for info in available_algorithms():
        r = topk(data, k, algo=info.name, device="A100")
        if info.exact:
            check_topk(data, r.values, r.indices)
            quality = "exact"
        else:
            quality = f"recall >= {r.recall_bound:.3f}"
        batched = "batched" if info.batched_execution else "per-problem"
        print(
            f"  {info.name:15s} {r.time * 1e6:9.1f} us  "
            f"[{info.library}, {batched}, {quality}]"
        )


if __name__ == "__main__":
    main()
