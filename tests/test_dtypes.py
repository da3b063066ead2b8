"""64-bit and integer key support across the full algorithm roster.

The paper's benchmark is float32, but a production selection library (the
RAFT code AIR Top-K shipped in supports multiple key types) must handle
wider keys: 64-bit floats get six 11-bit passes instead of three, the
queue family needs a 64-bit sentinel, and the encodings must stay
order-isomorphic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import available_algorithms, check_topk, topk
from repro.algos.queue_common import sentinel_for
from repro.core.air_topk import AIRTopK

# exact roster only; the approximate tier's dtype coverage lives in
# tests/test_approx.py where recall (not equality) is the contract
ALGOS = [info.name for info in available_algorithms() if info.exact]


def make_data(rng, dtype, n):
    dt = np.dtype(dtype)
    if dt.kind == "f":
        return rng.standard_normal(n).astype(dt)  # fp16 rounds: heavy ties
    if dt.kind == "i":
        return rng.integers(np.iinfo(dt).min, np.iinfo(dt).max, n, dtype=dt)
    return rng.integers(0, np.iinfo(dt).max, n, dtype=dt)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize(
    "dtype",
    [
        np.float16,
        np.float32,
        np.float64,
        np.int16,
        np.int32,
        np.int64,
        np.uint16,
        np.uint32,
        np.uint64,
    ],
)
def test_all_algorithms_all_dtypes(algo, dtype, rng):
    data = make_data(rng, dtype, 4000)
    for largest in (False, True):
        r = topk(data, 33, algo=algo, largest=largest)
        check_topk(data, r.values, r.indices, largest=largest)
        assert r.values.dtype == np.dtype(dtype)


#: algorithms that only compare keys: widening the key type must not change
#: a single decision they make, so neither their launches nor their time
COMPARISON_ONLY = [
    "quick_select",
    "sample_select",
    "grid_select",
    "warp_select",
    "block_select",
    "bitonic_topk",
]


@pytest.mark.parametrize("algo", COMPARISON_ONLY)
@pytest.mark.parametrize(
    "narrow, wide", [(np.float32, np.float64), (np.int32, np.int64)]
)
def test_comparison_algorithms_ignore_key_width(algo, narrow, wide, rng):
    data = make_data(rng, narrow, 1 << 16)
    runs = [topk(data.astype(dt), 64, algo=algo) for dt in (narrow, wide)]
    launches = [
        [e.name for e in r.device.timeline if e.stream == "gpu"] for r in runs
    ]
    assert launches[0] == launches[1]
    assert runs[0].time == runs[1].time
    assert np.array_equal(runs[0].indices, runs[1].indices)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_air_uses_six_passes_for_64bit(dtype, rng):
    """11-bit digits over 64 bits: 6 passes, 7 kernel launches."""
    data = make_data(rng, dtype, 10000)
    r = topk(data, 10, algo="air_topk")
    assert r.device.counters.kernel_launches == 6 + 1


def test_air_passes_for():
    air = AIRTopK()
    assert [p.width for p in air.passes_for(np.uint16)] == [11, 5]
    assert [p.width for p in air.passes_for(np.uint32)] == [11, 11, 10]
    assert [p.width for p in air.passes_for(np.uint64)] == [11] * 5 + [9]


def test_air_instance_reused_across_dtypes(rng):
    """A wider dtype's run must not leak its digit layout into the next
    32-bit run of the same instance (drtopk_hybrid keeps one alive)."""
    data32 = rng.standard_normal(10000).astype(np.float32)
    fresh = AIRTopK().select(data32, 10)
    air = AIRTopK()
    for dtype in (np.float32, np.float64, np.float32):
        reused = air.select(data32.astype(dtype), 10)
    assert reused.device.counters.kernel_launches == 3 + 1
    assert reused.time == fresh.time
    assert np.array_equal(reused.values, fresh.values)
    assert np.array_equal(reused.indices, fresh.indices)


def test_air_uses_two_passes_for_16bit(rng):
    data = rng.standard_normal(10000).astype(np.float16)
    from repro import topk

    r = topk(data, 10, algo="air_topk")
    assert r.device.counters.kernel_launches == 2 + 1


def test_float16_specials_and_largest(rng):
    data = rng.standard_normal(2000).astype(np.float16)
    data[::9] = np.float16(np.nan)
    data[::11] = np.float16(np.inf)
    for algo in ("air_topk", "grid_select", "sort"):
        for largest in (False, True):
            r = topk(data, 30, algo=algo, largest=largest)
            check_topk(data, r.values, r.indices, largest=largest)


def test_sentinel_for():
    assert sentinel_for(np.uint32) == np.uint32(0xFFFFFFFF)
    assert sentinel_for(np.uint64) == np.uint64(0xFFFFFFFFFFFFFFFF)
    with pytest.raises(TypeError):
        sentinel_for(np.int32)


def test_float64_specials(rng):
    data = rng.standard_normal(1000)
    data[::13] = np.nan
    data[::17] = np.inf
    data[::19] = -np.inf
    data[0] = 5e-324  # float64 denormal
    for algo in ("air_topk", "grid_select", "radix_select"):
        for largest in (False, True):
            r = topk(data, 25, algo=algo, largest=largest)
            check_topk(data, r.values, r.indices, largest=largest)


def test_int64_extremes():
    data = np.array(
        [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], dtype=np.int64
    )
    r = topk(data, 2, algo="air_topk")
    assert np.array_equal(r.values, [np.iinfo(np.int64).min, -1])
    r = topk(data, 2, algo="air_topk", largest=True)
    assert np.array_equal(r.values, [np.iinfo(np.int64).max, 1])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(width=64, allow_nan=False, allow_infinity=True),
        min_size=1,
        max_size=100,
    ),
    st.sampled_from(["air_topk", "grid_select", "sort", "radix_select"]),
)
def test_float64_matches_oracle(values, algo):
    data = np.array(values, dtype=np.float64)
    k = max(1, len(values) // 2)
    r = topk(data, k, algo=algo)
    check_topk(data, r.values, r.indices)
