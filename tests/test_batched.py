"""Property tests for the batched row-selection primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import affine_partitions, partition_topc, select_smallest

UNSIGNED = [np.uint8, np.uint16, np.uint32, np.uint64]


def stable_head(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    sel = np.argsort(keys, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(keys, sel, axis=1), sel


def reference_partition_topc(keys2d, order, sizes, keep):
    """One stable argsort per rectangular ``(batch, count, size)`` block."""
    batch = keys2d.shape[0]
    grouped = keys2d[:, order]
    out_keys, out_pos = [], []
    start = 0
    for size in np.unique(sizes)[::-1]:
        count = int((sizes == size).sum())
        span = int(size) * count
        block = grouped[:, start : start + span].reshape(batch, count, int(size))
        sel = np.argsort(block, axis=2, kind="stable")[:, :, :keep]
        out_keys.append(np.take_along_axis(block, sel, axis=2).reshape(batch, -1))
        base = np.broadcast_to(
            order[start : start + span].reshape(1, count, int(size)), block.shape
        )
        out_pos.append(np.take_along_axis(base, sel, axis=2).reshape(batch, -1))
        start += span
    return np.concatenate(out_keys, axis=1), np.concatenate(out_pos, axis=1)


@st.composite
def tied_keys(draw, max_rows=5, max_n=300):
    """Rows over a small alphabet that holds the dtype's all-ones key."""
    dtype = np.dtype(draw(st.sampled_from(UNSIGNED)))
    rows = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_n))
    top = int(np.iinfo(dtype).max)
    alphabet = draw(
        st.lists(st.sampled_from([0, 1, 2, 7, top - 1, top]), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(alphabet, dtype=dtype), (rows, n))


class TestSelectSmallest:
    @settings(max_examples=150, deadline=None)
    @given(tied_keys(), st.data())
    def test_equals_stable_argsort_head(self, keys, data):
        n = keys.shape[1]
        k = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
        want_keys, want_pos = stable_head(keys, k)
        kth = np.sort(keys, axis=1)[:, k - 1] if data.draw(st.booleans()) else None
        got_keys, got_pos = select_smallest(keys, k, kth=kth)
        assert got_keys.dtype == keys.dtype
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_pos, want_pos)

    @pytest.mark.parametrize("dtype", UNSIGNED)
    def test_distinct_wide_rows(self, rng, dtype):
        keys = rng.integers(0, np.iinfo(dtype).max, (3, 5000), dtype=dtype)
        want_keys, want_pos = stable_head(keys, 64)
        got_keys, got_pos = select_smallest(keys, 64)
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_pos, want_pos)

    def test_strided_input_is_not_written(self, rng):
        base = rng.integers(0, 4, (4, 40)).astype(np.uint32)
        view = base[:, ::2]
        before = base.copy()
        got_keys, got_pos = select_smallest(view, 5)
        assert np.array_equal(base, before)
        assert np.array_equal(got_pos, stable_head(view, 5)[1])

    def test_empty_rows(self):
        keys, pos = select_smallest(np.zeros((0, 6), dtype=np.uint16), 3)
        assert keys.shape == (0, 3) and pos.shape == (0, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_smallest(np.zeros(4, dtype=np.uint32), 2)
        with pytest.raises(ValueError):
            select_smallest(np.zeros((1, 4), dtype=np.uint32), 0)
        with pytest.raises(ValueError):
            select_smallest(np.zeros((1, 4), dtype=np.uint32), 5)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(UNSIGNED),
    st.integers(1, 4),
    st.integers(1, 600),
    st.data(),
)
def test_partition_topc_matches_argsort(dtype, batch, n, data):
    parts = data.draw(st.integers(1, n))
    keep = data.draw(st.integers(1, n // parts))
    seed = data.draw(st.integers(0, 2**16))
    top = int(np.iinfo(dtype).max)
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        keys = rng.choice(np.array([0, 3, top - 1, top], dtype=dtype), (batch, n))
    else:
        keys = rng.integers(0, top, (batch, n), dtype=dtype, endpoint=True)
    order, sizes = affine_partitions(n, parts, seed=seed)
    got_keys, got_pos = partition_topc(keys, order, sizes, keep)
    want_keys, want_pos = reference_partition_topc(keys, order, sizes, keep)
    assert got_keys.dtype == keys.dtype
    assert np.array_equal(got_keys, want_keys)
    assert np.array_equal(got_pos, want_pos)
