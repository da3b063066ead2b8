"""Tests for the queue-select emulation shared by the partial-sorting family."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.queue_common import (
    QueueStats,
    SENTINEL,
    _thread_mode_flushes,
    emulate_queue_select,
    sentinel_for,
    slice_rows,
)
from repro.primitives import encode


def sequential_thread_flushes(
    mask: np.ndarray, carry: np.ndarray, queue_len: int
) -> tuple[int, np.ndarray]:
    """Round-by-round reference for per-thread-queue flush semantics."""
    fill = carry.astype(np.int64).copy()
    flushes = 0
    for round_mask in mask:
        fill += round_mask
        if fill.max() >= queue_len:
            flushes += 1
            fill[:] = 0
    return flushes, fill


def _merge_into_maintained(m_keys, m_idx, cand_keys, cand_idx):
    """Merge padded candidates into the maintained per-slice top-k arrays."""
    k = m_keys.shape[1]
    all_keys = np.concatenate([m_keys, cand_keys], axis=1)
    all_idx = np.concatenate([m_idx, cand_idx], axis=1)
    # key-primary, validity-secondary: padding slots (index -1) carry the
    # sentinel key, which a real element's key can equal
    order = np.lexsort((all_idx < 0, all_keys))[:, :k]
    return (
        np.take_along_axis(all_keys, order, axis=1),
        np.take_along_axis(all_idx, order, axis=1),
    )


def reference_queue_select(slices, k, *, lanes, mode, queue_len, valid_lengths):
    """The per-chunk merge formulation: every chunk's qualified elements are
    compacted and lexsorted into a maintained ``(key, padding, position)``
    top-k whose last key is the threshold.  Thread-mode flushes replay round
    by round.  Returns ``(keys, indices, stats)``."""
    num_slices, length = slices.shape
    sentinel = sentinel_for(slices.dtype)
    stats = QueueStats(rounds=-(-length // lanes) * num_slices)
    m_keys = np.full((num_slices, k), sentinel, dtype=slices.dtype)
    m_idx = np.full((num_slices, k), -1, dtype=np.int64)
    fill = np.zeros((num_slices, lanes), dtype=np.int64)
    pos, chunk = 0, lanes * 8
    max_chunk = max(lanes * 8, 1 << 14)
    while pos < length:
        c = min(chunk, length - pos)
        block = slices[:, pos : pos + c]
        threshold = m_keys[:, -1][:, None]
        is_real = np.arange(pos, pos + c)[None, :] < valid_lengths[:, None]
        has_pad = (m_idx[:, -1] < 0)[:, None]
        mask = (block < threshold) | (has_pad & is_real & (block == threshold))
        per_slice_q = mask.sum(axis=1)
        stats.inserts += int(per_slice_q.sum())
        if mode == "shared":
            total = fill[:, 0] + per_slice_q
            stats.flushes += int((total // queue_len).sum())
            fill[:, 0] = total % queue_len
        else:
            rounds_c = -(-c // lanes)
            padded = np.zeros((num_slices, rounds_c * lanes), dtype=bool)
            padded[:, :c] = mask
            for s in range(num_slices):
                f, fill[s] = sequential_thread_flushes(
                    padded[s].reshape(rounds_c, lanes), fill[s], queue_len
                )
                stats.flushes += f
        maxc = int(per_slice_q.max())
        if maxc:
            cand_keys = np.full((num_slices, maxc), sentinel, dtype=slices.dtype)
            cand_idx = np.full((num_slices, maxc), -1, dtype=np.int64)
            rows, cols = np.nonzero(mask)
            rank = np.cumsum(mask, axis=1)[rows, cols] - 1
            cand_keys[rows, rank] = block[rows, cols]
            cand_idx[rows, rank] = pos + cols
            m_keys, m_idx = _merge_into_maintained(
                m_keys, m_idx, cand_keys, cand_idx
            )
        pos += c
        if maxc <= max(4, queue_len // 4):
            chunk = min(chunk * 2, max_chunk)
    width = queue_len * (lanes if mode == "thread" else 1)
    stats.merge_comparators = stats.flushes * stats.merge_cost_comparators(width, k)
    return m_keys, m_idx, stats


class TestThreadModeFlushes:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sequential_reference(self, seed):
        rng = np.random.default_rng(seed)
        rounds, lanes, queue_len = 200, 8, 3
        mask = rng.random((rounds, lanes)) < rng.uniform(0.05, 0.9)
        carry = rng.integers(0, queue_len, lanes)
        got = _thread_mode_flushes(mask, carry, queue_len)
        want = sequential_thread_flushes(mask, carry, queue_len)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_empty_rounds(self):
        flushes, fill = _thread_mode_flushes(
            np.zeros((0, 4), dtype=bool), np.zeros(4, dtype=np.int64), 2
        )
        assert flushes == 0

    def test_dense_all_lanes(self):
        mask = np.ones((10, 4), dtype=bool)
        flushes, fill = _thread_mode_flushes(mask, np.zeros(4, dtype=np.int64), 2)
        assert flushes == 5  # every 2 rounds every lane's queue fills
        assert np.array_equal(fill, [0, 0, 0, 0])


class TestSliceRows:
    def test_even_split(self):
        keys = np.arange(12, dtype=np.uint32).reshape(1, 12)
        slices, offsets = slice_rows(keys, 3)
        assert slices.shape == (3, 4)
        assert np.array_equal(offsets, [0, 4, 8])
        assert np.array_equal(slices[1], [4, 5, 6, 7])

    def test_padding_with_sentinel(self):
        keys = np.arange(10, dtype=np.uint32).reshape(1, 10)
        slices, offsets = slice_rows(keys, 3)
        assert slices.shape == (3, 4)
        assert slices[2, -2] == SENTINEL and slices[2, -1] == SENTINEL

    def test_batch_offsets_local(self):
        keys = np.arange(8, dtype=np.uint32).reshape(2, 4)
        slices, offsets = slice_rows(keys, 2)
        assert slices.shape == (4, 2)
        assert np.array_equal(offsets, [0, 2, 0, 2])

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    @pytest.mark.parametrize("n,num_slices", [(12, 3), (10, 3), (7, 7), (5, 8)])
    def test_matches_padded_split(self, rng, dtype, n, num_slices):
        """Same slices and offsets as padding every row to a multiple."""
        keys = rng.integers(0, 100, (2, n)).astype(dtype)
        slices, offsets = slice_rows(keys, num_slices)
        per = -(-n // num_slices)
        padded = np.full((2, num_slices * per), sentinel_for(dtype), dtype=dtype)
        padded[:, :n] = keys
        assert slices.dtype == keys.dtype
        assert np.array_equal(slices, padded.reshape(2 * num_slices, per))
        assert np.array_equal(
            offsets, np.tile(np.arange(num_slices) * per, 2)
        )
        assert np.shares_memory(slices, keys) == (n % num_slices == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            slice_rows(np.zeros(4, dtype=np.uint32), 2)
        with pytest.raises(ValueError):
            slice_rows(np.zeros((1, 4), dtype=np.uint32), 0)


class TestEmulateQueueSelect:
    @pytest.mark.parametrize("mode,queue_len", [("thread", 2), ("shared", 32)])
    @pytest.mark.parametrize("lanes", [32, 128])
    def test_finds_topk(self, rng, mode, queue_len, lanes):
        keys = encode(rng.standard_normal((3, 5000)).astype(np.float32))
        k = 64
        result = emulate_queue_select(
            keys, k, lanes=lanes, mode=mode, queue_len=queue_len
        )
        for s in range(3):
            expect = np.sort(keys[s])[:k]
            assert np.array_equal(np.sort(result.keys[s]), expect)
            # indices point at the claimed keys
            assert np.array_equal(keys[s][result.indices[s]], result.keys[s])

    def test_short_slice_sentinel_padding(self, rng):
        """Slices shorter than k leave sentinel entries, indices -1."""
        keys = encode(rng.standard_normal((1, 10)).astype(np.float32))
        result = emulate_queue_select(keys, 16, lanes=32, mode="shared", queue_len=32)
        assert (result.keys[0] == SENTINEL).sum() == 6
        assert (result.indices[0] == -1).sum() == 6

    def test_stats_counters(self, rng):
        keys = encode(rng.standard_normal((1, 4096)).astype(np.float32))
        result = emulate_queue_select(keys, 32, lanes=32, mode="shared", queue_len=32)
        stats = result.stats
        assert stats.rounds == 4096 // 32
        # everything qualifies until the structure fills, so inserts >= k
        assert stats.inserts >= 32
        assert stats.inserts <= 4096
        # shared-queue flush accounting: one flush per queue_len inserts,
        # up to one partial fill left over
        assert stats.flushes <= stats.inserts // 32
        assert stats.flushes >= stats.inserts // 32 - 1
        assert stats.merge_comparators == stats.flushes * stats.merge_cost_comparators(
            32, 32
        )

    def test_shared_flushes_fewer_than_thread(self, rng):
        """The core GridSelect claim (Sec. 4): a shared queue flushes only
        when full, per-thread queues flush when any lane's queue fills."""
        keys = encode(rng.standard_normal((1, 1 << 14)).astype(np.float32))
        shared = emulate_queue_select(
            keys, 128, lanes=32, mode="shared", queue_len=32
        ).stats
        thread = emulate_queue_select(
            keys, 128, lanes=32, mode="thread", queue_len=2
        ).stats
        assert shared.flushes < thread.flushes

    def test_more_lanes_fewer_rounds(self, rng):
        keys = encode(rng.standard_normal((1, 1 << 12)).astype(np.float32))
        r32 = emulate_queue_select(keys, 8, lanes=32, mode="shared", queue_len=32)
        r128 = emulate_queue_select(keys, 8, lanes=128, mode="shared", queue_len=32)
        assert r128.stats.rounds < r32.stats.rounds

    def test_validation(self):
        keys = np.zeros((1, 8), dtype=np.uint32)
        with pytest.raises(ValueError):
            emulate_queue_select(keys, 4, lanes=32, mode="heap", queue_len=32)
        with pytest.raises(ValueError):
            emulate_queue_select(keys, 4, lanes=0, mode="shared", queue_len=32)
        with pytest.raises(ValueError):
            emulate_queue_select(keys[0], 4, lanes=32, mode="shared", queue_len=32)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["thread", "shared"]),
    st.integers(min_value=0, max_value=2**31),
)
def test_queue_select_equals_oracle(n, k_raw, mode, seed):
    rng = np.random.default_rng(seed)
    k = 1 + (k_raw - 1) % n
    keys = encode(rng.standard_normal((1, n)).astype(np.float32))
    queue_len = 2 if mode == "thread" else 32
    result = emulate_queue_select(keys, k, lanes=32, mode=mode, queue_len=queue_len)
    got = np.sort(result.keys[0])
    got = got[got != SENTINEL][:k] if n < k else got[:k]
    expect = np.sort(keys[0])[:k]
    assert np.array_equal(got, expect)


@st.composite
def queue_problems(draw):
    """Sentinel-padded slices over a small alphabet that holds the all-ones
    key, so real elements tie with the sentinel and with each other."""
    dtype = np.dtype(draw(st.sampled_from([np.uint16, np.uint32, np.uint64])))
    num_slices = draw(st.integers(1, 4))
    length = draw(st.integers(1, 2500))
    # chunk boundaries (lanes * 8 = 256 or 1024 at the start) are where a
    # prefix of exactly k real elements meets the padding rule
    k = draw(st.integers(1, length + 8) | st.sampled_from([256, 768, 1024]))
    k = min(k, length + 8)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    top = int(sentinel_for(dtype))
    alphabet = np.array(
        draw(
            st.lists(
                st.sampled_from([0, 1, 2, 3, 1000, top - 1, top]),
                min_size=1,
                max_size=5,
            )
        ),
        dtype=dtype,
    )
    if draw(st.booleans()):
        keys = rng.choice(alphabet, (num_slices, length))
    else:  # mostly distinct keys, salted with the alphabet
        keys = rng.integers(0, top, (num_slices, length), dtype=dtype, endpoint=True)
        salt = rng.random((num_slices, length)) < 0.1
        keys[salt] = rng.choice(alphabet, int(salt.sum()))
    valid = rng.integers(0, length + 1, num_slices)
    if draw(st.booleans()):
        valid[:] = length
    keys[np.arange(length)[None, :] >= valid[:, None]] = top
    return keys, k, valid


@settings(max_examples=80, deadline=None)
@given(
    queue_problems(),
    st.sampled_from([("thread", 2), ("shared", 32)]),
    st.sampled_from([32, 128]),
)
def test_emulator_matches_per_chunk_merge(problem, discipline, lanes):
    """Threshold-only tracking plus one final selection reproduces the
    per-chunk merge exactly: keys, indices and every QueueStats field."""
    keys, k, valid = problem
    mode, queue_len = discipline
    got = emulate_queue_select(
        keys, k, lanes=lanes, mode=mode, queue_len=queue_len, valid_lengths=valid
    )
    want_keys, want_idx, want_stats = reference_queue_select(
        keys, k, lanes=lanes, mode=mode, queue_len=queue_len, valid_lengths=valid
    )
    assert got.keys.dtype == keys.dtype
    assert np.array_equal(got.keys, want_keys)
    assert np.array_equal(got.indices, want_idx)
    assert got.stats == want_stats


@pytest.mark.parametrize("mode,queue_len", [("thread", 2), ("shared", 32)])
@pytest.mark.parametrize("dtype", [np.uint16, np.uint64])
def test_all_ones_keys_filling_k_at_a_chunk_boundary(mode, queue_len, dtype):
    """Exactly k real all-ones keys precede the second chunk: from there on
    no element qualifies, and padding never displaces a real element."""
    top = sentinel_for(dtype)
    keys = np.full((2, 700), top, dtype=dtype)
    keys[1, 300:] = 5
    valid = np.array([650, 700])
    got = emulate_queue_select(
        keys, 256, lanes=32, mode=mode, queue_len=queue_len, valid_lengths=valid
    )
    want_keys, want_idx, want_stats = reference_queue_select(
        keys, 256, lanes=32, mode=mode, queue_len=queue_len, valid_lengths=valid
    )
    assert np.array_equal(got.keys, want_keys)
    assert np.array_equal(got.indices, want_idx)
    assert got.stats == want_stats
    assert np.array_equal(got.indices[0], np.arange(256))
