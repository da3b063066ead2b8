"""Shared emulation machinery for the queue-based partial-sorting family.

WarpSelect, BlockSelect (Faiss) and GridSelect (this paper) share one
skeleton: lanes scan the input in lockstep rounds, qualified elements (those
beating the current k-th best) enter a small queue, and a full queue is
flushed — bitonic sort + merge — into the maintained top-k, which tightens
the qualification threshold.  They differ in *queue discipline*:

* ``thread`` mode — one private queue per lane; a flush fires as soon as
  **any** lane's queue fills (Faiss WarpSelect/BlockSelect, Sec. 4 ¶1).
* ``shared`` mode — one queue per warp shared by all lanes, filled with the
  two-step ballot insertion; a flush fires only when the **total** insert
  count fills the queue (GridSelect, Sec. 4).

The emulation executes lanes-in-lockstep semantics exactly, vectorised over
independent slices (thread blocks and/or batch problems), and reports the
event counts the cost model prices: rounds, inserts, flushes, comparators.
It tracks only the qualification threshold — at each chunk boundary, the
k-th smallest key of the slice's prefix — and selects the result once at
the end: the slice's stable top-k (ties to the lower position), which is
exactly what flushing every admitted element into a maintained top-k
would hold, since every element never admitted already has k real
elements ahead of it by (key, position).

Fidelity note: the qualification threshold is refreshed once per emulated
chunk rather than at every flush inside the chunk, so the emulation counts
slightly *more* qualified inserts than lockstep hardware would (a stale,
looser threshold lets more elements through).  The bias is identical across
all three queue disciplines and shrinks as chunks adapt, so relative
comparisons — the quantity the paper reports — are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device import next_pow2
from ..obs.metrics import get_metrics, metrics_enabled
from ..primitives import (
    comparator_count_merge,
    comparator_count_sort,
    select_smallest,
)

#: sentinel key strictly above every encodable 32-bit key (see
#: repro.primitives.radix: float32 encodings top out at the canonical-NaN
#: pattern 0xFFC00000).  Wider keys use :func:`sentinel_for`.
SENTINEL = np.uint32(0xFFFFFFFF)


def sentinel_for(dtype) -> np.generic:
    """All-ones key of the given unsigned dtype — above every encoding."""
    dt = np.dtype(dtype)
    if dt.kind != "u":
        raise TypeError(f"keys must be unsigned, got {dt}")
    return dt.type(~dt.type(0))


@dataclass
class QueueStats:
    """Event counts of one queue-based run (summed over all slices)."""

    rounds: int = 0
    inserts: int = 0
    flushes: int = 0
    merge_comparators: int = 0

    def merge_cost_comparators(self, queue_capacity: int, k: int) -> int:
        """Comparators of one flush: sort the queue, merge it into the top-k."""
        q = next_pow2(max(2, queue_capacity))
        return comparator_count_sort(q) + comparator_count_merge(
            next_pow2(max(2, k + queue_capacity))
        )


@dataclass
class QueueRunResult:
    """Output of :func:`emulate_queue_select`."""

    #: maintained top-k keys per slice, shape (slices, k), sentinel-padded
    keys: np.ndarray
    #: matching local positions within each slice, -1 where sentinel
    indices: np.ndarray
    stats: QueueStats


def _thread_mode_flushes(
    mask: np.ndarray, carry: np.ndarray, queue_len: int
) -> tuple[int, np.ndarray]:
    """Exact flush count for per-thread queues over one chunk of rounds.

    ``mask`` is (rounds, lanes): which lane inserted in which round.
    ``carry`` is the per-lane queue fill entering the chunk.  A flush clears
    every lane's queue (the warp sorts and merges all queues together).
    Returns the flush count and the per-lane fill leaving the chunk.
    """
    rounds, lanes = mask.shape
    if rounds == 0:
        return 0, carry
    cum = np.cumsum(mask, axis=0, dtype=np.int64)
    flushes = 0
    start = 0
    offset = carry.astype(np.int64)
    while start < rounds:
        base = cum[start - 1] if start > 0 else np.zeros(lanes, dtype=np.int64)
        counts_max = (cum[start:] - base + offset).max(axis=1)
        hit = int(np.searchsorted(counts_max, queue_len, side="left"))
        if hit >= counts_max.shape[0]:
            return flushes, (cum[-1] - base + offset)
        flushes += 1
        start = start + hit + 1
        offset = np.zeros(lanes, dtype=np.int64)
    return flushes, offset


def emulate_queue_select(
    slices: np.ndarray,
    k: int,
    *,
    lanes: int,
    mode: str,
    queue_len: int,
    valid_lengths: np.ndarray | None = None,
) -> QueueRunResult:
    """Run the queue-select skeleton over independent slices.

    ``slices`` is (num_slices, slice_len) of unsigned keys (sentinel-padded
    if slice lengths differ).  ``lanes`` is the number of lockstep lanes per
    slice (32 for one warp, 128 for a 4-warp block).  ``queue_len`` is the
    per-lane queue length in ``thread`` mode, the shared-queue capacity in
    ``shared`` mode.

    ``valid_lengths`` (per-slice count of leading real elements, defaulting
    to the full slice) lets sentinel-padded slices distinguish padding from
    a *real* element whose key equals the sentinel — integer dtypes can
    produce the all-ones key (uint32 0xFFFFFFFF smallest, 0 largest), and
    such an element must still be admitted while the maintained top-k has
    unfilled slots.
    """
    if mode not in ("thread", "shared"):
        raise ValueError(f"mode must be 'thread' or 'shared', got {mode!r}")
    if slices.ndim != 2:
        raise ValueError(f"expected (slices, len) keys, got shape {slices.shape}")
    if lanes <= 0 or queue_len <= 0:
        raise ValueError("lanes and queue_len must be positive")
    num_slices, length = slices.shape
    if valid_lengths is None:
        valid_lengths = np.full(num_slices, length, dtype=np.int64)
    else:
        valid_lengths = np.asarray(valid_lengths, dtype=np.int64)
        if valid_lengths.shape != (num_slices,):
            raise ValueError(
                f"valid_lengths must have shape ({num_slices},), "
                f"got {valid_lengths.shape}"
            )
    sentinel = sentinel_for(slices.dtype)
    stats = QueueStats()
    stats.rounds = -(-length // lanes) * num_slices

    # the k smallest keys seen so far, unordered; column k-1 is their
    # maximum, i.e. the prefix's k-th smallest key — the threshold
    m_keys = np.full((num_slices, k), sentinel, dtype=slices.dtype)
    if mode == "shared":
        shared_fill = np.zeros(num_slices, dtype=np.int64)
    else:
        thread_fill = np.zeros((num_slices, lanes), dtype=np.int64)

    flush_cost = stats.merge_cost_comparators(
        queue_len * (lanes if mode == "thread" else 1), k
    )

    pos = 0
    chunk = lanes * 8
    max_chunk = max(lanes * 8, 1 << 14)
    while pos < length:
        c = min(chunk, length - pos)
        block = slices[:, pos : pos + c]
        threshold = m_keys[:, k - 1][:, None]
        mask = block < threshold
        # sentinel-keyed *real* elements tie with the initial threshold and
        # would never qualify under `<`; admit them while the maintained
        # top-k still holds padding, i.e. while fewer than k real elements
        # precede the chunk.  Refreshed per chunk, like the threshold.
        has_pad = np.minimum(pos, valid_lengths) < k
        if has_pad.any():
            is_real = (
                np.arange(pos, pos + c, dtype=np.int64)[None, :]
                < valid_lengths[:, None]
            )
            mask |= has_pad[:, None] & is_real & (block == threshold)
        per_slice_q = mask.sum(axis=1)
        stats.inserts += int(per_slice_q.sum())

        # --- flush counting (the discipline difference) -------------------
        if mode == "shared":
            total = shared_fill + per_slice_q
            stats.flushes += int((total // queue_len).sum())
            shared_fill = total % queue_len
        else:
            rounds_c = -(-c // lanes)
            padded = np.zeros((num_slices, rounds_c * lanes), dtype=bool)
            padded[:, :c] = mask
            per_round = padded.reshape(num_slices, rounds_c, lanes)
            # tier 0 — no flush possible: cumulative lane counts are
            # monotone, so if no lane's final fill reaches queue_len, no
            # prefix does either; the whole chunk is plain accumulation.
            # This is the common case once the threshold tightens, and it
            # covers every slice in one vectorised step.
            lane_counts = per_round.sum(axis=1, dtype=np.int64)
            no_flush = (thread_fill + lane_counts).max(axis=1) < queue_len
            thread_fill[no_flush] += lane_counts[no_flush]
            # tier 1 — dense phase: every lane inserts every round and the
            # fills are uniform, so flush arithmetic is closed-form
            dense = (
                ~no_flush
                & per_round.all(axis=(1, 2))
                & (thread_fill == thread_fill[:, :1]).all(axis=1)
            )
            if dense.any():
                total_d = thread_fill[dense, 0] + rounds_c
                stats.flushes += int((total_d // queue_len).sum())
                thread_fill[dense] = (total_d % queue_len)[:, None]
            # tier 2 — exact per-slice replay for the irregular remainder
            for s in np.flatnonzero(~no_flush & ~dense):
                f, thread_fill[s] = _thread_mode_flushes(
                    per_round[s], thread_fill[s], queue_len
                )
                stats.flushes += f

        # --- tighten the threshold: keep the k smallest keys seen ----------
        maxc = int(per_slice_q.max()) if num_slices else 0
        if maxc:
            m_keys = np.partition(
                np.concatenate([m_keys, block], axis=1), k - 1, axis=1
            )[:, :k]

        pos += c
        # adapt: once the threshold is tight, qualified elements are rare and
        # larger chunks amortise the Python overhead without extra flushes
        if maxc <= max(4, queue_len // 4):
            chunk = min(chunk * 2, max_chunk)

    stats.merge_comparators = stats.flushes * flush_cost
    # the maintained top-k is the slice's stable top-k (ties to the lower
    # position, so real elements beat trailing padding); select it once
    if length < k:
        slices = np.pad(
            slices, ((0, 0), (0, k - length)), constant_values=sentinel
        )
    top_keys, top_idx = select_smallest(slices, k, kth=m_keys[:, k - 1])
    top_idx[top_idx >= valid_lengths[:, None]] = -1
    if metrics_enabled():
        registry = get_metrics()
        registry.counter("queue.rounds", mode=mode).inc(stats.rounds)
        registry.counter("queue.inserts", mode=mode).inc(stats.inserts)
        registry.counter("queue.flushes", mode=mode).inc(stats.flushes)
    return QueueRunResult(keys=top_keys, indices=top_idx, stats=stats)


def slice_rows(
    row_keys: np.ndarray, num_slices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split each row into ``num_slices`` contiguous sentinel-padded slices.

    Returns ``(slices, offsets)`` where ``slices`` is
    (batch * num_slices, ceil(n / num_slices)) and ``offsets`` gives each
    slice's starting position in its original row.  When ``num_slices``
    divides ``n`` the slices are a reshape of ``row_keys`` (a view of a
    contiguous input), not a padded copy.
    """
    if row_keys.ndim != 2:
        raise ValueError(f"expected (batch, n) keys, got {row_keys.shape}")
    batch, n = row_keys.shape
    if num_slices <= 0:
        raise ValueError(f"num_slices must be positive, got {num_slices}")
    per = -(-n // num_slices)
    offsets = np.tile(np.arange(num_slices, dtype=np.int64) * per, batch)
    if per * num_slices == n:
        return row_keys.reshape(batch * num_slices, per), offsets
    padded = np.full(
        (batch, num_slices * per), sentinel_for(row_keys.dtype), dtype=row_keys.dtype
    )
    padded[:, :n] = row_keys
    return padded.reshape(batch * num_slices, per), offsets
