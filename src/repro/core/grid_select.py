"""GridSelect — shared-queue, multi-block queue select (paper Sec. 4).

GridSelect improves Faiss' WarpSelect/BlockSelect on three axes:

* **Shared queue.**  The 32 per-thread register queues become one
  shared-memory queue of capacity 32 per warp.  Register pressure drops
  and, crucially, a flush (bitonic sort + merge into the maintained top-k)
  happens only when the *total* number of qualified candidates fills the
  queue — not as soon as one unlucky thread's private queue fills.
* **Parallel two-step insertion (Fig. 5).**  Lanes compute unique storing
  positions with a warp ballot; positions below the capacity insert
  immediately, the rest insert after the flush, shifted down by the
  capacity.  Insertion stays fully parallel.
* **Multiple thread blocks.**  A grid of blocks covers the input, each
  block keeping its own top-k over a contiguous slice; a final kernel
  merges the per-block results.  This is what lets GridSelect use all of a
  GPU's SMs where BlockSelect uses one — the source of the up-to-882x
  speedup in Table 2.

Like WarpSelect, GridSelect processes data on-the-fly (it maintains the
top-k of everything seen so far); see :class:`GridSelectStream`.
"""

from __future__ import annotations

import numpy as np

from ..algos.base import RunContext, TopKAlgorithm
from ..algos.queue_common import QueueStats, emulate_queue_select, slice_rows
from ..device import Device, GPUSpec, A100, ceil_div, next_pow2
from ..obs.metrics import get_metrics, metrics_enabled
from ..obs.spans import tracing_enabled
from ..perf import calibration as cal
from ..primitives import comparator_count_sort, select_smallest


class GridSelect(TopKAlgorithm):
    """Multi-block shared-queue k-selection (this paper)."""

    name = "grid_select"
    library = "this paper"
    category = "partial sorting"
    max_k = 2048
    on_the_fly = True
    batched_execution = True

    #: threads per block (4 warps, matching BlockSelect's block shape)
    block_threads = 32 * cal.BLOCK_SELECT_WARPS

    def __init__(self, *, queue: str = "shared") -> None:
        """``queue='thread'`` is the per-thread-queue ablation of Fig. 11."""
        if queue not in ("shared", "thread"):
            raise ValueError(f"queue must be 'shared' or 'thread', got {queue!r}")
        self.queue = queue

    def num_blocks(self, spec, nominal_n: int) -> int:
        """Blocks per problem: enough to cover N, capped at 2 waves."""
        per_thread = cal.STREAM_ITEMS_PER_THREAD * 16
        needed = ceil_div(nominal_n, self.block_threads * per_thread)
        return max(1, min(needed, 2 * spec.sm_count))

    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        batch, n = ctx.keys.shape
        device = ctx.device
        blocks = self.num_blocks(device.spec, ctx.nominal_n)

        slices, offsets = slice_rows(ctx.keys, blocks)
        # real elements per slice: trailing slices of a row may be padded
        per = slices.shape[1]
        starts = np.tile(np.arange(blocks, dtype=np.int64) * per, batch)
        lengths = np.clip(n - starts, 0, per)
        if self.queue == "shared":
            result = emulate_queue_select(
                slices,
                ctx.k,
                lanes=self.block_threads,
                mode="shared",
                queue_len=cal.SHARED_QUEUE_LEN,
                valid_lengths=lengths,
            )
        else:
            result = emulate_queue_select(
                slices,
                ctx.k,
                lanes=self.block_threads,
                mode="thread",
                queue_len=cal.THREAD_QUEUE_LEN,
                valid_lengths=lengths,
            )
        # local slice positions -> original row positions
        block_idx = np.where(
            result.indices >= 0, result.indices + offsets[:, None], -1
        )
        block_keys = result.keys.reshape(batch, blocks * ctx.k)
        block_idx = block_idx.reshape(batch, blocks * ctx.k)

        self._account_main(ctx, result.stats, blocks)

        # final merge kernel: one block per problem reduces the per-block
        # top-k candidates to the global top-k; with a single block the
        # block result already is the answer and the kernel is skipped
        # validity-secondary sort: per-block padding (idx -1) carries the
        # sentinel key, which a real element's key can equal on integer data
        order = np.lexsort((block_idx < 0, block_keys))[:, : ctx.k]
        out_keys = np.take_along_axis(block_keys, order, axis=1)
        out_idx = np.take_along_axis(block_idx, order, axis=1)
        if blocks > 1:
            merge_elems = batch * blocks * ctx.k
            device.launch_kernel(
                "GridSelectMerge",
                grid_blocks=batch,
                block_threads=self.block_threads,
                bytes_read=8.0 * merge_elems,
                bytes_written=8.0 * batch * ctx.k,
                flops=cal.OPS_PER_COMPARATOR
                * batch
                * comparator_count_sort(next_pow2(max(2, blocks * ctx.k))),
            )
        return out_keys, out_idx

    def _account_main(self, ctx: RunContext, stats: QueueStats, blocks: int) -> None:
        batch, n = ctx.keys.shape
        device = ctx.device
        slice_len = -(-n // blocks)
        rounds_per_block = -(-slice_len // self.block_threads)
        total_slices = batch * blocks
        flushes_per_block = stats.flushes / total_slices
        flush_comps = stats.merge_comparators / max(1, stats.flushes)
        if self.queue == "shared":
            round_cycles = cal.ROUND_CYCLES_SHARED_QUEUE
            elem_ops = cal.SHARED_QUEUE_OPS_PER_ELEM
            warp_eff = cal.WARP_EFFICIENCY_SHARED_QUEUE
        else:
            round_cycles = cal.ROUND_CYCLES_THREAD_QUEUE
            elem_ops = cal.THREAD_QUEUE_OPS_PER_ELEM_GRID
            warp_eff = cal.WARP_EFFICIENCY_THREAD_QUEUE_GRID
        span_args = None
        if tracing_enabled():
            span_args = {
                "queue": self.queue,
                "rounds": stats.rounds,
                "inserts": stats.inserts,
                "flushes": stats.flushes,
                "merge_comparators": stats.merge_comparators,
            }
        if metrics_enabled():
            registry = get_metrics()
            registry.counter("gridselect.flushes", queue=self.queue).inc(
                stats.flushes
            )
            registry.counter("gridselect.inserts", queue=self.queue).inc(
                stats.inserts
            )
        dependent_cycles = (
            rounds_per_block * round_cycles
            + flushes_per_block
            * (flush_comps / self.block_threads)
            * cal.FLUSH_CYCLES_PER_LANE_COMPARATOR
        )
        device.launch_kernel(
            "GridSelectKernel",
            grid_blocks=total_slices,
            block_threads=self.block_threads,
            bytes_read=4.0 * batch * n,
            bytes_written=8.0 * total_slices * ctx.k,
            flops=(
                elem_ops * cal.queue_k_ops_factor(ctx.nominal_k) * batch * n
                + cal.OPS_PER_COMPARATOR * stats.merge_comparators
            ),
            dependent_cycles=dependent_cycles,
            fixed_dependent_cycles=cal.GRID_KERNEL_FIXED_CYCLES
            + batch * cal.QUEUE_PER_PROBLEM_CYCLES,
            warp_efficiency=warp_eff,
            span_args=span_args,
        )


class GridSelectStream:
    """On-the-fly GridSelect: feed chunks as they arrive, read top-k anytime.

    WarpSelect's signature capability — kept by GridSelect (Sec. 4) — is
    consuming a stream without materialising it: the structure always holds
    the top-k of everything pushed so far.  Useful when the scored elements
    are produced incrementally (e.g. distance computations fused with
    selection in ANN search).

    The first non-empty chunk fixes the value dtype; every later chunk must
    match it.
    """

    def __init__(
        self,
        k: int,
        *,
        device: Device | None = None,
        spec: GPUSpec = A100,
        largest: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > GridSelect.max_k:
            raise ValueError(f"GridSelect supports k <= {GridSelect.max_k}")
        self.k = k
        self.largest = largest
        self.device = device if device is not None else Device(spec)
        self._seen = 0
        self._dtype: np.dtype | None = None
        #: the best min(k, seen) keys so far, best first, and their positions
        self._keys: np.ndarray | None = None
        self._idx = np.empty(0, dtype=np.int64)
        self._queue_fill = 0
        self._flushes = 0
        self._inserts = 0

    @property
    def count_seen(self) -> int:
        """Total elements pushed so far."""
        return self._seen

    def push(self, chunk: np.ndarray) -> None:
        """Consume one chunk of values."""
        from ..primitives import priority_keys  # local: avoids cycle at import

        chunk = np.asarray(chunk)
        if chunk.ndim != 1:
            raise ValueError(f"push expects a 1-d chunk, got shape {chunk.shape}")
        if chunk.size == 0:
            return
        if self._dtype is not None and chunk.dtype != self._dtype:
            raise TypeError(
                f"stream holds {self._dtype} values, got a {chunk.dtype} chunk"
            )
        keys = priority_keys(np.ascontiguousarray(chunk), largest=self.largest)
        if self._dtype is None:
            self._dtype = chunk.dtype
            self._keys = keys[:0]
        if self._seen < self.k:
            # unfilled slots admit everything: a real all-ones key (uint max
            # ascending, int min with largest=True) must not lose to them
            mask = np.ones(keys.shape, dtype=bool)
        else:
            mask = keys < self._keys[-1]
        qualified = int(mask.sum())
        self._inserts += qualified
        total = self._queue_fill + qualified
        self._flushes += total // cal.SHARED_QUEUE_LEN
        self._queue_fill = total % cal.SHARED_QUEUE_LEN

        if qualified:
            cand = np.flatnonzero(mask)
            # held keys precede the chunk's, so position ties stay stable
            merged_keys = np.concatenate([self._keys, keys[cand]])
            merged_idx = np.concatenate([self._idx, cand + self._seen])
            top, sel = select_smallest(
                merged_keys[None, :], min(self.k, merged_keys.size)
            )
            self._keys = top[0]
            self._idx = merged_idx[sel[0]]

        n = chunk.shape[0]
        span_args = None
        if tracing_enabled():
            span_args = {"chunk": n, "qualified": qualified, "seen": self._seen}
        if metrics_enabled():
            registry = get_metrics()
            registry.counter("gridselect.stream_chunks").inc()
            registry.counter("gridselect.stream_qualified").inc(qualified)
        blocks = GridSelect().num_blocks(self.device.spec, max(n, 1))
        self.device.launch_kernel(
            "GridSelectStreamChunk",
            grid_blocks=blocks,
            block_threads=GridSelect.block_threads,
            bytes_read=4.0 * n,
            bytes_written=8.0 * qualified,
            flops=cal.SHARED_QUEUE_OPS_PER_ELEM * n,
            warp_efficiency=cal.WARP_EFFICIENCY_SHARED_QUEUE,
            span_args=span_args,
        )
        self._seen += n

    def topk(self) -> tuple[np.ndarray, np.ndarray]:
        """Current top-k ``(values, indices)`` over everything pushed so far,
        best first.  Raises if fewer than k elements were pushed.
        """
        from ..primitives import decode, invert

        if self._seen < self.k:
            raise ValueError(
                f"only {self._seen} elements pushed, need at least k={self.k}"
            )
        keys = invert(self._keys) if self.largest else self._keys
        return decode(keys, self._dtype), self._idx.copy()
