"""AIR Top-K — Adaptive and Iteration-fused Radix Top-K (paper Sec. 3).

The algorithm is the paper's Algorithm 1, with the three ingredients that
distinguish it from host-coordinated RadixSelect:

**Iteration-fused design (Sec. 3.1).**  The filtering of iteration *p-1*
and the histogram of iteration *p* execute in one kernel; the prefix sum
and target-digit search run in the last surviving thread block of that same
kernel.  With 11-bit digits a 32-bit key needs only 3 fused kernels plus
one final filter — four launches in total, no PCIe traffic, no host
synchronisation.  The host enqueues all launches up front; every decision
(target digit, candidate counts, buffering) lives in device memory.

Pipeline structure (0-based pass index ``p``):

* kernel ``p`` reads the candidate set *through boundary p-2* — from the
  candidate buffer written by kernel ``p-1``, or by rescanning the original
  input when buffering was skipped;
* it writes the winners *at boundary p-1* (digit below the previous target)
  to the output — the previous target digit only became known at the end of
  kernel ``p-1``, which is why the filter lags the histogram by one kernel;
* it histograms digit ``p`` of the survivors and, in its last surviving
  block, scans the histogram and publishes ``target_p``;
* it stores the survivors (candidates through boundary ``p-1``) to the
  buffer only when the adaptive strategy says so.

**Adaptive buffering (Sec. 3.2).**  Writing candidates pays off only when
few survive: the kernel stores them only when ``C < N / alpha`` (``C`` is
the survivor count, known from the previous histogram) and otherwise the
next kernel re-reads the original input, re-deriving candidacy from the
accumulated target prefix.  This bounds the candidate buffer at
``N / alpha`` elements and eliminates buffer traffic entirely under
radix-adversarial distributions.

**Early stopping (Sec. 3.3).**  When the updated ``K`` equals the updated
candidate count, every remaining candidate is a result; the next kernel
degenerates to a gather and the remaining launches exit immediately.

Implementation note: where Algorithm 1's pseudo-code compares only the
previous iteration's digit when reloading from the original input, the
production RAFT kernel compares the full processed-bit prefix against the
accumulated target prefix (``kth_value_bits``); we implement the RAFT
semantics, which is the correct one when an early digit repeats later in
the key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algos.base import RunContext, TopKAlgorithm
from ..device import streaming_grid
from ..obs.metrics import get_metrics, metrics_enabled
from ..obs.spans import tracing_enabled
from ..perf import calibration as cal
from ..primitives import (
    batched_digit_histogram,
    block_scan_ops,
    digit_layout,
    find_target_bucket,
    flat_histogram,
    head_mask,
    inclusive_scan,
    masked_entries,
)


@dataclass(frozen=True)
class PassRecord:
    """One fused pass of one problem row, as the debug trace reports it.

    Exposes the quantities the paper's Sec. 3 reasons about: how many
    candidates entered the pass, which digit was chosen, how many survive,
    how many results remain to be found among them, and whether the
    adaptive strategy stored the candidate buffer.
    """

    row: int
    pass_index: int
    candidates_in: int
    target_digit: int
    candidates_out: int
    k_remaining: int
    buffered: bool
    early_stopped: bool


@dataclass
class _KernelTraffic:
    """Work aggregated over the batch for one fused-kernel launch."""

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    elements: float = 0.0


class AIRTopK(TopKAlgorithm):
    """Adaptive and Iteration-fused Radix Top-K (this paper; in RAPIDS RAFT)."""

    name = "air_topk"
    library = "RAFT"
    category = "partition-based"
    max_k = None
    batched_execution = True  # one launch set covers the whole batch

    def __init__(
        self,
        *,
        alpha: float = 128.0,
        adaptive: bool = True,
        early_stop: bool = True,
        digit_bits: int = 11,
        fuse_last_filter: bool = False,
    ) -> None:
        """``adaptive=False`` and ``early_stop=False`` are the ablations of
        the paper's Fig. 9 and Fig. 10.  ``alpha`` is the buffering
        threshold (the paper uses 128; 4 is the theoretical lower bound —
        buffering costs 4C accesses against N reads, Sec. 3.2).

        ``fuse_last_filter=True`` folds the final filtering kernel into the
        last fused kernel — the variant Sec. 3.1 mentions and rejects: the
        in-kernel filter phase (after a device-wide sync) needs the final
        candidate list materialised, which forces the buffer write the
        adaptive strategy would skip under adversarial distributions.  The
        paper's adopted configuration is False."""
        if alpha < 4:
            raise ValueError(
                f"alpha below 4 makes buffering strictly unprofitable "
                f"(4C accesses vs N reads, Sec. 3.2); got {alpha}"
            )
        self.alpha = float(alpha)
        self.adaptive = adaptive
        self.early_stop = early_stop
        self.fuse_last_filter = fuse_last_filter
        self.digit_bits = digit_bits
        # 32-bit keys are the paper's configuration; other key widths get
        # the same digit width over proportionally more or fewer passes
        # (see passes_for).  Never reassigned: one instance serves every
        # dtype, so each run derives its own layout.
        self.passes = digit_layout(32, digit_bits)
        #: per-pass trace of the most recent run (list of PassRecord)
        self.last_trace: list[PassRecord] = []

    def _pass_telemetry(self, pass_index: int) -> dict | None:
        """Behavioural telemetry for one fused launch, when enabled.

        Feeds the metrics stream (pass/buffer/early-stop counters) and
        returns ``span_args`` for the launch's timeline event; returns
        None — without touching ``last_trace`` — when telemetry is off, so
        plain runs pay only two flag checks per launch.
        """
        traced = tracing_enabled()
        metered = metrics_enabled()
        if not (traced or metered):
            return None
        records = [r for r in self.last_trace if r.pass_index == pass_index]
        buffered = sum(1 for r in records if r.buffered)
        stopped = sum(1 for r in records if r.early_stopped)
        if metered:
            registry = get_metrics()
            registry.counter("air.passes", algo=self.name).inc(len(records))
            registry.counter("air.buffer_writes", algo=self.name).inc(buffered)
            registry.counter("air.buffer_skips", algo=self.name).inc(
                len(records) - buffered
            )
            registry.counter("air.early_stops", algo=self.name).inc(stopped)
        if not traced:
            return None
        return {
            "rows": len(records),
            "candidates_in": sum(r.candidates_in for r in records),
            "candidates_out": sum(r.candidates_out for r in records),
            "buffered_rows": buffered,
            "early_stopped_rows": stopped,
        }

    def passes_for(self, dtype) -> list:
        """MSB-first digit passes matching the key width of ``dtype``."""
        key_width = np.dtype(dtype).itemsize * 8
        if key_width == 32:
            return self.passes
        return digit_layout(key_width, self.digit_bits)

    # ------------------------------------------------------------------ #
    # launch emission
    # ------------------------------------------------------------------ #
    def _launch_pass(
        self, device, grid: int, batch: int, num_buckets: int,
        index: int, traffic: _KernelTraffic,
    ) -> None:
        device.launch_kernel(
            f"iteration_fused_kernel({index + 1})",
            grid_blocks=grid,
            block_threads=256,
            bytes_read=traffic.bytes_read,
            bytes_written=traffic.bytes_written,
            flops=traffic.flops,
            # histogram privatisation writes plus the fused block scan
            # and target-digit search: constant in N, never scaled
            fixed_bytes_written=batch * num_buckets * 4.0,
            fixed_flops=batch * block_scan_ops(num_buckets),
            fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
            span_args=self._pass_telemetry(index),
        )

    def _launch_final(
        self, device, grid: int, batch: int, num_buckets: int,
        num_passes: int, traffic: _KernelTraffic,
        pending: _KernelTraffic | None,
    ) -> None:
        if pending is not None:
            device.launch_kernel(
                f"iteration_fused_kernel({num_passes})+last_filter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=pending.bytes_read + traffic.bytes_read,
                bytes_written=pending.bytes_written + traffic.bytes_written,
                flops=pending.flops + traffic.flops,
                fixed_bytes_written=batch * num_buckets * 4.0,
                fixed_flops=batch * block_scan_ops(num_buckets),
                fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
                span_args=self._pass_telemetry(num_passes - 1),
            )
        else:
            device.launch_kernel(
                "last_filter_kernel",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=traffic.bytes_read,
                bytes_written=traffic.bytes_written,
                flops=traffic.flops,
                fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
            )

    # ------------------------------------------------------------------ #
    # batched execution: the whole batch advances through each pass in
    # vectorised slab/flat operations, one launch set for every row
    # ------------------------------------------------------------------ #
    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        """Run every row of the batch through one fused launch set.

        Per-row state lives in state *vectors*; the candidate sets of all
        buffered rows live in one flat row-major array (``buf_rows`` /
        ``buf_keys`` / ``buf_idx``), and rescanning rows are processed as a
        2-d slab of the input.  Every traffic term is an integer-valued
        float, so the batch sums are exact and independent of row order:
        each row is selected, and charged, exactly as a single-shot run.
        """
        passes = self.passes_for(ctx.keys.dtype)
        self.last_trace = []
        batch, n = ctx.keys.shape
        device = ctx.device
        keys2d = ctx.keys
        kt = keys2d.dtype.type
        num_buckets = passes[0].num_buckets
        num_passes = len(passes)

        # per-row state vectors (device-resident in the modelled kernels)
        k_cand = np.full(batch, ctx.k, dtype=np.int64)
        count = np.full(batch, n, dtype=np.int64)
        prefix = np.zeros(batch, dtype=np.uint64)
        prev_target = np.zeros(batch, dtype=np.int64)
        is_buffered = np.zeros(batch, dtype=bool)
        done = np.zeros(batch, dtype=bool)
        gathered = np.zeros(batch, dtype=bool)
        # flat row-major candidate buffer of the buffered rows
        buf_rows = np.empty(0, dtype=np.int64)
        buf_keys = np.empty(0, dtype=keys2d.dtype)
        buf_idx = np.empty(0, dtype=np.int64)
        # output chunks, chronological; each chunk is row-major internally,
        # so one stable sort at the end restores every row's append order
        out_rows: list[np.ndarray] = []
        out_keys_parts: list[np.ndarray] = []
        out_idx_parts: list[np.ndarray] = []

        def load_and_filter(
            pass_index: int, traffic: _KernelTraffic
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Vectorised lagged filter over every not-yet-gathered row.

            Returns the row-major flat survivors through boundary
            ``pass_index - 1`` after appending that boundary's winners to
            the output chunks.  Buffered rows read their candidate buffer
            (8 B per element); the others rescan their whole input row
            (4 B per element over all of N).
            """
            nonlocal buf_rows, buf_keys, buf_idx
            prev = passes[pass_index - 1]
            parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            n_win = 0
            if buf_rows.size:
                traffic.bytes_read += 8.0 * buf_rows.size
                traffic.elements += buf_rows.size
                traffic.flops += cal.FILTER_OPS_PER_ELEM * buf_rows.size
                prev_digits = prev.extract(buf_keys)
                target_b = prev_target[buf_rows].astype(prev_digits.dtype)
                win = prev_digits < target_b
                keep = prev_digits == target_b
                if win.any():
                    out_rows.append(buf_rows[win])
                    out_keys_parts.append(buf_keys[win])
                    out_idx_parts.append(buf_idx[win])
                    n_win += int(win.sum())
                parts.append((buf_rows[keep], buf_keys[keep], buf_idx[keep]))
            rescan = np.flatnonzero(~gathered & ~is_buffered)
            if rescan.size:
                # every row rescanning (the common pass-1 state) needs no
                # row-subset copy of the input slab
                slab = keys2d if rescan.size == batch else keys2d[rescan]
                traffic.bytes_read += 4.0 * n * rescan.size
                traffic.elements += n * rescan.size
                # every loaded element pays the fused filter's prefix test
                traffic.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * n * rescan.size
                # full-prefix candidacy (RAFT kth_value_bits semantics)
                shifted = slab >> kt(prev.shift)
                pfx = prefix[rescan].astype(keys2d.dtype)[:, None]
                keep2 = shifted == pfx
                if pass_index == 1:
                    win2 = shifted < pfx
                else:
                    prev2 = passes[pass_index - 2]
                    pfx2 = (prefix[rescan] >> np.uint64(prev.width)).astype(
                        keys2d.dtype
                    )[:, None]
                    match2 = (slab >> kt(prev2.shift)) == pfx2
                    win2 = match2 & (shifted < pfx)
                win_r, win_c, win_k = masked_entries(win2, slab)
                if win_r.size:
                    out_rows.append(rescan[win_r])
                    out_keys_parts.append(win_k)
                    out_idx_parts.append(win_c)
                    n_win += win_r.size
                keep_r, keep_c, keep_k = masked_entries(keep2, slab)
                parts.append((rescan[keep_r], keep_k, keep_c))
            traffic.bytes_written += cal.SCATTER_WRITE_PENALTY * 8.0 * n_win
            if not parts:
                return (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=keys2d.dtype),
                    np.empty(0, dtype=np.int64),
                )
            s_rows = np.concatenate([p[0] for p in parts])
            s_keys = np.concatenate([p[1] for p in parts])
            s_idx = np.concatenate([p[2] for p in parts])
            if len(parts) > 1:
                # each row lives in exactly one part, so a stable sort by
                # row id restores global row-major order without touching
                # any row's internal candidate order
                order = np.argsort(s_rows, kind="stable")
                s_rows, s_keys, s_idx = s_rows[order], s_keys[order], s_idx[order]
            return s_rows, s_keys, s_idx

        def gather_pending(
            s_rows: np.ndarray,
            s_keys: np.ndarray,
            s_idx: np.ndarray,
            traffic: _KernelTraffic,
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Early-stopped rows: the kernel degenerates to one gather."""
            pend = np.flatnonzero(done & ~gathered)
            if not pend.size:
                return s_rows, s_keys, s_idx
            seg = np.bincount(s_rows, minlength=batch)
            mismatched = np.flatnonzero(seg[pend] != k_cand[pend])
            if mismatched.size:
                row = int(pend[mismatched[0]])
                raise AssertionError(
                    f"early stop expected {int(k_cand[row])} survivors, "
                    f"got {int(seg[row])}"
                )
            sel = (done & ~gathered)[s_rows]
            if sel.any():
                out_rows.append(s_rows[sel])
                out_keys_parts.append(s_keys[sel])
                out_idx_parts.append(s_idx[sel])
                traffic.bytes_written += 8.0 * int(sel.sum())
            gathered[pend] = True
            return s_rows[~sel], s_keys[~sel], s_idx[~sel]

        def fused_pass(dpass, traffic: _KernelTraffic) -> None:
            nonlocal buf_rows, buf_keys, buf_idx
            p = dpass.index
            if p == 0:
                # first pass: every row's candidate set is its whole input
                active = np.arange(batch, dtype=np.int64)
                traffic.bytes_read += 4.0 * n * batch
                traffic.elements += n * batch
                traffic.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * n * batch
                digits2 = dpass.extract(keys2d)
                hist2 = batched_digit_histogram(digits2, dpass.num_buckets)
            else:
                s_rows, s_keys, s_idx = load_and_filter(p, traffic)
                s_rows, s_keys, s_idx = gather_pending(
                    s_rows, s_keys, s_idx, traffic
                )
                active = np.flatnonzero(~done)
                if not active.size:
                    # every row is done (and now gathered): drop the buffer
                    # so later passes read nothing
                    buf_rows = np.empty(0, dtype=np.int64)
                    buf_keys = np.empty(0, dtype=keys2d.dtype)
                    buf_idx = np.empty(0, dtype=np.int64)
                    is_buffered[:] = False
                    return
                seg = np.bincount(s_rows, minlength=batch)
                drifted = np.flatnonzero(seg[active] != count[active])
                if drifted.size:
                    row = int(active[drifted[0]])
                    raise AssertionError(
                        f"candidate bookkeeping drifted: have {int(seg[row])}, "
                        f"histogram said {int(count[row])}"
                    )
                local = np.searchsorted(active, s_rows)
                digits = dpass.extract(s_keys)
                traffic.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * s_keys.size
                hist2 = flat_histogram(
                    local, digits, active.size, dpass.num_buckets
                )
            psum2 = inclusive_scan(hist2, axis=1)
            target = np.asarray(
                find_target_bucket(psum2, k_cand[active]), dtype=np.int64
            )
            below = np.where(
                target > 0,
                np.take_along_axis(
                    psum2, np.maximum(target - 1, 0)[:, None], axis=1
                )[:, 0],
                0,
            )
            cand_in = count[active].copy()

            # adaptive buffering, vectorised over the active rows; pass 0
            # never buffers (its candidate set is the whole input)
            final_pass = p == num_passes - 1
            if p == 0:
                use_buffer = np.zeros(batch, dtype=bool)
            else:
                if not self.adaptive:
                    ub = np.ones(active.size, dtype=bool)
                else:
                    ub = count[active] < n / self.alpha
                    if self.fuse_last_filter and final_pass:
                        # the fused final filter reads the candidate list
                        # after its internal sync; it must exist
                        ub[:] = True
                use_buffer = np.zeros(batch, dtype=bool)
                use_buffer[active] = ub
                traffic.bytes_written += cal.ATOMIC_SCATTER_PENALTY * 8.0 * float(
                    count[active][ub].sum()
                )
                bsel = use_buffer[s_rows]
                buf_rows = s_rows[bsel]
                buf_keys = s_keys[bsel]
                buf_idx = s_idx[bsel]
            is_buffered[:] = use_buffer

            prev_target[active] = target
            prefix[active] = (prefix[active] << np.uint64(dpass.width)) | target.astype(
                np.uint64
            )
            k_cand[active] -= below
            new_count = np.take_along_axis(hist2, target[:, None], axis=1)[:, 0]
            count[active] = new_count
            stopped = np.zeros(active.size, dtype=bool)
            if self.early_stop:
                stopped = k_cand[active] == new_count
                done[active[stopped]] = True
            buffered_now = use_buffer[active]
            for i in range(active.size):
                self.last_trace.append(
                    PassRecord(
                        row=int(active[i]),
                        pass_index=p,
                        candidates_in=int(cand_in[i]),
                        target_digit=int(target[i]),
                        candidates_out=int(new_count[i]),
                        k_remaining=int(k_cand[active[i]]),
                        buffered=bool(buffered_now[i]),
                        early_stopped=bool(stopped[i]),
                    )
                )

        def last_filter(traffic: _KernelTraffic) -> None:
            """Final filtering kernel (line 5 of Algorithm 1), all rows."""
            s_rows, s_keys, s_idx = load_and_filter(num_passes, traffic)
            s_rows, s_keys, s_idx = gather_pending(s_rows, s_keys, s_idx, traffic)
            live = np.flatnonzero(~done)
            if not live.size:
                return
            # after the final pass every survivor shares the complete key:
            # they are exact ties, any k_cand of them are valid results
            seg = np.bincount(s_rows, minlength=batch)
            mask = head_mask(seg, np.minimum(k_cand, seg))
            out_rows.append(s_rows[mask])
            out_keys_parts.append(s_keys[mask])
            out_idx_parts.append(s_idx[mask])
            traffic.bytes_written += 8.0 * float(k_cand[live].sum())
            traffic.flops += cal.FILTER_OPS_PER_ELEM * s_keys.size

        # the host enqueues every kernel up front and sizes every grid from
        # the only quantity it knows — the nominal input size; candidate
        # counts live in device memory, so later kernels launch the same
        # grid and surplus blocks exit early
        grid = streaming_grid(
            device.spec,
            ctx.nominal_n * batch,
            items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
        )
        pending: _KernelTraffic | None = None
        for dpass in passes:
            traffic = _KernelTraffic()
            fused_pass(dpass, traffic)
            if self.fuse_last_filter and dpass.index == num_passes - 1:
                pending = traffic  # launched below, merged with the filter
                continue
            self._launch_pass(
                device, grid, batch, num_buckets, dpass.index, traffic
            )

        traffic = _KernelTraffic()
        last_filter(traffic)
        self._launch_final(
            device, grid, batch, num_buckets, num_passes, traffic, pending
        )

        all_rows = (
            np.concatenate(out_rows) if out_rows else np.empty(0, dtype=np.int64)
        )
        totals = np.bincount(all_rows, minlength=batch)
        short = np.flatnonzero(totals != ctx.k)
        if short.size:
            raise AssertionError(
                f"AIR Top-K produced {int(totals[short[0]])} results, "
                f"expected {ctx.k}"
            )
        order = np.argsort(all_rows, kind="stable")
        out_k = np.concatenate(out_keys_parts)[order].reshape(batch, ctx.k)
        out_i = np.concatenate(out_idx_parts)[order].reshape(batch, ctx.k)
        # two candidate buffers (double buffering), each bounded by N/alpha
        # when the adaptive strategy is on (Sec. 3.2), by N otherwise
        bound = max(1.0, n / self.alpha) if self.adaptive else float(n)
        device.allocate_workspace(batch * 2 * 8.0 * bound)
        return out_k, out_i
