"""Flat (segment-encoded) multi-row helpers for fused batched execution.

The fused batched paths (AIR Top-K, BucketSelect) keep every row's
surviving candidates in one flat row-major array plus a parallel array of
row ids — mirroring how a fused GPU kernel keeps the whole batch resident
in a single launch instead of replaying per-row kernels.  These helpers
are the segment algebra those paths share:

* :func:`segment_offsets` — CSR-style offsets from per-segment counts;
* :func:`flat_histogram` — per-segment digit histograms of a flat array
  in one ``bincount`` (the multi-row generalisation of
  :func:`repro.primitives.histogram.batched_digit_histogram`);
* :func:`head_mask` — select the first ``take[i]`` elements of each
  segment of a row-major flat array;
* :func:`segment_min_max` — per-segment min/max reductions;
* :func:`select_smallest` — each row's stable smallest-``k`` (exactly the
  head of a stable argsort) without sorting whole rows;
* :func:`affine_partitions` / :func:`partition_topc` — the batched bucket
  partition helpers of the approximate tier: a seeded affine scatter of
  positions into near-equal partitions, and per-partition best-``keep``
  selection over a whole batch in one vectorised pass.

All helpers are exact (integer arithmetic only); the fused paths that use
them are pinned byte-identical to stacked single-shot runs by
``tests/test_differential.py::TestBatchedDifferential``.
"""

from __future__ import annotations

import math

import numpy as np


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of row-major segments.

    >>> segment_offsets(np.array([2, 0, 3]))
    array([0, 2, 2, 5])
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError(f"counts must be 1-d, got shape {counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValueError("segment counts must be non-negative")
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def flat_histogram(
    segments: np.ndarray,
    values: np.ndarray,
    num_segments: int,
    num_buckets: int,
) -> np.ndarray:
    """Per-segment histograms of flat ``values``, shape ``(segments, buckets)``.

    ``segments`` holds each element's segment id in ``[0, num_segments)``.
    One offset ``bincount`` covers every segment — the fused-batch
    equivalent of one privatised-histogram kernel over the whole batch.
    """
    if num_segments < 0 or num_buckets <= 0:
        raise ValueError(
            f"need num_segments >= 0 and num_buckets > 0, "
            f"got {num_segments}, {num_buckets}"
        )
    segments = np.asarray(segments, dtype=np.int64)
    values = np.asarray(values)
    if segments.shape != values.shape or segments.ndim != 1:
        raise ValueError(
            f"segments and values must be matching 1-d arrays, "
            f"got {segments.shape} and {values.shape}"
        )
    if segments.size == 0:
        return np.zeros((num_segments, num_buckets), dtype=np.int64)
    if segments.min() < 0 or segments.max() >= num_segments:
        raise ValueError(f"segment ids outside [0, {num_segments})")
    v = values.astype(np.int64)
    if v.min() < 0 or v.max() >= num_buckets:
        raise ValueError(f"bucket values outside [0, {num_buckets})")
    flat = segments * num_buckets + v
    counts = np.bincount(flat, minlength=num_segments * num_buckets)
    return counts.reshape(num_segments, num_buckets)


def head_mask(counts: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Mask selecting the first ``take[i]`` elements of each segment.

    ``counts`` describes a row-major flat array's segment lengths; the
    returned boolean mask has ``counts.sum()`` entries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    take = np.asarray(take, dtype=np.int64)
    if counts.shape != take.shape:
        raise ValueError("counts and take must have matching shapes")
    offsets = segment_offsets(counts)
    total = int(offsets[-1])
    position = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    return position < np.repeat(take, counts)


def segment_min_max(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``(min, max)`` of a row-major flat array.

    Every segment must be non-empty (``ufunc.reduceat`` silently reads the
    next segment's first element otherwise, so this is checked).
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ValueError("offsets must be a 1-d CSR offset array")
    if offsets.size == 1:
        return (
            np.empty(0, dtype=values.dtype),
            np.empty(0, dtype=values.dtype),
        )
    if int(offsets[-1]) != values.shape[0]:
        raise ValueError(
            f"offsets cover {int(offsets[-1])} elements, have {values.shape[0]}"
        )
    if (np.diff(offsets) <= 0).any():
        raise ValueError("segment_min_max requires non-empty segments")
    starts = offsets[:-1]
    return (
        np.minimum.reduceat(values, starts),
        np.maximum.reduceat(values, starts),
    )


def select_smallest(
    keys: np.ndarray, k: int, kth: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k`` smallest keys, best first, ties to the lower position.

    Returns ``(keys, positions)`` of shape ``(rows, k)``, exactly what
    ``np.argsort(keys, axis=1, kind="stable")[:, :k]`` selects, for any key
    dtype.  Only the candidates ``<= kth`` are ordered, where ``kth`` is
    each row's k-th smallest key: taken from ``np.partition`` unless the
    caller already knows it (it must then be exact, or rows come up short).

    >>> select_smallest(np.array([[3, 1, 3, 0, 1]], dtype=np.uint8), 3)
    (array([[0, 1, 1]], dtype=uint8), array([[3, 1, 4]]))
    """
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise ValueError(f"keys must be 2-d, got shape {keys.shape}")
    rows, n = keys.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if kth is None:
        kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
    # the flat form: a 2-d np.nonzero is several times slower on wide rows
    flat = np.flatnonzero(keys <= kth[:, None])
    row, col = np.divmod(flat, n)
    cand = keys.reshape(-1)[flat]
    # lexsort is stable, so equal keys stay in position order
    order = np.lexsort((cand, row))
    starts = segment_offsets(np.bincount(row, minlength=rows))[:-1]
    take = order[(starts[:, None] + np.arange(k)).reshape(-1)]
    return cand[take].reshape(rows, k), col[take].reshape(rows, k)


def affine_partitions(
    n: int, parts: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded affine scatter of ``n`` positions into ``parts`` partitions.

    Position ``j`` lands in partition ``((a*j + c) mod n) mod parts`` with
    ``a`` coprime to both ``n`` and ``parts`` — a bijective remap, so the
    partition sizes are the near-equal strided split of
    :func:`repro.approx.partition_sizes`, and any *contiguous* run of
    positions cycles through every partition (adversarially clustered
    inputs spread like random ones).  The assignment depends only on
    ``(n, parts, seed)``: batched and single-shot runs of the approximate
    algorithms see the same scatter.

    Returns ``(order, sizes)``: ``order`` lists the positions grouped by
    partition (ascending position within each partition) and ``sizes`` the
    per-partition counts, descending-grouped (all ``ceil`` partitions
    first) as :func:`partition_topc` requires.
    """
    if not 1 <= parts <= n:
        raise ValueError(f"parts must be in [1, n={n}], got {parts}")
    rng = np.random.default_rng(seed)
    a, c = 1, 0
    if n > 1:
        for _ in range(128):
            cand = int(rng.integers(1, n))
            if math.gcd(cand, n) == 1 and math.gcd(cand, parts) == 1:
                a = cand
                break
        c = int(rng.integers(n))
    j = np.arange(n, dtype=np.int64)
    part = ((a * j + c) % n) % parts
    order = np.argsort(part, kind="stable")
    sizes = np.bincount(part, minlength=parts)
    return order, sizes


def partition_topc(
    keys2d: np.ndarray,
    order: np.ndarray,
    sizes: np.ndarray,
    keep: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition smallest-``keep`` selection across a whole batch.

    ``keys2d`` is ``(batch, n)``; ``order`` groups the ``n`` positions by
    partition and ``sizes`` gives the partition lengths in ``order``'s
    grouping (equal sizes must be consecutive, as
    :func:`affine_partitions` produces).  Every partition must hold at
    least ``keep`` elements.

    Because near-equal splits have at most two distinct sizes, the
    ragged per-partition selection decomposes into (at most two)
    rectangular ``(batch, count, size)`` blocks, each solved by one
    :func:`select_smallest` over its ``(batch * count, size)`` rows — no
    padding sentinels, so ties between real elements and padding can never
    surface.  Ties within a partition break toward the lower original
    position.

    Returns ``(keys, positions)`` of shape ``(batch, parts * keep)``,
    partition-major, best-first within each partition.
    """
    keys2d = np.asarray(keys2d)
    order = np.asarray(order, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if keys2d.ndim != 2:
        raise ValueError(f"keys2d must be 2-d, got shape {keys2d.shape}")
    batch, n = keys2d.shape
    if order.shape != (n,):
        raise ValueError(f"order must have shape ({n},), got {order.shape}")
    if int(sizes.sum()) != n:
        raise ValueError(f"sizes sum to {int(sizes.sum())}, expected {n}")
    if sizes.size and int(sizes.min()) < keep:
        raise ValueError(
            f"every partition needs >= keep={keep} elements, "
            f"smallest has {int(sizes.min())}"
        )
    grouped = keys2d[:, order]
    out_keys: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    start = 0
    run_start = 0
    for i in range(1, sizes.size + 1):
        if i < sizes.size and sizes[i] == sizes[run_start]:
            continue
        size = int(sizes[run_start])
        count = i - run_start
        span = size * count
        block = grouped[:, start : start + span].reshape(batch * count, size)
        top, sel = select_smallest(block, keep)
        out_keys.append(top.reshape(batch, count * keep))
        base = order[start : start + span].reshape(1, count, size)
        positions = np.take_along_axis(
            np.broadcast_to(base, (batch, count, size)),
            sel.reshape(batch, count, keep),
            axis=2,
        )
        out_pos.append(positions.reshape(batch, -1))
        start += span
        run_start = i
    return (
        np.concatenate(out_keys, axis=1),
        np.concatenate(out_pos, axis=1),
    )
