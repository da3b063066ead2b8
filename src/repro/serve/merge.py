"""Hierarchical k-way merge of per-shard top-k candidates.

Dr. Top-k (Gaihre et al., SC '21) decomposes a large selection into
per-delegate sub-selections whose candidates are merged hierarchically;
the same tree shape is how a multi-device sharded top-k combines its
per-shard (value, index) candidates.  Each merge level folds pairs of
sorted candidate lists into one, so ``S`` shards take ``ceil(log2 S)``
levels and every level's work is O(k) per pair.  On the host the tree's
result is computed by one ordering of all candidates: every level keeps
the best k under the same total order, so the tree selects exactly the
best k of the union.

Ordering is exact and deterministic: candidates are compared by their
monotone priority key (:func:`repro.primitives.priority_keys`, the same
encoding every algorithm selects in) with the original index as the tie
breaker, so a merged result over unique values is byte-identical to a
single-shot selection (pinned by tests/test_serve.py).
"""

from __future__ import annotations

import numpy as np

from ..primitives import priority_keys


def _best_k(
    partials: list[tuple[np.ndarray, np.ndarray]], k: int, *, largest: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The best ``k`` columns of all candidates, ordered by (key, index)."""
    values = np.concatenate([p[0] for p in partials], axis=1)
    indices = np.concatenate([p[1] for p in partials], axis=1)
    keys = priority_keys(values, largest=largest)
    order = np.lexsort((indices, keys), axis=1)[:, :k]
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(indices, order, axis=1),
    )


def merge_pair(
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
    k: int,
    *,
    largest: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two (values, indices) candidate sets, keeping the best k.

    Inputs are ``(batch, m)`` arrays (any m); the output is the best
    ``min(k, m_a + m_b)`` columns, best first.
    """
    return _best_k([a, b], k, largest=largest)


def hierarchical_merge(
    partials: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    *,
    largest: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reduce per-shard candidates to one global top-k.

    ``partials`` is one ``(values, indices)`` pair per shard, each
    ``(batch, k_s)`` best-first with *global* indices.  Returns
    ``(values, indices, levels)`` where ``levels`` is the depth of the
    pairwise merge tree a coordinator runs (what it charges to the
    simulated device).
    """
    if not partials:
        raise ValueError("hierarchical_merge needs at least one partial")
    values, indices = _best_k(partials, k, largest=largest)
    return values, indices, (len(partials) - 1).bit_length()
