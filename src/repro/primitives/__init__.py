"""Parallel building blocks shared by all simulated top-k algorithms."""

from .radix import (
    DigitPass,
    decode,
    digit_layout,
    encode,
    invert,
    key_bits,
    priority_keys,
)
from .bitonic import (
    bitonic_merge,
    bitonic_sort,
    comparator_count_merge,
    comparator_count_sort,
    merge_select_lower,
    merge_select_lower_with_payload,
)
from .batched import (
    affine_partitions,
    flat_histogram,
    head_mask,
    partition_topc,
    segment_min_max,
    segment_offsets,
    select_smallest,
)
from .histogram import batched_digit_histogram, digit_histogram
from .scan import (
    block_scan_ops,
    exclusive_scan,
    find_target_bucket,
    inclusive_scan,
)
from .warp import ballot, lane_rank, two_step_positions
from .compact import CompactionResult, compact, partition_three_way

__all__ = [
    "DigitPass",
    "decode",
    "digit_layout",
    "encode",
    "invert",
    "key_bits",
    "priority_keys",
    "bitonic_merge",
    "bitonic_sort",
    "comparator_count_merge",
    "comparator_count_sort",
    "merge_select_lower",
    "merge_select_lower_with_payload",
    "batched_digit_histogram",
    "digit_histogram",
    "affine_partitions",
    "flat_histogram",
    "head_mask",
    "partition_topc",
    "segment_min_max",
    "segment_offsets",
    "select_smallest",
    "block_scan_ops",
    "exclusive_scan",
    "find_target_bucket",
    "inclusive_scan",
    "ballot",
    "lane_rank",
    "two_step_positions",
    "CompactionResult",
    "compact",
    "partition_three_way",
]
