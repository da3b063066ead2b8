"""Benchmark harness: sweeps, SOTA computation, Table 2 summary, reporting.

The gated snapshot benches behind ``repro-topk bench`` live in
:mod:`repro.bench.harness` and its four bench modules, imported on
demand."""

from .runner import (
    ALL_ALGORITHMS,
    BASELINE_ALGORITHMS,
    OUR_ALGORITHMS,
    BenchPoint,
    SweepResult,
    run_point,
    sweep,
)
from .suite import PaperSuiteResult, run_paper_suite
from .summary import SpeedupRange, Table2Row, speedup_range, table2
from .ascii_plot import ascii_plot, plot_sweep
from .report import (
    REPORT_QUANTILES,
    format_dispatch_table,
    format_percentile_table,
    format_series_table,
    format_status_summary,
    format_table,
    format_time,
    geomean,
    percentile,
    percentiles,
    read_csv,
    status_counts,
    sweep_time_summary,
    write_csv,
)

__all__ = [
    "ALL_ALGORITHMS",
    "BASELINE_ALGORITHMS",
    "OUR_ALGORITHMS",
    "BenchPoint",
    "SweepResult",
    "run_point",
    "sweep",
    "PaperSuiteResult",
    "run_paper_suite",
    "SpeedupRange",
    "Table2Row",
    "speedup_range",
    "table2",
    "ascii_plot",
    "plot_sweep",
    "REPORT_QUANTILES",
    "format_dispatch_table",
    "format_percentile_table",
    "format_series_table",
    "format_status_summary",
    "format_table",
    "format_time",
    "geomean",
    "percentile",
    "percentiles",
    "read_csv",
    "status_counts",
    "sweep_time_summary",
    "write_csv",
]
