"""Benchmark substrate: the measurements behind every declared experiment.

Numbers come off the virtual clock (DESIGN.md §2): each measured operation
is bracketed with the metrics recorder and reported in virtual milliseconds,
the same unit as the paper's y-axes.  The experiment specs in
:mod:`repro.experiments.registry` call these functions per grid cell;
``python -m repro experiments`` runs, prints and gates them.
"""

from repro.bench.runner import measure_virtual
from repro.bench.hello import HELLO_OPS, measure_hello_world, hello_world_figure
from repro.bench.giab import GIAB_OPS, measure_giab
from repro.bench.report import (
    figure_to_csv,
    format_bar_chart,
    format_figure_table,
    format_span_tree,
)
from repro.bench.xmldb import (
    build_corpus,
    query_cost,
    scan_cost_model,
)
from repro.bench.trace import stage_breakdown, trace_round_trip

__all__ = [
    "measure_virtual",
    "HELLO_OPS",
    "measure_hello_world",
    "hello_world_figure",
    "GIAB_OPS",
    "measure_giab",
    "figure_to_csv",
    "format_figure_table",
    "format_bar_chart",
    "format_span_tree",
    "build_corpus",
    "query_cost",
    "scan_cost_model",
    "stage_breakdown",
    "trace_round_trip",
]
