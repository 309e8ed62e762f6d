"""The paper's analysis toolkit as a reusable library.

* :mod:`~repro.core.access_pattern` -- regular/irregular classification;
* :mod:`~repro.core.trace` / :mod:`~repro.core.report` -- I/O tracing and
  Pablo-style analysis reports.

Turning a trace into a strategy and hints is :mod:`repro.insights`.
"""

from .access_pattern import AccessDescriptor, PatternClass, classify_accesses
from .report import format_table, format_trace_report
from .trace import IOEvent, IOTrace, trace_filesystem

__all__ = [
    "AccessDescriptor",
    "PatternClass",
    "classify_accesses",
    "IOEvent",
    "IOTrace",
    "trace_filesystem",
    "format_table",
    "format_trace_report",
]
