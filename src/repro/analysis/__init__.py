"""Evaluation and reporting utilities for the attack experiments."""

from repro.analysis.evaluation import (
    ZERO_TOLERANCE,
    AttackEvaluation,
    count_modified_parameters,
    evaluate_attack_result,
)
from repro.analysis.reporting import Table, format_float, render_markdown, render_text
from repro.analysis.plotting import ascii_line_chart
from repro.defenses.detectors import (
    DetectionReport,
    detection_report,
    parameter_audit_detection_probability,
    probe_detection_probability,
    probes_needed_for_detection,
)

__all__ = [
    "AttackEvaluation",
    "evaluate_attack_result",
    "count_modified_parameters",
    "ZERO_TOLERANCE",
    "Table",
    "render_text",
    "render_markdown",
    "format_float",
    "ascii_line_chart",
    "DetectionReport",
    "detection_report",
    "probe_detection_probability",
    "probes_needed_for_detection",
    "parameter_audit_detection_probability",
]
