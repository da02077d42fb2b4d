"""Report files: metrics CSV, key/value summary, ratio and delta tables.

All numeric cells use fixed-point formatting (four decimals for metrics
and ratios, two for percentage-point deltas) so diffs between runs stay
readable and deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .errors import IoFailure
from .scoring import ErrorBreakdown, EvaluationReport

CSV_HEADER = "dataset,precision,recall,f1,over,under,inc_entity,inc_mention"
RATIO_HEADER = "run\tover\tunder\tinc_entity\tinc_mention"
DELTA_HEADER = "run\tprecision_delta_pp\trecall_delta_pp"

REPORT_CSV = "report.csv"
SUMMARY_TXT = "summary.txt"
RATIO_FILE = "error_ratios.tsv"
DELTA_FILE = "pr_delta.tsv"


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def csv_row(report: EvaluationReport) -> str:
    b = report.breakdown
    cells = [
        report.dataset,
        _fmt(report.micro_precision),
        _fmt(report.micro_recall),
        _fmt(report.micro_f1),
        _fmt(b.over_generated),
        _fmt(b.under_generated),
        _fmt(b.incorrect_entity),
        _fmt(b.incorrect_mention),
    ]
    return ",".join(cells)


def ratio_row(label: str, breakdown: ErrorBreakdown) -> str:
    return "\t".join([label, *(_fmt(v) for v in breakdown.as_tuple())])


def delta_row(label: str, precision_delta: float, recall_delta: float) -> str:
    return f"{label}\t{precision_delta:+.2f}\t{recall_delta:+.2f}"


def summary_text(report: EvaluationReport) -> str:
    """Human-readable key/value summary, one ``key: value`` pair per line."""
    failed = [d for d in report.per_document if d.protocol_error is not None]
    lines = [
        f"dataset: {report.dataset}",
        f"documents: {len(report.per_document)}",
        f"gold_annotations: {sum(d.gold_count for d in report.per_document)}",
        f"predicted_annotations: {sum(d.pred_count for d in report.per_document)}",
        f"micro_precision: {_fmt(report.micro_precision)}",
        f"micro_recall: {_fmt(report.micro_recall)}",
        f"micro_f1: {_fmt(report.micro_f1)}",
        f"over_generated_ratio: {_fmt(report.breakdown.over_generated)}",
        f"under_generated_ratio: {_fmt(report.breakdown.under_generated)}",
        f"incorrect_entity_ratio: {_fmt(report.breakdown.incorrect_entity)}",
        f"incorrect_mention_ratio: {_fmt(report.breakdown.incorrect_mention)}",
        f"protocol_violations: {len(failed)}",
        f"runtime_ms: {report.runtime_ms}",
    ]
    for doc in failed:
        lines.append(f"protocol_violation[{doc.doc_id}]: {doc.protocol_error}")
    return "\n".join(lines) + "\n"


def _write(path: Path, content: str) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def write_ratio_file(rows: Sequence[tuple[str, ErrorBreakdown]], path: Path) -> Path:
    lines = [RATIO_HEADER, *(ratio_row(label, b) for label, b in rows)]
    return _write(path, "\n".join(lines) + "\n")


def write_delta_file(rows: Sequence[tuple[str, float, float]], path: Path) -> Path:
    lines = [DELTA_HEADER, *(delta_row(label, p, r) for label, p, r in rows)]
    return _write(path, "\n".join(lines) + "\n")


def emit_report(report: EvaluationReport, out_dir: Path | str, label: str | None = None) -> list[Path]:
    """Write a report's files into out_dir and return their paths.

    Writes the metrics CSV, the key/value summary and the error ratio
    table, whose one row is labelled ``label`` or else the dataset name.
    """
    out = Path(out_dir)
    return [
        _write(out / REPORT_CSV, CSV_HEADER + "\n" + csv_row(report) + "\n"),
        _write(out / SUMMARY_TXT, summary_text(report)),
        write_ratio_file([(label or report.dataset, report.breakdown)], out / RATIO_FILE),
    ]
