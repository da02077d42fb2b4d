from __future__ import annotations

import os
from pathlib import Path

import pytest

from linkeval import (
    DocumentScore,
    ErrorBreakdown,
    EvaluationReport,
    csv_row,
    delta_row,
    emit_report,
    pr_delta,
    ratio_row,
    summary_text,
    write_delta_file,
    write_ratio_file,
)
from linkeval.errors import IoFailure
from linkeval.reports import (
    CSV_HEADER,
    DELTA_FILE,
    DELTA_HEADER,
    RATIO_FILE,
    RATIO_HEADER,
    REPORT_CSV,
    SUMMARY_TXT,
)


def make_report(
    dataset: str = "demo",
    p: float = 0.5,
    r: float = 0.25,
    breakdown: ErrorBreakdown | None = None,
    docs: tuple[DocumentScore, ...] = (),
    runtime_ms: int = 12,
) -> EvaluationReport:
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return EvaluationReport(
        dataset=dataset,
        micro_precision=p,
        micro_recall=r,
        micro_f1=f1,
        breakdown=breakdown or ErrorBreakdown(0.0, 0.0, 0.0, 0.0),
        per_document=docs,
        runtime_ms=runtime_ms,
    )


def test_csv_row_exact_string() -> None:
    report = make_report("demo", 0.5, 0.25, ErrorBreakdown(0.1, 0.2, 0.3, 0.4))
    assert csv_row(report) == "demo,0.5000,0.2500,0.3333,0.1000,0.2000,0.3000,0.4000"
    assert CSV_HEADER == "dataset,precision,recall,f1,over,under,inc_entity,inc_mention"


def test_ratio_row_four_decimal_fixed_point() -> None:
    breakdown = ErrorBreakdown(
        over_generated=311 / 4791,
        under_generated=240 / 4791,
        incorrect_entity=284 / 4791,
        incorrect_mention=56 / 4791,
    )
    assert ratio_row("run-a", breakdown) == "run-a\t0.0649\t0.0501\t0.0593\t0.0117"


def test_delta_row_signed_two_decimals() -> None:
    assert delta_row("full", -0.5, -66.27) == "full\t-0.50\t-66.27"
    assert delta_row("same", 0.0, 10.0) == "same\t+0.00\t+10.00"


def test_summary_text_key_value_lines() -> None:
    docs = (
        DocumentScore("d1", 2, 0, 0, 1, 0, gold_count=2, pred_count=3),
        DocumentScore("d2", 0, 0, 0, 0, 1, gold_count=1, pred_count=0, protocol_error="bad payload"),
    )
    text = summary_text(make_report(docs=docs))
    lines = text.strip().split("\n")
    pairs = dict(line.split(": ", 1) for line in lines)
    assert pairs["dataset"] == "demo"
    assert pairs["documents"] == "2"
    assert pairs["gold_annotations"] == "3"
    assert pairs["predicted_annotations"] == "3"
    assert pairs["micro_precision"] == "0.5000"
    assert pairs["micro_recall"] == "0.2500"
    assert pairs["protocol_violations"] == "1"
    assert pairs["runtime_ms"] == "12"
    assert pairs["protocol_violation[d2]"] == "bad payload"


def test_emit_report_single_writes_three_files(tmp_path: Path) -> None:
    written = emit_report(make_report(), tmp_path)
    assert [p.name for p in written] == [REPORT_CSV, SUMMARY_TXT, RATIO_FILE]
    assert not (tmp_path / DELTA_FILE).exists()
    csv_lines = (tmp_path / REPORT_CSV).read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert csv_lines[1].startswith("demo,")
    ratio_lines = (tmp_path / RATIO_FILE).read_text().splitlines()
    assert ratio_lines[0] == RATIO_HEADER


def test_write_delta_file_signed_percentage_points(tmp_path: Path) -> None:
    baseline = make_report(p=0.9, r=0.85)
    ablated = make_report(p=0.9, r=0.1873)
    path = write_delta_file([("full", *pr_delta(baseline, ablated))], tmp_path / DELTA_FILE)
    delta_lines = path.read_text().splitlines()
    assert delta_lines[0] == DELTA_HEADER
    assert delta_lines[1] == "full\t+0.00\t-66.27"


def test_write_ratio_file_multiple_rows(tmp_path: Path) -> None:
    rows = [
        ("dict", ErrorBreakdown(0.0, 0.0, 0.0, 0.0)),
        ("full", ErrorBreakdown(0.25, 0.0, 0.5, 0.0)),
    ]
    path = write_ratio_file(rows, tmp_path / "ratios.tsv")
    lines = path.read_text().splitlines()
    assert lines == [
        RATIO_HEADER,
        "dict\t0.0000\t0.0000\t0.0000\t0.0000",
        "full\t0.2500\t0.0000\t0.5000\t0.0000",
    ]


def test_write_delta_file_multiple_rows(tmp_path: Path) -> None:
    path = write_delta_file([("full", -1.0, -2.345), ("empty", 0.0, -100.0)], tmp_path / "d.tsv")
    lines = path.read_text().splitlines()
    assert lines == [DELTA_HEADER, "full\t-1.00\t-2.35", "empty\t+0.00\t-100.00"]


def test_emit_report_creates_directories(tmp_path: Path) -> None:
    out = tmp_path / "a" / "b"
    emit_report(make_report(), out)
    assert (out / REPORT_CSV).exists()


@pytest.mark.skipif(os.geteuid() == 0, reason="permission bits are ignored when running as root")
def test_write_failure_raises_io_failure(tmp_path: Path) -> None:
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(0o400)
    try:
        with pytest.raises(IoFailure):
            emit_report(make_report(), blocked)
    finally:
        blocked.chmod(0o700)


def test_write_failure_on_file_as_directory(tmp_path: Path) -> None:
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory")
    with pytest.raises(IoFailure):
        emit_report(make_report(), occupied)
