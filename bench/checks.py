"""Output checks run on every command the benchmark times.

Each check returns how many documents it failed; a document fails when
its score carries a protocol error, when its four prediction categories
do not sum to its prediction count, or when it differs from a reference
(the in-process report on serve-http, the brute-force re-score on
score-dense). A missing report, wrong document or gold count, or missing
report file fails every document of the command.

``oracle_counts`` is the benchmark's own scorer. It reads the generator's
spans, not linkeval's parse, and classifies with plain nested loops, so it
shares no code with ``linkeval.scoring``.
"""

from __future__ import annotations

from pathlib import Path

Triple = tuple[int, int, str]

# files each subcommand must leave in --out
_RUN_FILES = ("report.csv", "summary.txt", "error_ratios.tsv")
ABLATE_POLICIES = ("dict", "full", "empty")


def _overlap(a: Triple, b: Triple) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def oracle_counts(gold: list[Triple], predicted: list[Triple]) -> tuple[int, ...]:
    """(tp, incorrect_entity, incorrect_mention, over, under, gold, pred) for one document.

    Every entity is in the scoring vocabulary, so nothing is filtered out.
    """
    golds = sorted(set(gold))
    preds = sorted(set(predicted))
    taken = [False] * len(golds)
    label: dict[int, str] = {}
    for p_i, p in enumerate(preds):
        for g_i, g in enumerate(golds):
            if not taken[g_i] and g == p:
                label[p_i] = "tp"
                taken[g_i] = True
                break
    for p_i, p in enumerate(preds):
        if p_i not in label and any(not taken[g_i] and g[:2] == p[:2] and g[2] != p[2] for g_i, g in enumerate(golds)):
            label[p_i] = "ie"
    for p_i, p in enumerate(preds):
        if p_i not in label and any(
            not taken[g_i] and g[2] == p[2] and _overlap(g, p) for g_i, g in enumerate(golds)
        ):
            label[p_i] = "im"
    values = list(label.values())
    under = sum(1 for g_i, g in enumerate(golds) if not taken[g_i] and not any(_overlap(g, p) for p in preds))
    return (
        values.count("tp"),
        values.count("ie"),
        values.count("im"),
        len(preds) - len(values),
        under,
        len(golds),
        len(preds),
    )


def _counts(doc) -> tuple[int, ...]:
    return (
        doc.true_positives,
        doc.incorrect_entity,
        doc.incorrect_mention,
        doc.over_generated,
        doc.under_generated,
        doc.gold_count,
        doc.pred_count,
    )


def check_command(
    command: str,
    reports: list,
    out: Path,
    expected_docs: int,
    expected_gold: int,
    reference=None,
    oracle: dict[str, tuple[int, ...]] | None = None,
) -> tuple[int, list[str]]:
    """Failed documents and reasons for one finished command."""
    policies = ABLATE_POLICIES if command == "ablate" else ("",)
    attempted = expected_docs * len(policies)
    if len(reports) != len(policies):
        return attempted, [f"expected {len(policies)} reports, got {len(reports)}"]
    files = [out / p / name for p in policies for name in _RUN_FILES]
    if command == "ablate":
        files += [out / "error_ratios.tsv", out / "pr_delta.tsv"]
    missing = [str(f) for f in files if not f.is_file()]
    if missing:
        return attempted, [f"missing report files: {missing}"]
    if command == "ablate":
        rows = (len(out.joinpath("error_ratios.tsv").read_text().splitlines()), len(out.joinpath("pr_delta.tsv").read_text().splitlines()))
        if rows != (4, 3):
            return attempted, [f"ablate tables have {rows} lines, expected (4, 3)"]

    failed = 0
    reasons: list[str] = []
    for report in reports:
        docs = report.per_document
        gold = sum(d.gold_count for d in docs)
        if len(docs) != expected_docs or gold != expected_gold:
            failed += expected_docs
            reasons.append(f"{len(docs)} docs / {gold} gold, generator wrote {expected_docs} / {expected_gold}")
            continue
        bad = set()
        for i, doc in enumerate(docs):
            if doc.protocol_error is not None:
                bad.add(i)
                reasons.append(f"{doc.doc_id}: protocol error {doc.protocol_error}")
            elif doc.true_positives + doc.incorrect_entity + doc.incorrect_mention + doc.over_generated != doc.pred_count:
                bad.add(i)
                reasons.append(f"{doc.doc_id}: prediction categories do not sum to {doc.pred_count}")
            elif oracle is not None and _counts(doc) != oracle[doc.doc_id]:
                bad.add(i)
                reasons.append(f"{doc.doc_id}: counts {_counts(doc)} != brute-force {oracle[doc.doc_id]}")
        if reference is not None:
            for i, (doc, ref) in enumerate(zip(docs, reference.per_document)):
                if doc != ref:
                    bad.add(i)
                    reasons.append(f"{doc.doc_id}: differs from the in-process report")
            if not bad and report.without_runtime() != reference.without_runtime():
                bad.update(range(len(docs)))
                reasons.append("report differs from the in-process report")
        failed += len(bad)
    return failed, reasons[:5]
