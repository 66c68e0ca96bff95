"""JSON record schemas and file I/O for pipeline artifacts.

Every pipeline stage reads and writes JSONL (one record per line) except
reports and manifests, which are single JSON documents. Scores serialize as
exact rational strings ("3/4", "1", "0") rather than floats; floats appear
only in t-test fields and render through ``repr`` (shortest round-trip).

All writes are atomic: content goes to a temp file in the target directory
and is renamed into place, so readers never observe a half-written file.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from .model import (
    AggregateReport,
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    GroundTruthComparison,
    Question,
    QuestionEvaluation,
    VerificationResult,
    Verdict,
)


def fraction_to_str(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else str(value)


def fraction_from_str(value: Optional[str]) -> Optional[Fraction]:
    return None if value is None else Fraction(value)


# --------------------------------------------------------------------------
# per-type record conversion


def question_to_record(question: Question) -> dict:
    return {
        "id": question.id,
        "text": question.text,
        "gold_answer": question.gold_answer,
        "dataset": question.dataset.value,
        "category": question.category,
        "subcategory": question.subcategory,
    }


def question_from_record(record: dict) -> Question:
    return Question(
        id=record["id"],
        text=record["text"],
        gold_answer=record["gold_answer"],
        dataset=Dataset(record["dataset"]),
        category=record.get("category"),
        subcategory=record.get("subcategory"),
    )


def claim_set_to_record(claim_set: ClaimSet) -> dict:
    return {
        "question_id": claim_set.question_id,
        "entity_reasoning": claim_set.entity_reasoning,
        "claims": [
            {
                "index": claim.index,
                "text": claim.text,
                "tags": [tag.name for tag in claim.tags],
            }
            for claim in claim_set.claims
        ],
        "tags": [tag.name for tag in claim_set.tags],
    }


def claim_set_from_record(record: dict) -> ClaimSet:
    return ClaimSet(
        question_id=record["question_id"],
        entity_reasoning=record.get("entity_reasoning"),
        claims=tuple(
            ClaimTemplate(index=claim["index"], text=claim["text"])
            for claim in record["claims"]
        ),
    )


def assignment_to_record(question_id: str, assignment: AnswerAssignment) -> dict:
    return {"question_id": question_id, "entries": assignment.as_dict()}


def assignment_from_record(record: dict) -> tuple[str, AnswerAssignment]:
    return record["question_id"], AnswerAssignment.from_dict(record["entries"])


def verification_result_to_record(result: VerificationResult) -> dict:
    return {
        "claim_index": result.claim_index,
        "instantiated_text": result.instantiated_text,
        "verdict": result.verdict.value,
        "raw_response": result.raw_response,
    }


def verification_result_from_record(record: dict) -> VerificationResult:
    return VerificationResult(
        claim_index=record["claim_index"],
        instantiated_text=record["instantiated_text"],
        verdict=Verdict(record["verdict"]),
        raw_response=record["raw_response"],
    )


def verifications_to_record(
    question_id: str, results: Iterable[VerificationResult]
) -> dict:
    return {
        "question_id": question_id,
        "results": [verification_result_to_record(result) for result in results],
    }


def verifications_from_record(record: dict) -> tuple[str, list[VerificationResult]]:
    return (
        record["question_id"],
        [verification_result_from_record(row) for row in record["results"]],
    )


def evaluation_to_record(evaluation: QuestionEvaluation) -> dict:
    return {
        "question": question_to_record(evaluation.question),
        "claim_set": claim_set_to_record(evaluation.claim_set),
        "assignment": evaluation.assignment.as_dict(),
        "results": [
            verification_result_to_record(result) for result in evaluation.results
        ],
        "score_true": fraction_to_str(evaluation.score_true),
        "correct": evaluation.correct,
        "error_category": evaluation.error_category,
        "gt_score_true": fraction_to_str(evaluation.gt_score_true),
    }


def evaluation_from_record(record: dict) -> QuestionEvaluation:
    return QuestionEvaluation(
        question=question_from_record(record["question"]),
        claim_set=claim_set_from_record(record["claim_set"]),
        assignment=AnswerAssignment.from_dict(record["assignment"]),
        results=tuple(
            verification_result_from_record(row) for row in record["results"]
        ),
        score_true=fraction_from_str(record.get("score_true")),
        correct=record.get("correct"),
        error_category=record.get("error_category"),
        gt_score_true=fraction_from_str(record.get("gt_score_true")),
    )


def report_to_record(report: AggregateReport) -> dict:
    comparison = None
    if report.gt_comparison is not None:
        comparison = {
            "gt_greater": report.gt_comparison.gt_greater,
            "gt_equal": report.gt_comparison.gt_equal,
            "gt_less": report.gt_comparison.gt_less,
        }
    return {
        "dataset": report.dataset,
        "n_total": report.n_total,
        "n_correct": report.n_correct,
        "n_incorrect": report.n_incorrect,
        "n_unlabeled": report.n_unlabeled,
        "mean_correct": fraction_to_str(report.mean_correct),
        "mean_incorrect": fraction_to_str(report.mean_incorrect),
        "diff": fraction_to_str(report.diff),
        "t_stat": report.t_stat,
        "degrees_freedom": report.degrees_freedom,
        "p_value": report.p_value,
        "p_correct": fraction_to_str(report.p_correct),
        "p_incorrect": fraction_to_str(report.p_incorrect),
        "gt_comparison": comparison,
    }


def report_from_record(record: dict) -> AggregateReport:
    comparison = None
    if record.get("gt_comparison") is not None:
        raw = record["gt_comparison"]
        comparison = GroundTruthComparison(
            gt_greater=raw["gt_greater"],
            gt_equal=raw["gt_equal"],
            gt_less=raw["gt_less"],
        )
    return AggregateReport(
        dataset=record["dataset"],
        n_total=record["n_total"],
        n_correct=record["n_correct"],
        n_incorrect=record["n_incorrect"],
        n_unlabeled=record["n_unlabeled"],
        mean_correct=fraction_from_str(record.get("mean_correct")),
        mean_incorrect=fraction_from_str(record.get("mean_incorrect")),
        diff=fraction_from_str(record.get("diff")),
        t_stat=record.get("t_stat"),
        degrees_freedom=record.get("degrees_freedom"),
        p_value=record.get("p_value"),
        p_correct=fraction_from_str(record.get("p_correct")),
        p_incorrect=fraction_from_str(record.get("p_incorrect")),
        gt_comparison=comparison,
    )


# --------------------------------------------------------------------------
# labels


def label_from_record(record: dict) -> tuple[str, tuple[bool, Optional[str]]]:
    return record["question_id"], (
        bool(record["correct"]),
        record.get("error_category"),
    )


def load_labels(path: str | Path) -> dict[str, tuple[bool, Optional[str]]]:
    """Read manual labels; later lines for the same question win.

    Last-wins lets an annotation session correct an earlier mistake by
    appending instead of editing the file.
    """
    return dict(label_from_record(record) for _, record in read_jsonl(path))


def append_label(
    path: str | Path,
    question_id: str,
    correct: bool,
    error_category: Optional[str] = None,
) -> None:
    record = {"question_id": question_id, "correct": correct}
    if error_category:
        record["error_category"] = error_category
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, ensure_ascii=False) + "\n")


# --------------------------------------------------------------------------
# file primitives


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """Read (lineno, record) pairs, raising on any malformed line.

    Strict on purpose: these files are written by the pipeline itself, so a
    bad line means corruption, not user error.
    """
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            rows.append((lineno, record))
    return rows


def _atomic_write(path: str | Path, content: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(
        dir=path.parent, prefix=f".tmp-{path.name}-", suffix=".part"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def write_jsonl_atomic(path: str | Path, rows: Iterable[dict]) -> None:
    content = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    _atomic_write(path, content)


def write_json_atomic(path: str | Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, ensure_ascii=False, indent=2) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    _atomic_write(path, text)
