"""JSON record schemas and file I/O for pipeline artifacts.

Every pipeline stage reads and writes JSONL (one record per line) except
reports and manifests, which are single JSON documents. Scores serialize as
exact rational strings ("3/4", "1", "0") rather than floats; floats appear
only in t-test fields and render through ``repr`` (shortest round-trip).
Every JSONL input, question files and quizbowl dumps included, is read by
:func:`scan_jsonl`, so a bad line is reported the same way in each.

All writes are atomic: content goes to a temp file in the target directory
and is renamed into place, so readers never observe a half-written file.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from .model import (
    OPTIONAL_STR,
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    QuestionEvaluation,
    VerificationResult,
    Verdict,
    check_type,
)


def fraction_to_str(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else str(value)


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def fraction_from_str(value: Optional[str]) -> Optional[Fraction]:
    """Read a rational written by :func:`fraction_to_str`; anything but null
    or an integer or ``n/d`` string, and a zero denominator, is a
    ``ValueError``. Decimal and exponent forms are refused: ``Fraction``
    would build the whole power of ten of ``1e-1000000``."""
    if value is None:
        return None
    if not _RATIONAL.fullmatch(check_type("score", "value", value, str)):
        raise ValueError(f"score {value!r} is not an integer or n/d")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc


# --------------------------------------------------------------------------
# per-type record conversion


def to_record(value) -> dict:
    """A dataclass's fields by name, in declaration order: a nested
    dataclass as its own record, an enum as its value, a path or a rational
    as a string, anything else as it is. This is the record of a question,
    of an aggregate report and of a run's settings (the manifest's
    ``config``)."""
    return {field.name: _field_value(getattr(value, field.name)) for field in fields(value)}


def _field_value(value):
    if is_dataclass(value):
        return to_record(value)
    if isinstance(value, Enum):
        return value.value
    return str(value) if isinstance(value, (Path, Fraction)) else value


def question_from_record(record: dict) -> Question:
    return Question(
        id=record["id"],
        text=record["text"],
        gold_answer=record["gold_answer"],
        dataset=Dataset(record["dataset"]),
        category=record.get("category"),
        subcategory=record.get("subcategory"),
    )


def _numbered(record: dict, key: str, field: str) -> list:
    """*record*'s *key* array, checked that each row's *field* is its 1-based
    position: a record numbers its claims 1..n in order."""
    rows = check_type("record", key, record[key], list)
    for position, row in enumerate(rows, start=1):
        number = row[field]
        if type(number) is not int or number != position:
            raise ValueError(f"{field} {number!r} at position {position}")
    return rows


def claim_set_to_record(claim_set: ClaimSet) -> dict:
    return {
        "question_id": claim_set.question_id,
        "entity_reasoning": claim_set.entity_reasoning,
        "claims": [
            {
                "index": number,
                "text": claim.text,
                "tags": [tag.name for tag in claim.tags],
            }
            for number, claim in enumerate(claim_set.claims, start=1)
        ],
        "tags": [tag.name for tag in claim_set.tags],
    }


def claim_set_from_record(record: dict) -> ClaimSet:
    return ClaimSet(
        question_id=record["question_id"],
        entity_reasoning=record.get("entity_reasoning"),
        claims=tuple(
            ClaimTemplate(text=claim["text"])
            for claim in _numbered(record, "claims", "index")
        ),
    )


def assignment_to_record(question_id: str, assignment: AnswerAssignment) -> dict:
    return {"question_id": question_id, "entries": assignment.as_dict()}


def assignment_from_record(record: dict) -> tuple[str, AnswerAssignment]:
    question_id = check_type("assignment", "question_id", record["question_id"], str)
    return question_id, AnswerAssignment.from_dict(record["entries"])


def _results_to_record(results: Iterable[VerificationResult]) -> list[dict]:
    return [
        {
            "claim_index": number,
            "instantiated_text": result.instantiated_text,
            "verdict": result.verdict.value,
            "raw_response": result.raw_response,
        }
        for number, result in enumerate(results, start=1)
    ]


def _results_from_record(record: dict) -> list[VerificationResult]:
    return [
        VerificationResult(
            instantiated_text=row["instantiated_text"],
            verdict=Verdict(row["verdict"]),
            raw_response=row["raw_response"],
        )
        for row in _numbered(record, "results", "claim_index")
    ]


def verifications_to_record(
    question_id: str, results: Iterable[VerificationResult]
) -> dict:
    return {"question_id": question_id, "results": _results_to_record(results)}


def verifications_from_record(record: dict) -> tuple[str, list[VerificationResult]]:
    question_id = check_type("verifications", "question_id", record["question_id"], str)
    return question_id, _results_from_record(record)


def evaluation_to_record(evaluation: QuestionEvaluation) -> dict:
    return {
        "question": to_record(evaluation.question),
        "claim_set": claim_set_to_record(evaluation.claim_set),
        "assignment": evaluation.assignment.as_dict(),
        "results": _results_to_record(evaluation.results),
        "score_true": fraction_to_str(evaluation.score_true),
        "correct": evaluation.correct,
        "error_category": evaluation.error_category,
        "gt_score_true": fraction_to_str(evaluation.gt_score_true),
    }


def evaluation_from_record(record: dict) -> QuestionEvaluation:
    """Read an evaluation, checking it against itself: the claim set must
    belong to its question and ``score_true`` be the score of its own
    results."""
    question = question_from_record(record["question"])
    claim_set = claim_set_from_record(record["claim_set"])
    if claim_set.question_id != question.id:
        raise ValueError(f"claim set of {claim_set.question_id!r} under {question.id!r}")
    evaluation = QuestionEvaluation(
        question=question,
        claim_set=claim_set,
        assignment=AnswerAssignment.from_dict(record["assignment"]),
        results=_results_from_record(record),
        correct=record.get("correct"),
        error_category=record.get("error_category"),
        gt_score_true=fraction_from_str(record.get("gt_score_true")),
    )
    stored = fraction_from_str(record.get("score_true"))
    if stored != evaluation.score_true:
        raise ValueError(f"score_true {stored} does not match the record's results")
    return evaluation


def baseline_to_record(evaluation: QuestionEvaluation, baseline) -> dict:
    """The ``baseline`` record: the whole-question check of an evaluation's
    answer (a :class:`~abcd_eval.verify.BaselineResult`) beside its score."""
    return {
        "question_id": evaluation.question.id,
        "answer": evaluation.assignment.answer,
        "verdict": baseline.verdict.value,
        "raw_response": baseline.raw_response,
        "score_true": fraction_to_str(evaluation.score_true),
    }


# --------------------------------------------------------------------------
# labels


def label_from_record(record: dict) -> tuple[str, tuple[bool, Optional[str]]]:
    category = record.get("error_category")
    return check_type("label", "question_id", record["question_id"], str), (
        check_type("label", "correct", record["correct"], bool),
        check_type("label", "error_category", category, OPTIONAL_STR),
    )


def append_label(
    path: str | Path,
    question_id: str,
    correct: bool,
    error_category: Optional[str] = None,
) -> None:
    record = {"question_id": question_id, "correct": correct}
    if error_category:
        record["error_category"] = error_category
    line = json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n"
    with open(path, "ab+") as handle:
        # A file saved without a final newline must not weld onto this line.
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)


# --------------------------------------------------------------------------
# file primitives


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's content, without a leading byte-order mark;
    undecodable bytes are a ``ValueError`` naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def _as_is(row: dict, lineno: int) -> dict:
    return row


def _object(line: str) -> dict:
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    return row


def scan_jsonl(path: str | Path, convert, key=None):
    """Read a JSONL file into its values and ``(lineno, message)`` line
    errors; blank lines are skipped but counted.

    Each line must be a JSON object that ``convert(row, lineno)`` turns into
    a value; a line that is not, or whose value's *key* repeats an earlier
    one, is a line error. A ``None`` value is a row the reader filtered out:
    it is kept, and has no key. A file that is not UTF-8 is a ``ValueError``.
    """
    values, errors, seen = [], [], set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            value = convert(_object(line), lineno)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            errors.append((lineno, f"bad record: {type(exc).__name__}: {exc}"))
            continue
        if key is not None and value is not None:
            value_key = key(value)
            if value_key in seen:
                errors.append((lineno, f"duplicate question id {value_key!r}"))
                continue
            seen.add(value_key)
        values.append(value)
    return values, errors


def read_jsonl(path: str | Path, convert=_as_is, key=None) -> list:
    """:func:`scan_jsonl`'s values, with its first line error a ``ValueError``
    reading ``PATH:LINE: message``.

    The strict form, for files one bad line spoils: the record files the
    pipeline writes, labels and script rules.
    """
    values, errors = scan_jsonl(path, convert, key)
    if errors:
        raise ValueError("{}:{}: {}".format(path, *errors[0]))
    return values


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write *data* to a temp file beside *path*, then rename it into place.

    The temp file is created with ``O_EXCL`` and mode 0666 less the umask,
    under a random name of fixed length in the target directory, which must
    exist: callers create it. On any failure the temp file is removed and
    *path* is left as it was.
    """
    directory = os.path.dirname(os.fspath(path))
    temp_path = os.path.join(directory, f".tmp-{os.urandom(12).hex()}.part")
    fd = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise


def _write_text(path: str | Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, text.encode("utf-8"))


def write_jsonl_atomic(path: str | Path, rows: Iterable[dict]) -> None:
    content = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    _write_text(path, content)


def write_json_atomic(path: str | Path, obj) -> None:
    _write_text(path, json.dumps(obj, ensure_ascii=False, indent=2) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    _write_text(path, text)


def remove_file(path: str | Path) -> None:
    """Remove *path*, a file an earlier run wrote, if it is there."""
    Path(path).unlink(missing_ok=True)
