"""Every reader of outside input either gives typed model objects or fails
with an error that names the place.

The readers are the stage record files that an option reads
(``cli._STAGE_FILES``, ``--records`` among them), ``--labels``,
``--questions`` in each format, the ``build-obscureqa`` dump, script rules,
cache entries and live response bodies. For each one a valid record is
taken apart field by field: every field, in turn, is replaced by a
generated JSON value or removed, and the record goes through the reader.
The outcome must be a value whose string fields all hold ``str``, or a
``ValueError`` or ``ProviderError`` naming the file, the cache digest or the
response body.
Any other exception fails the test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from abcd_eval import cli
from abcd_eval.datasets import QuestionFormat, load_questions
from abcd_eval.model import AnswerAssignment
from abcd_eval.pipeline import QuestionOutcome, RunConfig
from abcd_eval.providers import (
    CompletionRequest,
    ProviderError,
    ProviderErrorKind,
    ResponseCache,
    _reply,
    cache_key,
    load_script_rules,
)
from helpers import build_evaluation

BOUNDED = settings(max_examples=20)

MISSING = object()  # removes the field instead of replacing it

# Strings a reader might mistake for something valid, and arbitrary JSON.
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["", " ", "1/2", "3/2", "true", "stop", "exact", "custom",
                       "q1", "<answer>", "Paris"])
)
JSON_VALUES = st.just(MISSING) | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def field_paths(value, prefix=()):
    """The path of every dict key and list item inside *value*, and *value*'s
    own (empty) path."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, item in items:
        yield from field_paths(item, prefix + (key,))


def mutations(base, value):
    """Copies of *base*, each with one field replaced by *value* (or removed)."""
    text = json.dumps(base)
    for path in field_paths(base):
        if not path:
            if value is not MISSING:
                yield value
            continue
        record = json.loads(text)
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if value is MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        yield record


def assert_typed(obj):
    """Every field annotated ``str`` or ``Optional[str]`` of every model
    object reachable from *obj* holds a ``str`` (or None where optional)."""
    if isinstance(obj, AnswerAssignment):
        assert all(isinstance(value, str) for value in obj.as_dict().values())
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if field.type == "str":
                assert isinstance(value, str), (field.name, value)
            elif field.type == "Optional[str]":
                assert value is None or isinstance(value, str), (field.name, value)
            assert_typed(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            assert_typed(item)
    elif isinstance(obj, dict):
        for key, item in obj.items():
            assert_typed(key)
            assert_typed(item)


def check_reader(read, base, value, place):
    """Feed every one-field mutation of *base* to *read*; each must return
    typed objects or raise an expected error that names *place*: a text its
    message holds, or a test of the error."""
    names = place if callable(place) else (lambda exc: place in str(exc))
    for record in mutations(base, value):
        try:
            result = read(record)
        except (ValueError, ProviderError) as exc:
            assert names(exc), (record, exc)
        else:
            assert_typed(result)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


def write_line(path, record):
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def evaluation():
    return build_evaluation(
        "q1", "TF", correct=False, gt_verdict_symbols="TT", error_category="wrong"
    )


@pytest.mark.parametrize("field", [
    pytest.param(field, id=option)
    for field, (_, option, _, _) in cli._STAGE_FILES.items() if option
])
@BOUNDED
@given(value=JSON_VALUES)
def test_stage_inputs(workdir, evaluation, field, value):
    _, option, to_record, _ = cli._STAGE_FILES[field]
    path = workdir / f"{option}.jsonl"
    outcome = QuestionOutcome(
        evaluation.question, claim_set=evaluation.claim_set,
        assignment=evaluation.assignment, results=list(evaluation.results),
        gt_results=list(evaluation.results), evaluation=evaluation,
    )
    check_reader(
        lambda record: cli._read_stage_file(write_line(path, record), field),
        to_record(outcome), value, str(path),
    )


@BOUNDED
@given(value=JSON_VALUES)
def test_labels(workdir, value):
    path = workdir / "labels.jsonl"
    base = {"question_id": "q1", "correct": False, "error_category": "wrong"}
    check_reader(
        lambda record: cli._load_labels_for_cli(write_line(path, record)),
        base, value, str(path),
    )


QUESTION_ROWS = {
    QuestionFormat.TRIVIAQA: {
        "QuestionId": "tc_1", "Question": "Which city?", "Answer": {"Value": "Paris"},
    },
    QuestionFormat.HOTPOTQA: {
        "_id": "h1", "type": "bridge", "level": "easy",
        "question": "Which city?", "answer": "Paris",
    },
    QuestionFormat.OBSCUREQA: {  # as records.to_record writes a question
        "id": "obscureqa-00001", "text": "What city?", "gold_answer": "Paris",
        "dataset": "obscureqa", "category": "Geography", "subcategory": "Cities",
    },
    QuestionFormat.GENERIC: {
        "id": "g1", "question": "Which city?", "answer": "Paris",
        "dataset": "custom", "category": "Geography", "subcategory": "Cities",
    },
}


def test_every_question_format_has_a_row():
    assert set(QUESTION_ROWS) == set(QuestionFormat)


@pytest.mark.parametrize("fmt", list(QuestionFormat), ids=lambda fmt: fmt.value)
@BOUNDED
@given(value=JSON_VALUES)
def test_questions(workdir, fmt, value):
    path = workdir / f"questions-{fmt.value}.jsonl"
    args = argparse.Namespace(questions=path, format=fmt.value)

    def read(record):
        write_line(path, record)
        return cli._load_questions_for_cli(args, RunConfig())

    check_reader(read, QUESTION_ROWS[fmt], value, str(path))


DUMP_ROW = {
    "clues": ["This painter made a fresco (in Padua)", "easier clue"],
    "answer": "Giotto", "category": "Fine Arts", "subcategory": "Painting",
}


@BOUNDED
@given(value=JSON_VALUES)
def test_dump(workdir, value):
    # The mutated row comes before a valid one, so the build always has a
    # record to keep; each row must count as an input record or a line error.
    path = workdir / "dump.jsonl"
    out_dir = workdir / "obscureqa"

    def read(record):
        path.write_text(
            json.dumps(record) + "\n" + json.dumps(DUMP_ROW) + "\n", encoding="utf-8"
        )
        assert cli.main(["build-obscureqa", "--dump", str(path),
                         "--out-dir", str(out_dir)]) == cli.EXIT_OK
        stats = json.loads((out_dir / "build_stats.json").read_text("utf-8"))
        assert stats["input_records"] + stats["line_errors"] == 2
        questions = []
        for split in ("train", "valid", "test"):
            split_path = out_dir / f"obscureqa_{split}.jsonl"
            if split_path.read_text("utf-8"):
                report = load_questions(split_path, QuestionFormat.OBSCUREQA)
                assert report.line_errors == []
                questions += report.questions
        assert len(questions) == stats["kept"]
        return questions

    check_reader(read, DUMP_ROW, value, str(path))


@BOUNDED
@given(value=JSON_VALUES)
def test_script_rules(workdir, value):
    path = workdir / "rules.jsonl"
    base = {"match": "Question:", "response": "Step 3:\n1. <answer>", "mode": "exact"}
    check_reader(
        lambda record: load_script_rules(write_line(path, record)),
        base, value, str(path),
    )


REQUEST = CompletionRequest(model="m", prompt="Is it true?", max_tokens=8)


@BOUNDED
@given(value=JSON_VALUES)
def test_cache_entries(workdir, value):
    cache = ResponseCache(workdir / "cache")
    digest = cache_key(REQUEST)  # so the base entry reads and each field is reached
    base = {
        "request": {"model": "m", "prompt": "Is it true?", "temperature": 0.0,
                    "max_tokens": 8},
        "response": {"text": "True.", "finish_reason": "stop"},
        "timestamp": "2024-01-01T00:00:00+00:00",
    }

    def read(record):
        write_line(workdir / "cache" / f"{digest}.json", record)
        return cache.get(digest)

    check_reader(read, base, value, digest)


@BOUNDED
@given(value=JSON_VALUES)
def test_live_bodies(value):
    base = {"choices": [{"message": {"role": "assistant", "content": "True."},
                         "finish_reason": "stop"}]}

    def read(body):
        return _reply(200, {}, json.dumps(body).encode("utf-8"))

    # A body that does not convert is malformed; a filtered one without text
    # is filtered.
    def names_the_body(exc):
        if not isinstance(exc, ProviderError):
            return False
        if exc.kind is ProviderErrorKind.FILTERED:
            return str(exc) == "filtered: completion was filtered"
        return (exc.kind is ProviderErrorKind.OTHER
                and "malformed response body" in str(exc))

    check_reader(read, base, value, names_the_body)
