"""Every refusal of the library's own arguments and input, by its exact
message, beside the value accepted on the other side of its boundary.

A row of ``REFUSALS`` is a call on literal inputs and what it must do: raise
exactly that exception type with exactly that ``str(exc)``, or return
(``ACCEPTED``). An error a call passes on from a provider, the cache, the
file system or a socket is not a refusal: it is tested with its source.
A row builds the library's objects when it runs, so that a library fault
fails rows rather than the collection of this module.
"""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from abcd_eval.answers import AnswerParseError, build_answer_prompt, parse_answers
from abcd_eval.datasets import (
    QuestionFormat,
    RawQuizbowlRecord,
    SplitSpec,
    load_questions,
    parse_quizbowl_record,
    sample_questions,
)
from abcd_eval.decompose import (
    DecompositionParseError,
    PromptPack,
    PromptPackError,
    load_prompt_pack,
    parse_decomposition,
)
from abcd_eval.model import (
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    Tag,
    VerificationResult,
    Verdict,
)
from abcd_eval.providers import (
    API_KEY_ENV_VAR,
    CompletionRequest,
    CompletionResponse,
    FinishReason,
    LiveProvider,
    ProviderError,
    ScriptRule,
    ScriptedProvider,
    load_script_rules,
)
from abcd_eval.records import (
    assignment_from_record,
    claim_set_from_record,
    claim_set_to_record,
    evaluation_from_record,
    evaluation_to_record,
    read_jsonl,
    scan_jsonl,
    verifications_from_record,
    verifications_to_record,
)
from abcd_eval.scoring import score_true
from abcd_eval.stats import (
    DegenerateInputError,
    regularized_incomplete_beta,
    two_sided_p_value,
    welch_t_test,
)
from abcd_eval.template import InstantiationError, instantiate, instantiate_with_override
from abcd_eval.verify import VerificationError, verify_all
from helpers import RecordingProvider, build_evaluation

ACCEPTED = None  # the call returns
EXAMPLE = "Step 3:\n1. <answer> was an author.\n2. <answer> wrote <novel>."  # it parses
URL = "https://api.example.test/v1"
NOT_JSON = "bad record: JSONDecodeError: Expecting value: line 1 column 1 (char 0)"
BRACKETS = [("both", "a <b>"), ("only-open", "a < b"), ("only-close", "b > a")]
NAN, INF = float("nan"), float("inf")
BETA = "beta parameters must be positive and finite"


def written(content, name="in.jsonl"):
    """*name*, a path relative to the row's own directory, holding *content*."""
    path = Path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return path


def assignment(**values):
    return AnswerAssignment.from_dict(values)


def evaluation(**changes):
    return replace(build_evaluation("q1", "TTT"), **changes)


def renumbered(record, rows_at, field, numbers):
    """*record* with the *field* of its rows under the keys *rows_at* set to
    *numbers* in turn."""
    rows = record
    for key in rows_at:
        rows = rows[key]
    for row, number in zip(rows, numbers):
        row[field] = number
    return record


# Each record that numbers its claims 1..n: how it is written from an
# evaluation and read back, and where its numbered rows and their field are.
NUMBERED = {
    "claim_set": (lambda e: claim_set_to_record(e.claim_set), claim_set_from_record,
                  ("claims",), "index"),
    "verifications": (lambda e: verifications_to_record("q1", e.results),
                      verifications_from_record, ("results",), "claim_index"),
    "evaluation-results": (evaluation_to_record, evaluation_from_record,
                           ("results",), "claim_index"),
    "evaluation-claims": (evaluation_to_record, evaluation_from_record,
                          ("claim_set", "claims"), "index"),
}

REFUSALS = {
    **{f"model-rejects_bad_names-{case}": (lambda name=name: Tag(name),
                                           (ValueError, f"invalid tag name: {name!r}"))
       for case, name in [("empty", ""), ("blank", " "), ("double-space", "a  b"),
                          ("leading-space", " a"), ("trailing-space", "a "),
                          ("open-bracket", "a<b"), ("close-bracket", "a>b")]},
    "model-rejects_bad_names-final-newline": (lambda: Tag("City\n"),
                                              (ValueError, "invalid tag name: 'City\\n'")),
    "model-each_field_is_type_checked-question-id": (
        lambda: Question(7, "x?", "y", Dataset.CUSTOM),
        (ValueError, "question id must be a string, got 7")),
    "model-each_field_is_type_checked-question-text": (
        lambda: Question("q", ["Which", "city?"], "y", Dataset.CUSTOM),
        (ValueError, "question text must be a string, got ['Which', 'city?']")),
    "model-each_field_is_type_checked-question-dataset": (
        lambda: Question("q", "x?", "y", "custom"),
        (ValueError, "question dataset must be a Dataset, got 'custom'")),
    "model-each_field_is_type_checked-question-subcategory": (
        lambda: Question("q", "x?", "y", Dataset.CUSTOM, subcategory=3),
        (ValueError, "question subcategory must be a string or null, got 3")),
    "model-each_field_is_type_checked-claim-text": (
        lambda: ClaimTemplate(None), (ValueError, "claim text must be a string, got None")),
    "model-each_field_is_type_checked-entity-reasoning": (
        lambda: ClaimSet("q1", (ClaimTemplate("<answer> is"),), entity_reasoning=[]),
        (ValueError, "claim set entity_reasoning must be a string or null, got []")),
    "model-each_field_is_type_checked-answer-value": (
        lambda: assignment(answer=5),
        (ValueError, "answer for tag answer must be a string, got 5")),
    "model-each_field_is_type_checked-verdict": (
        lambda: VerificationResult("x", "true", "True."),
        (ValueError, "verification verdict must be a Verdict, got 'true'")),
    "model-rejects_blank_fields-id": (lambda: Question("", "x?", "y", Dataset.CUSTOM),
                                      (ValueError, "question '': id must be non-empty")),
    "model-rejects_blank_fields-text": (lambda: Question("q", "  ", "y", Dataset.CUSTOM),
                                        (ValueError, "question 'q': text must be non-empty")),
    "model-rejects_blank_fields-gold_answer": (
        lambda: Question("q", "x?", "", Dataset.CUSTOM),
        (ValueError, "question 'q': gold_answer must be non-empty")),
    "model-rejects_empty_claims": (lambda: ClaimSet("q1", ()),
                                   (ValueError, "question q1: claim set is empty")),
    "model-requires_answer_tag": (lambda: assignment(play="Hamlet"),
                                  (ValueError, "assignment is missing the <answer> tag")),
    "model-rejects_empty_and_angle_brackets-empty": (
        lambda: assignment(answer="   "), (ValueError, "empty answer for tag <answer>")),
    **{f"model-rejects_empty_and_angle_brackets-{case}": (
        lambda value=value: assignment(answer=value),
        (ValueError, f"answer for tag <answer> contains angle brackets: {value!r}"))
       for case, value in BRACKETS},
    "model-rejects_duplicate_tags": (
        lambda: AnswerAssignment(entries=((Tag("answer"), "x"), (Tag("Answer"), "y"))),
        (ValueError, "duplicate assignment for tag <answer>")),
    "model-rejects_leftover_tags": (
        lambda: VerificationResult("<answer> is a playwright", Verdict.TRUE, "True."),
        (ValueError, "instantiated text still contains tags ['answer']")),
    "model-result_count_must_match_claims": (
        lambda: evaluation(results=build_evaluation("q1", "T").results),
        (ValueError, "question q1: 1 results for 3 claims")),
    "model-label_and_gold_score_are_checked-correct": (
        lambda: evaluation(correct=1),
        (ValueError, "evaluation correct must be a boolean or null, got 1")),
    "model-label_and_gold_score_are_checked-error_category": (
        lambda: evaluation(error_category=5),
        (ValueError, "evaluation error_category must be a string or null, got 5")),
    "model-label_and_gold_score_are_checked-gt_score_true-float": (
        lambda: evaluation(gt_score_true=0.5),
        (ValueError, "evaluation gt_score_true must be a Fraction or null, got 0.5")),
    **{f"model-label_and_gold_score_are_checked-gt_score_true-{score}": (
        lambda score=score: evaluation(gt_score_true=score),
        (ValueError, f"question q1: gt_score_true {score} is outside [0, 1] or given "
                     "for a single claim") if score not in (0, 1) else ACCEPTED)
       for score in (Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(3, 2))},
    "template-missing_assignment": (
        lambda: instantiate(ClaimTemplate("<answer> wrote <play>"),
                            assignment(answer="Shakespeare")),
        (InstantiationError, "no answer assigned for <play>")),
    "template-answers_are_not_rescanned": (
        lambda: assignment(answer="sneaky <play>"),
        (ValueError, "answer for tag <answer> contains angle brackets: 'sneaky <play>'")),
    "template-override_is_validated-empty": (
        lambda: instantiate_with_override(ClaimTemplate("<answer> is"),
                                          assignment(answer="x"), "  "),
        (InstantiationError, "override answer is empty")),
    **{f"template-override_is_validated-{case}": (
        lambda value=value: instantiate_with_override(ClaimTemplate("<answer> is"),
                                                      assignment(answer="x"), value),
        (InstantiationError, f"override answer contains angle brackets: {value!r}"))
       for case, value in BRACKETS},
    "template-bracket_welding_raises_leftover": (
        lambda: instantiate(ClaimTemplate("<<answer>>"), assignment(answer="v")),
        (InstantiationError, "tag <v> survived substitution at offset 0")),
    "answers-requires_answer_tag": (
        lambda: build_answer_prompt(evaluation().question, [Tag("city")]),
        (ValueError, "tag list must include <answer>")),
    **{f"answers-{case}": (
        lambda raw=raw: parse_answers(raw, (Tag("answer"), Tag("city"))),
        (AnswerParseError, f"no usable answer for <{tag}> in completion"))
       for case, raw, tag in [
           ("missing_tag_raises", "<answer>: Frank Gehry", "city"),
           ("empty_value_counts_as_missing", "<answer>: Frank Gehry\n<city>:   ", "city"),
           ("empty_value_counts_as_missing-quotes", '<answer>: ""\n<city>: Bilbao', "answer"),
           ("bracketed_value_counts_as_missing", "<answer>: <answer>\n<city>: B", "answer"),
           ("bracketed_value_counts_as_missing-only-close", "<answer>: a > b\n<city>: B",
            "answer"),
       ]},
    "scoring-empty_rejected": (lambda: score_true([]),
                               (ValueError, "cannot score an empty verdict list")),
    "stats-too_small_samples-x": (
        lambda: welch_t_test([1.0], [1.0, 2.0]),
        (DegenerateInputError, "each sample needs at least two observations (got 1 and 2)")),
    "stats-too_small_samples-y": (
        lambda: welch_t_test([1.0, 2.0], []),
        (DegenerateInputError, "each sample needs at least two observations (got 2 and 0)")),
    "stats-both_zero_variance": (lambda: welch_t_test([2.0, 2.0, 2.0], [1.0, 1.0]),
                                 (DegenerateInputError, "both samples have zero variance")),
    **{f"stats-domain_errors-{case}": (
        lambda args=args: regularized_incomplete_beta(*args), (ValueError, message))
       for case, args, message in [
           ("a-negative", (-1.0, 2.0, 0.5), f"{BETA}, got a=-1.0, b=2.0"),
           ("a-0", (0.0, 2.0, 0.5), f"{BETA}, got a=0.0, b=2.0"),
           ("b-0", (2.0, 0.0, 0.5), f"{BETA}, got a=2.0, b=0.0"),
           ("a-nan", (NAN, 2.0, 0.5), f"{BETA}, got a=nan, b=2.0"),
           ("b-nan", (2.0, NAN, 0.5), f"{BETA}, got a=2.0, b=nan"),
           ("a-inf", (INF, 2.0, 0.5), f"{BETA}, got a=inf, b=2.0"),
           ("b-inf", (2.0, INF, 0.5), f"{BETA}, got a=2.0, b=inf"),
           ("x-above-1", (1.0, 2.0, 1.5), "x must lie in [0, 1], got 1.5"),
       ]},
    **{f"stats-domain_errors-df-{case}": (
        lambda df=df: two_sided_p_value(1.0, df),
        (ValueError, f"degrees of freedom must be positive and finite, got {df}"))
       for case, df in [("0", 0.0), ("nan", NAN), ("inf", INF)]},
    "stats-domain_errors-t-nan": (lambda: two_sided_p_value(float("nan"), 3.0),
                                  (ValueError, "t statistic is NaN")),
    "decompose-missing_step_marker": (
        lambda: parse_decomposition("1. <answer> is a planet.", "q9"),
        (DecompositionParseError, "question q9: no 'Step 3:' marker in completion")),
    "decompose-empty_step3_section": (
        lambda: parse_decomposition("Step 3:\n\n", "q"),
        (DecompositionParseError, "question q: step-3 section contains no claims")),
    **{f"decompose-rejects_wrong_example_count-{n}": (
        lambda n=n: PromptPack("Decompose.", (EXAMPLE,) * n),
        (PromptPackError, f"pack must hold 5 to 7 examples, got {n}")
        if n not in (5, 7) else ACCEPTED)
       for n in (0, 4, 5, 7, 8)},
    "decompose-rejects_blank_instructions": (lambda: PromptPack("  \n", (EXAMPLE,) * 5),
                                             (PromptPackError, "pack instructions are empty")),
    "decompose-rejects_unparseable_example": (
        lambda: PromptPack("Decompose.", (EXAMPLE,) * 4 + ("this example has no steps",)),
        (PromptPackError, "pack example 5 does not parse: question pack-example-5: no "
                          "'Step 3:' marker in completion")),
    "decompose-missing_file_is_reported": (
        lambda: load_prompt_pack(written("Decompose.", "pack/instructions.txt").parent),
        (PromptPackError, "prompt pack file missing: pack/examples.txt")),
    "verify-missing_tag_value_fails_with_claim_index": (
        lambda: verify_all(ClaimSet("q7", (ClaimTemplate("<answer> is"),
                                           ClaimTemplate("<answer> is in <city>"))),
                           assignment(answer="Wright"), RecordingProvider()),
        (VerificationError, "claim 2: no answer assigned for <city>")),
    "verify-bad_override_answer_fails_with_claim_index": (
        lambda: verify_all(ClaimSet("q7", (ClaimTemplate("<answer> is"),)),
                           assignment(answer="Wright"), RecordingProvider(),
                           override_answer="a <b>"),
        (VerificationError, "claim 1: override answer contains angle brackets: 'a <b>'")),
    "datasets-oversample_raises": (
        lambda: sample_questions([evaluation().question] * 3, 4, seed=0),
        (ValueError, "cannot sample 4 questions from 3")),
    "datasets-negative_size_raises": (
        lambda: sample_questions([evaluation().question] * 3, -1, seed=0),
        (ValueError, "sample size must be non-negative, got -1")),
    "datasets-fractions_must_sum_to_one": (
        lambda: SplitSpec(train=0.5, valid=0.1, test=0.2),
        (ValueError, "split fractions must sum to 1")),
    "datasets-fraction_bounds": (lambda: SplitSpec(train=1.0, valid=0.0, test=0.0),
                                 (ValueError, "train fraction must be in (0, 1), got 1.0")),
    "datasets-requires_a_clue": (lambda: RawQuizbowlRecord(clues=(), answer="x"),
                                 (ValueError, "quizbowl record must hold at least one clue")),
    **{f"datasets-parse_quizbowl_record-{case}": (
        lambda row=row: parse_quizbowl_record(row), (ValueError, message))
       for case, row, message in [
           ("no-clues", {"clues": [], "answer": "x"}, "record needs a non-empty 'clues' list"),
           ("null-answer", {"clues": ["a clue"], "answer": None},
            "quizbowl record answer must be a string, got None"),
           ("int-clue", {"clues": [5], "answer": "x"},
            "quizbowl record clue must be a string, got 5"),
           ("list-category", {"clues": ["a clue"], "answer": "x", "category": [1]},
            "quizbowl record category must be a string or null, got [1]"),
       ]},
    "datasets-nothing_parses_raises": (
        lambda: load_questions(written("garbage\nmore garbage\n"), QuestionFormat.GENERIC),
        (ValueError, f"in.jsonl: none of 2 lines parsed (first error: line 1: {NOT_JSON})")),
    "datasets-empty_file_raises": (
        lambda: load_questions(written("\n\n"), QuestionFormat.GENERIC),
        (ValueError, "in.jsonl: file holds no records")),
    "records-evaluation_with_another_questions_claim_set_is_rejected": (
        lambda: evaluation_from_record({
            **evaluation_to_record(build_evaluation("q1", "TF")),
            "claim_set": claim_set_to_record(build_evaluation("q999", "TF").claim_set)}),
        (ValueError, "claim set of 'q999' under 'q1'")),
    "records-single_claim_evaluation_with_a_gold_score_is_rejected": (
        lambda: evaluation_from_record(
            {**evaluation_to_record(build_evaluation("q1", "T")), "gt_score_true": "1/2"}),
        (ValueError, "question q1: gt_score_true 1/2 is outside [0, 1] or given for a "
                     "single claim")),
    **{f"records-claims_line_and_id_out_of_order_are_rejected-{kind}-{first}-{second}": (
        lambda kind=kind, numbers=(first, second): NUMBERED[kind][1](renumbered(
            NUMBERED[kind][0](build_evaluation("q1", "TF")), *NUMBERED[kind][2:], numbers)),
        (ValueError, f"{NUMBERED[kind][3]} {wrong}"))
       for kind in NUMBERED
       for first, second, wrong in [(2, 1, "2 at position 1"), (1, 3, "3 at position 2"),
                                    (0, 1, "0 at position 1")]},
    "records-assignment_tag_with_a_final_newline_is_rejected": (
        lambda: assignment_from_record({"question_id": "q1",
                                        "entries": {"answer": "X", "city\n": "Y"}}),
        (ValueError, "invalid tag name: 'city\\n'")),
    "records-read_jsonl_raises_the_first_error": (
        lambda: read_jsonl(written('{"id": "a"}\n{"id": "a"}\nnot json\n'),
                           lambda row, lineno: row["id"], key=str),
        (ValueError, "in.jsonl:2: duplicate question id 'a'")),
    "records-read_jsonl_raises_the_first_error-not-json": (
        lambda: read_jsonl(written('{"id": "a"}\n{"id": "a"}\nnot json\n')),
        (ValueError, f"in.jsonl:3: {NOT_JSON}")),
    "records-not_utf8_is_an_error_naming_the_file": (
        lambda: scan_jsonl(written(b'{"a": "caf\xe9"}\n'), lambda row, lineno: row),
        (ValueError, "in.jsonl: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
                     "position 10: invalid continuation byte")),
    "providers-rejects_empty_model": (lambda: CompletionRequest("", "p", 5),
                                      (ValueError, "request model must be non-empty")),
    "providers-rejects_nonpositive_max_tokens": (
        lambda: CompletionRequest("m", "p", 0), (ValueError, "max_tokens must be >= 1, got 0")),
    "providers-empty_text_needs_non_stop_finish": (
        lambda: CompletionResponse(""),
        (ValueError, "empty completion text requires a non-stop finish reason")),
    "providers-empty_text_needs_non_stop_finish-other": (
        lambda: CompletionResponse("", FinishReason.OTHER), ACCEPTED),
    "providers-exact_mode_requires_full_prompt": (
        lambda: ScriptedProvider([ScriptRule("Paris", "hit", mode="exact")]).complete(
            CompletionRequest("m", "Paris is a city", 16)),
        (ProviderError, "other: no script rule matches prompt: 'Paris is a city'")),
    "providers-unmatched_prompt_error_includes_preview": (
        lambda: ScriptedProvider([]).complete(CompletionRequest("m", "unexpected\nprompt", 16)),
        (ProviderError, "other: no script rule matches prompt: 'unexpected\\\\nprompt'")),
    "providers-unmatched_prompt_error_includes_preview-cut-at-120": (
        lambda: ScriptedProvider([]).complete(CompletionRequest("m", "x" * 119 + "yz", 16)),
        (ProviderError, f"other: no script rule matches prompt: '{'x' * 119}y'")),
    "providers-bad_rule_mode_rejected": (lambda: ScriptRule("x", "y", mode="regex"),
                                         (ValueError, "unknown script rule mode: 'regex'")),
    "providers-bad_row_names_line": (
        lambda: load_script_rules(written('{"match": "a"}\n')),
        (ValueError, "in.jsonl:1: bad record: KeyError: 'response'")),
    "providers-missing_key_fails_at_construction": (
        lambda: LiveProvider(URL),
        (ProviderError, f"auth: no API key: set {API_KEY_ENV_VAR} or pass api_key")),
    **{f"providers-key_http_cannot_carry_fails_at_construction-{case}": (
        lambda key=key: LiveProvider(URL, api_key=key),
        (ProviderError, "auth: the API key must be Latin-1 text without line breaks")
        if case != "latin-1" else ACCEPTED)
       for case, key in [("not-latin-1", "ключ"), ("latin-1", "sk-\xff"),
                         ("chr-256", "sk-\u0100"),
                         ("carriage-return", "sk-a\rb"), ("line-feed", "sk-a\nb")]},
    "providers-fewer_than_one_attempt_is_refused": (
        lambda: LiveProvider(URL, api_key="sk-test", max_attempts=0),
        (ValueError, "max_attempts must be >= 1, got 0")),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name, tmp_path, monkeypatch):
    """The row's call raises exactly its type and message, or returns."""
    monkeypatch.chdir(tmp_path)  # where a row writes its files
    monkeypatch.delenv(API_KEY_ENV_VAR, raising=False)
    call, expected = REFUSALS[name]
    try:
        call()
    except Exception as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is ACCEPTED
