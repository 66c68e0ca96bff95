"""Tests for the core domain types and the tag grammar."""

import re
from fractions import Fraction

import pytest

from abcd_eval.model import (
    ANSWER_TAG,
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    QuestionEvaluation,
    Tag,
    VerificationResult,
    Verdict,
    extract_tags,
)


def make_question(qid="q1", text="Who wrote Hamlet?"):
    return Question(id=qid, text=text, gold_answer="Shakespeare",
                    dataset=Dataset.CUSTOM)


class TestTag:
    def test_normalizes_to_lowercase(self):
        assert Tag("Answer").name == "answer"
        assert Tag("ANSWER") == ANSWER_TAG

    def test_serialized_form(self):
        assert Tag("record label").serialized == "<record label>"

    @pytest.mark.parametrize("name", ["", " ", "a  b", " a", "a ", "a<b", "a>b"])
    def test_rejects_bad_names(self, name):
        with pytest.raises(ValueError):
            Tag(name)

    def test_allows_digits_underscore_hyphen(self):
        for name in ("play", "birth_year", "first-name", "tag2", "two words"):
            assert Tag(name).name == name


class TestExtractTags:
    def test_order_and_dedup(self):
        tags = extract_tags("<answer> wrote <play> and <answer> likes <play>")
        assert [t.name for t in tags] == ["answer", "play"]

    def test_case_insensitive_match(self):
        assert [t.name for t in extract_tags("<Answer> met <PLAY>")] == [
            "answer", "play",
        ]

    def test_comparison_prose_is_not_a_tag(self):
        assert extract_tags("x < y and y > z") == []

    def test_inner_spaces_ok_outer_spaces_disqualify(self):
        assert [t.name for t in extract_tags("<record label>")] == ["record label"]
        assert extract_tags("< label>") == []
        assert extract_tags("<label >") == []

    def test_empty_brackets_are_not_a_tag(self):
        assert extract_tags("<>") == []


class TestFieldTypes:
    @pytest.mark.parametrize("build, message", [
        (lambda: Question(id=7, text="x?", gold_answer="y", dataset=Dataset.CUSTOM),
         "question id must be a string, got 7"),
        (lambda: Question(id="q", text=["Which", "city?"], gold_answer="y",
                          dataset=Dataset.CUSTOM),
         "question text must be a string, got ['Which', 'city?']"),
        (lambda: Question(id="q", text="x?", gold_answer="y", dataset="custom"),
         "question dataset must be a Dataset, got 'custom'"),
        (lambda: Question(id="q", text="x?", gold_answer="y",
                          dataset=Dataset.CUSTOM, subcategory=3),
         "question subcategory must be a string or null, got 3"),
        (lambda: ClaimTemplate(None), "claim text must be a string, got None"),
        (lambda: ClaimSet("q1", (ClaimTemplate("<answer> is"),), entity_reasoning=[]),
         "claim set entity_reasoning must be a string or null, got []"),
        (lambda: AnswerAssignment.from_dict({"answer": 5}),
         "answer for tag answer must be a string, got 5"),
        (lambda: VerificationResult("x", "true", "True."),
         "verification verdict must be a Verdict, got 'true'"),
    ])
    def test_each_field_is_type_checked(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


class TestQuestion:
    def test_rejects_blank_fields(self):
        with pytest.raises(ValueError):
            Question(id="", text="x?", gold_answer="y", dataset=Dataset.CUSTOM)
        with pytest.raises(ValueError):
            Question(id="q", text="  ", gold_answer="y", dataset=Dataset.CUSTOM)
        with pytest.raises(ValueError):
            Question(id="q", text="x?", gold_answer="", dataset=Dataset.CUSTOM)


def well_formed_claim_set():
    claims = (
        ClaimTemplate("<answer> is a playwright"),
        ClaimTemplate("<answer> wrote <play>"),
        ClaimTemplate("<answer> lived in <city>"),
    )
    return ClaimSet("q1", claims)


class TestClaimSet:
    def test_rejects_empty_claims(self):
        with pytest.raises(ValueError, match="claim set is empty"):
            ClaimSet("q1", ())


class TestAnswerAssignment:
    def test_requires_answer_tag(self):
        with pytest.raises(ValueError, match="missing the <answer>"):
            AnswerAssignment.from_dict({"play": "Hamlet"})

    def test_trims_values(self):
        assignment = AnswerAssignment.from_dict({"answer": "  Shakespeare  "})
        assert assignment.answer == "Shakespeare"

    def test_rejects_empty_and_angle_brackets(self):
        with pytest.raises(ValueError, match="empty"):
            AnswerAssignment.from_dict({"answer": "   "})
        with pytest.raises(ValueError, match="angle brackets"):
            AnswerAssignment.from_dict({"answer": "a <b>"})

    def test_rejects_duplicate_tags(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnswerAssignment(entries=((Tag("answer"), "x"), (Tag("Answer"), "y")))

    def test_lookup(self):
        assignment = AnswerAssignment.from_dict(
            {"answer": "Shakespeare", "play": "Hamlet"}
        )
        assert assignment.get(Tag("play")) == "Hamlet"
        assert assignment.get(Tag("city")) is None


class TestVerificationResult:
    def test_rejects_leftover_tags(self):
        with pytest.raises(ValueError, match="still contains tags"):
            VerificationResult(
                instantiated_text="<answer> is a playwright",
                verdict=Verdict.TRUE,
                raw_response="True.",
            )


class TestQuestionEvaluation:
    def _results(self, verdicts):
        return tuple(
            VerificationResult(
                instantiated_text=f"claim number {i}",
                verdict=verdict,
                raw_response=verdict.value,
            )
            for i, verdict in enumerate(verdicts, start=1)
        )

    def test_result_count_must_match_claims(self):
        claim_set = well_formed_claim_set()
        assignment = AnswerAssignment.from_dict(
            {"answer": "a", "play": "b", "city": "c"}
        )
        with pytest.raises(ValueError, match="results"):
            QuestionEvaluation(
                question=make_question(),
                claim_set=claim_set,
                assignment=assignment,
                results=self._results([Verdict.TRUE]),
            )

    def test_score_absent_only_for_single_claim(self):
        claim_set = well_formed_claim_set()
        assignment = AnswerAssignment.from_dict(
            {"answer": "a", "play": "b", "city": "c"}
        )
        evaluation = QuestionEvaluation(
            question=make_question(),
            claim_set=claim_set,
            assignment=assignment,
            results=self._results([Verdict.TRUE, Verdict.FALSE, Verdict.TRUE]),
        )
        assert evaluation.score_true == Fraction(1, 2)

        single = ClaimSet("q1", (ClaimTemplate("<answer> is a playwright"),))
        evaluation = QuestionEvaluation(
            question=make_question(),
            claim_set=single,
            assignment=AnswerAssignment.from_dict({"answer": "a"}),
            results=self._results([Verdict.TRUE]),
        )
        assert evaluation.score_true is None

    @pytest.mark.parametrize("field, value, message", [
        ("correct", 1, "evaluation correct must be a boolean or null, got 1"),
        ("error_category", 5,
         "evaluation error_category must be a string or null, got 5"),
        ("gt_score_true", 0.5,
         "evaluation gt_score_true must be a Fraction or null, got 0.5"),
        ("gt_score_true", Fraction(3, 2), "gt_score_true 3/2 is outside [0, 1]"),
        ("gt_score_true", Fraction(-1, 2), "gt_score_true -1/2 is outside [0, 1]"),
    ])
    def test_label_and_gold_score_are_checked(self, field, value, message):
        fields = dict(
            question=make_question(),
            claim_set=well_formed_claim_set(),
            assignment=AnswerAssignment.from_dict(
                {"answer": "a", "play": "b", "city": "c"}
            ),
            results=self._results([Verdict.TRUE] * 3),
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            QuestionEvaluation(**fields, **{field: value})
        accepted = QuestionEvaluation(**fields, gt_score_true=Fraction(1))
        assert accepted.gt_score_true == 1
