"""Tests for the core domain types and the tag grammar."""

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
    validate_claim_set,
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
        ClaimTemplate(1, "<answer> is a playwright"),
        ClaimTemplate(2, "<answer> wrote <play>"),
        ClaimTemplate(3, "<answer> lived in <city>"),
    )
    return ClaimSet("q1", claims)


class TestValidateClaimSet:
    def test_well_formed_set_has_no_violations(self):
        assert validate_claim_set(well_formed_claim_set()) == []

    def test_empty_set(self):
        violations = validate_claim_set(ClaimSet(question_id="q1", claims=()))
        assert violations == ["claim set has no claims"]

    def test_missing_answer_tag_names_the_claim(self):
        claims = (
            ClaimTemplate(1, "<answer> is a playwright"),
            ClaimTemplate(2, "the play <play> is a tragedy"),
        )
        violations = validate_claim_set(ClaimSet("q1", claims))
        assert len(violations) == 1
        assert "claim 2" in violations[0]
        assert "<answer>" in violations[0]

    def test_duplicate_indices_flagged_once(self):
        claims = (
            ClaimTemplate(1, "<answer> is a playwright"),
            ClaimTemplate(1, "<answer> wrote a play"),
            ClaimTemplate(2, "<answer> lived in London"),
        )
        violations = validate_claim_set(ClaimSet("q1", claims))
        assert len(violations) == 1
        assert "contiguous" in violations[0]

    def test_first_claim_must_be_entity_type_only(self):
        claims = (
            ClaimTemplate(1, "<answer> wrote <play>"),
            ClaimTemplate(2, "<answer> is famous"),
        )
        violations = validate_claim_set(ClaimSet("q1", claims))
        assert any("entity-type" in v for v in violations)


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
        assert Tag("play") in assignment


class TestVerificationResult:
    def test_rejects_leftover_tags(self):
        with pytest.raises(ValueError, match="still contains tags"):
            VerificationResult(
                claim_index=1,
                instantiated_text="<answer> is a playwright",
                verdict=Verdict.TRUE,
                raw_response="True.",
            )


class TestQuestionEvaluation:
    def _results(self, verdicts):
        return tuple(
            VerificationResult(
                claim_index=i,
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
                score_true=Fraction(1),
            )

    def test_score_absent_only_for_single_claim(self):
        claim_set = well_formed_claim_set()
        assignment = AnswerAssignment.from_dict(
            {"answer": "a", "play": "b", "city": "c"}
        )
        with pytest.raises(ValueError, match="score_true"):
            QuestionEvaluation(
                question=make_question(),
                claim_set=claim_set,
                assignment=assignment,
                results=self._results([Verdict.TRUE] * 3),
                score_true=None,
            )

        single = ClaimSet(
            "q1", (ClaimTemplate(1, "<answer> is a playwright"),)
        )
        evaluation = QuestionEvaluation(
            question=make_question(),
            claim_set=single,
            assignment=AnswerAssignment.from_dict({"answer": "a"}),
            results=self._results([Verdict.TRUE]),
            score_true=None,
        )
        assert evaluation.score_true is None
