"""Tests for the core domain types and the tag grammar."""

from fractions import Fraction

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


def well_formed_claim_set():
    claims = (
        ClaimTemplate("<answer> is a playwright"),
        ClaimTemplate("<answer> wrote <play>"),
        ClaimTemplate("<answer> lived in <city>"),
    )
    return ClaimSet("q1", claims)


class TestAnswerAssignment:
    def test_trims_values(self):
        assignment = AnswerAssignment.from_dict({"answer": "  Shakespeare  "})
        assert assignment.answer == "Shakespeare"

    def test_lookup(self):
        assignment = AnswerAssignment.from_dict(
            {"answer": "Shakespeare", "play": "Hamlet"}
        )
        assert assignment.get(Tag("play")) == "Hamlet"
        assert assignment.get(Tag("city")) is None


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