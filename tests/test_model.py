"""Tests for the core domain types. The tag grammar and the assignment's
cases are rows of ``TEXTS`` in ``tests/test_texts.py``."""

from fractions import Fraction

from abcd_eval.model import (
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    QuestionEvaluation,
    VerificationResult,
    Verdict,
)


def make_question(qid="q1", text="Who wrote Hamlet?"):
    return Question(id=qid, text=text, gold_answer="Shakespeare",
                    dataset=Dataset.CUSTOM)


def well_formed_claim_set():
    claims = (
        ClaimTemplate("<answer> is a playwright"),
        ClaimTemplate("<answer> wrote <play>"),
        ClaimTemplate("<answer> lived in <city>"),
    )
    return ClaimSet("q1", claims)


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