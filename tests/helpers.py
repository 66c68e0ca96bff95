"""Shared builders for tests that need fully-formed evaluation records."""

from __future__ import annotations

from typing import Optional

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
from abcd_eval.scoring import score_true

_VERDICTS = {"T": Verdict.TRUE, "F": Verdict.FALSE, "N": Verdict.NON_RESPONSE}


def verdicts_from(symbols: str) -> list[Verdict]:
    return [_VERDICTS[symbol] for symbol in symbols]


def build_evaluation(
    qid: str,
    verdict_symbols: str,
    correct: Optional[bool] = None,
    gt_verdict_symbols: Optional[str] = None,
    error_category: Optional[str] = None,
    dataset: Dataset = Dataset.CUSTOM,
) -> QuestionEvaluation:
    """Build a structurally valid evaluation whose verdicts are given as a
    T/F/N string (first symbol is the entity-type claim)."""
    n = len(verdict_symbols)
    assert n >= 1
    claims = tuple(
        ClaimTemplate(
            i,
            "<answer> is an entity" if i == 1 else f"<answer> has property {i}",
        )
        for i in range(1, n + 1)
    )
    claim_set = ClaimSet(qid, claims)
    assignment = AnswerAssignment.from_dict({"answer": f"thing-{qid}"})
    verdicts = verdicts_from(verdict_symbols)
    results = tuple(
        VerificationResult(
            claim_index=i,
            instantiated_text=(
                f"thing-{qid} is an entity" if i == 1
                else f"thing-{qid} has property {i}"
            ),
            verdict=verdict,
            raw_response=verdict.value,
        )
        for i, verdict in enumerate(verdicts, start=1)
    )
    gt_score = None
    if gt_verdict_symbols is not None:
        gt_score = score_true(verdicts_from(gt_verdict_symbols))
    return QuestionEvaluation(
        question=Question(
            id=qid,
            text=f"What is thing {qid}?",
            gold_answer=f"gold-{qid}",
            dataset=dataset,
        ),
        claim_set=claim_set,
        assignment=assignment,
        results=results,
        score_true=score_true(verdicts),
        correct=correct,
        error_category=error_category,
        gt_score_true=gt_score,
    )
