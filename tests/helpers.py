"""Shared constants, builders and a recording provider for the tests."""

from __future__ import annotations

import threading
from typing import Optional

from abcd_eval.cli import _STAGE_FILES
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
from abcd_eval.providers import CompletionResponse
from abcd_eval.scoring import score_true

# The files of an evaluate run that must reproduce byte for byte: the stage
# record files, then the reports.
RECORD_FILES = (
    *(name for name, _, _, _ in _STAGE_FILES.values() if name),
    "report.json", "report.txt",
)

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
            "<answer> is an entity" if i == 1 else f"<answer> has property {i}"
        )
        for i in range(1, n + 1)
    )
    claim_set = ClaimSet(qid, claims)
    assignment = AnswerAssignment.from_dict({"answer": f"thing-{qid}"})
    verdicts = verdicts_from(verdict_symbols)
    results = tuple(
        VerificationResult(
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
        correct=correct,
        error_category=error_category,
        gt_score_true=gt_score,
    )


class RecordingProvider:
    """Returns a fixed response and remembers the requests it saw and the
    threads that sent them. Each call runs *hold* on its request before it
    answers."""

    def __init__(self, text="True.", hold=lambda request: None):
        self.text = text
        self.hold = hold
        self.requests = []
        self.threads = set()
        self._lock = threading.Lock()

    @property
    def sent(self) -> list[str]:
        return [request.prompt for request in self.requests]

    def complete(self, request):
        with self._lock:
            self.requests.append(request)
            self.threads.add(threading.get_ident())
        self.hold(request)
        return CompletionResponse(text=self.text)
