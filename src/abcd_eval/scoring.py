"""Per-question scores and per-dataset aggregation.

Scores are exact rationals (``fractions.Fraction``); floats appear only in
the t-test fields of the aggregate report. A verdict list scores the claims
in claim order, and the leading entity-type claim never counts: it checks
the answer's type rather than its identity, so a wrong answer of the right
type would still satisfy it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import (
    AggregateReport,
    GroundTruthComparison,
    QuestionEvaluation,
    Verdict,
)
from .stats import DegenerateInputError, welch_t_test


def score_true(verdicts: Sequence[Verdict]) -> Optional[Fraction]:
    """Fraction of true verdicts among claims 2..n.

    The first verdict (the entity-type claim) is excluded. Non-responses
    count against the score: they sit in the denominator but not the
    numerator. Returns None for a single-claim set, where nothing remains
    after the exclusion; raises ValueError for an empty list.
    """
    if not verdicts:
        raise ValueError("cannot score an empty verdict list")
    if len(verdicts) == 1:
        return None
    scored = verdicts[1:]
    true_count = sum(1 for verdict in scored if verdict is Verdict.TRUE)
    return Fraction(true_count, len(scored))


def _mean(values: list[Fraction]) -> Optional[Fraction]:
    if not values:
        return None
    return sum(values, Fraction(0)) / len(values)


def ground_truth_comparison(
    records: Iterable[QuestionEvaluation],
) -> GroundTruthComparison:
    """Compare gold-answer scores with predicted-answer scores.

    Only labeled-incorrect questions that carry both scores participate;
    these are the questions where substituting the gold answer could reveal
    whether the claims themselves were sound.
    """
    greater = equal = less = 0
    for record in records:
        if record.correct is not False:
            continue
        if record.gt_score_true is None or record.score_true is None:
            continue
        if record.gt_score_true > record.score_true:
            greater += 1
        elif record.gt_score_true == record.score_true:
            equal += 1
        else:
            less += 1
    return GroundTruthComparison(gt_greater=greater, gt_equal=equal, gt_less=less)


def aggregate(
    records: Sequence[QuestionEvaluation],
    dataset: str,
) -> AggregateReport:
    """Roll labeled question evaluations up into one report.

    Questions without a ``correct`` label count toward ``n_total`` and
    ``n_unlabeled`` but stay out of every statistic. The t-test compares
    correct scores against incorrect scores and degrades to None fields
    (rather than failing) when either side is too small or both are
    constant.
    """
    records = list(records)
    correct_scores: list[Fraction] = []
    incorrect_scores: list[Fraction] = []
    n_correct = n_incorrect = n_unlabeled = 0
    for record in records:
        if record.correct is None:
            n_unlabeled += 1
        elif record.correct:
            n_correct += 1
            if record.score_true is not None:
                correct_scores.append(record.score_true)
        else:
            n_incorrect += 1
            if record.score_true is not None:
                incorrect_scores.append(record.score_true)

    mean_correct = _mean(correct_scores)
    mean_incorrect = _mean(incorrect_scores)
    diff = None
    if mean_correct is not None and mean_incorrect is not None:
        diff = mean_correct - mean_incorrect

    t_stat = degrees_freedom = p_value = None
    try:
        t_result = welch_t_test(
            [float(s) for s in correct_scores],
            [float(s) for s in incorrect_scores],
        )
        t_stat = t_result.t_stat
        degrees_freedom = t_result.degrees_freedom
        p_value = t_result.p_value
    except DegenerateInputError:
        pass

    n_labeled = n_correct + n_incorrect
    p_correct = Fraction(n_correct, n_labeled) if n_labeled else None
    p_incorrect = Fraction(n_incorrect, n_labeled) if n_labeled else None

    comparison = ground_truth_comparison(records)
    if comparison.total == 0:
        comparison = None

    return AggregateReport(
        dataset=dataset,
        n_total=len(records),
        n_correct=n_correct,
        n_incorrect=n_incorrect,
        n_unlabeled=n_unlabeled,
        mean_correct=mean_correct,
        mean_incorrect=mean_incorrect,
        diff=diff,
        t_stat=t_stat,
        degrees_freedom=degrees_freedom,
        p_value=p_value,
        p_correct=p_correct,
        p_incorrect=p_incorrect,
        gt_comparison=comparison,
    )
