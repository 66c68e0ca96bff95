"""Tests for per-question scoring and aggregation."""

from fractions import Fraction

from abcd_eval.model import Verdict
from abcd_eval.scoring import aggregate, ground_truth_comparison, score_true
from helpers import build_evaluation, verdicts_from


class TestScoreTrue:
    def test_single_claim_has_no_score(self):
        assert score_true([Verdict.TRUE]) is None
        assert score_true([Verdict.NON_RESPONSE]) is None

    def test_first_claim_never_counts(self):
        # Entity-type verdict flips, score does not move.
        assert score_true(verdicts_from("TTF")) == Fraction(1, 2)
        assert score_true(verdicts_from("FTF")) == Fraction(1, 2)
        assert score_true(verdicts_from("NTF")) == Fraction(1, 2)

    def test_non_response_scores_as_false(self):
        assert score_true(verdicts_from("TTTTN")) == Fraction(3, 4)
        assert score_true(verdicts_from("TNN")) == Fraction(0)

    def test_known_example(self):
        score = score_true(verdicts_from("TTFNT"))
        assert score == Fraction(2, 4)
        assert type(score) is Fraction


class TestAggregate:
    def test_four_record_fixture(self):
        records = [
            build_evaluation("a", "T" + "T" * 5, correct=True),        # 1
            build_evaluation("b", "T" + "TTTTF", correct=True),        # 4/5
            build_evaluation("c", "T" + "TTFF", correct=False),        # 1/2
            build_evaluation("d", "T" + "TTTFFFFFFF", correct=False),  # 3/10
        ]
        report = aggregate(records, "custom")
        assert report.n_total == 4
        assert report.n_correct == 2
        assert report.n_incorrect == 2
        assert report.n_unlabeled == 0
        assert report.mean_correct == Fraction(9, 10)
        assert report.mean_incorrect == Fraction(2, 5)
        assert report.diff == Fraction(1, 2)
        assert report.p_correct == Fraction(1, 2)
        assert report.p_incorrect == Fraction(1, 2)
        assert report.t_stat is not None and report.t_stat > 0

    def test_unlabeled_records_stay_out_of_statistics(self):
        records = [
            build_evaluation("a", "TT", correct=True),   # 1
            build_evaluation("b", "TF", correct=False),  # 0
            build_evaluation("c", "TF"),                 # unlabeled
            build_evaluation("d", "TT"),                 # unlabeled
        ]
        report = aggregate(records, "custom")
        assert report.n_total == 4
        assert report.n_unlabeled == 2
        assert report.mean_correct == Fraction(1)
        assert report.mean_incorrect == Fraction(0)
        assert report.p_correct == Fraction(1, 2)

    def test_missing_side_yields_none_fields(self):
        records = [
            build_evaluation("a", "TT", correct=True),
            build_evaluation("b", "TF", correct=True),
        ]
        report = aggregate(records, "custom")
        assert report.mean_incorrect is None
        assert report.diff is None
        assert report.t_stat is None
        assert report.p_value is None
        assert report.p_correct == Fraction(1)

    def test_degenerate_variance_yields_none_t(self):
        records = [
            build_evaluation("a", "TT", correct=True),
            build_evaluation("b", "TT", correct=True),
            build_evaluation("c", "TF", correct=False),
            build_evaluation("d", "TF", correct=False),
        ]
        report = aggregate(records, "custom")
        assert report.mean_correct == Fraction(1)
        assert report.mean_incorrect == Fraction(0)
        assert report.diff == Fraction(1)
        assert report.t_stat is None  # both sides constant

    def test_single_claim_questions_have_no_score_to_average(self):
        records = [
            build_evaluation("a", "T", correct=True),   # score None
            build_evaluation("b", "TT", correct=True),  # 1
            build_evaluation("c", "TF", correct=False),
        ]
        report = aggregate(records, "custom")
        assert report.n_correct == 2
        assert report.mean_correct == Fraction(1)  # only the scored record

    def test_empty_input(self):
        report = aggregate([], "custom")
        assert report.n_total == 0
        assert report.mean_correct is None
        assert report.gt_comparison is None


class TestGroundTruthComparison:
    def test_counts_three_ways(self):
        records = [
            build_evaluation("g", "TTFFF", correct=False, gt_verdict_symbols="TTTFF"),
            build_evaluation("e1", "TTFFF", correct=False, gt_verdict_symbols="TFTFF"),
            build_evaluation("e2", "TFF", correct=False, gt_verdict_symbols="TFF"),
            build_evaluation("l", "TTFFF", correct=False, gt_verdict_symbols="TFFFF"),
        ]
        comparison = ground_truth_comparison(records)
        assert (comparison.gt_greater, comparison.gt_equal, comparison.gt_less) \
            == (1, 2, 1)

    def test_ignores_correct_and_unlabeled_records(self):
        records = [
            build_evaluation("a", "TF", correct=True, gt_verdict_symbols="TT"),
            build_evaluation("b", "TF", gt_verdict_symbols="TT"),
            build_evaluation("c", "TF", correct=False, gt_verdict_symbols="TT"),
        ]
        comparison = ground_truth_comparison(records)
        assert comparison.total == 1
        assert comparison.gt_greater == 1

    def test_aggregate_omits_section_without_gt_scores(self):
        records = [
            build_evaluation("a", "TT", correct=True),
            build_evaluation("b", "TF", correct=False),
        ]
        assert aggregate(records, "custom").gt_comparison is None

    def test_aggregate_includes_section_with_gt_scores(self):
        records = [
            build_evaluation("a", "TT", correct=True),
            build_evaluation("b", "TF", correct=False, gt_verdict_symbols="TT"),
        ]
        report = aggregate(records, "custom")
        assert report.gt_comparison is not None
        assert report.gt_comparison.gt_greater == 1
