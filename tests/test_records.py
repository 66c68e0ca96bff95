"""Record round-trips, label files, atomic writes."""

import json
from fractions import Fraction
from operator import itemgetter

import pytest

from abcd_eval.model import (
    AggregateReport,
    AnswerAssignment,
    GroundTruthComparison,
)
from abcd_eval.records import (
    append_label,
    atomic_write,
    assignment_from_record,
    assignment_to_record,
    claim_set_from_record,
    claim_set_to_record,
    evaluation_from_record,
    evaluation_to_record,
    fraction_from_str,
    fraction_to_str,
    label_from_record,
    question_from_record,
    read_jsonl,
    scan_jsonl,
    to_record,
    verifications_from_record,
    verifications_to_record,
    write_json_atomic,
    write_jsonl_atomic,
    write_text_atomic,
)
from helpers import build_evaluation


class TestFractionStrings:
    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (Fraction(3, 4), "3/4"),
            (Fraction(1), "1"),
            (Fraction(0), "0"),
            (Fraction(6, 8), "3/4"),  # always reduced
            (None, None),
        ],
    )
    def test_to_str(self, fraction, expected):
        assert fraction_to_str(fraction) == expected

    def test_round_trip_is_exact(self):
        for numerator in range(0, 12):
            for denominator in range(1, 12):
                value = Fraction(numerator, denominator)
                assert fraction_from_str(fraction_to_str(value)) == value
        assert fraction_from_str(None) is None


class TestRoundTrips:
    def test_question(self):
        evaluation = build_evaluation("q1", "TTF", correct=True)
        record = to_record(evaluation.question)
        assert list(record) == ["id", "text", "gold_answer", "dataset", "category",
                                "subcategory"]
        assert question_from_record(record) == evaluation.question
        assert json.loads(json.dumps(record)) == record

    def test_claim_set(self):
        evaluation = build_evaluation("q1", "TTF")
        record = claim_set_to_record(evaluation.claim_set)
        assert [claim["index"] for claim in record["claims"]] == [1, 2, 3]
        assert claim_set_from_record(record) == evaluation.claim_set

    def test_assignment(self):
        assignment = AnswerAssignment.from_dict(
            {"answer": "Frank Gehry", "city": "Bilbao"}
        )
        record = assignment_to_record("q1", assignment)
        assert record == {
            "question_id": "q1",
            "entries": {"answer": "Frank Gehry", "city": "Bilbao"},
        }
        question_id, back = assignment_from_record(record)
        assert question_id == "q1"
        assert back == assignment

    def test_verifications(self):
        evaluation = build_evaluation("q1", "TFN")
        record = verifications_to_record("q1", evaluation.results)
        question_id, results = verifications_from_record(record)
        assert question_id == "q1"
        assert tuple(results) == evaluation.results
        assert [row["verdict"] for row in record["results"]] == [
            "true", "false", "non_response",
        ]

    def test_evaluation_labeled(self):
        evaluation = build_evaluation(
            "q1", "TTFN", correct=False, gt_verdict_symbols="TTTF",
            error_category="wrong entity",
        )
        record = evaluation_to_record(evaluation)
        assert record["score_true"] == "1/3"
        assert record["gt_score_true"] == "2/3"
        assert record["correct"] is False
        assert evaluation_from_record(record) == evaluation

    def test_evaluation_unlabeled_single_claim(self):
        evaluation = build_evaluation("q2", "T")
        record = evaluation_to_record(evaluation)
        assert record["score_true"] is None
        assert record["correct"] is None
        assert evaluation_from_record(record) == evaluation

    def test_report(self):
        report = AggregateReport(
            dataset="custom",
            n_total=12,
            n_correct=6,
            n_incorrect=4,
            n_unlabeled=2,
            mean_correct=Fraction(5, 6),
            mean_incorrect=Fraction(1, 4),
            diff=Fraction(7, 12),
            t_stat=4.427188724235731,
            degrees_freedom=125.0 / 19.0,
            p_value=0.0006,
            p_correct=Fraction(3, 5),
            p_incorrect=Fraction(2, 5),
            gt_comparison=GroundTruthComparison(1, 2, 1),
        )
        record = to_record(report)
        assert record == {
            "dataset": "custom",
            "n_total": 12,
            "n_correct": 6,
            "n_incorrect": 4,
            "n_unlabeled": 2,
            "mean_correct": "5/6",
            "mean_incorrect": "1/4",
            "diff": "7/12",
            "t_stat": 4.427188724235731,
            "degrees_freedom": 125.0 / 19.0,
            "p_value": 0.0006,
            "p_correct": "3/5",
            "p_incorrect": "2/5",
            "gt_comparison": {"gt_greater": 1, "gt_equal": 2, "gt_less": 1},
        }
        assert isinstance(record["t_stat"], float)

    def test_report_with_empty_slices(self):
        report = AggregateReport(
            dataset="custom", n_total=1, n_correct=1, n_incorrect=0,
            n_unlabeled=0, mean_correct=Fraction(1), mean_incorrect=None,
            diff=None, t_stat=None, degrees_freedom=None, p_value=None,
            p_correct=Fraction(1), p_incorrect=None, gt_comparison=None,
        )
        assert to_record(report) == {
            "dataset": "custom", "n_total": 1, "n_correct": 1, "n_incorrect": 0,
            "n_unlabeled": 0, "mean_correct": "1", "mean_incorrect": None,
            "diff": None, "t_stat": None, "degrees_freedom": None, "p_value": None,
            "p_correct": "1", "p_incorrect": None, "gt_comparison": None,
        }


class TestLabels:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        append_label(path, "q1", True)
        append_label(path, "q2", False, error_category="hallucinated date")
        labels = [label_from_record(record) for record in read_jsonl(path)]
        assert labels == [
            ("q1", (True, None)),
            ("q2", (False, "hallucinated date")),
        ]


def _line_and_id(row, lineno):
    """A converter that keeps the line number, refuses a row without "id"
    and filters out a row marked "skip"."""
    return None if row.get("skip") else (lineno, row["id"])


class TestReadJsonl:
    def write(self, tmp_path, text):
        path = tmp_path / "rows.jsonl"
        path.write_text(text, encoding="utf-8")
        return path

    def test_reads_values_skipping_blank_lines(self, tmp_path):
        path = self.write(tmp_path, '{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_convert_gets_physical_line_numbers(self, tmp_path):
        path = self.write(tmp_path, '\n{"id": "a"}\n  \n\n{"id": "b"}')
        assert scan_jsonl(path, _line_and_id) == ([(2, "a"), (5, "b")], [])

    def test_each_kind_of_line_error(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            '{"id": "a"}',
            "not json",
            "[1, 2]",
            '{"name": "no id"}',
            '{"id": "a"}',
            '{"id": "b"}',
        ]))
        rows, errors = scan_jsonl(path, _line_and_id, key=itemgetter(1))
        assert rows == [(1, "a"), (6, "b")]
        assert [lineno for lineno, _ in errors] == [2, 3, 4, 5]
        assert errors[0][1].startswith("bad record: JSONDecodeError: ")
        assert errors[1][1] == "bad record: ValueError: expected a JSON object, got list"
        assert errors[2][1] == "bad record: KeyError: 'id'"
        assert errors[3][1] == "duplicate question id 'a'"

    def test_none_is_a_filtered_row_with_no_key(self, tmp_path):
        path = self.write(tmp_path, '{"skip": 1}\n{"skip": 1}\n{"id": "a"}\n')
        rows, errors = scan_jsonl(path, _line_and_id, key=itemgetter(1))
        assert rows == [None, None, (3, "a")]
        assert errors == []

class TestAtomicWrites:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        rows = [{"a": 1}, {"b": "café"}]
        write_jsonl_atomic(path, rows)
        assert read_jsonl(path) == rows
        # ensure_ascii is off: non-ASCII is written raw.
        assert "café" in path.read_text(encoding="utf-8")

    def test_json_document(self, tmp_path):
        path = tmp_path / "report.json"
        write_json_atomic(path, {"nested": {"x": 1}})
        assert json.loads(path.read_text(encoding="utf-8")) == {"nested": {"x": 1}}
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.txt"
        write_text_atomic(path, "hello")
        assert path.read_text(encoding="utf-8") == "hello"

    def test_atomic_write_takes_bytes_and_leaves_directories_to_callers(
        self, tmp_path
    ):
        path = tmp_path / "entry.json"
        atomic_write(path, "café".encode("utf-8"))
        assert path.read_bytes() == "café".encode("utf-8")
        with pytest.raises(FileNotFoundError):
            atomic_write(tmp_path / "missing" / "entry.json", b"{}")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_a_target_name_near_the_length_limit_writes(self, tmp_path):
        """The temp name does not carry the target's, so a 250-byte name,
        valid in the directory, is written."""
        path = tmp_path / ("r" * 245 + ".json")
        write_text_atomic(path, "{}")
        assert path.read_text(encoding="utf-8") == "{}"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl_atomic(path, [{"v": 1}])
        write_jsonl_atomic(path, [{"v": 2}])
        assert read_jsonl(path) == [{"v": 2}]
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
