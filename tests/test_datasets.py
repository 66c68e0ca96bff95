"""Dataset cleaning, shuffling, splitting, building and loading."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abcd_eval.datasets import (
    ObscureQABuild,
    QuestionFormat,
    RawQuizbowlRecord,
    SplitSpec,
    build_obscureqa,
    clean_text,
    convert_clue_to_question,
    load_questions,
    parse_quizbowl_record,
    sample_questions,
    seeded_shuffle,
    split_sizes,
    transliterate,
)
from abcd_eval.model import Dataset, Question


class TestTransliterate:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("café", "cafe"),
            ("naïve", "naive"),
            ("Dvořák", "Dvorak"),
            ("Gauß", "Gauss"),
            ("Łódź", "Lodz"),
            ("œuvre", "oeuvre"),
            ("Søren", "Soren"),
            ("“quoted”", '"quoted"'),
            ("it’s", "it's"),
            ("em—dash", "em-dash"),
            ("wait…", "wait..."),
            ("plain ascii", "plain ascii"),
        ],
    )
    def test_cases(self, raw, expected):
        assert transliterate(raw) == expected

    def test_unmappable_characters_vanish(self):
        assert transliterate("snow☃man") == "snowman"


class TestCleanText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("café (a drink)", "cafe"),
            ("He said [sic] hello", "He said hello"),
            ("a <i>styled</i> word", "a styled word"),
            ("one  two\tthree\nfour", "one two three four"),
            ("  padded  ", "padded"),
            ("(all parenthetical)", ""),
            ("a (b) c [d] e <f> g", "a c e g"),
            # Spans are minimal and scanned left to right, not nested.
            ("x (a (b) c) y", "x c) y"),
        ],
    )
    def test_cases(self, raw, expected):
        assert clean_text(raw) == expected

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = clean_text(text)
        assert clean_text(once) == once


class TestConvertClue:
    @pytest.mark.parametrize(
        "clue,expected",
        [
            ("This composer wrote nine symphonies",
             "What composer wrote nine symphonies?"),
            ("Name this city on the Seine", "Name what city on the Seine?"),
            ("this novel opens at sea. This novel has a whale",
             "what novel opens at sea. What novel has a whale?"),
            ("An ethical system is described?", "An ethical system is described?"),
            # "this" must stand alone as a word to be rewritten.
            ("Thistles grow on this hill", "Thistles grow on what hill?"),
        ],
    )
    def test_rewrites(self, clue, expected):
        assert convert_clue_to_question(clue) == expected

    @pytest.mark.parametrize(
        "clue",
        [
            "Note to moderator: read slowly",
            "note to the moderator - skip this one",
            "  NOTE TO MODERATOR: pause here",
        ],
    )
    def test_moderator_notes_are_dropped(self, clue):
        assert convert_clue_to_question(clue) is None

    def test_note_mentioned_mid_clue_is_kept(self):
        clue = "The piece opens with a note to the moderator"
        assert convert_clue_to_question(clue) == (
            "The piece opens with a note to the moderator?"
        )


class TestSeededShuffle:
    def test_same_seed_same_order(self):
        items = list(range(100))
        assert seeded_shuffle(items, 7) == seeded_shuffle(items, 7)
        assert seeded_shuffle(items, 7) != seeded_shuffle(items, 8)

    def test_is_permutation_and_input_untouched(self):
        items = ["a", "b", "c", "d", "e"]
        shuffled = seeded_shuffle(items, 3)
        assert sorted(shuffled) == sorted(items)
        assert items == ["a", "b", "c", "d", "e"]

    def test_pinned_permutation(self):
        # Frozen output: the shuffle is part of the dataset contract, so a
        # change here silently reshuffles every published split.
        assert seeded_shuffle(list(range(10)), 0) == [9, 4, 0, 5, 2, 7, 1, 3, 6, 8]

    def test_trivial_inputs(self):
        assert seeded_shuffle([], 0) == []
        assert seeded_shuffle(["only"], 0) == ["only"]


def make_questions(n):
    return [
        Question(id=f"q{i}", text=f"Question {i}?", gold_answer=str(i),
                 dataset=Dataset.CUSTOM)
        for i in range(n)
    ]


class TestSampleQuestions:
    def test_sample_is_deterministic_prefix(self):
        questions = make_questions(20)
        sample = sample_questions(questions, 5, seed=1)
        assert sample == seeded_shuffle(questions, 1)[:5]
        assert len({q.id for q in sample}) == 5

    def test_full_size_is_a_permutation(self):
        questions = make_questions(6)
        sample = sample_questions(questions, 6, seed=2)
        assert sorted(q.id for q in sample) == sorted(q.id for q in questions)


class TestSplitSizes:
    def test_ten_records_default_split(self):
        assert split_sizes(10, SplitSpec()) == (7, 1, 2)

    def test_parts_always_sum_to_total(self):
        spec = SplitSpec()
        for total in range(0, 200):
            parts = split_sizes(total, spec)
            assert sum(parts) == total

    def test_largest_remainder_tie_favors_train(self):
        # With thirds, every part has remainder 1/3 at total=1: the single
        # leftover item lands in train.
        spec = SplitSpec(train=1 / 3, valid=1 / 3, test=1 / 3)
        assert split_sizes(1, spec) == (1, 0, 0)
        assert split_sizes(2, spec) == (1, 1, 0)

    def test_zero_total(self):
        assert split_sizes(0, SplitSpec()) == (0, 0, 0)


class TestQuizbowlRecord:
    def test_parse_quizbowl_record(self):
        record = parse_quizbowl_record(
            {"clues": ["first clue", "second"], "answer": "Paris",
             "category": "Geography"}
        )
        assert record.clues == ("first clue", "second")
        assert record.category == "Geography"


class TestBuildObscureQA:
    def records(self):
        rows = [
            RawQuizbowlRecord(
                clues=(f"This person number {i} did a thing (allegedly)", "later"),
                answer=f"Person {i}",
                category="History",
            )
            for i in range(8)
        ]
        rows.append(RawQuizbowlRecord(clues=("Note to moderator: slow",), answer="x"))
        rows.append(RawQuizbowlRecord(clues=("(only parens)",), answer="y"))
        return rows

    def test_build_counts_and_splits(self):
        build = build_obscureqa(self.records(), SplitSpec(seed=0))
        assert isinstance(build, ObscureQABuild)
        assert build.dropped_moderator_notes == 1
        assert build.dropped_empty == 1
        assert build.total_kept == 8
        assert (len(build.train), len(build.valid), len(build.test)) == \
            split_sizes(8, SplitSpec(seed=0))

    def test_first_clue_only_and_rewrite(self):
        build = build_obscureqa(self.records(), SplitSpec(seed=0))
        all_questions = build.train + build.valid + build.test
        for question in all_questions:
            assert question.dataset is Dataset.OBSCUREQA
            assert question.text.startswith("What person number ")
            assert question.text.endswith("did a thing?")
            assert "later" not in question.text

    def test_ids_track_input_position_not_shuffle(self):
        build_a = build_obscureqa(self.records(), SplitSpec(seed=0))
        build_b = build_obscureqa(self.records(), SplitSpec(seed=99))
        ids_a = sorted(q.id for q in build_a.train + build_a.valid + build_a.test)
        ids_b = sorted(q.id for q in build_b.train + build_b.valid + build_b.test)
        assert ids_a == ids_b
        assert ids_a[0] == "obscureqa-00000"

    def test_same_seed_reproduces_split(self):
        build_a = build_obscureqa(self.records(), SplitSpec(seed=5))
        build_b = build_obscureqa(self.records(), SplitSpec(seed=5))
        assert build_a == build_b


def write_jsonl(path, rows):
    path.write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )


class TestLoadQuestions:
    def test_generic_format(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "question": "Q1?", "answer": "A1"},
                {"id": "b", "question": "Q2?", "answer": "A2",
                 "dataset": "triviaqa", "category": "Science"},
            ],
        )
        report = load_questions(path, QuestionFormat.GENERIC)
        assert [q.id for q in report.questions] == ["a", "b"]
        assert report.questions[0].dataset is Dataset.CUSTOM
        assert report.questions[1].dataset is Dataset.TRIVIAQA
        assert report.questions[1].category == "Science"
        assert report.line_errors == []

    def test_utf8_bom_is_not_part_of_the_first_line(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        write_jsonl(path, [{"id": "a", "question": "Q1?", "answer": "A1"},
                           {"id": "b", "question": "Q2?", "answer": "A2"}])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        report = load_questions(path, QuestionFormat.GENERIC)
        assert [q.id for q in report.questions] == ["a", "b"]
        assert report.line_errors == []

    def test_bad_lines_are_collected_not_fatal(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        path.write_text(
            json.dumps({"id": "a", "question": "Q?", "answer": "A"}) + "\n"
            + "not json\n"
            + json.dumps({"id": "c", "question": "Q?"}) + "\n",
            encoding="utf-8",
        )
        report = load_questions(path, QuestionFormat.GENERIC)
        assert [q.id for q in report.questions] == ["a"]
        assert [lineno for lineno, _ in report.line_errors] == [2, 3]

    def test_duplicate_ids_first_wins(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "question": "First?", "answer": "1"},
                {"id": "a", "question": "Second?", "answer": "2"},
            ],
        )
        report = load_questions(path, QuestionFormat.GENERIC)
        assert len(report.questions) == 1
        assert report.questions[0].text == "First?"
        assert "duplicate" in report.line_errors[0][1]

    def test_triviaqa_field_variants(self, tmp_path):
        path = tmp_path / "trivia.jsonl"
        write_jsonl(
            path,
            [
                {"QuestionId": "tq1", "Question": "Q?", "Answer": {"Value": "A"}},
                {"question": "Q2?", "answer": "A2"},
            ],
        )
        report = load_questions(path, QuestionFormat.TRIVIAQA)
        assert report.questions[0].id == "tq1"
        assert report.questions[0].gold_answer == "A"
        assert report.questions[1].id == "triviaqa-000002"
        assert all(q.dataset is Dataset.TRIVIAQA for q in report.questions)

    def test_hotpotqa_filters_type_and_level(self, tmp_path):
        path = tmp_path / "hotpot.jsonl"
        write_jsonl(
            path,
            [
                {"_id": "h1", "type": "bridge", "level": "easy",
                 "question": "Q1?", "answer": "A1"},
                {"_id": "h2", "type": "bridge", "level": "medium",
                 "question": "Q2?", "answer": "A2"},
                {"_id": "h3", "type": "bridge", "level": "hard",
                 "question": "Q3?", "answer": "A3"},
                {"_id": "h4", "type": "comparison", "level": "easy",
                 "question": "Q4?", "answer": "A4"},
            ],
        )
        report = load_questions(path, QuestionFormat.HOTPOTQA)
        assert [q.id for q in report.questions] == ["h1", "h2"]
        assert report.questions[0].dataset is Dataset.HOTPOTQA_EASY
        assert report.questions[1].dataset is Dataset.HOTPOTQA_MEDIUM
        assert report.skipped == 2
        assert report.line_errors == []

    def test_hotpotqa_all_filtered_is_not_an_error(self, tmp_path):
        path = tmp_path / "hotpot.jsonl"
        write_jsonl(
            path,
            [{"_id": "h1", "type": "comparison", "level": "easy",
              "question": "Q?", "answer": "A"}],
        )
        report = load_questions(path, QuestionFormat.HOTPOTQA)
        assert report.questions == []
        assert report.skipped == 1

    def test_obscureqa_format_sets_dataset(self, tmp_path):
        path = tmp_path / "obscure.jsonl"
        write_jsonl(
            path,
            [{"id": "o1", "text": "Q?", "gold_answer": "A", "dataset": "obscureqa"}],
        )
        report = load_questions(path, QuestionFormat.OBSCUREQA)
        assert report.questions[0].dataset is Dataset.OBSCUREQA

    @pytest.mark.parametrize("fmt, row", [
        (QuestionFormat.GENERIC, {"id": "g", "question": ["Which", "city?"],
                                  "answer": "Paris"}),
        (QuestionFormat.GENERIC, {"id": 7, "question": "Q?", "answer": "A"}),
        (QuestionFormat.GENERIC, {"id": "g", "question": "Q?", "answer": 1984}),
        (QuestionFormat.GENERIC, {"id": "g", "question": "Q?", "answer": "A",
                                  "category": ["Science"]}),
        (QuestionFormat.TRIVIAQA, {"QuestionId": "t", "Question": "Q?",
                                   "Answer": {"Value": 42}}),
        (QuestionFormat.HOTPOTQA, {"_id": 3, "type": "bridge", "level": "easy",
                                   "question": "Q?", "answer": "A"}),
    ], ids=["list-question", "int-id", "int-answer", "list-category",
            "trivia-int-answer", "hotpot-int-id"])
    def test_non_string_fields_are_line_errors_not_coerced(self, tmp_path, fmt, row):
        path = tmp_path / "questions.jsonl"
        good = {"id": "ok", "_id": "ok", "QuestionId": "ok", "type": "bridge",
                "level": "easy", "question": "Fine?", "answer": "Yes"}
        write_jsonl(path, [good, row])
        report = load_questions(path, fmt)
        assert [q.id for q in report.questions] == ["ok"]
        [(lineno, message)] = report.line_errors
        assert lineno == 2
        assert "must be a string" in message

    def test_obscureqa_bad_rows_are_line_errors(self, tmp_path):
        path = tmp_path / "obscure.jsonl"
        good = {"id": "o1", "text": "Q?", "gold_answer": "A", "dataset": "obscureqa"}
        write_jsonl(path, [
            good,
            {"id": "o2", "question": "Q?", "answer": "A"},
            {**good, "id": "o3", "text": 5},
        ])
        report = load_questions(path, QuestionFormat.OBSCUREQA)
        assert [q.id for q in report.questions] == ["o1"]
        assert [lineno for lineno, _ in report.line_errors] == [2, 3]
        assert report.line_errors[0][1] == "bad record: KeyError: 'text'"
