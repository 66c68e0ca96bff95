"""Answer prompt construction and completion parsing."""

import pytest

from abcd_eval.answers import (
    ANSWER_INSTRUCTIONS,
    build_answer_prompt,
    clean_answer,
    generate_answers,
    parse_answers,
)
from abcd_eval.model import (
    ANSWER_TAG,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    Tag,
)
from helpers import RecordingProvider

QUESTION = Question(
    id="q1",
    text="Which architect designed the Guggenheim Museum in Bilbao?",
    gold_answer="Frank Gehry",
    dataset=Dataset.CUSTOM,
)


class TestBuildAnswerPrompt:
    def test_answer_slot_comes_first(self):
        prompt = build_answer_prompt(QUESTION, [Tag("city"), ANSWER_TAG])
        assert prompt.endswith("<answer>:\n<city>:")

    def test_full_layout(self):
        prompt = build_answer_prompt(QUESTION, [ANSWER_TAG, Tag("city")])
        expected = (
            f"{ANSWER_INSTRUCTIONS}\n\n"
            f"Question: {QUESTION.text}\n\n"
            "<answer>:\n<city>:"
        )
        assert prompt == expected

class TestCleanAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Mars  ", "Mars"),
            ('"Mars"', "Mars"),
            ("'Mars'", "Mars"),
            ("“Mars”", "Mars"),
            ("Mars.", "Mars"),
            ('" Mars. "', "Mars"),
            ('"\'Mars\'"', "Mars"),  # nested quote layers peel one at a time
            ("Washington D.C.", "Washington D.C"),  # documented loss
            ("etc...", "etc"),
            ('"', '"'),  # a lone quote has no pair to strip
            ("", ""),
        ],
    )
    def test_cases(self, raw, expected):
        assert clean_answer(raw) == expected

    def test_mismatched_quotes_stay(self):
        assert clean_answer('"Mars\'') == '"Mars\''


class TestParseAnswers:
    TAGS = (ANSWER_TAG, Tag("city"))

    def test_happy_path(self):
        raw = "<answer>: Frank Gehry\n<city>: Bilbao\n"
        assignment = parse_answers(raw, self.TAGS)
        assert assignment.as_dict() == {"answer": "Frank Gehry", "city": "Bilbao"}

    def test_prose_lines_are_ignored(self):
        raw = (
            "Sure, here are the answers:\n"
            "<answer>: Frank Gehry\n"
            "Note that the museum is in Spain.\n"
            "<city>: Bilbao\n"
        )
        assignment = parse_answers(raw, self.TAGS)
        assert assignment.answer == "Frank Gehry"

    def test_first_line_per_tag_wins(self):
        raw = "<answer>: Frank Gehry\n<answer>: Zaha Hadid\n<city>: Bilbao"
        assignment = parse_answers(raw, self.TAGS)
        assert assignment.answer == "Frank Gehry"

    def test_tag_names_match_case_insensitively(self):
        raw = "<Answer>: Frank Gehry\n<CITY>: Bilbao"
        assignment = parse_answers(raw, self.TAGS)
        assert assignment.as_dict() == {"answer": "Frank Gehry", "city": "Bilbao"}

    def test_unrequested_tags_are_dropped(self):
        raw = "<answer>: Frank Gehry\n<city>: Bilbao\n<country>: Spain"
        assignment = parse_answers(raw, self.TAGS)
        assert assignment.get(Tag("country")) is None

    def test_values_are_cleaned(self):
        raw = '<answer>: "Frank Gehry."\n<city>: Bilbao'
        assignment = parse_answers(raw, self.TAGS)
        assert assignment.answer == "Frank Gehry"

    def test_multiword_tag_round_trip(self):
        tags = (ANSWER_TAG, Tag("record label"))
        raw = "<answer>: Nevermind\n<record label>: DGC Records"
        assignment = parse_answers(raw, tags)
        assert assignment.get(Tag("record label")) == "DGC Records"


class TestGenerateAnswers:
    def claim_set(self):
        return ClaimSet(
            "q1",
            (
                ClaimTemplate("<answer> is an architect."),
                ClaimTemplate("<answer> designed a museum in <city>."),
            ),
        )

    def test_covers_every_claim_set_tag(self):
        provider = RecordingProvider("<answer>: Frank Gehry\n<city>: Bilbao")
        assignment = generate_answers(QUESTION, self.claim_set(), provider)
        assert assignment.as_dict() == {"answer": "Frank Gehry", "city": "Bilbao"}
        request = provider.requests[0]
        assert request.max_tokens == 256
        assert "Question: " + QUESTION.text in request.prompt

    def test_degenerate_set_still_requests_answer(self):
        # Every claim lost its answer tag; the slot is forced back in so
        # scoring and the gold-answer re-run still have a value to use.
        claim_set = ClaimSet(
            "q1", (ClaimTemplate("The museum is in <city>."),)
        )
        provider = RecordingProvider("<answer>: Frank Gehry\n<city>: Bilbao")
        assignment = generate_answers(QUESTION, claim_set, provider)
        assert assignment.answer == "Frank Gehry"
        assert provider.requests[0].prompt.count("<answer>:") == 1
