"""Decomposition prompt building, completion parsing, prompt packs."""

from abcd_eval.decompose import (
    PromptPack,
    build_decomposition_prompt,
    decompose,
    default_pack_path,
    load_prompt_pack,
    parse_decomposition,
)
from abcd_eval.model import Dataset, Question
from helpers import RecordingProvider

QUESTION = Question(
    id="q1",
    text="Which architect designed the Guggenheim Museum in Bilbao?",
    gold_answer="Frank Gehry",
    dataset=Dataset.CUSTOM,
)

WELL_FORMED = """Step 1: The answer is a person, specifically an architect.
1. <answer> is an architect.
2. <answer> designed a museum.
Step 2: The question also mentions the museum's city.
Step 3:
1. <answer> is an architect.
2. <answer> designed a museum in <city>.
"""


class TestParseWellFormed:
    def test_claims_and_reasoning(self):
        parsed = parse_decomposition(WELL_FORMED, "q1")
        claim_set = parsed.claim_set
        assert parsed.warnings == ()
        assert claim_set.question_id == "q1"
        assert [c.text for c in claim_set.claims] == [
            "<answer> is an architect.",
            "<answer> designed a museum in <city>.",
        ]
        assert [tag.name for tag in claim_set.tags] == ["answer", "city"]
        assert claim_set.entity_reasoning == (
            "The answer is a person, specifically an architect."
        )

    def test_reasoning_skips_numbered_claim_lines(self):
        raw = "Step 1:\nIt names a person.\n1. <answer> is real.\nStep 3:\n1. <answer> is real."
        parsed = parse_decomposition(raw, "q")
        assert parsed.claim_set.entity_reasoning == "It names a person."

    def test_no_reasoning_section_gives_none(self):
        parsed = parse_decomposition("Step 3:\n1. <answer> exists.", "q")
        assert parsed.claim_set.entity_reasoning is None


class TestParseBoundaries:
    def test_stops_at_blank_line_after_first_claim(self):
        raw = "Step 3:\n1. <answer> is a planet.\n\n2. stray claim after break."
        parsed = parse_decomposition(raw, "q")
        assert len(parsed.claim_set.claims) == 1

    def test_blank_lines_before_claims_are_skipped(self):
        raw = "Step 3:\n\n\n1. <answer> is a planet."
        parsed = parse_decomposition(raw, "q")
        assert [c.text for c in parsed.claim_set.claims] == ["<answer> is a planet."]

    def test_stops_at_dashed_separator(self):
        raw = "Step 3:\n1. <answer> is a planet.\n---\n1. claim from next example."
        parsed = parse_decomposition(raw, "q")
        assert len(parsed.claim_set.claims) == 1

    def test_stops_when_model_starts_a_new_question(self):
        raw = (
            "Step 3:\n1. <answer> is a planet.\n"
            "Question: What is the capital of France?\n1. <answer> is a city."
        )
        parsed = parse_decomposition(raw, "q")
        assert len(parsed.claim_set.claims) == 1

    def test_trailing_prose_after_claims_ends_collection(self):
        raw = (
            "Step 3:\n1. <answer> is a planet.\n"
            "These claims cover the question.\n2. <answer> is red."
        )
        parsed = parse_decomposition(raw, "q")
        assert len(parsed.claim_set.claims) == 1
        assert parsed.warnings == (
            "skipped line without claim number: "
            "'These claims cover the question.'",
        )


class TestParseWarnings:
    def test_preamble_line_warns_and_parsing_continues(self):
        raw = "Step 3:\nHere are the final claims:\n1. <answer> is a planet."
        parsed = parse_decomposition(raw, "q")
        assert len(parsed.claim_set.claims) == 1
        assert parsed.warnings == (
            "skipped line without claim number: 'Here are the final claims:'",
        )

    def test_gapped_numbering_is_renumbered(self):
        raw = "Step 3:\n2. <answer> is a planet.\n5. <answer> is red."
        parsed = parse_decomposition(raw, "q")
        assert [c.text for c in parsed.claim_set.claims] == [
            "<answer> is a planet.",
            "<answer> is red.",
        ]
        assert parsed.warnings == ("claim numbers [2, 5] renumbered to 1..2",)

    def test_claim_without_answer_tag_warns(self):
        raw = "Step 3:\n1. <answer> is a planet.\n2. The sky is blue."
        parsed = parse_decomposition(raw, "q")
        assert len(parsed.claim_set.claims) == 2
        assert parsed.warnings == (
            "claim 2 has no <answer> tag: 'The sky is blue.'",
        )
        # A long claim is quoted by its first 80 characters.
        parsed = parse_decomposition(f"Step 3:\n1. {'x' * 80}yz", "q")
        assert parsed.warnings == (f"claim 1 has no <answer> tag: '{'x' * 80}'",)


VALID_EXAMPLE = (
    "Question: Who wrote Dracula?\n"
    "Step 1: The answer is a person, an author.\n"
    "1. <answer> was an author.\n"
    "Step 2: The question names a novel.\n"
    "Step 3:\n"
    "1. <answer> was an author.\n"
    "2. <answer> wrote <novel>."
)


def pack_of(n: int) -> PromptPack:
    return PromptPack(instructions="Decompose.", examples=(VALID_EXAMPLE,) * n)


class TestLoadPromptPack:
    def test_default_pack_loads(self):
        pack = load_prompt_pack(default_pack_path())
        assert 5 <= len(pack.examples) <= 7
        assert pack.instructions
        # Every shipped example must demonstrate the answer tag.
        for example in pack.examples:
            assert "<answer>" in example

    def test_loads_from_directory(self, tmp_path):
        (tmp_path / "instructions.txt").write_text("Decompose.", encoding="utf-8")
        blocks = ("\n---\n").join([VALID_EXAMPLE] * 5)
        (tmp_path / "examples.txt").write_text(blocks + "\n---\n", encoding="utf-8")
        pack = load_prompt_pack(tmp_path)
        assert len(pack.examples) == 5
        assert pack.examples[0] == VALID_EXAMPLE

class TestBuildPrompt:
    def test_layout(self):
        pack = pack_of(5)
        prompt = build_decomposition_prompt(QUESTION, pack)
        assert prompt.startswith("Decompose.\n\n")
        assert prompt.endswith(f"Question: {QUESTION.text}\nStep 1:")
        assert prompt.count(VALID_EXAMPLE) == 5
        # Blocks are separated by exactly one blank line.
        assert "\n\n\n" not in prompt


class TestDecompose:
    def test_end_to_end_with_recorded_completion(self):
        provider = RecordingProvider(WELL_FORMED)
        parsed = decompose(QUESTION, pack_of(5), provider, model="m")
        assert len(parsed.claim_set.claims) == 2
        request = provider.requests[0]
        assert request.model == "m"
        assert request.max_tokens == 512
        assert request.prompt.endswith(f"Question: {QUESTION.text}\nStep 1:")

    def test_warnings_are_logged(self, caplog):
        raw = "Step 3:\nFinal claims:\n1. <answer> is an architect."
        provider = RecordingProvider(raw)
        with caplog.at_level("WARNING", logger="abcd_eval.decompose"):
            parsed = decompose(QUESTION, pack_of(5), provider)
        assert len(parsed.warnings) == 1
        assert any("q1" in record.message or "q1" in str(record.args)
                   for record in caplog.records)
