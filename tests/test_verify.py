"""Tests for verdict parsing and claim verification."""

import pytest

from abcd_eval.model import (
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    Verdict,
)
from abcd_eval.providers import (
    CompletionResponse,
    ProviderError,
    ProviderErrorKind,
    ScriptRule,
    ScriptedProvider,
)
from abcd_eval.verify import (
    MatchMode,
    VerdictParseConfig,
    VerificationError,
    baseline_whole_question,
    build_baseline_prompt,
    normalize,
    parse_verdict,
    verify_all,
    verify_claim,
)
from helpers import RecordingProvider

SUBSTRING = VerdictParseConfig(match_mode=MatchMode.SUBSTRING)
WORD = VerdictParseConfig(match_mode=MatchMode.WORD_BOUNDARY)
NO_OVERRIDE = VerdictParseConfig(restatement_override=False)


class TestNormalize:
    def test_lowercase_collapse_strip(self):
        assert normalize("  True.\n") == "true"
        assert normalize("That   IS\tso") == "that is so"
        assert normalize("Really?!") == "really"
        assert normalize("mixed Case, punct...") == "mixed case, punct"


# The golden suite: (claim, response, expected-by-mode). Cases marked with
# different expectations per mode are the substring hazards.
GOLDEN_CASES = [
    ("Mars is a planet", "True.", Verdict.TRUE, Verdict.TRUE),
    ("Mars is a planet", "true", Verdict.TRUE, Verdict.TRUE),
    ("Mars is a planet", "  TRUE!  ", Verdict.TRUE, Verdict.TRUE),
    ("Mars is a planet", "True, that is correct.", Verdict.TRUE, Verdict.TRUE),
    ("Mars is a planet", "False.", Verdict.FALSE, Verdict.FALSE),
    ("Mars is a planet", "That is false.", Verdict.FALSE, Verdict.FALSE),
    ("Mars is a planet", "FALSE", Verdict.FALSE, Verdict.FALSE),
    ("Mars is a planet", "", Verdict.NON_RESPONSE, Verdict.NON_RESPONSE),
    ("Mars is a planet", "I cannot determine that.",
     Verdict.NON_RESPONSE, Verdict.NON_RESPONSE),
    ("Mars is a planet", "As an AI language model, I cannot say.",
     Verdict.NON_RESPONSE, Verdict.NON_RESPONSE),
    ("Mars is a planet", "Yes.", Verdict.NON_RESPONSE, Verdict.NON_RESPONSE),
    # Precedence: when both words occur, "true" wins.
    ("Mars is a planet", "True or false? True.", Verdict.TRUE, Verdict.TRUE),
    # Substring hazards: buried "true"/"false" inside longer words flip the
    # verdict in substring mode but not at word boundaries.
    ("Mars is a planet", "The statement could be construed as accurate.",
     Verdict.TRUE, Verdict.NON_RESPONSE),
    ("Mars is a planet", "Falsehoods aside, I cannot say.",
     Verdict.FALSE, Verdict.NON_RESPONSE),
]


class TestParseVerdictGolden:
    @pytest.mark.parametrize(
        "claim,response,expected_substring,expected_word", GOLDEN_CASES
    )
    def test_both_modes(self, claim, response, expected_substring, expected_word):
        assert parse_verdict(response, claim, SUBSTRING) is expected_substring
        assert parse_verdict(response, claim, WORD) is expected_word


class TestRestatementOverride:
    CLAIM = "the brig Somers sailed under captain Alexander"

    def test_restated_claim_with_false_is_true(self):
        response = "False. The brig Somers sailed under captain Alexander."
        assert parse_verdict(response, self.CLAIM, SUBSTRING) is Verdict.TRUE
        assert parse_verdict(response, self.CLAIM, NO_OVERRIDE) is Verdict.FALSE

    def test_override_requires_whole_claim(self):
        response = "False. The brig Somers sailed."
        assert parse_verdict(response, self.CLAIM, SUBSTRING) is Verdict.FALSE

    def test_override_normalizes_both_sides(self):
        response = "false.   THE BRIG somers sailed under captain alexander"
        assert parse_verdict(response, self.CLAIM + ".", SUBSTRING) is Verdict.TRUE

    def test_empty_claim_never_triggers_override(self):
        assert parse_verdict("False.", "", SUBSTRING) is Verdict.FALSE


class TestVerifyClaim:
    def test_prompt_is_prefix_plus_claim_exactly(self):
        provider = RecordingProvider()
        result = verify_claim("Mars is a planet", provider)
        request = provider.requests[0]
        assert request.prompt == "True or False: Mars is a planet"
        assert not request.prompt.endswith("\n")
        assert request.max_tokens == 64
        assert result.instantiated_text == "Mars is a planet"
        assert result.verdict is Verdict.TRUE
        assert result.raw_response == "True."


def museum_fixture():
    claim_set = ClaimSet(
        "q7",
        (
            ClaimTemplate("<answer> is an architect"),
            ClaimTemplate("<answer> designed a museum in <city>"),
        ),
    )
    assignment = AnswerAssignment.from_dict(
        {"answer": "Frank Lloyd Wright", "city": "Bilbao"}
    )
    return claim_set, assignment


class TestVerifyAll:
    def test_verifies_in_index_order(self):
        claim_set, assignment = museum_fixture()
        provider = ScriptedProvider(
            [
                ScriptRule(
                    match="True or False: Frank Lloyd Wright is an architect",
                    response="True.", mode="exact",
                ),
                ScriptRule(
                    match=(
                        "True or False: Frank Lloyd Wright designed a museum "
                        "in Bilbao"
                    ),
                    response="False.", mode="exact",
                ),
            ]
        )
        results = verify_all(claim_set, assignment, provider)
        assert [r.instantiated_text for r in results] == [
            "Frank Lloyd Wright is an architect",
            "Frank Lloyd Wright designed a museum in Bilbao",
        ]
        assert [r.verdict for r in results] == [Verdict.TRUE, Verdict.FALSE]

    def test_override_answer_rebinds_only_answer(self):
        claim_set, assignment = museum_fixture()
        provider = RecordingProvider()
        verify_all(claim_set, assignment, provider, override_answer="Frank Gehry")
        prompts = [request.prompt for request in provider.requests]
        assert prompts == [
            "True or False: Frank Gehry is an architect",
            "True or False: Frank Gehry designed a museum in Bilbao",
        ]

    def test_provider_failure_carries_claim_index(self):
        claim_set, assignment = museum_fixture()

        class FailingProvider:
            def complete(self, request):
                raise ProviderError(ProviderErrorKind.NETWORK, "down")

        with pytest.raises(VerificationError) as excinfo:
            verify_all(claim_set, assignment, FailingProvider())
        assert str(excinfo.value) == "claim 1: network: down"

    def test_lenient_mode_records_non_response(self):
        claim_set, assignment = museum_fixture()

        class FlakyProvider:
            def __init__(self):
                self.calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls == 2:
                    raise ProviderError(ProviderErrorKind.RATE_LIMITED, "busy")
                return CompletionResponse(text="True.")

        results = verify_all(claim_set, assignment, FlakyProvider(), lenient=True)
        assert [r.verdict for r in results] == [
            Verdict.TRUE, Verdict.NON_RESPONSE,
        ]
        assert results[1].raw_response == ""

class TestBaseline:
    QUESTION = Question(
        id="q1",
        text="Which planet is known as the Red Planet",  # no question mark
        gold_answer="Mars",
        dataset=Dataset.CUSTOM,
    )

    def test_prompt_shape_appends_question_mark(self):
        prompt = build_baseline_prompt(self.QUESTION, "Mars")
        assert prompt == (
            "Here is the question: Which planet is known as the Red Planet? "
            "Is the answer Mars correct?"
        )

    def test_existing_question_mark_kept(self):
        question = Question(
            id="q2", text="What is the capital of Australia?",
            gold_answer="Canberra", dataset=Dataset.CUSTOM,
        )
        prompt = build_baseline_prompt(question, "Canberra")
        assert "Australia? Is the answer Canberra correct?" in prompt
        assert "??" not in prompt

    def test_parses_plain_true(self):
        provider = RecordingProvider(text="True, the answer is correct.")
        result = baseline_whole_question(self.QUESTION, "Mars", provider)
        assert result.verdict is Verdict.TRUE
        assert provider.requests[0].max_tokens == 64

    def test_negative_phrasing_without_false_is_non_response(self):
        # Pinned limitation: the parser only understands "true"/"false", so a
        # natural "no" reply does not register as a false verdict.
        provider = RecordingProvider(text="No, the answer is not correct.")
        result = baseline_whole_question(self.QUESTION, "Jupiter", provider)
        assert result.verdict is Verdict.NON_RESPONSE

    def test_quoting_prompt_back_does_not_flip_false(self):
        # A whole-question reply has no claim to restate, so echoing the
        # prompt alongside "false" stays FALSE instead of flipping to true
        # the way a restated claim does.
        echoed = (
            "Is the answer Jupiter correct? False, Jupiter is not the Red "
            "Planet."
        )
        provider = RecordingProvider(text=echoed)
        result = baseline_whole_question(self.QUESTION, "Jupiter", provider)
        assert result.verdict is Verdict.FALSE
        assert result.raw_response == echoed
