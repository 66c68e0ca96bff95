"""Every prompt the pipeline sends and every parse of a reply, by its exact
text.

A row of ``TEXTS`` is one step on literal inputs. The step is either a
function that sends a prompt (``decompose``, ``generate_answers``,
``verify_all``, ``verify_claim``, ``baseline_whole_question``) through a
plain stand-in provider, which gives each request the row's next reply (a
text or a ``ProviderError``), or a pure one (``parse_verdict`` under each
``VerdictParseConfig``, ``normalize``, ``clean_answer``, the template and
tag functions, ``load_prompt_pack``). ``test_text`` checks the row's whole
outcome:
- each request, in order, as ``(model, prompt, max_tokens)``; in a row over
  the bundled prompt pack, as its ``cache_key``, the entry name a replay
  looks up;
- the result in record form (a loaded bundled pack as the SHA-256 of its
  record), or the type and message of what the step raised;
- the parse warnings, and each WARNING log line.

A row builds the library's objects when it runs, so that a library fault
fails rows rather than the collection of this module. A refusal of a call's
own arguments or input is a row of ``REFUSALS``, and the ``complete_all``
batch path a row of ``RUNS``.
"""

import hashlib
import json
import logging
import re
from dataclasses import is_dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from abcd_eval.answers import clean_answer, generate_answers
from abcd_eval.decompose import (
    ParsedDecomposition, PromptPack, decompose, default_pack_path, load_prompt_pack)
from abcd_eval.model import (
    AnswerAssignment, ClaimSet, ClaimTemplate, Dataset, Question, Tag, extract_tags)
from abcd_eval.providers import (
    CompletionResponse, ProviderError, ProviderErrorKind, cache_key)
from abcd_eval.records import claim_set_to_record, to_record
from abcd_eval.template import instantiate, instantiate_with_override
from abcd_eval.verify import (
    MatchMode, VerdictParseConfig, baseline_whole_question, normalize, parse_verdict,
    verify_all, verify_claim)


class Text(NamedTuple):
    """One step, given the stand-in provider, and all that it must leave."""

    step: Callable
    result: object  # in record form; None when the step raises
    exchanges: tuple = ()  # (request, the stand-in's reply) for each request, in order
    warnings: tuple = ()  # the parse warnings
    logged: tuple = ()  # each WARNING log line, as "<logger>: <message>"
    raised: Optional[str] = None  # "<Type>: <message>" of what the step raises
    bundled: bool = False  # the row reads the bundled pack


class StandIn:
    """Gives each request the next of *replies*: a text, or a
    ``ProviderError`` that it raises."""

    def __init__(self, replies):
        self.replies, self.requests = list(replies), []

    def complete(self, request):
        self.requests.append(request)
        reply = self.replies.pop(0)
        if isinstance(reply, ProviderError):
            raise reply
        return CompletionResponse(reply)


def record(value):
    """*value* as the record files write it: a decomposition as its claim
    set, an assignment as its entries, a tag as ``<name>``."""
    if isinstance(value, ParsedDecomposition):
        return claim_set_to_record(value.claim_set)
    if isinstance(value, AnswerAssignment):
        return value.as_dict()
    if isinstance(value, Tag):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, list):
        return [record(item) for item in value]
    return to_record(value) if is_dataclass(value) else value


def ordered(value):
    """*value* with every mapping as its list of pairs, so that comparing
    two outcomes compares their records' key order too."""
    return json.loads(json.dumps(value), object_pairs_hook=list)


def pack_files(instructions, examples):
    """A pack directory in the row's own directory, holding *instructions*
    and *examples* as its two files."""
    directory = Path("pack")
    directory.mkdir()
    (directory / "instructions.txt").write_text(instructions, encoding="utf-8")
    (directory / "examples.txt").write_text(examples, encoding="utf-8")
    return directory


# --------------------------------------------------------------------------
# inputs

MUSEUM = "Which architect designed the Guggenheim Museum in Bilbao?"
RED_PLANET = "Which planet is known as the Red Planet"  # no question mark


def question(text=MUSEUM, qid="q1"):
    return Question(qid, text, "Frank Gehry", Dataset.CUSTOM)


def claims(*texts, qid="q1"):
    return ClaimSet(qid, tuple(map(ClaimTemplate, texts)))


def assignment(**values):
    return AnswerAssignment.from_dict(values)


EXAMPLES = tuple(f"Question: Who wrote book {n}?\nStep 3:\n1. <answer> wrote book {n}."
                 for n in range(1, 6))


def small_pack(padding=""):
    """A pack of five short examples, each text wrapped in *padding*."""
    return PromptPack(f"{padding}Decompose.{padding}",
                      tuple(f"{padding}{example}{padding}" for example in EXAMPLES))


def bundled_pack():
    return load_prompt_pack(default_pack_path())


MUSEUM_CLAIMS = ("<answer> is an architect", "<answer> designed a museum in <city>")
WRIGHT = dict(answer="Frank Lloyd Wright", city="Bilbao")


# --------------------------------------------------------------------------
# expected texts

DECOMPOSE_PROMPT = (
    "Decompose.\n\n"
    "Question: Who wrote book 1?\nStep 3:\n1. <answer> wrote book 1.\n\n"
    "Question: Who wrote book 2?\nStep 3:\n1. <answer> wrote book 2.\n\n"
    "Question: Who wrote book 3?\nStep 3:\n1. <answer> wrote book 3.\n\n"
    "Question: Who wrote book 4?\nStep 3:\n1. <answer> wrote book 4.\n\n"
    "Question: Who wrote book 5?\nStep 3:\n1. <answer> wrote book 5.\n\n"
    "Question: Which architect designed the Guggenheim Museum in Bilbao?\nStep 1:"
)
ANSWER_PROMPT = (
    'Answer the question below. Reply with exactly one line per slot, in the form '
    '"<slot>: value". Fill every slot with a short, direct answer.\n\n'
    "Question: Which architect designed the Guggenheim Museum in Bilbao?\n\n"
    "<answer>:\n<city>:"
)
# The bundled pack: its record's SHA-256, and the cache_key of the museum
# question's decomposition request.
BUNDLED_PACK = "ca0b9a2e49e58bab3735d9a4d51b1838e7ae57f35fc27ad7c5d5c25dd6e50fec"
BUNDLED_DECOMPOSE = "c09d44ec8e791e26880109022c609d981d36e305c20c76e9fe0a8dd6ebeeaf31"

WELL_FORMED = """Step 1: The answer is a person, specifically an architect.
1. <answer> is an architect.
2. <answer> designed a museum.
Step 2: The question also mentions the museum's city.
Step 3:
1. <answer> is an architect.
2. <answer> designed a museum in <city>.
"""
RUN_ON = (  # a completion that runs on past its claims into a new example
    " The answer is an astronomer.\n"
    "Step 2: The question names no other entity.\n"
    "Step 3:\n1. <answer> is an astronomer.\n"
    "Question: Who wrote Dracula?\n"
    "Step 1: The answer is an author.\n"
    "Step 2: The question names a novel.\n"
    "Step 3:\n1. <answer> was an author."
)
BUNDLED_REPLY = (
    ' The question asks "which architect", so the answer is an architect.\n'
    "1. <answer> is an architect\n"
    "2. <answer> designed a museum\n"
    "Step 2: The museum is the Guggenheim Museum and it stands in Bilbao, so the museum "
    "gets the tag <museum> and the city gets the tag <city>.\n"
    "Step 3:\n"
    "1. <answer> is an architect\n"
    "2. <answer> designed <museum> in <city>"
)


def claim_set(*texts, reasoning=None, qid="q1"):
    """The record of a claim set of *texts*, each claim's tags being its
    ``<word>`` spans in order of first occurrence."""
    tags = [list(dict.fromkeys(re.findall(r"<(\w+)>", text))) for text in texts]
    return {"question_id": qid, "entity_reasoning": reasoning,
            "claims": [{"index": number, "text": text, "tags": names}
                       for number, (text, names) in enumerate(zip(texts, tags), 1)],
            "tags": list(dict.fromkeys(name for names in tags for name in names))}


def decomposition(reply, *texts, reasoning=None, warnings=(), pack=small_pack, **options):
    """``decompose`` of the museum question over *pack*, with *options*,
    answered *reply*: it sends ``DECOMPOSE_PROMPT``, records a claim set of
    *texts* and logs each warning."""
    return Text(lambda send: decompose(question(), pack(), send, **options),
                claim_set(*texts, reasoning=reasoning),
                (((options.get("model", "default"), DECOMPOSE_PROMPT,
                   options.get("max_tokens", 512)), reply),),
                warnings,
                tuple(f"abcd_eval.decompose: question q1: {warning}" for warning in warnings))


def answers(reply, result, *texts, prompt=ANSWER_PROMPT, **options):
    """``generate_answers`` for the museum question and a claim set of
    *texts* (by default the museum's), with *options*, answered *reply*."""
    return Text(lambda send: generate_answers(question(), claims(*texts or MUSEUM_CLAIMS), send,
                                              **options),
                result, (((options.get("model", "default"), prompt,
                           options.get("max_tokens", 256)), reply),))


def verification(text, verdict, reply):
    return {"instantiated_text": text, "verdict": verdict, "raw_response": reply}


def baseline(text, answer, prompt, reply, verdict):
    """``baseline_whole_question`` for a question of *text* and *answer*."""
    return Text(lambda send: baseline_whole_question(question(text), answer, send),
                {"verdict": verdict, "raw_response": reply},
                ((("default", prompt, 64), reply),))


CONFIGS = {"substring": VerdictParseConfig(MatchMode.SUBSTRING),
           "word_boundary": VerdictParseConfig(MatchMode.WORD_BOUNDARY),
           "substring-no-override": VerdictParseConfig(restatement_override=False),
           "word_boundary-no-override": VerdictParseConfig(MatchMode.WORD_BOUNDARY, False)}


def verdict_of(reply, claim, config="substring"):
    """``parse_verdict`` of *reply* to *claim* under the named config."""
    return lambda _: parse_verdict(reply, claim, CONFIGS[config])


# The golden suite: each reply to "Mars is a planet", and its verdict in
# substring and in word-boundary mode. Where the two differ, a word holds
# "true" or "false" inside it: the substring hazard.
GOLDEN = [
    ("true-period", "True.", "true", "true"),
    ("true", "true", "true", "true"),
    ("true-shouted", "  TRUE!  ", "true", "true"),
    ("true-correct", "True, that is correct.", "true", "true"),
    ("false-period", "False.", "false", "false"),
    ("that-is-false", "That is false.", "false", "false"),
    ("false-capitals", "FALSE", "false", "false"),
    ("empty", "", "non_response", "non_response"),
    ("cannot-determine", "I cannot determine that.", "non_response", "non_response"),
    ("language-model", "As an AI language model, I cannot say.", "non_response",
     "non_response"),
    ("yes", "Yes.", "non_response", "non_response"),
    ("both-words-true-wins", "True or false? True.", "true", "true"),
    ("construed", "The statement could be construed as accurate.", "true", "non_response"),
    ("falsehoods", "Falsehoods aside, I cannot say.", "false", "non_response"),
]
SOMERS = "the brig Somers sailed under captain Alexander"
RESTATED = "False. The brig Somers sailed under captain Alexander."

TEXTS = {
    # Decomposition: the few-shot prompt, then the claims after "Step 3:" up
    # to a blank line, a separator, a new question or a line of prose, and
    # the step-1 reasoning before step 2.
    "decompose-claims_and_reasoning": decomposition(
        WELL_FORMED, "<answer> is an architect.", "<answer> designed a museum in <city>.",
        reasoning="The answer is a person, specifically an architect."),
    "decompose-reasoning_skips_numbered_claim_lines": decomposition(
        "Step 1:\nIt names a person.\n1. <answer> is real.\nStep 3:\n1. <answer> is real.",
        "<answer> is real.", reasoning="It names a person."),
    "decompose-no_reasoning_section_gives_none": decomposition(
        "Step 3:\n1. <answer> exists.", "<answer> exists."),
    "decompose-reasoning_needs_no_step_1_marker": decomposition(
        "The answer is an architect.Step 3:\n1. <answer> is an architect.",
        "<answer> is an architect.", reasoning="The answer is an architect."),
    "decompose-reasoning_ends_at_its_own_step_3": decomposition(
        RUN_ON, "<answer> is an astronomer.", reasoning="The answer is an astronomer."),
    "decompose-stops_at_blank_line_after_first_claim": decomposition(
        "Step 3:\n1. <answer> is a planet.\n\n2. stray claim after break.",
        "<answer> is a planet."),
    "decompose-blank_lines_before_claims_are_skipped": decomposition(
        "Step 3:\n\n\n1. <answer> is a planet.", "<answer> is a planet."),
    "decompose-stops_at_dashed_separator": decomposition(
        "Step 3:\n1. <answer> is a planet.\n---\n1. claim from next example.",
        "<answer> is a planet."),
    "decompose-stops_when_model_starts_a_new_question": decomposition(
        "Step 3:\n1. <answer> is a planet.\nQuestion: What is the capital of France?\n"
        "1. <answer> is a city.", "<answer> is a planet."),
    "decompose-trailing_prose_after_claims_ends_collection": decomposition(
        "Step 3:\n1. <answer> is a planet.\nThese claims cover the question.\n"
        "2. <answer> is red.", "<answer> is a planet.",
        warnings=("skipped line without claim number: 'These claims cover the question.'",)),
    "decompose-preamble_line_warns_and_parsing_continues": decomposition(
        "Step 3:\nHere are the final claims:\n1. <answer> is a planet.",
        "<answer> is a planet.",
        warnings=("skipped line without claim number: 'Here are the final claims:'",)),
    "decompose-preamble_line_warns_and_parsing_continues-first-80-characters": decomposition(
        f"Step 3:\n  {'p' * 80}qr\n1. <answer> is red.", "<answer> is red.",
        warnings=(f"skipped line without claim number: '{'p' * 80}'",)),
    "decompose-gapped_numbering_is_renumbered": decomposition(
        "Step 3:\n2. <answer> is a planet.\n5. <answer> is red.",
        "<answer> is a planet.", "<answer> is red.",
        warnings=("claim numbers [2, 5] renumbered to 1..2",)),
    "decompose-claim_without_answer_tag_warns": decomposition(
        "Step 3:\n1. <answer> is a planet.\n2. The sky is blue.",
        "<answer> is a planet.", "The sky is blue.",
        warnings=("claim 2 has no <answer> tag: 'The sky is blue.'",)),
    "decompose-claim_without_answer_tag_warns-first-80-characters": decomposition(
        f"Step 3:\n1. {'x' * 80}yz", f"{'x' * 80}yz",
        warnings=(f"claim 1 has no <answer> tag: '{'x' * 80}'",)),
    "decompose-warnings_are_logged": decomposition(
        "Step 3:\nFinal claims:\n1. <answer> is an architect.", "<answer> is an architect.",
        warnings=("skipped line without claim number: 'Final claims:'",)),
    "decompose-end_to_end_with_recorded_completion": decomposition(
        WELL_FORMED, "<answer> is an architect.", "<answer> designed a museum in <city>.",
        reasoning="The answer is a person, specifically an architect.", model="m"),
    "decompose-layout": decomposition(
        "Step 3:\n1. <answer> is an architect.", "<answer> is an architect.",
        pack=lambda: small_pack(padding="\n  "), max_tokens=100),
    "decompose-bundled_pack_prompt": Text(
        lambda send: decompose(question(), bundled_pack(), send),
        claim_set("<answer> is an architect", "<answer> designed <museum> in <city>",
                  reasoning='The question asks "which architect", so the answer is an '
                            "architect."),
        ((BUNDLED_DECOMPOSE, BUNDLED_REPLY),), bundled=True),
    "decompose-default_pack_loads": Text(lambda _: bundled_pack(), BUNDLED_PACK, bundled=True),
    "decompose-loads_from_directory": Text(
        lambda _: load_prompt_pack(pack_files("Decompose.\n",
                                           "\n---\n".join(EXAMPLES) + "\n---\n\n---\n")),
        {"instructions": "Decompose.", "examples": list(EXAMPLES)}),
    # Answers: one slot line per tag, <answer> first; the first usable line
    # of a requested tag gives its value, cleaned.
    "answers-answer_slot_comes_first": answers(
        "<answer>: Frank Gehry\n<city>: Bilbao", {"city": "Bilbao", "answer": "Frank Gehry"},
        "<city> has a museum by <answer>."),
    "answers-full_layout": answers(
        "<answer>: Frank Gehry\n<city>: Bilbao",
        {"answer": "Frank Gehry", "city": "Bilbao"}, model="m", max_tokens=32),
    "answers-happy_path": answers(
        "<answer>: Frank Gehry\n<city>: Bilbao\n", {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-prose_lines_are_ignored": answers(
        "Sure, here are the answers:\n<answer>: Frank Gehry\n"
        "Note that the museum is in Spain.\n<city>: Bilbao\n",
        {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-first_line_per_tag_wins": answers(
        "<answer>: Frank Gehry\n<answer>: Zaha Hadid\n<city>: Bilbao",
        {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-tag_names_match_case_insensitively": answers(
        "<Answer>: Frank Gehry\n<CITY>: Bilbao", {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-unrequested_tags_are_dropped": answers(
        "<answer>: Frank Gehry\n<city>: Bilbao\n<country>: Spain",
        {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-values_are_cleaned": answers(
        '<answer>: "Frank Gehry."\n<city>: Bilbao', {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-multiword_tag_round_trip": answers(
        "<answer>: Frank Gehry\n<record label>: DGC Records",
        {"answer": "Frank Gehry", "record label": "DGC Records"},
        "<answer> signed with <record label>.",
        prompt=ANSWER_PROMPT.replace("<city>:", "<record label>:")),
    "answers-covers_every_claim_set_tag": answers(
        "<answer>: Frank Gehry\n<city>: Bilbao", {"answer": "Frank Gehry", "city": "Bilbao"}),
    "answers-degenerate_set_still_requests_answer": answers(
        "<answer>: Frank Gehry\n<city>: Bilbao", {"answer": "Frank Gehry", "city": "Bilbao"},
        "The museum is in <city>."),
    **{f"answers-cases-{case}": Text(lambda _, raw=raw: clean_answer(raw), cleaned)
       for case, raw, cleaned in [
           ("whitespace", "  Mars  ", "Mars"),
           ("double-quotes", '"Mars"', "Mars"),
           ("single-quotes", "'Mars'", "Mars"),
           ("curly-quotes", "“Mars”", "Mars"),
           ("period", "Mars.", "Mars"),
           ("quotes-period-spaces", '" Mars. "', "Mars"),
           ("nested-quotes", '"\'Mars\'"', "Mars"),  # one layer at a time
           ("abbreviation", "Washington D.C.", "Washington D.C"),  # the documented loss
           ("ellipsis", "etc...", "etc"),
           ("lone-quote", '"', '"'),  # no pair to strip
           ("empty-quotes", '""', ""),
           ("empty", "", ""),
       ]},
    "answers-mismatched_quotes_stay": Text(lambda _: clean_answer('"Mars\''), '"Mars\''),
    # Verification: "True or False: " and the claim, exactly; the verdict by
    # the restatement override, then "true", then "false".
    "verify-lowercase_collapse_strip": Text(lambda _: normalize("  True.\n"), "true"),
    "verify-lowercase_collapse_strip-inner-whitespace": Text(
        lambda _: normalize("That   IS\tso"), "that is so"),
    "verify-lowercase_collapse_strip-terminal-punctuation": Text(
        lambda _: normalize("Really?!"), "really"),
    "verify-lowercase_collapse_strip-inner-punctuation": Text(
        lambda _: normalize("mixed Case, punct..."), "mixed case, punct"),
    **{f"verify-both_modes-{case}-{mode}": Text(verdict_of(reply, "Mars is a planet", mode), value)
       for case, reply, *values in GOLDEN
       for mode, value in zip(("substring", "word_boundary"), values)},
    **{f"verify-restated_claim_with_false_is_true-{config}": Text(
        verdict_of(RESTATED, SOMERS, config), "false" if "no-override" in config else "true")
       for config in CONFIGS},
    "verify-override_requires_whole_claim": Text(
        verdict_of("False. The brig Somers sailed.", SOMERS), "false"),
    "verify-override_normalizes_both_sides": Text(
        verdict_of("false.   THE BRIG somers sailed under captain alexander", SOMERS + "."),
        "true"),
    "verify-empty_claim_never_triggers_override": Text(verdict_of("False.", ""), "false"),
    "verify-prompt_is_prefix_plus_claim_exactly": Text(
        lambda send: verify_claim("Mars is a planet", send),
        verification("Mars is a planet", "true", "True."),
        ((("default", "True or False: Mars is a planet", 64), "True."),)),
    "verify-verifies_in_index_order": Text(
        lambda send: verify_all(claims(*MUSEUM_CLAIMS, qid="q7"), assignment(**WRIGHT), send),
        [verification("Frank Lloyd Wright is an architect", "true", "True."),
         verification("Frank Lloyd Wright designed a museum in Bilbao", "false", "False.")],
        ((("default", "True or False: Frank Lloyd Wright is an architect", 64), "True."),
         (("default", "True or False: Frank Lloyd Wright designed a museum in Bilbao", 64),
          "False."))),
    "verify-override_answer_rebinds_only_answer": Text(
        lambda send: verify_all(claims(*MUSEUM_CLAIMS, qid="q7"), assignment(**WRIGHT), send,
                                override_answer=" Frank Gehry "),
        [verification("Frank Gehry is an architect", "true", "True."),
         verification("Frank Gehry designed a museum in Bilbao", "true", "True.")],
        ((("default", "True or False: Frank Gehry is an architect", 64), "True."),
         (("default", "True or False: Frank Gehry designed a museum in Bilbao", 64), "True."))),
    "verify-config_model_and_limit_reach_every_claim": Text(
        lambda send: verify_all(claims(*MUSEUM_CLAIMS, qid="q7"), assignment(**WRIGHT), send,
                                CONFIGS["word_boundary"], model="m", max_tokens=8),
        [verification("Frank Lloyd Wright is an architect", "non_response", "Construed."),
         verification("Frank Lloyd Wright designed a museum in Bilbao", "true", "True.")],
        ((("m", "True or False: Frank Lloyd Wright is an architect", 8), "Construed."),
         (("m", "True or False: Frank Lloyd Wright designed a museum in Bilbao", 8), "True."))),
    "verify-provider_failure_carries_claim_index": Text(
        lambda send: verify_all(claims(*MUSEUM_CLAIMS, qid="q7"), assignment(**WRIGHT), send),
        None, ((("default", "True or False: Frank Lloyd Wright is an architect", 64),
                ProviderError(ProviderErrorKind.NETWORK, "down")),),
        raised="VerificationError: claim 1: network: down"),
    "verify-lenient_mode_records_non_response": Text(
        lambda send: verify_all(claims(*MUSEUM_CLAIMS, qid="q7"), assignment(**WRIGHT), send,
                                lenient=True),
        [verification("Frank Lloyd Wright is an architect", "true", "True."),
         verification("Frank Lloyd Wright designed a museum in Bilbao", "non_response", "")],
        ((("default", "True or False: Frank Lloyd Wright is an architect", 64), "True."),
         (("default", "True or False: Frank Lloyd Wright designed a museum in Bilbao", 64),
          ProviderError(ProviderErrorKind.RATE_LIMITED, "busy"))),
        logged=("abcd_eval.verify: question q7 claim 2: provider failed (rate_limited), "
                "recording non-response",)),
    # The whole-question baseline: one prompt, parsed without the override.
    "verify-prompt_shape_appends_question_mark": baseline(
        RED_PLANET, "Mars", "Here is the question: Which planet is known as the Red Planet? "
        "Is the answer Mars correct?", "True.", "true"),
    "verify-existing_question_mark_kept": baseline(
        " What is the capital of Australia? ", "Canberra", "Here is the question: What is the "
        "capital of Australia? Is the answer Canberra correct?", "True.", "true"),
    "verify-parses_plain_true": baseline(
        RED_PLANET, "Mars", "Here is the question: Which planet is known as the Red Planet? "
        "Is the answer Mars correct?", "True, the answer is correct.", "true"),
    # The parser knows only "true" and "false", so a plain "no" is not false.
    "verify-negative_phrasing_without_false_is_non_response": baseline(
        RED_PLANET, "Jupiter", "Here is the question: Which planet is known as the Red "
        "Planet? Is the answer Jupiter correct?", "No, the answer is not correct.",
        "non_response"),
    # A whole question has no claim to restate: an echo beside "false" stays false.
    "verify-quoting_prompt_back_does_not_flip_false": baseline(
        RED_PLANET, "Jupiter", "Here is the question: Which planet is known as the Red "
        "Planet? Is the answer Jupiter correct?",
        "Is the answer Jupiter correct? False, Jupiter is not the Red Planet.", "false"),
    # Templates: one left-to-right pass over the text.
    "template-substitutes_all_tags": Text(
        lambda _: instantiate(ClaimTemplate("<answer> wrote <play>"),
                              assignment(answer="Shakespeare", play="Hamlet")),
        "Shakespeare wrote Hamlet"),
    "template-repeated_tag_uses_same_value": Text(
        lambda _: instantiate(ClaimTemplate("<answer> is <answer>"), assignment(answer="Mars")),
        "Mars is Mars"),
    "template-non_tag_angle_spans_pass_through": Text(
        lambda _: instantiate(ClaimTemplate("<answer> satisfies x < y and y > z"),
                              assignment(answer="5")),
        "5 satisfies x < y and y > z"),
    "template-overrides_only_answer": Text(
        lambda _: instantiate_with_override(ClaimTemplate("<answer> designed a museum in <city>"),
                                            assignment(**WRIGHT), "Frank Gehry"),
        "Frank Gehry designed a museum in Bilbao"),
    # Tags: lowercase words of letters, digits, "_" and "-", joined by single
    # spaces; a bracketed span that is not one is prose.
    "model-normalizes_to_lowercase": Text(lambda _: Tag("Answer"), "<answer>"),
    "model-normalizes_to_lowercase-capitals": Text(lambda _: Tag("ANSWER"), "<answer>"),
    "model-serialized_form": Text(lambda _: Tag("record label"), "<record label>"),
    **{f"model-allows_digits_underscore_hyphen-{name}": Text(lambda _, name=name: Tag(name),
                                                             f"<{name}>")
       for name in ("play", "birth_year", "first-name", "tag2", "two words")},
    "model-order_and_dedup": Text(
        lambda _: extract_tags("<answer> wrote <play> and <answer> likes <play>"),
        ["<answer>", "<play>"]),
    "model-case_insensitive_match": Text(lambda _: extract_tags("<Answer> met <PLAY>"),
                                         ["<answer>", "<play>"]),
    "model-comparison_prose_is_not_a_tag": Text(lambda _: extract_tags("x < y and y > z"), []),
    "model-inner_spaces_ok_outer_spaces_disqualify": Text(
        lambda _: extract_tags("<record label>"), ["<record label>"]),
    "model-inner_spaces_ok_outer_spaces_disqualify-leading": Text(
        lambda _: extract_tags("< label>"), []),
    "model-inner_spaces_ok_outer_spaces_disqualify-trailing": Text(
        lambda _: extract_tags("<label >"), []),
    "model-empty_brackets_are_not_a_tag": Text(lambda _: extract_tags("<>"), []),
    "model-trims_values": Text(lambda _: assignment(answer="  Shakespeare  ", play=" Hamlet"),
                               {"answer": "Shakespeare", "play": "Hamlet"}),
    "model-lookup": Text(
        lambda _: assignment(answer="Shakespeare", play="Hamlet").get(Tag("Play")), "Hamlet"),
    "model-lookup-unassigned": Text(
        lambda _: assignment(answer="Shakespeare", play="Hamlet").get(Tag("city")), None),
}


@pytest.mark.parametrize("name", TEXTS)
def test_text(name, tmp_path, monkeypatch, caplog):
    """The row's requests, result or error, parse warnings and WARNING log
    lines, exactly."""
    monkeypatch.chdir(tmp_path)  # where a row writes its files
    row = TEXTS[name]
    provider = StandIn(reply for _, reply in row.exchanges)
    value = raised = None
    with caplog.at_level(logging.WARNING):
        try:
            value = row.step(provider)
        except Exception as exc:
            raised = f"{type(exc).__name__}: {exc}"
    result = record(value)
    if row.bundled and isinstance(value, PromptPack):
        result = hashlib.sha256(json.dumps(result).encode()).hexdigest()
    assert ordered({
        "sent": [cache_key(request) if row.bundled else
                 (request.model, request.prompt, request.max_tokens)
                 for request in provider.requests],
        "result": result,
        "raised": raised,
        "warnings": getattr(value, "warnings", ()),
        "logged": [f"{line.name}: {line.getMessage()}" for line in caplog.records],
    }) == ordered({
        "sent": [request for request, _ in row.exchanges],
        "result": row.result,
        "raised": row.raised,
        "warnings": row.warnings,
        "logged": row.logged,
    })
