"""Zero-shot answer generation for the tags of a claim set.

The model answers the question and fills every tag in one completion,
replying with one ``<tag>: value`` line per tag. The ``<answer>`` tag always
comes first in the prompt; remaining tags follow in claim-set order. Values
are lightly cleaned (surrounding quotes and terminal periods dropped)
because verification substitutes them verbatim into claim text.
"""

from __future__ import annotations

import re

from .model import ANSWER_TAG, TAG_RE, AnswerAssignment, ClaimSet, Question, Tag
from .providers import CompletionRequest, Provider

DEFAULT_ANSWER_MAX_TOKENS = 256

_ANSWER_LINE_RE = re.compile(rf"^\s*{TAG_RE.pattern}\s*:\s*(.*)$")

_QUOTE_PAIRS = {('"', '"'), ("'", "'"), ("“", "”"), ("‘", "’")}

ANSWER_INSTRUCTIONS = (
    "Answer the question below. Reply with exactly one line per slot, in "
    'the form "<slot>: value". Fill every slot with a short, direct answer.'
)


class AnswerParseError(Exception):
    """A completion gave no usable value for one of the requested tags."""


def build_answer_prompt(question: Question, tags: list[Tag] | tuple[Tag, ...]) -> str:
    """Prompt asking for one line per tag, ``<answer>`` first."""
    if ANSWER_TAG not in tags:
        raise ValueError("tag list must include <answer>")
    ordered = [ANSWER_TAG] + [tag for tag in tags if tag != ANSWER_TAG]
    slot_lines = "\n".join(f"{tag.serialized}:" for tag in ordered)
    return f"{ANSWER_INSTRUCTIONS}\n\nQuestion: {question.text}\n\n{slot_lines}"


def clean_answer(value: str) -> str:
    """Trim an answer value: whitespace, one layer of matching quotes,
    then terminal periods.

    Abbreviation-final periods are lost too ("Washington D.C." becomes
    "Washington D.C"); verification prompts tolerate that better than a
    claim ending in a doubled period.
    """
    value = value.strip()
    while len(value) >= 2 and (value[0], value[-1]) in _QUOTE_PAIRS:
        value = value[1:-1].strip()
    return value.rstrip(".").strip()


def parse_answers(raw: str, tags: list[Tag] | tuple[Tag, ...]) -> AnswerAssignment:
    """Extract a value for every requested tag from a completion.

    Lines that do not look like ``<tag>: value`` are ignored, as are tags
    that were not requested. The first line for a tag wins. A requested tag
    with no usable value raises :class:`AnswerParseError`.
    """
    found: dict[str, str] = {}
    for line in raw.splitlines():
        match = _ANSWER_LINE_RE.match(line)
        if match:
            found.setdefault(match.group(1).lower(), clean_answer(match.group(2)))

    entries = []
    for tag in tags:
        value = found.get(tag.name, "")
        if not value or "<" in value or ">" in value:
            raise AnswerParseError(f"no usable answer for {tag} in completion")
        entries.append((tag, value))
    return AnswerAssignment(entries=tuple(entries))


def generate_answers(
    question: Question,
    claim_set: ClaimSet,
    provider: Provider,
    *,
    model: str = "default",
    max_tokens: int = DEFAULT_ANSWER_MAX_TOKENS,
) -> AnswerAssignment:
    """Fill every tag of *claim_set* with a generated answer.

    The returned assignment covers exactly the claim set's tags, so
    instantiation cannot fail on a missing tag afterwards.
    """
    tags = list(claim_set.tags)
    if ANSWER_TAG not in tags:
        # A degenerate set (every claim missing its answer tag) still needs
        # the answer slot for scoring and the ground-truth re-run.
        tags = [ANSWER_TAG] + tags
    request = CompletionRequest(
        model=model,
        prompt=build_answer_prompt(question, tags),
        max_tokens=max_tokens,
    )
    response = provider.complete(request)
    return parse_answers(response.text, tags)
