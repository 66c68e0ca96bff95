"""Claim verification: prompt construction and verdict parsing.

Each instantiated claim is sent as ``True or False: <claim>`` and the reply
is mapped onto a three-way verdict. Parsing is deliberately blunt string
matching (the upstream replies are short), with two knobs:

* ``match_mode`` decides whether "true"/"false" are found as raw substrings
  or only at word boundaries. Substring matching is the historical default
  and has a known hazard: words like "construed" contain "true". The
  word-boundary mode avoids it at the cost of changing historical verdicts.
* ``restatement_override`` handles verifiers that repeat the claim verbatim
  while musing about falsehood ("It is not false that ..."): if the whole
  normalized claim appears inside the reply, the reply endorses it.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .model import (
    AnswerAssignment,
    ClaimSet,
    Question,
    VerificationResult,
    Verdict,
)
from .providers import CompletionRequest, Provider, ProviderError
from .template import instantiate, instantiate_with_override

logger = logging.getLogger(__name__)

VERIFY_PROMPT_PREFIX = "True or False: "
DEFAULT_VERIFY_MAX_TOKENS = 64

_WHITESPACE_RE = re.compile(r"\s+")
_TRUE_WORD_RE = re.compile(r"\btrue\b")
_FALSE_WORD_RE = re.compile(r"\bfalse\b")


class MatchMode(str, Enum):
    SUBSTRING = "substring"
    WORD_BOUNDARY = "word_boundary"


@dataclass(frozen=True)
class VerdictParseConfig:
    match_mode: MatchMode = MatchMode.SUBSTRING
    restatement_override: bool = True


DEFAULT_PARSE_CONFIG = VerdictParseConfig()


def normalize(text: str) -> str:
    """Lowercase, collapse whitespace and drop terminal punctuation."""
    collapsed = _WHITESPACE_RE.sub(" ", text.lower()).strip()
    return collapsed.rstrip(".?!,;:").rstrip()


def parse_verdict(
    raw_response: str,
    claim_text: str,
    config: VerdictParseConfig = DEFAULT_PARSE_CONFIG,
) -> Verdict:
    """Map a verifier reply onto a verdict.

    Precedence: the restatement override, then "true", then "false", then
    non-response. The override fires only when "false" occurs; a reply that
    restates the claim without saying "false" resolves through the ordinary
    rules.
    """
    normalized_response = normalize(raw_response)
    if config.match_mode is MatchMode.WORD_BOUNDARY:
        has_true = _TRUE_WORD_RE.search(normalized_response) is not None
        has_false = _FALSE_WORD_RE.search(normalized_response) is not None
    else:
        has_true = "true" in normalized_response
        has_false = "false" in normalized_response

    if config.restatement_override and has_false:
        normalized_claim = normalize(claim_text)
        if normalized_claim and normalized_claim in normalized_response:
            return Verdict.TRUE
    if has_true:
        return Verdict.TRUE
    if has_false:
        return Verdict.FALSE
    return Verdict.NON_RESPONSE


def _verify_request(text: str, model: str, max_tokens: int) -> CompletionRequest:
    return CompletionRequest(model, VERIFY_PROMPT_PREFIX + text, max_tokens)


def verify_claim(
    instantiated_text: str,
    provider: Provider,
    config: VerdictParseConfig = DEFAULT_PARSE_CONFIG,
    *,
    model: str = "default",
    max_tokens: int = DEFAULT_VERIFY_MAX_TOKENS,
) -> VerificationResult:
    """Send one ``True or False:`` prompt and parse the reply.

    The prompt is exactly the prefix plus the claim text, no trailing
    newline; caching and replay depend on that byte-for-byte stability.
    """
    response = provider.complete(_verify_request(instantiated_text, model, max_tokens))
    verdict = parse_verdict(response.text, instantiated_text, config)
    return VerificationResult(
        instantiated_text=instantiated_text,
        verdict=verdict,
        raw_response=response.text,
    )


class VerificationError(Exception):
    """A claim could not be verified; the message names the claim."""


def verify_all(
    claim_set: ClaimSet,
    assignment: AnswerAssignment,
    provider: Provider,
    config: VerdictParseConfig = DEFAULT_PARSE_CONFIG,
    *,
    override_answer: Optional[str] = None,
    model: str = "default",
    max_tokens: int = DEFAULT_VERIFY_MAX_TOKENS,
    lenient: bool = False,
) -> list[VerificationResult]:
    """Verify every claim of a set, instantiating them all before any is
    sent. A provider with a ``complete_all`` gets every claim's request in
    that one call; any other gets them one at a time, in order.

    With ``override_answer`` the ``<answer>`` slot is re-bound (non-answer
    tags keep their assigned values), which re-verifies the same claims
    under e.g. the gold answer. The lowest claim that failed decides: a
    provider failure is a :class:`VerificationError` naming it, or with
    ``lenient=True`` a NON_RESPONSE, and any other exception is raised.
    """
    texts = []
    for number, claim in enumerate(claim_set.claims, start=1):
        try:
            if override_answer is None:
                texts.append(instantiate(claim, assignment))
            else:
                texts.append(instantiate_with_override(claim, assignment, override_answer))
        except Exception as exc:
            raise VerificationError(f"claim {number}: {exc}") from exc
    requests = [_verify_request(text, model, max_tokens) for text in texts]
    complete_all = getattr(provider, "complete_all", None)
    failures = {} if complete_all is None else complete_all(requests)
    results = []
    for number, (text, request) in enumerate(zip(texts, requests), start=1):
        try:
            if request in failures:
                raise failures[request]
            results.append(
                verify_claim(
                    text, provider, config, model=model, max_tokens=max_tokens
                )
            )
        except ProviderError as exc:
            if lenient:
                logger.warning(
                    "question %s claim %d: provider failed (%s), recording "
                    "non-response",
                    claim_set.question_id,
                    number,
                    exc.kind.value,
                )
                results.append(
                    VerificationResult(
                        instantiated_text=text,
                        verdict=Verdict.NON_RESPONSE,
                        raw_response="",
                    )
                )
            else:
                raise VerificationError(f"claim {number}: {exc}") from exc
    return results


@dataclass(frozen=True)
class BaselineResult:
    """Whole-question correctness check, for comparison with claim scores."""

    verdict: Verdict
    raw_response: str


def build_baseline_prompt(question: Question, answer: str) -> str:
    text = question.text.strip()
    if not text.endswith("?"):
        text += "?"
    return f"Here is the question: {text} Is the answer {answer} correct?"


def baseline_whole_question(
    question: Question,
    answer: str,
    provider: Provider,
    *,
    model: str = "default",
    max_tokens: int = DEFAULT_VERIFY_MAX_TOKENS,
) -> BaselineResult:
    """Ask whether *answer* is correct for *question*, in one shot.

    Parsed with the restatement override disabled (there is no claim to
    restate). Known limitation, kept for fidelity with the claim parser: a
    reply like "No, the answer is not correct." contains neither "true" nor
    "false" and lands on NON_RESPONSE.
    """
    request = CompletionRequest(
        model=model,
        prompt=build_baseline_prompt(question, answer),
        max_tokens=max_tokens,
    )
    response = provider.complete(request)
    config = VerdictParseConfig(restatement_override=False)
    verdict = parse_verdict(response.text, "", config)
    return BaselineResult(verdict=verdict, raw_response=response.text)
