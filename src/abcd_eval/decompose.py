"""Question decomposition into tagged claim templates.

The decomposition prompt is few-shot: an instruction header, five to seven
worked examples, then the target question with a ``Step 1:`` cue. The model
walks three steps in a single completion: independent claims about the
answer plus a rationale for the answer's entity type, identification of
other entities shared with the question, and the final tagged claim list.
Only the final list (after the ``Step 3:`` marker) becomes the claim set;
the step-1 rationale is kept as ``entity_reasoning``.

Parsing is tolerant by design. Model output drifts, so unnumbered lines,
gaps in numbering and claims that forgot the ``<answer>`` tag are reported
as warnings on a best-effort claim set instead of hard failures; only a
missing step marker or an empty claim list is fatal.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .model import ANSWER_TAG, ClaimSet, ClaimTemplate, Question
from .providers import CompletionRequest, Provider

logger = logging.getLogger(__name__)

DEFAULT_DECOMPOSE_MAX_TOKENS = 512
_EXAMPLE_SEPARATOR = "---"

_CLAIM_LINE_RE = re.compile(r"^\s*(\d+)\.\s*(\S.*?)\s*$")
# Lines that mean "the answer to this question has ended".
_BOUNDARY_RE = re.compile(r"^\s*(?:---+\s*$|Question\s*:)")


@dataclass(frozen=True)
class DecompositionMarkers:
    step1: str = "Step 1:"
    step2: str = "Step 2:"
    step3: str = "Step 3:"


DEFAULT_MARKERS = DecompositionMarkers()


class DecompositionParseErrorKind(str, Enum):
    MISSING_STEP_MARKER = "missing_step_marker"
    NO_CLAIMS = "no_claims"


class DecompositionParseError(Exception):
    def __init__(self, kind: DecompositionParseErrorKind, message: str):
        super().__init__(message)
        self.kind = kind


class ParseWarningKind(str, Enum):
    UNNUMBERED_LINE = "unnumbered_line"
    MISSING_ANSWER_TAG = "missing_answer_tag"
    REINDEXED = "reindexed"


@dataclass(frozen=True)
class ParseWarning:
    kind: ParseWarningKind
    detail: str


@dataclass(frozen=True)
class ParsedDecomposition:
    claim_set: ClaimSet
    warnings: tuple[ParseWarning, ...] = field(default=())


class PromptPackError(ValueError):
    """A prompt pack failed validation."""


@dataclass(frozen=True)
class PromptPack:
    """Instruction header plus worked decomposition examples.

    Packs carry between five and seven examples; fewer gives the model too
    little of the format to imitate, more wastes context. Every example must
    itself parse as a decomposition, which keeps packs honest about the
    format they teach.
    """

    instructions: str
    examples: tuple[str, ...]
    markers: DecompositionMarkers = DEFAULT_MARKERS

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if not self.instructions.strip():
            raise PromptPackError("pack instructions are empty")
        if not 5 <= len(self.examples) <= 7:
            raise PromptPackError(
                f"pack must hold 5 to 7 examples, got {len(self.examples)}"
            )
        for position, example in enumerate(self.examples, start=1):
            try:
                parse_decomposition(
                    example, question_id=f"pack-example-{position}",
                    markers=self.markers,
                )
            except DecompositionParseError as exc:
                raise PromptPackError(
                    f"pack example {position} does not parse: {exc}"
                ) from exc


def load_prompt_pack(directory: str | Path) -> PromptPack:
    """Load a pack from a directory of ``instructions.txt`` + ``examples.txt``.

    Examples are separated by lines consisting of ``---``.
    """
    directory = Path(directory)
    instructions_path = directory / "instructions.txt"
    examples_path = directory / "examples.txt"
    for path in (instructions_path, examples_path):
        if not path.is_file():
            raise PromptPackError(f"prompt pack file missing: {path}")
    instructions = instructions_path.read_text(encoding="utf-8").strip()

    blocks: list[str] = []
    current: list[str] = []
    for line in examples_path.read_text(encoding="utf-8").splitlines():
        if line.strip() == _EXAMPLE_SEPARATOR:
            if any(l.strip() for l in current):
                blocks.append("\n".join(current).strip())
            current = []
        else:
            current.append(line)
    if any(l.strip() for l in current):
        blocks.append("\n".join(current).strip())

    return PromptPack(instructions=instructions, examples=tuple(blocks))


def default_pack_path() -> Path:
    """Directory of the pack that ships with the package."""
    return Path(__file__).parent / "packs" / "default"


def build_decomposition_prompt(question: Question, pack: PromptPack) -> str:
    parts = [pack.instructions.strip()]
    parts.extend(example.strip() for example in pack.examples)
    parts.append(f"Question: {question.text}\n{pack.markers.step1}")
    return "\n\n".join(parts)


def _section(raw: str, start_marker: str, end_markers: list[str]) -> str:
    start = raw.find(start_marker)
    begin = start + len(start_marker) if start != -1 else 0
    end = len(raw)
    for marker in end_markers:
        pos = raw.find(marker, begin)
        if pos != -1:
            end = min(end, pos)
    return raw[begin:end]


def parse_decomposition(
    raw: str,
    question_id: str,
    markers: DecompositionMarkers = DEFAULT_MARKERS,
) -> ParsedDecomposition:
    """Parse one decomposition completion into a claim set.

    Claims come from ``N. text`` lines after the step-3 marker, stopping at
    the first blank line (once a claim has been seen) or at an example
    boundary. Indices are renumbered to 1..n in reading order when the model
    numbers them with gaps or repeats. The entity-type rationale is whatever
    prose sits in the step-1 section.
    """
    warnings: list[ParseWarning] = []

    step3_at = raw.find(markers.step3)
    if step3_at == -1:
        raise DecompositionParseError(
            DecompositionParseErrorKind.MISSING_STEP_MARKER,
            f"question {question_id}: no {markers.step3!r} marker in completion",
        )

    raw_claims: list[tuple[int, str]] = []
    region = raw[step3_at + len(markers.step3):]
    for line in region.splitlines():
        if _BOUNDARY_RE.match(line):
            break
        if not line.strip():
            if raw_claims:
                break
            continue
        match = _CLAIM_LINE_RE.match(line)
        if match:
            raw_claims.append((int(match.group(1)), match.group(2)))
            continue
        warnings.append(
            ParseWarning(
                ParseWarningKind.UNNUMBERED_LINE,
                f"skipped line without claim number: {line.strip()[:80]!r}",
            )
        )
        if raw_claims:
            break

    if not raw_claims:
        raise DecompositionParseError(
            DecompositionParseErrorKind.NO_CLAIMS,
            f"question {question_id}: step-3 section contains no claims",
        )

    original_indices = [index for index, _ in raw_claims]
    if original_indices != list(range(1, len(raw_claims) + 1)):
        warnings.append(
            ParseWarning(
                ParseWarningKind.REINDEXED,
                f"claim numbers {original_indices} renumbered to "
                f"1..{len(raw_claims)}",
            )
        )

    claims = []
    for position, (_, text) in enumerate(raw_claims, start=1):
        claim = ClaimTemplate(position, text)
        if ANSWER_TAG not in claim.tags:
            warnings.append(
                ParseWarning(
                    ParseWarningKind.MISSING_ANSWER_TAG,
                    f"claim {position} has no <answer> tag: {text[:80]!r}",
                )
            )
        claims.append(claim)

    reasoning_section = _section(raw, markers.step1, [markers.step2, markers.step3])
    reasoning_lines = []
    for line in reasoning_section.splitlines():
        stripped = line.strip()
        if not stripped or _CLAIM_LINE_RE.match(line) or _BOUNDARY_RE.match(line):
            continue
        reasoning_lines.append(stripped)
    entity_reasoning: Optional[str] = " ".join(reasoning_lines) or None

    claim_set = ClaimSet(
        question_id=question_id,
        claims=claims,
        entity_reasoning=entity_reasoning,
    )
    return ParsedDecomposition(claim_set=claim_set, warnings=tuple(warnings))


def decompose(
    question: Question,
    pack: PromptPack,
    provider: Provider,
    *,
    model: str = "default",
    max_tokens: int = DEFAULT_DECOMPOSE_MAX_TOKENS,
) -> ParsedDecomposition:
    """Run the decomposition prompt for one question and parse the result."""
    request = CompletionRequest(
        model=model,
        prompt=build_decomposition_prompt(question, pack),
        max_tokens=max_tokens,
        temperature=0.0,
    )
    response = provider.complete(request)
    parsed = parse_decomposition(
        response.text, question_id=question.id, markers=pack.markers
    )
    for warning in parsed.warnings:
        logger.warning("question %s: %s", question.id, warning.detail)
    return parsed
