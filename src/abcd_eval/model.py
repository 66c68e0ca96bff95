"""Core domain types for claim-based question answering evaluation.

A question is decomposed into a set of claim templates that each mention
the answer through an ``<answer>`` tag (plus optional tags for other
entities the question mentions). Templates get instantiated with concrete
answer strings, each instantiated claim is verified as true or false, and
per-question scores are rolled up into aggregate reports.

Everything in this module is an immutable value object. Validation that can
reject a value outright lives in ``__post_init__``; softer structural checks
that should *report* rather than raise live in :func:`validate_claim_set`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

# Tag names are lowercase words made of letters, digits, underscores and
# hyphens, optionally joined by single internal spaces. Serialized form wraps
# the name in angle brackets: <answer>, <record label>. Matching is
# case-insensitive; names are normalized to lowercase. A span with leading or
# trailing spaces inside the brackets ("< y>", "<y >") is not a tag, which is
# what lets prose like "x < y and y > z" pass through untouched.
_TAG_NAME_PATTERN = r"[a-zA-Z0-9_-]+(?: [a-zA-Z0-9_-]+)*"
TAG_RE = re.compile(rf"<({_TAG_NAME_PATTERN})>")
_TAG_NAME_RE = re.compile(rf"^{_TAG_NAME_PATTERN}$")

ANSWER_TAG_NAME = "answer"


class Dataset(str, Enum):
    """Provenance label for a question."""

    TRIVIAQA = "triviaqa"
    HOTPOTQA_EASY = "hotpotqa_easy"
    HOTPOTQA_MEDIUM = "hotpotqa_medium"
    OBSCUREQA = "obscureqa"
    CUSTOM = "custom"


class Verdict(str, Enum):
    """Outcome of verifying a single instantiated claim.

    ``NON_RESPONSE`` is a real outcome, not an error: the verifier answered
    but committed to neither truth value. It scores as false.
    """

    TRUE = "true"
    FALSE = "false"
    NON_RESPONSE = "non_response"


@dataclass(frozen=True, order=True)
class Tag:
    """A named slot that appears in claim templates as ``<name>``."""

    name: str

    def __post_init__(self):
        normalized = self.name.lower()
        if not _TAG_NAME_RE.match(normalized):
            raise ValueError(f"invalid tag name: {self.name!r}")
        object.__setattr__(self, "name", normalized)

    @property
    def serialized(self) -> str:
        return f"<{self.name}>"

    def __str__(self) -> str:
        return self.serialized


ANSWER_TAG = Tag(ANSWER_TAG_NAME)


def extract_tags(text: str) -> list[Tag]:
    """Return the tags in *text*, in order of first occurrence, deduplicated.

    Angle-bracketed spans that do not fit the tag grammar are ignored.
    """
    seen: dict[str, Tag] = {}
    for match in TAG_RE.finditer(text):
        name = match.group(1).lower()
        if name not in seen:
            seen[name] = Tag(name)
    return list(seen.values())


@dataclass(frozen=True)
class Question:
    """A QA item with its gold answer and provenance."""

    id: str
    text: str
    gold_answer: str
    dataset: Dataset
    category: Optional[str] = None
    subcategory: Optional[str] = None

    def __post_init__(self):
        if not self.id.strip():
            raise ValueError("question id must be non-empty")
        if not self.text.strip():
            raise ValueError(f"question {self.id}: text must be non-empty")
        if not self.gold_answer.strip():
            raise ValueError(f"question {self.id}: gold answer must be non-empty")


@dataclass(frozen=True)
class ClaimTemplate:
    """One templated claim, e.g. ``<answer> wrote the play <play>``."""

    index: int
    text: str

    @property
    def tags(self) -> tuple[Tag, ...]:
        """The tags in ``text``, in order of first occurrence."""
        return tuple(extract_tags(self.text))


@dataclass(frozen=True)
class ClaimSet:
    """The decomposition of one question into claim templates.

    By convention the first claim is the entity-type claim ("<answer> is a
    novelist") and mentions no tag other than ``<answer>``.
    """

    question_id: str
    claims: tuple[ClaimTemplate, ...]
    entity_reasoning: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "claims", tuple(self.claims))

    @property
    def tags(self) -> tuple[Tag, ...]:
        """The union of the claims' tags, in order of first occurrence."""
        return tuple(dict.fromkeys(tag for claim in self.claims for tag in claim.tags))


def validate_claim_set(claim_set: ClaimSet) -> list[str]:
    """Check the structural conventions of a claim set.

    Returns human-readable violation strings, empty when the set is
    well-formed:

    * at least one claim, with indices exactly 1..n in order;
    * every claim mentions ``<answer>``;
    * the first claim mentions only ``<answer>``.
    """
    violations: list[str] = []
    claims = claim_set.claims
    if not claims:
        violations.append("claim set has no claims")
        return violations

    indices = [claim.index for claim in claims]
    if indices != list(range(1, len(claims) + 1)):
        violations.append(
            f"claim indices {indices} are not contiguous 1..{len(claims)}"
        )

    for position, claim in enumerate(claims):
        tags = claim.tags
        if ANSWER_TAG not in tags:
            violations.append(f"claim {claim.index}: missing the <answer> tag")
        elif position == 0 and set(tags) != {ANSWER_TAG}:
            extras = [t.name for t in tags if t != ANSWER_TAG]
            violations.append(
                f"claim {claim.index}: entity-type claim must mention only "
                f"<answer>, found {extras}"
            )
    return violations


@dataclass(frozen=True)
class AnswerAssignment:
    """Concrete answer strings for every tag of a claim set.

    Values are stored trimmed. Empty values and values containing angle
    brackets are rejected: the former cannot instantiate a claim, the latter
    could smuggle new tags into instantiated text.
    """

    entries: tuple[tuple[Tag, str], ...]

    def __post_init__(self):
        normalized = []
        seen: set[str] = set()
        for tag, value in self.entries:
            if tag.name in seen:
                raise ValueError(f"duplicate assignment for tag {tag}")
            seen.add(tag.name)
            trimmed = value.strip()
            if not trimmed:
                raise ValueError(f"empty answer for tag {tag}")
            if "<" in trimmed or ">" in trimmed:
                raise ValueError(
                    f"answer for tag {tag} contains angle brackets: {trimmed!r}"
                )
            normalized.append((tag, trimmed))
        object.__setattr__(self, "entries", tuple(normalized))
        if ANSWER_TAG_NAME not in seen:
            raise ValueError("assignment is missing the <answer> tag")

    @classmethod
    def from_dict(cls, mapping: dict[str, str] | dict[Tag, str]) -> "AnswerAssignment":
        entries = tuple(
            (tag if isinstance(tag, Tag) else Tag(tag), value)
            for tag, value in mapping.items()
        )
        return cls(entries=entries)

    def get(self, tag: Tag) -> Optional[str]:
        for candidate, value in self.entries:
            if candidate == tag:
                return value
        return None

    def __contains__(self, tag: Tag) -> bool:
        return self.get(tag) is not None

    @property
    def answer(self) -> str:
        """The value bound to ``<answer>``; always present."""
        value = self.get(ANSWER_TAG)
        assert value is not None  # guaranteed by __post_init__
        return value

    def as_dict(self) -> dict[str, str]:
        return {tag.name: value for tag, value in self.entries}


@dataclass(frozen=True)
class VerificationResult:
    """Verdict for one instantiated claim, with the verifier's raw reply."""

    claim_index: int
    instantiated_text: str
    verdict: Verdict
    raw_response: str

    def __post_init__(self):
        leftover = extract_tags(self.instantiated_text)
        if leftover:
            raise ValueError(
                f"claim {self.claim_index}: instantiated text still contains "
                f"tags {[t.name for t in leftover]}"
            )


@dataclass(frozen=True)
class QuestionEvaluation:
    """Everything produced for one question, end to end.

    ``score_true`` is the fraction of true verdicts over claims 2..n: the
    entity-type claim is excluded because it is trivially satisfied by an
    answer of the right type. With a single claim there is nothing to score
    and the field is None. ``correct`` is a manual label (None when
    unlabeled); ``gt_score_true`` is the score obtained by re-verifying with
    the gold answer substituted for the model's.
    """

    question: Question
    claim_set: ClaimSet
    assignment: AnswerAssignment
    results: tuple[VerificationResult, ...]
    score_true: Optional[Fraction]
    correct: Optional[bool] = None
    error_category: Optional[str] = None
    gt_score_true: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))
        claims = self.claim_set.claims
        if len(self.results) != len(claims):
            raise ValueError(
                f"question {self.question.id}: {len(self.results)} results "
                f"for {len(claims)} claims"
            )
        for claim, result in zip(claims, self.results):
            if claim.index != result.claim_index:
                raise ValueError(
                    f"question {self.question.id}: result order mismatch "
                    f"(claim {claim.index} vs result {result.claim_index})"
                )
        if (self.score_true is None) != (len(claims) == 1):
            raise ValueError(
                f"question {self.question.id}: score_true must be absent "
                f"exactly when the claim set has a single claim"
            )


@dataclass(frozen=True)
class GroundTruthComparison:
    """Counts comparing gold-answer scores against predicted-answer scores."""

    gt_greater: int
    gt_equal: int
    gt_less: int

    @property
    def total(self) -> int:
        return self.gt_greater + self.gt_equal + self.gt_less


@dataclass(frozen=True)
class AggregateReport:
    """Per-dataset roll-up of question evaluations.

    Score means are exact rationals; only the t-test fields are floats.
    Fields are None when the slice they describe is empty (for example no
    labeled-incorrect questions means no ``mean_incorrect``) or when the
    t-test inputs are degenerate.
    """

    dataset: str
    n_total: int
    n_correct: int
    n_incorrect: int
    n_unlabeled: int
    mean_correct: Optional[Fraction]
    mean_incorrect: Optional[Fraction]
    diff: Optional[Fraction]
    t_stat: Optional[float]
    degrees_freedom: Optional[float]
    p_value: Optional[float]
    p_correct: Optional[Fraction]
    p_incorrect: Optional[Fraction]
    gt_comparison: Optional[GroundTruthComparison] = None
