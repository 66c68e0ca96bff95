"""Instantiation of claim templates with concrete answer strings.

Substitution happens in a single left-to-right pass over the template text,
so answer values are never re-scanned for tags. Assignment construction
already rejects angle brackets in values, which makes the pass safe; the
leftover check after substitution is therefore a genuine error signal, not a
second line of defense.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .model import TAG_RE, AnswerAssignment, ClaimTemplate, Tag, extract_tags

__all__ = [
    "InstantiationError",
    "InstantiationErrorKind",
    "extract_tags",
    "instantiate",
    "instantiate_with_override",
]


class InstantiationErrorKind(str, Enum):
    MISSING_ASSIGNMENT = "missing_assignment"
    LEFTOVER_TAG = "leftover_tag"
    MALFORMED_TAG = "malformed_tag"


class InstantiationError(Exception):
    """A claim template could not be turned into plain text."""

    def __init__(
        self,
        kind: InstantiationErrorKind,
        message: str,
        tag: Optional[Tag] = None,
        position: Optional[int] = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.tag = tag
        self.position = position


def _substitute(text: str, values: dict[str, str]) -> str:
    def replace(match):
        return values[match.group(1).lower()]

    return TAG_RE.sub(replace, text)


def instantiate(template: ClaimTemplate, assignment: AnswerAssignment) -> str:
    """Replace every tag in *template* with its assigned answer string.

    Raises :class:`InstantiationError` with kind ``MISSING_ASSIGNMENT`` when
    the assignment lacks one of the template's tags, and ``LEFTOVER_TAG`` if
    tag-shaped text survives substitution. That happens when literal
    brackets around a tag weld onto its value: ``<<answer>>`` with answer
    ``X`` renders as ``<X>``.
    """
    values: dict[str, str] = {}
    for tag in extract_tags(template.text):
        value = assignment.get(tag)
        if value is None:
            raise InstantiationError(
                InstantiationErrorKind.MISSING_ASSIGNMENT,
                f"claim {template.index}: no answer assigned for {tag}",
                tag=tag,
            )
        values[tag.name] = value
    result = _substitute(template.text, values)

    leftover = TAG_RE.search(result)
    if leftover is not None:
        raise InstantiationError(
            InstantiationErrorKind.LEFTOVER_TAG,
            f"claim {template.index}: tag <{leftover.group(1).lower()}> "
            f"survived substitution at offset {leftover.start()}",
            tag=Tag(leftover.group(1)),
            position=leftover.start(),
        )
    return result


def instantiate_with_override(
    template: ClaimTemplate,
    assignment: AnswerAssignment,
    override_answer: str,
) -> str:
    """Instantiate with *override_answer* in place of the assigned ``<answer>``.

    Non-answer tags still come from *assignment*. Used for re-verifying
    claims under the gold answer. The override is validated like any other
    answer value.
    """
    trimmed = override_answer.strip()
    if not trimmed:
        raise InstantiationError(
            InstantiationErrorKind.MALFORMED_TAG,
            f"claim {template.index}: override answer is empty",
        )
    if "<" in trimmed or ">" in trimmed:
        raise InstantiationError(
            InstantiationErrorKind.MALFORMED_TAG,
            f"claim {template.index}: override answer contains angle "
            f"brackets: {trimmed!r}",
        )
    overridden = AnswerAssignment(
        entries=tuple(
            (tag, trimmed if tag.name == "answer" else value)
            for tag, value in assignment.entries
        )
    )
    return instantiate(template, overridden)
