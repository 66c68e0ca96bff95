"""Instantiation of claim templates with concrete answer strings.

Substitution happens in a single left-to-right pass over the template text,
so answer values are never re-scanned for tags. Assignment construction
already rejects angle brackets in values, which makes the pass safe; the
leftover check after substitution is therefore a genuine error signal, not a
second line of defense.
"""

from __future__ import annotations

from .model import ANSWER_TAG_NAME, TAG_RE, AnswerAssignment, ClaimTemplate, extract_tags


class InstantiationError(Exception):
    """A claim template could not be turned into plain text."""


def instantiate(template: ClaimTemplate, assignment: AnswerAssignment) -> str:
    """Replace every tag in *template* with its assigned answer string.

    Raises :class:`InstantiationError` when the assignment has no value for
    one of the template's tags, or when tag-shaped text survives
    substitution. The second happens when literal brackets around a tag
    weld onto its value: ``<<answer>>`` with answer ``X`` renders as
    ``<X>``.
    """
    values: dict[str, str] = {}
    for tag in extract_tags(template.text):
        value = assignment.get(tag)
        if value is None:
            raise InstantiationError(f"no answer assigned for {tag}")
        values[tag.name] = value
    result = TAG_RE.sub(lambda match: values[match.group(1).lower()], template.text)

    leftover = TAG_RE.search(result)
    if leftover is not None:
        raise InstantiationError(
            f"tag <{leftover.group(1).lower()}> survived substitution at "
            f"offset {leftover.start()}"
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
        raise InstantiationError("override answer is empty")
    if "<" in trimmed or ">" in trimmed:
        raise InstantiationError(
            f"override answer contains angle brackets: {trimmed!r}"
        )
    overridden = AnswerAssignment(
        entries=tuple(
            (tag, trimmed if tag.name == ANSWER_TAG_NAME else value)
            for tag, value in assignment.entries
        )
    )
    return instantiate(template, overridden)
