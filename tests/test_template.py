"""Tests for claim-template instantiation."""

import pytest
from hypothesis import given, strategies as st

from abcd_eval.model import AnswerAssignment, ClaimTemplate, Tag
from abcd_eval.template import (
    InstantiationError,
    InstantiationErrorKind,
    instantiate,
    instantiate_with_override,
)


def template(text, index=1):
    return ClaimTemplate(index, text)


class TestInstantiate:
    def test_substitutes_all_tags(self):
        assignment = AnswerAssignment.from_dict(
            {"answer": "Shakespeare", "play": "Hamlet"}
        )
        text = instantiate(template("<answer> wrote <play>"), assignment)
        assert text == "Shakespeare wrote Hamlet"

    def test_repeated_tag_uses_same_value(self):
        assignment = AnswerAssignment.from_dict({"answer": "Mars"})
        text = instantiate(template("<answer> is <answer>"), assignment)
        assert text == "Mars is Mars"

    def test_missing_assignment(self):
        assignment = AnswerAssignment.from_dict({"answer": "Shakespeare"})
        with pytest.raises(InstantiationError) as excinfo:
            instantiate(template("<answer> wrote <play>"), assignment)
        assert excinfo.value.kind is InstantiationErrorKind.MISSING_ASSIGNMENT
        assert excinfo.value.tag == Tag("play")

    def test_non_tag_angle_spans_pass_through(self):
        assignment = AnswerAssignment.from_dict({"answer": "5"})
        text = instantiate(template("<answer> satisfies x < y and y > z"), assignment)
        assert text == "5 satisfies x < y and y > z"

    def test_answers_are_not_rescanned(self):
        # An answer value cannot smuggle a tag in, because assignments refuse
        # angle brackets; the grammar-level guarantee is that substitution is
        # a single pass.
        with pytest.raises(ValueError, match="angle brackets"):
            AnswerAssignment.from_dict({"answer": "sneaky <play>"})


class TestInstantiateWithOverride:
    def test_overrides_only_answer(self):
        assignment = AnswerAssignment.from_dict(
            {"answer": "Frank Lloyd Wright", "city": "Bilbao"}
        )
        text = instantiate_with_override(
            template("<answer> designed a museum in <city>"),
            assignment,
            "Frank Gehry",
        )
        assert text == "Frank Gehry designed a museum in Bilbao"

    def test_override_is_validated(self):
        assignment = AnswerAssignment.from_dict({"answer": "x"})
        with pytest.raises(InstantiationError) as excinfo:
            instantiate_with_override(template("<answer> is real"), assignment, "  ")
        assert excinfo.value.kind is InstantiationErrorKind.MALFORMED_TAG
        with pytest.raises(InstantiationError):
            instantiate_with_override(
                template("<answer> is real"), assignment, "a <b>"
            )


# ---------------------------------------------------------------------------
# property: instantiation is reversible when answers are unique markers

_tag_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_-]{0,8}", fullmatch=True),
    min_size=1, max_size=4, unique=True,
).map(lambda names: ["answer"] + [n for n in names if n != "answer"])

_filler = st.text(
    alphabet=st.characters(
        blacklist_characters="<>", blacklist_categories=("Cs",)
    ),
    max_size=12,
)


@given(names=_tag_names, fillers=st.lists(_filler, min_size=2, max_size=6),
       data=st.data())
def test_round_trip_recovers_template(names, fillers, data):
    """Build a random template, instantiate with sentinel values, then map
    the sentinels back and compare with the original text."""
    pieces = []
    used = []
    for i, filler in enumerate(fillers):
        pieces.append(filler)
        name = data.draw(st.sampled_from(names), label=f"tag{i}")
        pieces.append(f"<{name}>")
        used.append(name)
    pieces.append(data.draw(_filler, label="tail"))
    text = "".join(pieces)

    values = {name: f"[[{i}:{name}]]" for i, name in enumerate(sorted(set(used)))}
    values.setdefault("answer", "[[answer]]")
    assignment = AnswerAssignment.from_dict(values)

    claim = ClaimTemplate(1, text)
    rendered = instantiate(claim, assignment)

    recovered = rendered
    for name, marker in values.items():
        recovered = recovered.replace(marker, f"<{name}>")
    assert recovered == text

    # And the tags surviving in recovered text match the original template's.
    assert ClaimTemplate(1, recovered).tags == claim.tags


@given(st.text(alphabet="<>ab c_1-", max_size=40))
def test_no_silent_tag_survival(text):
    """Instantiation either yields tag-free text or raises LEFTOVER_TAG.

    Pathological templates can weld literal brackets onto substituted
    values ("<<a>>" with a="v" renders "<v>"); those must be rejected, not
    passed downstream, because verification refuses tag-shaped text.
    """
    from abcd_eval.model import TAG_RE

    claim = ClaimTemplate(1, text)
    values = {tag.name: "v" for tag in claim.tags}
    values.setdefault("answer", "v")
    try:
        rendered = instantiate(claim, AnswerAssignment.from_dict(values))
    except InstantiationError as exc:
        assert exc.kind is InstantiationErrorKind.LEFTOVER_TAG
    else:
        assert not TAG_RE.search(rendered)
        if not claim.tags:
            assert rendered == text


def test_bracket_welding_raises_leftover():
    assignment = AnswerAssignment.from_dict({"answer": "v"})
    with pytest.raises(InstantiationError) as excinfo:
        instantiate(ClaimTemplate(1, "<<answer>>"), assignment)
    assert excinfo.value.kind is InstantiationErrorKind.LEFTOVER_TAG
