"""Properties of claim-template instantiation; its cases are rows of
``TEXTS`` in ``tests/test_texts.py``."""

from hypothesis import given, strategies as st

from abcd_eval.model import AnswerAssignment, ClaimTemplate
from abcd_eval.template import InstantiationError, instantiate


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

    claim = ClaimTemplate(text)
    rendered = instantiate(claim, assignment)

    recovered = rendered
    for name, marker in values.items():
        recovered = recovered.replace(marker, f"<{name}>")
    assert recovered == text

    # And the tags surviving in recovered text match the original template's.
    assert ClaimTemplate(recovered).tags == claim.tags


@given(st.text(alphabet="<>ab c_1-", max_size=40))
def test_no_silent_tag_survival(text):
    """Instantiation either yields tag-free text or raises LEFTOVER_TAG.

    Pathological templates can weld literal brackets onto substituted
    values ("<<a>>" with a="v" renders "<v>"); those must be rejected, not
    passed downstream, because verification refuses tag-shaped text.
    """
    from abcd_eval.model import TAG_RE

    claim = ClaimTemplate(text)
    values = {tag.name: "v" for tag in claim.tags}
    values.setdefault("answer", "v")
    try:
        rendered = instantiate(claim, AnswerAssignment.from_dict(values))
    except InstantiationError as exc:
        assert "survived substitution" in str(exc)
    else:
        assert not TAG_RE.search(rendered)
        if not claim.tags:
            assert rendered == text
