"""Synthetic 12-question fixture driving the end-to-end pipeline tests.

Twelve questions, all in the ``custom`` dataset: six labeled correct, four
labeled incorrect, two unlabeled. Scripted provider rules supply the
decomposition, the tag answers and every verification verdict, so a full
``evaluate --ground-truth`` run is offline and deterministic.

Verdict patterns are fixture data chosen to pin the aggregate arithmetic,
and they deliberately model a noisy verifier (some verdicts contradict
world knowledge; that is the phenomenon the scoring exists to measure).

The expected aggregate values below are hand-derived:

* correct scores   [1, 1, 3/4, 3/4, 1/2, 1]  -> mean 5/6, variance 1/24
* incorrect scores [1/2, 1/4, 0, 1/4]        -> mean 1/4, variance 1/24
* diff 7/12, t = 7*sqrt(2/5), df = 125/19 (Welch-Satterthwaite)
* label shares 3/5 and 2/5
* gold-vs-predicted over the labeled-incorrect: one greater (q07: 3/4 vs
  1/2), two equal (q08: 1/4, q09: 0), one less (q10: 0 vs 1/4)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

_TAG_SUB_RE = re.compile(r"<([a-z]+)>")


@dataclass(frozen=True)
class FixtureQuestion:
    qid: str
    text: str
    gold: str
    pred: str
    claims: tuple[str, ...]
    pred_verdicts: str  # one of T/F/N per claim
    gt_verdicts: str
    correct: Optional[bool] = None
    error_category: Optional[str] = None
    extra_tags: dict = field(default_factory=dict)

    def instantiated(self, answer: str) -> list[str]:
        values = {"answer": answer, **self.extra_tags}
        return [
            _TAG_SUB_RE.sub(lambda m: values[m.group(1)], claim)
            for claim in self.claims
        ]


QUESTIONS: tuple[FixtureQuestion, ...] = (
    FixtureQuestion(
        qid="q01",
        text="Which planet is known as the Red Planet?",
        gold="Mars", pred="Mars",
        claims=(
            "<answer> is a planet",
            "<answer> is known as the Red Planet",
            "<answer> orbits the Sun",
        ),
        pred_verdicts="TTT", gt_verdicts="TTT", correct=True,
    ),
    FixtureQuestion(
        qid="q02",
        text="What is the capital city of Australia?",
        gold="Canberra", pred="Canberra",
        claims=(
            "<answer> is a city",
            "<answer> is the capital of Australia",
            "<answer> is located in Australia",
        ),
        pred_verdicts="TTT", gt_verdicts="TTT", correct=True,
    ),
    FixtureQuestion(
        qid="q03",
        text="Which playwright wrote the tragedy Hamlet?",
        gold="William Shakespeare", pred="William Shakespeare",
        claims=(
            "<answer> is a playwright",
            "<answer> wrote the play <play>",
            "<answer> wrote tragedies",
            "<answer> lived in England",
            "<answer> was born in 1566",
        ),
        pred_verdicts="TTTTF", gt_verdicts="TTTTF", correct=True,
        extra_tags={"play": "Hamlet"},
    ),
    FixtureQuestion(
        qid="q04",
        text="What metal is liquid at room temperature?",
        gold="Mercury", pred="Mercury",
        claims=(
            "<answer> is a metal",
            "<answer> is liquid at room temperature",
            "<answer> is used in thermometers",
            "<answer> has the chemical symbol Hg",
            "<answer> is heavier than gold",
        ),
        pred_verdicts="TTTTN", gt_verdicts="TTTTN", correct=True,
    ),
    FixtureQuestion(
        qid="q05",
        text="Which ocean is the largest on Earth?",
        gold="the Pacific Ocean", pred="the Pacific Ocean",
        claims=(
            "<answer> is an ocean",
            "<answer> is the largest ocean on Earth",
            "<answer> is larger than all continents combined",
        ),
        pred_verdicts="TTF", gt_verdicts="TTF", correct=True,
    ),
    FixtureQuestion(
        qid="q06",
        text="What is the chemical symbol for gold?",
        gold="Au", pred="Au",
        claims=(
            "<answer> is a chemical symbol",
            "<answer> is the chemical symbol for gold",
        ),
        pred_verdicts="TT", gt_verdicts="TT", correct=True,
    ),
    FixtureQuestion(
        qid="q07",
        text="Which architect designed the Guggenheim Museum in Bilbao?",
        gold="Frank Gehry", pred="Frank Lloyd Wright",
        claims=(
            "<answer> is an architect",
            "<answer> designed a museum in <city>",
            "<answer> designed famous museums",
            "<answer> worked with titanium cladding",
            "<answer> is Canadian-American",
        ),
        pred_verdicts="TTTFF", gt_verdicts="TTTTF",
        correct=False, error_category="wrong entity",
        extra_tags={"city": "Bilbao"},
    ),
    FixtureQuestion(
        qid="q08",
        text="Which novelist wrote the dystopia Brave New World?",
        gold="Aldous Huxley", pred="George Orwell",
        claims=(
            "<answer> is a novelist",
            "<answer> wrote Brave New World",
            "<answer> wrote dystopian fiction",
            "<answer> published the novel in 1932",
            "<answer> also wrote The Doors of Perception",
        ),
        pred_verdicts="TFTFF", gt_verdicts="TTFFF",
        correct=False, error_category="confused author",
    ),
    FixtureQuestion(
        qid="q09",
        text="Which country hosts the Eiffel Tower?",
        gold="France", pred="Italy",
        claims=(
            "<answer> is a country",
            "<answer> hosts the Eiffel Tower",
            "<answer> has Paris as its capital",
        ),
        pred_verdicts="TFF", gt_verdicts="TFF",
        correct=False, error_category="wrong country",
    ),
    FixtureQuestion(
        qid="q10",
        text="Which physicist proposed the theory of general relativity?",
        gold="Albert Einstein", pred="Isaac Newton",
        claims=(
            "<answer> is a physicist",
            "<answer> proposed the theory of general relativity",
            "<answer> was knighted",
            "<answer> played the violin",
            "<answer> emigrated to the United States",
        ),
        pred_verdicts="TFTFF", gt_verdicts="TFFFF",
        correct=False, error_category="wrong scientist",
    ),
    FixtureQuestion(
        qid="q11",
        text="What river flows through Budapest?",
        gold="the Danube", pred="the Danube",
        claims=(
            "<answer> is a river",
            "<answer> flows through Budapest",
            "<answer> empties into the Black Sea",
        ),
        pred_verdicts="TTT", gt_verdicts="TTT",
    ),
    FixtureQuestion(
        qid="q12",
        text="What gas do plants absorb during photosynthesis?",
        gold="carbon dioxide", pred="carbon dioxide",
        claims=(
            "<answer> is a gas",
            "<answer> is absorbed by plants during photosynthesis",
        ),
        pred_verdicts="TF", gt_verdicts="TF",
    ),
)

# Cycle response texts so the parser sees some variety; every variant must
# parse to its intended verdict under the default (substring) config.
_TRUE_TEXTS = ("True.", "True", "That is true.")
_FALSE_TEXTS = ("False.", "That is false.")
_NON_RESPONSE_TEXT = "I cannot determine that."


def _verdict_response(symbol: str, counter: int) -> str:
    if symbol == "T":
        return _TRUE_TEXTS[counter % len(_TRUE_TEXTS)]
    if symbol == "F":
        return _FALSE_TEXTS[counter % len(_FALSE_TEXTS)]
    if symbol == "N":
        return _NON_RESPONSE_TEXT
    raise ValueError(f"unknown verdict symbol {symbol!r}")


def decomposition_completion(fq: FixtureQuestion) -> str:
    """The text the model 'completes' after the trailing ``Step 1:`` cue."""
    entity = fq.claims[0].replace("<answer> is ", "")
    lines = [f" The question asks for {entity}."]
    lines.extend(
        f"{i}. {claim}" for i, claim in enumerate(_untagged_step1(fq), start=1)
    )
    if fq.extra_tags:
        names = ", ".join(f"<{name}>" for name in fq.extra_tags)
        lines.append(f"Step 2: The question mentions shared entities: {names}.")
    else:
        lines.append("Step 2: The question mentions no other shared entity.")
    lines.append("Step 3:")
    lines.extend(f"{i}. {claim}" for i, claim in enumerate(fq.claims, start=1))
    return "\n".join(lines)


def _untagged_step1(fq: FixtureQuestion) -> list[str]:
    # Step-1 claims before tags are introduced: drop non-answer tags by
    # substituting a plain phrase.
    return [
        _TAG_SUB_RE.sub(
            lambda m: m.group(1) if m.group(1) != "answer" else "<answer>", claim
        )
        for claim in fq.claims
    ]


def answer_completion(fq: FixtureQuestion) -> str:
    lines = [f"<answer>: {fq.pred}"]
    lines.extend(f"<{name}>: {value}" for name, value in fq.extra_tags.items())
    return "\n".join(lines)


def build_rules() -> list[dict]:
    """Scripted-provider rules covering every prompt the pipeline sends."""
    rules: list[dict] = []
    for fq in QUESTIONS:
        rules.append(
            {
                "match": f"Question: {fq.text}\nStep 1:",
                "response": decomposition_completion(fq),
            }
        )
        rules.append(
            {
                "match": f"Question: {fq.text}\n\n<answer>:",
                "response": answer_completion(fq),
            }
        )
    counter = 0
    seen: set[str] = set()
    for fq in QUESTIONS:
        for variants in (
            zip(fq.instantiated(fq.pred), fq.pred_verdicts),
            zip(fq.instantiated(fq.gold), fq.gt_verdicts),
        ):
            for claim_text, symbol in variants:
                prompt = f"True or False: {claim_text}"
                if prompt in seen:
                    continue
                seen.add(prompt)
                rules.append(
                    {
                        "match": prompt,
                        "mode": "exact",
                        "response": _verdict_response(symbol, counter),
                    }
                )
                counter += 1
    return rules


def write_fixture(directory: Path) -> dict[str, Path]:
    """Write questions.jsonl, labels.jsonl and rules.jsonl under *directory*."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "questions": directory / "questions.jsonl",
        "labels": directory / "labels.jsonl",
        "rules": directory / "rules.jsonl",
    }
    with open(paths["questions"], "w", encoding="utf-8") as handle:
        for fq in QUESTIONS:
            handle.write(
                json.dumps(
                    {"id": fq.qid, "question": fq.text, "answer": fq.gold}
                )
                + "\n"
            )
    with open(paths["labels"], "w", encoding="utf-8") as handle:
        for fq in QUESTIONS:
            if fq.correct is None:
                continue
            row = {"question_id": fq.qid, "correct": fq.correct}
            if fq.error_category:
                row["error_category"] = fq.error_category
            handle.write(json.dumps(row) + "\n")
    with open(paths["rules"], "w", encoding="utf-8") as handle:
        for rule in build_rules():
            handle.write(json.dumps(rule) + "\n")
    return paths


EXPECTED_SCORES = {
    "q01": Fraction(1), "q02": Fraction(1), "q03": Fraction(3, 4),
    "q04": Fraction(3, 4), "q05": Fraction(1, 2), "q06": Fraction(1),
    "q07": Fraction(1, 2), "q08": Fraction(1, 4), "q09": Fraction(0),
    "q10": Fraction(1, 4), "q11": Fraction(1), "q12": Fraction(0),
}

EXPECTED_GT_SCORES = {
    "q07": Fraction(3, 4), "q08": Fraction(1, 4),
    "q09": Fraction(0), "q10": Fraction(0),
}

EXPECTED_REPORT = {
    "dataset": "custom",
    "n_total": 12,
    "n_correct": 6,
    "n_incorrect": 4,
    "n_unlabeled": 2,
    "mean_correct": Fraction(5, 6),
    "mean_incorrect": Fraction(1, 4),
    "diff": Fraction(7, 12),
    "p_correct": Fraction(3, 5),
    "p_incorrect": Fraction(2, 5),
    "gt_comparison": (1, 2, 1),
}

# Upstream calls per stage: one decomposition and one answer call per
# question, one verification call per claim. The ground-truth pass
# re-verifies every claim, but for the eight questions whose predicted answer
# equals gold those prompts repeat the predicted-answer pass. A question
# reuses the responses its predicted pass received, so only the four
# wrong-answer questions (5+5+3+5 = 18 claims) send gold-pass prompts, with
# or without a cache.
TOTAL_CLAIMS = sum(len(fq.claims) for fq in QUESTIONS)  # 44
GT_ONLY_CLAIMS = sum(
    len(fq.claims) for fq in QUESTIONS if fq.pred != fq.gold
)  # 18
EXPECTED_CALLS = {
    "decompose": 12, "answer": 12,
    "verify": TOTAL_CLAIMS, "verify_gt": GT_ONLY_CLAIMS, "baseline": 0,
}
EXPECTED_CACHE_ENTRIES = 12 + 12 + TOTAL_CLAIMS + GT_ONLY_CLAIMS  # 86
