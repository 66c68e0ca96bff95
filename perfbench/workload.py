"""Seeded question generator and the exact outcomes it implies.

Every generated question comes with the model replies a fake endpoint
should give to each of its prompts, and with the scores the pipeline must
compute from those replies. Names are built from syllables and are unique
across the whole set, so no two questions ever send the same prompt.

Verdict symbols, one per claim and pass:

* ``T``: a plain "true" reply;
* ``F``: a plain "false" reply;
* ``N``: a non-response (neither word), which scores as false;
* ``R``: "False." followed by the claim verbatim, which the restatement
  override turns into a true verdict.

When the predicted answer equals the gold answer the gold-answer pass sends
the very same prompts again, so it gets the same replies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

_SYLLABLES = (
    "ba", "ko", "mi", "ren", "dal", "vo", "shi", "tan", "lu", "gor", "pe",
    "ny", "zar", "qui", "hel", "ost", "vin", "ma", "ber", "sol", "ka", "dri",
    "mon", "ve", "thu", "li", "nor", "pa", "sed", "wy",
)

_ENTITY_TYPES = (
    "river", "novelist", "composer", "city", "mountain", "painter", "ship",
    "chemist", "island", "opera", "castle", "poet",
)

# Claims about the answer; "{x}" is filled with a unique word so that the
# claim text differs between questions.
_PLAIN_CLAIMS = (
    "<answer> was first described in {year}",
    "<answer> is associated with the {x} archive",
    "<answer> appears in the {x} chronicle",
    "<answer> was honoured by the {x} society",
    "<answer> is older than the {x} monument",
    "<answer> was studied at the {x} institute",
)

# Claims that mention another entity through a shared tag.
_TAGGED_CLAIMS = (
    ("place", "<answer> is linked to the place <place>"),
    ("work", "<answer> is mentioned in the work <work>"),
    ("patron", "<answer> was supported by <patron>"),
)

_TRUE_TEXTS = ("True.", "That is true.", "Yes, that is true.")
_FALSE_TEXTS = ("False.", "That is false.", "No, that is false.")
_NON_RESPONSE_TEXTS = ("I cannot determine that.", "Unknown.")

# Claims per question and their weights: mean 4.2.
_CLAIM_COUNTS = (2, 3, 4, 5, 6)
_CLAIM_WEIGHTS = (1, 2, 3, 2, 2)
_VERDICT_SYMBOLS = "TFNR"
_VERDICT_WEIGHTS = (6, 2, 1, 1)
CORRECT_SHARE = 0.7
UNLABELED_SHARE = 0.1
EXTRA_TAG_SHARE = 0.4


@dataclass(frozen=True)
class GeneratedQuestion:
    qid: str
    text: str
    gold: str
    pred: str
    claims: tuple[str, ...]
    extra_tags: tuple[tuple[str, str], ...]
    pred_verdicts: str
    gt_verdicts: str
    correct: Optional[bool]

    def instantiated(self, answer: str) -> list[str]:
        values = {"<answer>": answer}
        values.update((f"<{name}>", value) for name, value in self.extra_tags)
        out = []
        for claim in self.claims:
            for tag, value in values.items():
                claim = claim.replace(tag, value)
            out.append(claim)
        return out

    def verify_texts(self) -> list[tuple[str, str]]:
        """(claim text, verdict symbol) for every verification prompt,
        duplicates included, in the order the pipeline sends them."""
        pairs = list(zip(self.instantiated(self.pred), self.pred_verdicts))
        pairs += zip(self.instantiated(self.gold), self.gt_verdicts)
        return pairs

    @property
    def score(self) -> Fraction:
        return _score(self.pred_verdicts)

    @property
    def gt_score(self) -> Fraction:
        return _score(self.gt_verdicts)


def _score(symbols: str) -> Fraction:
    scored = symbols[1:]
    return Fraction(sum(1 for s in scored if s in "TR"), len(scored))


@dataclass
class _Names:
    rng: random.Random
    used: set = field(default_factory=set)

    def word(self, syllables: int) -> str:
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(syllables))

    def unique(self, syllables: int) -> str:
        while True:
            word = self.word(syllables)
            if word not in self.used:
                self.used.add(word)
                return word.capitalize()

    def name(self) -> str:
        return f"{self.unique(3)} {self.unique(3)}"


def _dealt(rng: random.Random, n: int, values, weights) -> list:
    """*n* values in exact proportion to *weights* (largest remainder),
    in seeded order, so the amount of work barely depends on the seed."""
    total = sum(weights)
    counts = [n * w // total for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: -(n * weights[i] % total))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    out = [value for value, count in zip(values, counts) for _ in range(count)]
    rng.shuffle(out)
    return out


def _share(rng: random.Random, n: int, share: float) -> list:
    return _dealt(rng, n, (True, False), (round(share * 1000), 1000 - round(share * 1000)))


def generate(seed: int, n_questions: int, prefix: str = "q") -> list[GeneratedQuestion]:
    """The same seed, size and prefix always give the same questions."""
    rng = random.Random(f"abcd-perfbench:{prefix}:{seed}")
    names = _Names(rng)
    claim_counts = _dealt(rng, n_questions, _CLAIM_COUNTS, _CLAIM_WEIGHTS)
    correct_answers = _share(rng, n_questions, CORRECT_SHARE)
    with_extra_tags = _share(rng, n_questions, EXTRA_TAG_SHARE)
    unlabeled = _share(rng, n_questions, UNLABELED_SHARE)
    # Set-up runs take the first question alone: give it the same shape,
    # four claims and a correct answer, for every seed.
    for dealt, value in ((claim_counts, 4), (correct_answers, True)):
        j = dealt.index(value)
        dealt[0], dealt[j] = dealt[j], dealt[0]
    questions = []
    for i in range(n_questions):
        entity = rng.choice(_ENTITY_TYPES)
        gold = names.name()
        correct_answer = correct_answers[i]
        pred = gold if correct_answer else names.name()
        k = claim_counts[i]

        extra: list[tuple[str, str]] = []
        bodies: list[str] = []
        if with_extra_tags[i]:
            picks = rng.sample(_TAGGED_CLAIMS, rng.choice((1, 2)))
            for tag, body in picks[: k - 1]:
                extra.append((tag, names.name()))
                bodies.append(body)
        templates = rng.sample(_PLAIN_CLAIMS, k - 1 - len(bodies))
        for template in templates:
            bodies.append(
                template.format(x=names.word(2), year=rng.randrange(1200, 2000))
            )
        rng.shuffle(bodies)
        claims = (f"<answer> is a {entity}",) + tuple(bodies)
        # The program asks for tags in order of first use in the claims.
        extra.sort(key=lambda item: next(
            i for i, body in enumerate(bodies) if f"<{item[0]}>" in body))

        pred_verdicts = "".join(rng.choices(_VERDICT_SYMBOLS, _VERDICT_WEIGHTS, k=k))
        if correct_answer:
            gt_verdicts = pred_verdicts
        else:
            gt_verdicts = "".join(
                rng.choices(_VERDICT_SYMBOLS, _VERDICT_WEIGHTS, k=k)
            )

        label: Optional[bool] = None if unlabeled[i] else correct_answer
        subject = names.unique(4)
        questions.append(
            GeneratedQuestion(
                qid=f"{prefix}{i:05d}",
                text=f"Which {entity} is tied to the {subject} record "
                     f"of {names.word(2).capitalize()}?",
                gold=gold,
                pred=pred,
                claims=claims,
                extra_tags=tuple(extra),
                pred_verdicts=pred_verdicts,
                gt_verdicts=gt_verdicts,
                correct=label,
            )
        )
    return questions


# --------------------------------------------------------------------------
# model replies


def decomposition_reply(q: GeneratedQuestion) -> str:
    """The completion after the prompt's trailing ``Step 1:`` cue."""
    entity = q.claims[0].removeprefix("<answer> is ")
    lines = [f" The question asks which {entity.split()[-1]}, so the answer is {entity}."]
    plain = list(q.claims)
    for name, _ in q.extra_tags:
        plain = [claim.replace(f"<{name}>", f"a {name}") for claim in plain]
    lines += [f"{i}. {claim}" for i, claim in enumerate(plain, start=1)]
    if q.extra_tags:
        tags = ", ".join(f"<{name}>" for name, _ in q.extra_tags)
        lines.append(f"Step 2: The question refers to shared entities: {tags}.")
    else:
        lines.append("Step 2: The question mentions no other shared entity.")
    lines.append("Step 3:")
    lines += [f"{i}. {claim}" for i, claim in enumerate(q.claims, start=1)]
    return "\n".join(lines)


def answer_reply(q: GeneratedQuestion) -> str:
    lines = [f"<answer>: {q.pred}"]
    lines += [f"<{name}>: {value}" for name, value in q.extra_tags]
    return "\n".join(lines)


def verdict_reply(symbol: str, claim_text: str, counter: int) -> str:
    if symbol == "T":
        return _TRUE_TEXTS[counter % len(_TRUE_TEXTS)]
    if symbol == "F":
        return _FALSE_TEXTS[counter % len(_FALSE_TEXTS)]
    if symbol == "N":
        return _NON_RESPONSE_TEXTS[counter % len(_NON_RESPONSE_TEXTS)]
    if symbol == "R":
        return f"False. {claim_text}"
    raise ValueError(f"unknown verdict symbol {symbol!r}")


def answer_tags(q: GeneratedQuestion) -> list[str]:
    """Tag names in the order the pipeline asks for them."""
    return ["answer"] + [name for name, _ in q.extra_tags]


# --------------------------------------------------------------------------
# files the program reads, and properties of the set


def write_inputs(questions: list[GeneratedQuestion], directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "questions": directory / "questions.jsonl",
        "labels": directory / "labels.jsonl",
    }
    with open(paths["questions"], "w", encoding="utf-8") as handle:
        for q in questions:
            row = {"id": q.qid, "question": q.text, "answer": q.gold}
            handle.write(json.dumps(row) + "\n")
    with open(paths["labels"], "w", encoding="utf-8") as handle:
        for q in questions:
            if q.correct is None:
                continue
            row = {"question_id": q.qid, "correct": q.correct}
            if not q.correct:
                row["error_category"] = "wrong entity"
            handle.write(json.dumps(row) + "\n")
    return paths


def properties(questions: list[GeneratedQuestion]) -> dict:
    n = len(questions)
    return {
        "questions": n,
        "mean_claims_per_question": sum(len(q.claims) for q in questions) / n,
        "extra_tag_share": sum(1 for q in questions if q.extra_tags) / n,
    }


def expected_report(questions: list[GeneratedQuestion]) -> dict:
    """The exact means and counts the aggregate report must hold."""
    correct = [q.score for q in questions if q.correct is True]
    incorrect = [q for q in questions if q.correct is False]
    wrong_scores = [q.score for q in incorrect]

    def mean(values):
        return sum(values, Fraction(0)) / len(values) if values else None

    mean_c, mean_i = mean(correct), mean(wrong_scores)
    comparison = (
        sum(1 for q in incorrect if q.gt_score > q.score),
        sum(1 for q in incorrect if q.gt_score == q.score),
        sum(1 for q in incorrect if q.gt_score < q.score),
    )
    return {
        "n_total": len(questions),
        "n_correct": len(correct),
        "n_incorrect": len(incorrect),
        "n_unlabeled": sum(1 for q in questions if q.correct is None),
        "mean_correct": mean_c,
        "mean_incorrect": mean_i,
        "diff": None if mean_c is None or mean_i is None else mean_c - mean_i,
        # The report leaves the comparison out when no question takes part.
        "gt_comparison": comparison if incorrect else None,
    }
