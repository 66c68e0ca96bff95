"""Dataset loading, cleaning and construction.

Two jobs live here: reading question files in a handful of known formats
into :class:`~abcd_eval.model.Question` records, and building the obscure-QA
dataset out of raw quizbowl-style records (the first clue of a question is
its most obscure one, and becomes a standalone question once "this X" is
rewritten to "what X").

Determinism matters throughout: shuffles are an explicit Fisher-Yates over
``random.Random(seed).random()``, whose byte-for-byte stability across
Python versions is documented, and split sizes use largest-remainder
rounding so the three parts always sum to the total.
"""

from __future__ import annotations

import random
import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .model import OPTIONAL_STR, Dataset, Question, check_type
from .records import question_from_record, scan_jsonl

# --------------------------------------------------------------------------
# text cleaning

# NFKD decomposition plus an ASCII strip handles most accented letters;
# these are the common cases it cannot decompose.
_TRANSLITERATION = {
    "‘": "'", "’": "'", "‚": "'",
    "“": '"', "”": '"', "„": '"',
    "–": "-", "—": "-", "−": "-",
    "…": "...",
    "ß": "ss", "ẞ": "SS",
    "æ": "ae", "Æ": "AE",
    "œ": "oe", "Œ": "OE",
    "ø": "o", "Ø": "O",
    "đ": "d", "Đ": "D",
    "ł": "l", "Ł": "L",
    "þ": "th", "Þ": "Th",
    "ð": "d", "Ð": "D",
    " ": " ",
}

# Minimal spans, innermost-first per type because the quantifier is lazy.
_PAREN_RE = re.compile(r"\(.*?\)", re.DOTALL)
_BRACKET_RE = re.compile(r"\[.*?\]", re.DOTALL)
_ANGLE_RE = re.compile(r"<.*?>", re.DOTALL)
_WHITESPACE_RE = re.compile(r"\s+")


def transliterate(text: str) -> str:
    """Best-effort ASCII rendering of *text*.

    Characters outside ASCII go through the explicit table, then NFKD
    decomposition with combining marks dropped. Whatever survives both is
    removed.
    """
    out = []
    for char in text:
        if ord(char) < 128:
            out.append(char)
            continue
        mapped = _TRANSLITERATION.get(char)
        if mapped is not None:
            out.append(mapped)
            continue
        decomposed = unicodedata.normalize("NFKD", char)
        out.append(decomposed.encode("ascii", "ignore").decode("ascii"))
    return "".join(out)


def clean_text(text: str) -> str:
    """Normalize raw dataset text to plain single-spaced ASCII.

    Transliterates to ASCII, deletes minimal ``(...)``, ``[...]`` and
    ``<...>`` spans (brackets included, non-nested, left to right), then
    collapses whitespace and trims. Idempotent: cleaning a cleaned string
    is a no-op.
    """
    text = transliterate(text)
    text = _PAREN_RE.sub("", text)
    text = _BRACKET_RE.sub("", text)
    text = _ANGLE_RE.sub("", text)
    return _WHITESPACE_RE.sub(" ", text).strip()


_MODERATOR_NOTE_RE = re.compile(r"^\s*note to (?:the )?moderator", re.IGNORECASE)
_STANDALONE_THIS_RE = re.compile(r"\bthis\b", re.IGNORECASE)


def convert_clue_to_question(clue: str) -> Optional[str]:
    """Rewrite one (already cleaned) clue as a standalone question.

    Returns None for clues that open with a moderator note, which address
    the quiz reader rather than describing the answer. Every standalone
    "this"/"This" becomes "what"/"What" (case of the first letter is kept),
    and a terminal question mark is appended when missing.
    """
    if _MODERATOR_NOTE_RE.match(clue):
        return None

    def replace(match: re.Match) -> str:
        return "What" if match.group(0)[0].isupper() else "what"

    question = _STANDALONE_THIS_RE.sub(replace, clue).strip()
    if not question.endswith("?"):
        question += "?"
    return question


# --------------------------------------------------------------------------
# deterministic shuffling and splitting


def seeded_shuffle(items: Sequence, seed: int) -> list:
    """Fisher-Yates shuffle driven by ``random.Random(seed).random()``.

    random() is the one generator method with a documented cross-version
    reproducibility guarantee, so the permutation is pinned forever.
    """
    rng = random.Random(seed)
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def sample_questions(
    questions: Sequence[Question], n: int, seed: int
) -> list[Question]:
    """Uniform sample without replacement; ``n == len`` yields a permutation."""
    if n < 0:
        raise ValueError(f"sample size must be non-negative, got {n}")
    if n > len(questions):
        raise ValueError(f"cannot sample {n} questions from {len(questions)}")
    return seeded_shuffle(questions, seed)[:n]


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions plus the shuffle seed."""

    train: float = 0.7
    valid: float = 0.1
    test: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, fraction in (
            ("train", self.train), ("valid", self.valid), ("test", self.test)
        ):
            if not 0.0 < fraction < 1.0:
                raise ValueError(f"{name} fraction must be in (0, 1), got {fraction}")
        if abs(self.train + self.valid + self.test - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


def split_sizes(total: int, spec: SplitSpec) -> tuple[int, int, int]:
    """Largest-remainder apportionment of *total* into three parts.

    Floors first, then hands leftover items to the largest fractional
    remainders (ties broken in train, valid, test order). The parts always
    sum to *total*.
    """
    exact = [spec.train * total, spec.valid * total, spec.test * total]
    sizes = [int(value) for value in exact]
    remainders = [value - size for value, size in zip(exact, sizes)]
    leftover = total - sum(sizes)
    for position in sorted(range(3), key=lambda i: -remainders[i])[:leftover]:
        sizes[position] += 1
    return sizes[0], sizes[1], sizes[2]


# --------------------------------------------------------------------------
# obscure-QA construction


@dataclass(frozen=True)
class RawQuizbowlRecord:
    """One raw quizbowl question: clues ordered most-obscure first."""

    clues: tuple[str, ...]
    answer: str
    category: Optional[str] = None
    subcategory: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "clues", tuple(self.clues))
        if not self.clues:
            raise ValueError("quizbowl record must hold at least one clue")
        for clue in self.clues:
            check_type("quizbowl record", "clue", clue, str)
        check_type("quizbowl record", "answer", self.answer, str)
        for name in ("category", "subcategory"):
            check_type("quizbowl record", name, getattr(self, name), OPTIONAL_STR)


@dataclass(frozen=True)
class ObscureQABuild:
    """Output of :func:`build_obscureqa`, with per-reason drop counts."""

    train: tuple[Question, ...]
    valid: tuple[Question, ...]
    test: tuple[Question, ...]
    dropped_moderator_notes: int
    dropped_empty: int

    @property
    def total_kept(self) -> int:
        return len(self.train) + len(self.valid) + len(self.test)


def build_obscureqa(
    records: Sequence[RawQuizbowlRecord],
    split: SplitSpec = SplitSpec(),
) -> ObscureQABuild:
    """Turn raw quizbowl records into a split question dataset.

    Uses only each record's first (most obscure) clue. Records whose clue
    opens with a moderator note, or whose clue or answer cleans down to
    nothing, are dropped and counted. Question ids come from the record's
    position in the input, so they are stable across runs regardless of the
    shuffle seed.
    """
    kept: list[Question] = []
    dropped_notes = 0
    dropped_empty = 0
    for position, record in enumerate(records):
        clue = clean_text(record.clues[0])
        answer = clean_text(record.answer)
        if not clue or not answer:
            dropped_empty += 1
            continue
        text = convert_clue_to_question(clue)
        if text is None:
            dropped_notes += 1
            continue
        kept.append(
            Question(
                id=f"obscureqa-{position:05d}",
                text=text,
                gold_answer=answer,
                dataset=Dataset.OBSCUREQA,
                category=record.category,
                subcategory=record.subcategory,
            )
        )

    shuffled = seeded_shuffle(kept, split.seed)
    n_train, n_valid, _ = split_sizes(len(shuffled), split)
    return ObscureQABuild(
        train=tuple(shuffled[:n_train]),
        valid=tuple(shuffled[n_train:n_train + n_valid]),
        test=tuple(shuffled[n_train + n_valid:]),
        dropped_moderator_notes=dropped_notes,
        dropped_empty=dropped_empty,
    )


def parse_quizbowl_record(row: dict) -> RawQuizbowlRecord:
    clues = row.get("clues")
    if not isinstance(clues, list) or not clues:
        raise ValueError("record needs a non-empty 'clues' list")
    return RawQuizbowlRecord(
        clues=clues,
        answer=row["answer"],
        category=row.get("category"),
        subcategory=row.get("subcategory"),
    )


# --------------------------------------------------------------------------
# question file loading


class QuestionFormat(str, Enum):
    TRIVIAQA = "triviaqa"
    HOTPOTQA = "hotpotqa"
    OBSCUREQA = "obscureqa"
    GENERIC = "generic"


@dataclass
class LoadReport:
    """Questions plus everything that went wrong or was filtered."""

    questions: list[Question]
    line_errors: list[tuple[int, str]]
    skipped: int


_HOTPOT_LEVELS = {
    "easy": Dataset.HOTPOTQA_EASY,
    "medium": Dataset.HOTPOTQA_MEDIUM,
}


def _parse_triviaqa(row: dict, lineno: int) -> Question:
    answer = row.get("answer") or row.get("Answer")
    if isinstance(answer, dict):
        answer = answer.get("value") or answer.get("Value")
    return Question(
        id=row.get("question_id") or row.get("QuestionId") or row.get("id")
        or f"triviaqa-{lineno:06d}",
        text=row.get("question") or row.get("Question"),
        gold_answer=answer,
        dataset=Dataset.TRIVIAQA,
    )


def _parse_hotpotqa(row: dict, lineno: int) -> Optional[Question]:
    """Returns None for records filtered out (non-bridge, unknown level)."""
    if row.get("type") != "bridge":
        return None
    dataset = _HOTPOT_LEVELS.get(row.get("level"))
    if dataset is None:
        return None
    return Question(
        id=row.get("_id") or row.get("id") or f"hotpotqa-{lineno:06d}",
        text=row.get("question"),
        gold_answer=row.get("answer"),
        dataset=dataset,
    )


def _parse_generic(row: dict, lineno: int) -> Question:
    return Question(
        id=row.get("id") or f"generic-{lineno:06d}",
        text=row.get("question"),
        gold_answer=row.get("answer"),
        dataset=Dataset(row["dataset"]) if "dataset" in row else Dataset.CUSTOM,
        category=row.get("category"),
        subcategory=row.get("subcategory"),
    )


_PARSERS = {
    QuestionFormat.TRIVIAQA: _parse_triviaqa,
    QuestionFormat.HOTPOTQA: _parse_hotpotqa,
    QuestionFormat.OBSCUREQA: lambda row, lineno: question_from_record(row),
    QuestionFormat.GENERIC: _parse_generic,
}


def load_questions(path: str | Path, fmt: QuestionFormat) -> LoadReport:
    """Read a JSONL question file, collecting per-line errors.

    A bad line never aborts the load; it lands in ``line_errors`` with its
    line number. Duplicate ids are per-line errors (first occurrence wins).
    Only a file from which *nothing* parses, or that is not UTF-8, is a
    ``ValueError`` naming it. The hotpotqa format keeps bridge-type records
    at the easy and medium levels and counts everything else as skipped.
    The obscureqa format reads the question records :func:`build_obscureqa`'s
    splits are written as (``records.to_record``).
    """
    rows, line_errors = scan_jsonl(path, _PARSERS[fmt], key=attrgetter("id"))
    questions = [question for question in rows if question is not None]
    if not rows and not line_errors:
        raise ValueError(f"{path}: file holds no records")
    if not rows:
        raise ValueError(
            f"{path}: none of {len(line_errors)} lines parsed "
            f"(first error: line {line_errors[0][0]}: {line_errors[0][1]})"
        )
    return LoadReport(questions, line_errors, skipped=len(rows) - len(questions))
