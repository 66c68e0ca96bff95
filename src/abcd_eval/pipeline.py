"""The per-question pipeline behind ``evaluate`` and the stage commands.

A question moves through named stages: ``decompose`` → ``answer`` →
``verify`` → ``verify_gt`` (only with ``--ground-truth``) → ``score``.
Each stage reads what earlier stages left on a :class:`QuestionOutcome` and
adds its own result. ``evaluate`` runs every stage on a fresh outcome; a
stage command fills the outcome from earlier stages' files and runs one.
``baseline`` is a stage of its own over stored evaluations.

:func:`run_stages` is the only per-question failure boundary: an exception
in a stage marks the outcome failed at that stage and the question's
remaining stages are skipped, while the other questions go on.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from .answers import DEFAULT_ANSWER_MAX_TOKENS, generate_answers
from .decompose import DEFAULT_DECOMPOSE_MAX_TOKENS, PromptPack, decompose
from .model import AnswerAssignment, ClaimSet, Question, QuestionEvaluation
from .providers import (
    CachingProvider,
    CountingProvider,
    LiveProvider,
    Provider,
    ProviderError,
    ReplayProvider,
    ResponseCache,
    ScriptedProvider,
    load_script_rules,
)
from .scoring import score_true
from .verify import (
    DEFAULT_VERIFY_MAX_TOKENS,
    BaselineResult,
    MatchMode,
    VerdictParseConfig,
    baseline_whole_question,
    verify_all,
)

logger = logging.getLogger(__name__)

# Stages that call a model, each behind its own call counter.
PROVIDER_STAGES = ("decompose", "answer", "verify", "verify_gt", "baseline")

EVALUATE_STAGES = ("decompose", "answer", "verify", "verify_gt", "score")


class ConfigError(Exception):
    """Bad flags, missing files, missing credentials: exit code 1."""


class MissingInputError(Exception):
    """A stage's input is absent from the files an earlier stage wrote."""


# --------------------------------------------------------------------------
# run configuration and provider assembly


@dataclass
class RunConfig:
    provider_mode: str = "scripted"
    script_path: Optional[Path] = None
    cache_dir: Optional[Path] = None
    base_url: Optional[str] = None
    decompose_model: str = "default"
    answer_model: str = "default"
    verify_model: str = "default"
    match_mode: MatchMode = MatchMode.SUBSTRING
    restatement_override: bool = True
    decompose_max_tokens: int = DEFAULT_DECOMPOSE_MAX_TOKENS
    answer_max_tokens: int = DEFAULT_ANSWER_MAX_TOKENS
    verify_max_tokens: int = DEFAULT_VERIFY_MAX_TOKENS
    ground_truth: bool = False
    lenient: bool = False
    concurrency: int = 1
    limit: Optional[int] = None
    sample: Optional[int] = None
    seed: int = 0

    @property
    def parse_config(self) -> VerdictParseConfig:
        return VerdictParseConfig(
            match_mode=self.match_mode,
            restatement_override=self.restatement_override,
        )

    def validate(self) -> None:
        if self.provider_mode not in ("scripted", "live", "replay"):
            raise ConfigError(f"unknown provider mode {self.provider_mode!r}")
        if self.provider_mode == "scripted":
            if self.script_path is None:
                raise ConfigError("scripted mode needs --script")
            if not Path(self.script_path).is_file():
                raise ConfigError(f"script file not found: {self.script_path}")
        elif self.provider_mode == "live":
            if not self.base_url:
                raise ConfigError("live mode needs --base-url")
        elif self.provider_mode == "replay":
            if self.cache_dir is None:
                raise ConfigError("replay mode needs --cache-dir")
            if not Path(self.cache_dir).is_dir():
                raise ConfigError(f"cache directory not found: {self.cache_dir}")
        if self.concurrency < 1:
            raise ConfigError("--concurrency must be at least 1")
        if self.limit is not None and self.sample is not None:
            raise ConfigError("--limit and --sample are mutually exclusive")

    def to_record(self) -> dict:
        return {
            "provider_mode": self.provider_mode,
            "script": str(self.script_path) if self.script_path else None,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "base_url": self.base_url,
            "models": {
                "decompose": self.decompose_model,
                "answer": self.answer_model,
                "verify": self.verify_model,
            },
            "match_mode": self.match_mode.value,
            "restatement_override": self.restatement_override,
            "max_tokens": {
                "decompose": self.decompose_max_tokens,
                "answer": self.answer_max_tokens,
                "verify": self.verify_max_tokens,
            },
            "ground_truth": self.ground_truth,
            "lenient": self.lenient,
            "concurrency": self.concurrency,
            "limit": self.limit,
            "sample": self.sample,
            "seed": self.seed,
        }


@dataclass
class ProviderBundle:
    """One provider per pipeline stage, each behind its own call counter."""

    stage_providers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def provider(self, stage: str) -> Provider:
        return self.stage_providers[stage]

    def call_counts(self) -> dict:
        return {stage: counter.call_count for stage, counter in self.counters.items()}


def build_provider_bundle(config: RunConfig) -> ProviderBundle:
    """Assemble the per-stage provider stack for the configured mode.

    Counters sit inside the caching layer, so in caching modes they count
    upstream calls (cache misses); in replay mode they count completions
    served from the cache.
    """
    config.validate()
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None

    def base_provider() -> Provider:
        if config.provider_mode == "scripted":
            return ScriptedProvider(load_script_rules(config.script_path))
        if config.provider_mode == "live":
            try:
                return LiveProvider(base_url=config.base_url)
            except ProviderError as exc:
                raise ConfigError(str(exc)) from exc
        return ReplayProvider(cache)

    bundle = ProviderBundle()
    base = base_provider()
    for stage in PROVIDER_STAGES:
        counter = CountingProvider(base)
        bundle.counters[stage] = counter
        if cache is not None and config.provider_mode != "replay":
            bundle.stage_providers[stage] = CachingProvider(counter, cache)
        else:
            bundle.stage_providers[stage] = counter
    return bundle


@dataclass
class Run:
    """What the stages share across questions."""

    config: RunConfig
    bundle: Optional[ProviderBundle] = None
    pack: Optional[PromptPack] = None
    labels: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# stages


@dataclass
class QuestionOutcome:
    """One question's results so far, or the stage where it failed."""

    question: Question
    claim_set: Optional[ClaimSet] = None
    assignment: Optional[AnswerAssignment] = None
    results: Optional[list] = None
    gt_results: Optional[list] = None
    evaluation: Optional[QuestionEvaluation] = None
    baseline: Optional[BaselineResult] = None
    failed_stage: Optional[str] = None
    failure_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None


def _need(value, what: str):
    if value is None:
        raise MissingInputError(f"no {what} in the input files")
    return value


def _decompose(run: Run, outcome: QuestionOutcome) -> None:
    outcome.claim_set = decompose(
        outcome.question,
        run.pack,
        run.bundle.provider("decompose"),
        model=run.config.decompose_model,
        max_tokens=run.config.decompose_max_tokens,
    ).claim_set


def _answer(run: Run, outcome: QuestionOutcome) -> None:
    outcome.assignment = generate_answers(
        outcome.question,
        _need(outcome.claim_set, "claim set"),
        run.bundle.provider("answer"),
        model=run.config.answer_model,
        max_tokens=run.config.answer_max_tokens,
    )


def _verify_claims(
    run: Run, outcome: QuestionOutcome, stage: str, override_answer=None
) -> list:
    return verify_all(
        _need(outcome.claim_set, "claim set"),
        _need(outcome.assignment, "assignment"),
        run.bundle.provider(stage),
        run.config.parse_config,
        override_answer=override_answer,
        model=run.config.verify_model,
        max_tokens=run.config.verify_max_tokens,
        lenient=run.config.lenient,
    )


def _verify(run: Run, outcome: QuestionOutcome) -> None:
    outcome.results = _verify_claims(run, outcome, "verify")


def _verify_gt(run: Run, outcome: QuestionOutcome) -> None:
    """Re-verify the claims with the gold answer in the ``<answer>`` slot."""
    if run.config.ground_truth:
        outcome.gt_results = _verify_claims(
            run, outcome, "verify_gt", outcome.question.gold_answer
        )


def _score(run: Run, outcome: QuestionOutcome) -> None:
    results = _need(outcome.results, "verifications")
    gt_results = outcome.gt_results
    correct, error_category = run.labels.get(outcome.question.id, (None, None))
    outcome.evaluation = QuestionEvaluation(
        question=outcome.question,
        claim_set=_need(outcome.claim_set, "claim set"),
        assignment=_need(outcome.assignment, "assignment"),
        results=tuple(results),
        score_true=score_true([result.verdict for result in results]),
        correct=correct,
        error_category=error_category,
        gt_score_true=(
            None
            if gt_results is None
            else score_true([result.verdict for result in gt_results])
        ),
    )


def _baseline(run: Run, outcome: QuestionOutcome) -> None:
    outcome.baseline = baseline_whole_question(
        outcome.question,
        outcome.evaluation.assignment.answer,
        run.bundle.provider("baseline"),
        model=run.config.verify_model,
        max_tokens=run.config.verify_max_tokens,
    )


STAGES: dict[str, Callable[[Run, QuestionOutcome], None]] = {
    "decompose": _decompose,
    "answer": _answer,
    "verify": _verify,
    "verify_gt": _verify_gt,
    "score": _score,
    "baseline": _baseline,
}


def _run_over_questions(items, worker: Callable, concurrency: int) -> list:
    """Apply *worker* to every item, preserving input order."""
    if concurrency <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(worker, items))


def run_stages(
    run: Run, outcomes: Sequence[QuestionOutcome], stages: Sequence[str]
) -> list[QuestionOutcome]:
    """Apply the named *stages*, in order, to every outcome.

    Questions run in parallel up to ``run.config.concurrency``; the result
    keeps input order.
    """

    def worker(outcome: QuestionOutcome) -> QuestionOutcome:
        for stage in stages:
            try:
                STAGES[stage](run, outcome)
            except Exception as exc:
                logger.error(
                    "question %s failed at %s: %s", outcome.question.id, stage, exc
                )
                outcome.failed_stage = stage
                outcome.failure_reason = f"{type(exc).__name__}: {exc}"
                break
        return outcome

    return _run_over_questions(outcomes, worker, run.config.concurrency)
