"""The per-question pipeline behind ``evaluate`` and the stage commands.

A question moves through named stages: ``decompose`` → ``answer`` →
``verify`` → ``verify_gt`` (only with ``--ground-truth``) → ``score``.
Each stage reads what earlier stages left on a :class:`QuestionOutcome` and
adds its own result. ``evaluate`` runs every stage on a fresh outcome; a
stage command fills the outcome from earlier stages' files and runs one.
``baseline`` is a stage of its own over stored evaluations.

:class:`RunConfig` holds every setting of a run and checks its values when
it is built, so every command that builds one rejects the same bad values.
:func:`build_upstream` checks the provider settings and builds the run's
one :class:`~abcd_eval.providers.Upstream`, which counts each stage's calls.

:func:`run_stages` is the only per-question failure boundary: an exception
in a stage, or in writing the question's fresh replies to the cache when it
ends, fails it at that stage (the last one run) unless it has failed, and
its remaining stages are skipped, while the other questions go on. Within
a question a prompt goes upstream once, so a gold-answer verification that
repeats the predicted one is answered from memory.

Every request passes the run's one :class:`RequestQueue`, which has N =
``--concurrency`` workers, or one, the calling thread, when N is 1 or
nothing goes to a base. A lone request is sent by its own worker; a queued
batch wakes idle workers.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .answers import DEFAULT_ANSWER_MAX_TOKENS, generate_answers
from .decompose import DEFAULT_DECOMPOSE_MAX_TOKENS, PromptPack, decompose
from .model import AnswerAssignment, ClaimSet, Question, QuestionEvaluation
from .providers import (
    CachingProvider,
    CompletionRequest,
    CompletionResponse,
    FinishReason,
    LiveProvider,
    ReplayProvider,
    ResponseCache,
    ScriptedProvider,
    Upstream,
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

# Stages that call a model, as the manifest lists their call counts.
PROVIDER_STAGES = ("decompose", "answer", "verify", "verify_gt", "baseline")

EVALUATE_STAGES = ("decompose", "answer", "verify", "verify_gt", "score")


class MissingInputError(Exception):
    """A stage's input is absent from the files an earlier stage wrote."""


# --------------------------------------------------------------------------
# run configuration and provider assembly


@dataclass
class RunConfig:
    """Every setting of a run; the values are checked when it is built."""

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

    def __post_init__(self):
        self.match_mode = MatchMode(self.match_mode)
        for name in ("concurrency", "limit", "sample", "decompose_max_tokens",
                     "answer_max_tokens", "verify_max_tokens"):
            value = getattr(self, name)
            if value is not None and value < 1:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be at least 1, got {value}")
        if self.limit is not None and self.sample is not None:
            raise ValueError("--limit and --sample are mutually exclusive")
        for name in ("decompose_model", "answer_model", "verify_model"):
            if not getattr(self, name):
                raise ValueError(f"--{name.replace('_', '-')} must be non-empty")

    @property
    def parse_config(self) -> VerdictParseConfig:
        return VerdictParseConfig(
            match_mode=self.match_mode,
            restatement_override=self.restatement_override,
        )

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


def build_upstream(config: RunConfig) -> Upstream:
    """The run's provider, after checking the provider settings: a bad or
    missing setting is a ``ValueError``, a missing API key a
    ``ProviderError``."""
    mode = config.provider_mode
    if mode == "replay":
        if config.cache_dir is None:
            raise ValueError("replay mode needs --cache-dir")
        if not Path(config.cache_dir).is_dir():
            raise ValueError(f"cache directory not found: {config.cache_dir}")
        return ReplayProvider(ResponseCache(config.cache_dir))
    if mode == "scripted":
        if config.script_path is None:
            raise ValueError("scripted mode needs --script")
        base = ScriptedProvider(load_script_rules(config.script_path))
    elif mode == "live":
        if not config.base_url:
            raise ValueError("live mode needs --base-url")
        base = LiveProvider(base_url=config.base_url)
    else:
        raise ValueError(f"unknown provider mode {mode!r}")
    if config.cache_dir is None:
        return Upstream(base)
    return CachingProvider(base, ResponseCache(config.cache_dir))


@dataclass
class Run:
    """What the stages share across questions: the configuration, the
    provider (None when no stage calls a model), the prompt pack and the
    manual labels."""

    config: RunConfig
    upstream: Optional[Upstream] = None
    pack: Optional[PromptPack] = None
    labels: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.upstream is not None:
            self.upstream.close()


# --------------------------------------------------------------------------
# stages


def _send(upstream: Upstream, request: CompletionRequest, stage: str):
    """What *upstream* returned for *request*, or the Exception it raised."""
    try:
        return upstream.fetch(request, stage)
    except Exception as exc:
        return exc


class QuestionProvider:
    """One question's provider over the run's *queue*: a request the
    question already sent is answered from memory, neither counted nor
    looked up in the cache; any other goes through the queue under
    ``stage`` and the question's *position*. A reply with finish reason
    ``length``, fresh, cached or reused, puts ``stage`` in ``truncated``.
    A call that raises is kept nowhere, so a later call sends it again."""

    def __init__(self, queue: RequestQueue, position: int = 0):
        self.queue = queue
        self.position = position
        self.stage = "library"
        self.truncated: set[str] = set()
        self.responses: dict[CompletionRequest, CompletionResponse] = {}

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        failures = self.complete_all([request])
        if failures:
            raise failures[request]
        response = self.responses[request]
        if response.finish_reason is FinishReason.LENGTH:
            self.truncated.add(self.stage)
        return response

    def complete_all(self, requests: Sequence[CompletionRequest]) -> dict:
        """Send each of *requests* the question has not sent, once, as one
        batch, all even when one fails. Keep the responses for
        :meth:`complete`; return what failed ones raised."""
        fresh = [r for r in dict.fromkeys(requests) if r not in self.responses]
        outcomes = self.queue.send(self.position, self.stage, fresh)
        failures = {r: o for r, o in outcomes.items() if isinstance(o, BaseException)}
        self.responses.update((r, o) for r, o in outcomes.items() if r not in failures)
        return failures


class RequestQueue:
    """The run-wide queue that every upstream request passes.

    Each worker runs one question at a time and sends its lone requests
    itself. A larger batch, a verification stage's, is queued under its
    question's position and wakes idle workers. A worker waiting on its
    batch sends the oldest question's queued requests; one between
    questions starts the next, and helps once none is left to start. A
    ``BaseException`` in a worker stops every worker at its next request.
    """

    def __init__(self, upstream: Optional[Upstream], n_questions: int,
                 run_question: Callable[[int, RequestQueue], None]):
        self.upstream = upstream
        self._run_question = run_question
        self._unstarted = deque(range(n_questions))
        self._unfinished = n_questions
        self._batches: list[SimpleNamespace] = []
        self._stop: Optional[BaseException] = None
        self._cond = threading.Condition()

    def run(self, workers: int) -> None:
        """Run every question on the calling thread and *workers* - 1 more."""
        if workers == 1:
            return self._work()
        from concurrent.futures import ThreadPoolExecutor

        # A pool worker's BaseException stays in its future instead of
        # printing; the stop it sets reaches the calling thread's next turn.
        with ThreadPoolExecutor(workers - 1) as pool:
            for _ in range(workers - 1):
                pool.submit(self._work)
            self._work()

    def send(self, position: int, stage: str, requests: list) -> dict:
        """What each of *requests* returned or raised, by request."""
        if self._stop is not None:
            raise self._stop
        if len(requests) < 2:
            return {request: _send(self.upstream, request, stage) for request in requests}
        batch = SimpleNamespace(position=position, stage=stage,
                                queued=deque(requests), outcomes={})
        with self._cond:
            self._batches.append(batch)
            self._cond.notify_all()
            try:
                while len(batch.outcomes) < len(requests):
                    self._help()
            finally:
                self._batches.remove(batch)
        return batch.outcomes

    def _work(self) -> None:
        try:
            with self._cond:
                while self._unfinished:
                    if self._stop or not self._unstarted:
                        self._help()
                        continue
                    position = self._unstarted.popleft()
                    self._cond.release()
                    try:
                        self._run_question(position, self)
                    finally:
                        self._cond.acquire()
                    self._unfinished -= 1
                    self._cond.notify_all()
        except BaseException as exc:
            with self._cond:
                self._stop = self._stop or exc
                self._cond.notify_all()
            raise

    def _help(self) -> None:
        """Raise the stop, or send the next request of the oldest question
        with one queued, unlocked, or wait."""
        if self._stop is not None:
            raise self._stop
        batch = min((batch for batch in self._batches if batch.queued),
                    key=lambda batch: batch.position, default=None)
        if batch is None:
            self._cond.wait()
            return
        request = batch.queued.popleft()
        self._cond.release()
        try:
            outcome = _send(self.upstream, request, batch.stage)
        finally:
            self._cond.acquire()
        batch.outcomes[request] = outcome
        self._cond.notify_all()


@dataclass
class QuestionOutcome:
    """One question's results so far, or the stage where it failed, and
    the stages, in pipeline order, that used a reply cut off at its
    ``max_tokens`` (finish reason ``length``), fresh, cached or reused."""

    question: Question
    claim_set: Optional[ClaimSet] = None
    assignment: Optional[AnswerAssignment] = None
    results: Optional[list] = None
    gt_results: Optional[list] = None
    evaluation: Optional[QuestionEvaluation] = None
    baseline: Optional[BaselineResult] = None
    failed_stage: Optional[str] = None
    failure_reason: Optional[str] = None
    truncated: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed_stage is None


def _need(value, what: str):
    if value is None:
        raise MissingInputError(f"no {what} in the input files")
    return value


def _decompose(run: Run, outcome: QuestionOutcome, provider: QuestionProvider) -> None:
    outcome.claim_set = decompose(
        outcome.question,
        run.pack,
        provider,
        model=run.config.decompose_model,
        max_tokens=run.config.decompose_max_tokens,
    ).claim_set


def _answer(run: Run, outcome: QuestionOutcome, provider: QuestionProvider) -> None:
    outcome.assignment = generate_answers(
        outcome.question,
        _need(outcome.claim_set, "claim set"),
        provider,
        model=run.config.answer_model,
        max_tokens=run.config.answer_max_tokens,
    )


def _verify_claims(run: Run, outcome: QuestionOutcome, provider: QuestionProvider,
                   override_answer=None) -> list:
    return verify_all(
        _need(outcome.claim_set, "claim set"),
        _need(outcome.assignment, "assignment"),
        provider,
        run.config.parse_config,
        override_answer=override_answer,
        model=run.config.verify_model,
        max_tokens=run.config.verify_max_tokens,
        lenient=run.config.lenient,
    )


def _verify(run: Run, outcome: QuestionOutcome, provider: QuestionProvider) -> None:
    outcome.results = _verify_claims(run, outcome, provider)


def _verify_gt(run: Run, outcome: QuestionOutcome, provider: QuestionProvider) -> None:
    """Re-verify the claims with the gold answer in the ``<answer>`` slot."""
    if run.config.ground_truth:
        outcome.gt_results = _verify_claims(
            run, outcome, provider, outcome.question.gold_answer
        )


def _score(run: Run, outcome: QuestionOutcome, provider: QuestionProvider) -> None:
    claim_set = _need(outcome.claim_set, "claim set")
    gt_results = outcome.gt_results
    if gt_results is not None and len(gt_results) != len(claim_set.claims):
        raise ValueError(
            f"question {outcome.question.id}: {len(gt_results)} gold-answer "
            f"results for {len(claim_set.claims)} claims"
        )
    correct, error_category = run.labels.get(outcome.question.id, (None, None))
    outcome.evaluation = QuestionEvaluation(
        question=outcome.question,
        claim_set=claim_set,
        assignment=_need(outcome.assignment, "assignment"),
        results=_need(outcome.results, "verifications"),
        correct=correct,
        error_category=error_category,
        gt_score_true=(
            None
            if gt_results is None
            else score_true([result.verdict for result in gt_results])
        ),
    )


def _baseline(run: Run, outcome: QuestionOutcome, provider: QuestionProvider) -> None:
    outcome.baseline = baseline_whole_question(
        outcome.question,
        outcome.evaluation.assignment.answer,
        provider,
        model=run.config.verify_model,
        max_tokens=run.config.verify_max_tokens,
    )


STAGES: dict[str, Callable[[Run, QuestionOutcome, QuestionProvider], None]] = {
    "decompose": _decompose,
    "answer": _answer,
    "verify": _verify,
    "verify_gt": _verify_gt,
    "score": _score,
    "baseline": _baseline,
}


def _fail(outcome: QuestionOutcome, stage: str, exc: Exception) -> None:
    logger.error("question %s failed at %s: %s", outcome.question.id, stage, exc)
    if outcome.ok:
        outcome.failed_stage, outcome.failure_reason = stage, f"{type(exc).__name__}: {exc}"


def run_stages(
    run: Run, outcomes: Sequence[QuestionOutcome], stages: Sequence[str]
) -> list[QuestionOutcome]:
    """Apply the named *stages*, in order, to every outcome.

    Each question sends every request through a :class:`QuestionProvider`
    of its own into one :class:`RequestQueue`. That has
    ``run.config.concurrency`` workers when ``run.upstream`` has a base to
    send to, and else one, the calling thread. The result keeps input order.
    """

    def run_question(position: int, queue: RequestQueue) -> None:
        outcome = outcomes[position]
        provider = QuestionProvider(queue, position)
        try:
            for stage in stages:
                provider.stage = stage
                STAGES[stage](run, outcome, provider)
        except Exception as exc:
            _fail(outcome, provider.stage, exc)
        finally:
            try:
                if run.upstream is not None:
                    run.upstream.store(provider.responses)
            except Exception as exc:
                _fail(outcome, provider.stage, exc)
        outcome.truncated = [stage for stage in stages if stage in provider.truncated]
        for stage in outcome.truncated:
            logger.warning("question %s: a %s reply was truncated (finish_reason "
                           "length)", outcome.question.id, stage)

    sends = getattr(run.upstream, "base", None) is not None
    RequestQueue(run.upstream, len(outcomes), run_question).run(
        run.config.concurrency if sends else 1)
    return list(outcomes)
