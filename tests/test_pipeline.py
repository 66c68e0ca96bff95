"""A run's providers, driven through run_stages: the per-question provider's
reuse and truncated stages, and Upstream's cache and per-stage call counts."""

import sys

import pytest

from abcd_eval.model import Dataset, Question
from abcd_eval.pipeline import STAGES, QuestionOutcome, Run, RunConfig, run_stages
from abcd_eval.providers import (
    CompletionRequest,
    CompletionResponse,
    FinishReason,
    ProviderError,
    ProviderErrorKind,
    ReplayProvider,
    ResponseCache,
    Upstream,
)


def make_request(prompt: str) -> CompletionRequest:
    return CompletionRequest(model="default", prompt=prompt, max_tokens=16)


class Endpoint:
    """The base provider: answers every prompt and keeps the prompts sent."""

    def __init__(self):
        self.sent = []

    def complete(self, request):
        self.sent.append(request.prompt)
        return CompletionResponse(text=f"re: {request.prompt}")


class WatchedCache(ResponseCache):
    """A response cache that counts its lookups."""

    gets = 0

    def get(self, digest):
        self.gets += 1
        return super().get(digest)


def sending(*prompts):
    """A stage that sends *prompts*, in order, through the question's
    provider."""

    def stage(run, outcome, provider):
        for prompt in prompts:
            provider.complete(make_request(prompt))

    return stage


def run_questions(monkeypatch, upstream, n_questions, concurrency=1, **stages):
    """Run the given stand-in *stages*, in order, over *n_questions*;
    return the outcomes."""
    for name, stage in stages.items():
        monkeypatch.setitem(STAGES, name, stage)
    outcomes = [
        QuestionOutcome(Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM))
        for n in range(1, n_questions + 1)
    ]
    run = Run(RunConfig(concurrency=concurrency), upstream)
    done = run_stages(run, outcomes, list(stages))
    assert [outcome.failure_reason for outcome in done] == [None] * n_questions
    return done


def test_failed_call_is_not_counted_and_its_resend_is(monkeypatch):
    class Flaky(Endpoint):
        def complete(self, request):
            if not self.sent:
                self.sent.append(request.prompt)
                raise ProviderError(ProviderErrorKind.NETWORK, "first fails")
            return super().complete(request)

    def send_twice(run, outcome, provider):
        with pytest.raises(ProviderError):
            provider.complete(make_request("p"))
        provider.complete(make_request("p"))

    base = Flaky()
    upstream = Upstream(base)
    run_questions(monkeypatch, upstream, 1, verify=send_twice)
    assert base.sent == ["p", "p"]
    assert upstream.calls == {"verify": 1}


def test_counts_from_eight_threads_add_up(monkeypatch):
    upstream = Upstream(Endpoint())
    prompts = [f"p{n}" for n in range(50)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update shows
    try:
        run_questions(
            monkeypatch, upstream, 8, concurrency=8, verify=sending(*prompts)
        )
    finally:
        sys.setswitchinterval(interval)
    assert upstream.calls == {"verify": 400}


def test_cache_hit_is_not_counted(monkeypatch, tmp_path):
    base = Endpoint()
    upstream = Upstream(base, ResponseCache(tmp_path))
    run_questions(monkeypatch, upstream, 3, verify=sending("same prompt"))
    assert base.sent == ["same prompt"]
    assert upstream.calls == {"verify": 1}


def test_request_is_reused_within_a_question_and_sent_again_for_the_next(
    monkeypatch,
):
    base = Endpoint()
    upstream = Upstream(base)
    run_questions(
        monkeypatch, upstream, 2, verify=sending("p", "p"), verify_gt=sending("p")
    )
    assert base.sent == ["p", "p"]
    assert upstream.calls == {"verify": 2}


def test_reused_request_is_neither_counted_nor_looked_up(monkeypatch, tmp_path):
    base = Endpoint()
    cache = WatchedCache(tmp_path)
    upstream = Upstream(base, cache)
    run_questions(
        monkeypatch, upstream, 1, verify=sending("p", "p"), verify_gt=sending("p")
    )
    assert cache.gets == 1
    assert base.sent == ["p"]
    assert upstream.calls == {"verify": 1}


def test_counts_land_under_the_stage_being_run(monkeypatch):
    upstream = Upstream(Endpoint())
    run_questions(
        monkeypatch, upstream, 2, concurrency=2,
        decompose=sending("a"),
        answer=sending("b", "c"),
        verify=sending("d", "e", "f"),
        verify_gt=sending("d", "g"),
        baseline=sending("h"),
    )
    assert upstream.calls == {
        "decompose": 2, "answer": 4, "verify": 6, "verify_gt": 2, "baseline": 2,
    }


def test_close_closes_the_base_provider():
    class Closable(Endpoint):
        closed = False

        def close(self):
            self.closed = True

    base = Closable()
    Upstream(base).close()
    assert base.closed
    Upstream(Endpoint()).close()  # a base without close() is fine


def test_question_responses_do_not_outlive_run_stages(monkeypatch):
    base = Endpoint()
    upstream = Upstream(base)
    run_questions(monkeypatch, upstream, 1, verify=sending("p"))
    upstream.complete(make_request("p"))
    assert base.sent == ["p", "p"]
    assert upstream.calls == {"verify": 1, "library": 1}


def test_a_truncated_reply_names_every_stage_that_used_it(monkeypatch, tmp_path):
    class Cutting(Endpoint):
        """Answers the prompt "cut" with finish reason ``length``."""

        def complete(self, request):
            response = super().complete(request)
            if request.prompt != "cut":
                return response
            return CompletionResponse(response.text, FinishReason.LENGTH)

    stages = dict(decompose=sending("a"), verify=sending("cut", "b", "cut"),
                  verify_gt=sending("cut"), baseline=sending("b"))
    cache = ResponseCache(tmp_path)
    # The first question's reply is fresh, then reused; the second's comes
    # from the cache, and the replayed run's from the cache again.
    recorded = run_questions(monkeypatch, Upstream(Cutting(), cache), 2, **stages)
    replayed = run_questions(monkeypatch, ReplayProvider(cache), 2, **stages)
    assert [outcome.truncated for outcome in recorded + replayed] == \
        [["verify", "verify_gt"]] * 4
    untouched = run_questions(monkeypatch, Upstream(Cutting()), 1, verify=sending("b"))
    assert untouched[0].truncated == []
