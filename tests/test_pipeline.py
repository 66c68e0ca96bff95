"""A run's providers, driven through run_stages: the per-question provider's
reuse and truncated stages, Upstream's cache and per-stage call counts, and
the run-wide request queue that every request passes."""

import sys
import threading

import pytest

from abcd_eval.model import (
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    Question,
    Verdict,
)
from abcd_eval.pipeline import (
    STAGES,
    QuestionOutcome,
    Run,
    RunConfig,
    run_stages,
)
from abcd_eval.providers import (
    CompletionRequest,
    CompletionResponse,
    FinishReason,
    ProviderError,
    ProviderErrorKind,
    ReplayProvider,
    ResponseCache,
    Upstream,
    cache_key,
)
from helpers import RecordingProvider


def make_request(prompt: str) -> CompletionRequest:
    return CompletionRequest(model="default", prompt=prompt, max_tokens=16)


class WatchedCache(ResponseCache):
    """A response cache that counts its lookups and writes."""

    gets = puts = 0

    def get(self, digest):
        self.gets += 1
        return super().get(digest)

    def put(self, digest, request, response):
        self.puts += 1
        super().put(digest, request, response)


def sending(*prompts):
    """A stage that sends *prompts*, in order, through the question's
    provider."""

    def stage(run, outcome, provider):
        for prompt in prompts:
            provider.complete(make_request(prompt))

    return stage


def entry_names(prompts) -> list:
    """The sorted names of the cache entries of *prompts*."""
    return sorted(f"{cache_key(make_request(prompt))}.json" for prompt in prompts)


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
    def first_fails(request):
        if len(base.requests) == 1:
            raise ProviderError(ProviderErrorKind.NETWORK, "first fails")

    def send_twice(run, outcome, provider):
        with pytest.raises(ProviderError):
            provider.complete(make_request("p"))
        provider.complete(make_request("p"))

    base = RecordingProvider(hold=first_fails)
    upstream = Upstream(base)
    run_questions(monkeypatch, upstream, 1, verify=send_twice)
    assert base.sent == ["p", "p"]
    assert upstream.calls == {"verify": 1}


def test_counts_from_eight_threads_add_up(monkeypatch):
    upstream = Upstream(RecordingProvider())
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


def test_eight_threads_write_every_reply_and_hold_none(monkeypatch, tmp_path):
    """Eight questions at N = 8 send the same 50 prompts with a cache:
    each send is counted, every reply is written when its question ends,
    and none is left for close to write."""
    base, cache = RecordingProvider(), WatchedCache(tmp_path)
    upstream = Upstream(base, cache)
    prompts = [f"p{n}" for n in range(50)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        run_questions(monkeypatch, upstream, 8, concurrency=8, verify=sending(*prompts))
    finally:
        sys.setswitchinterval(interval)
    assert upstream.calls == {"verify": len(base.sent)}
    assert sorted(path.name for path in tmp_path.iterdir()) == entry_names(prompts)
    puts = cache.puts
    upstream.close()
    assert cache.puts == puts


def test_cache_hit_is_not_counted(monkeypatch, tmp_path):
    base = RecordingProvider()
    upstream = Upstream(base, ResponseCache(tmp_path))
    run_questions(monkeypatch, upstream, 3, verify=sending("same prompt"))
    assert base.sent == ["same prompt"]
    assert upstream.calls == {"verify": 1}


def test_a_held_reply_serves_another_question(monkeypatch, tmp_path):
    """At N = 2, q2 asks for q1's prompt after q1's reply arrived and
    before q1 ends, so before the reply is written to the cache: the reply
    held in memory answers it, uncounted, and is written once."""
    arrived, asked = threading.Event(), threading.Event()

    def verify(run, outcome, provider):
        if outcome.question.id == "q2":
            assert arrived.wait(timeout=5)
        provider.complete(make_request("shared"))
        if outcome.question.id == "q1":
            arrived.set()
            assert asked.wait(timeout=5)
        else:
            asked.set()

    base = RecordingProvider()
    upstream = Upstream(base, ResponseCache(tmp_path))
    run_questions(monkeypatch, upstream, 2, concurrency=2, verify=verify)
    assert base.sent == ["shared"]
    assert upstream.calls == {"verify": 1}
    assert sorted(path.name for path in tmp_path.iterdir()) == entry_names(["shared"])


@pytest.mark.parametrize("concurrency", [1, 2])
def test_a_stop_keeps_every_received_reply(monkeypatch, tmp_path, concurrency):
    """A KeyboardInterrupt in the seventh call stops a run of three
    questions, each sending one prompt, then a batch of three. Once the run
    is closed the cache holds an entry for each of the six replies received
    and no temp file. At N = 1, q2's decompose reply is written when q2
    stops, and its first batch reply, which never reached q2, at close."""
    stop_at, lock, returned = 7, threading.Lock(), []

    def stop_at_seventh(request):
        with lock:
            if len(returned) == stop_at - 1:
                raise KeyboardInterrupt
            returned.append(request.prompt)

    def decompose(run, outcome, provider):
        provider.complete(make_request(f"{outcome.question.id} d"))

    def verify(run, outcome, provider):
        provider.complete_all([make_request(f"{outcome.question.id} {c}") for c in "abc"])

    monkeypatch.setitem(STAGES, "decompose", decompose)
    monkeypatch.setitem(STAGES, "verify", verify)
    outcomes = [QuestionOutcome(Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM))
                for n in (1, 2, 3)]
    threads = set(threading.enumerate())
    upstream = Upstream(RecordingProvider(hold=stop_at_seventh), ResponseCache(tmp_path))
    run = Run(RunConfig(concurrency=concurrency), upstream)
    with pytest.raises(KeyboardInterrupt):
        run_stages(run, outcomes, ["decompose", "verify"])
    assert set(threading.enumerate()) <= threads
    assert len(returned) == stop_at - 1
    written = sorted(path.name for path in tmp_path.iterdir())
    if concurrency == 1:
        assert returned == ["q1 d", "q1 a", "q1 b", "q1 c", "q2 d", "q2 a"]
        assert written == entry_names(returned[:-1])
    else:
        assert set(written) <= set(entry_names(returned))
    run.close()
    assert sorted(path.name for path in tmp_path.iterdir()) == entry_names(returned)


def test_a_failed_write_fails_only_a_question_that_had_not_failed(monkeypatch, tmp_path):
    """A question's replies are written when it ends. A write that raises
    fails a question that had not failed at the last stage it ran; one that
    had failed keeps its first reason. Neither reply is written again at
    close."""

    class FullCache(ResponseCache):
        def put(self, digest, request, response):
            raise OSError("disk full")

    def answer(run, outcome, provider):
        if outcome.question.id == "q1":
            raise ValueError("no answer")

    monkeypatch.setitem(STAGES, "decompose", sending("d"))
    monkeypatch.setitem(STAGES, "answer", answer)
    monkeypatch.setitem(STAGES, "verify", lambda run, outcome, provider: None)
    outcomes = [QuestionOutcome(Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM))
                for n in (1, 2)]
    run = Run(RunConfig(), Upstream(RecordingProvider(), FullCache(tmp_path)))
    done = run_stages(run, outcomes, ["decompose", "answer", "verify"])
    assert [(outcome.failed_stage, outcome.failure_reason) for outcome in done] == [
        ("answer", "ValueError: no answer"), ("verify", "OSError: disk full")]
    run.close()


def test_request_is_reused_within_a_question_and_sent_again_for_the_next(
    monkeypatch,
):
    base = RecordingProvider()
    upstream = Upstream(base)
    run_questions(
        monkeypatch, upstream, 2, verify=sending("p", "p"), verify_gt=sending("p")
    )
    assert base.sent == ["p", "p"]
    assert upstream.calls == {"verify": 2}


def test_reused_request_is_neither_counted_nor_looked_up(monkeypatch, tmp_path):
    base = RecordingProvider()
    cache = WatchedCache(tmp_path)
    upstream = Upstream(base, cache)
    run_questions(
        monkeypatch, upstream, 1, verify=sending("p", "p"), verify_gt=sending("p")
    )
    assert cache.gets == 1
    assert base.sent == ["p"]
    assert upstream.calls == {"verify": 1}


def test_counts_land_under_the_stage_being_run(monkeypatch):
    upstream = Upstream(RecordingProvider())
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
    class Closable(RecordingProvider):
        closed = False

        def close(self):
            self.closed = True

    base = Closable()
    Upstream(base).close()
    assert base.closed
    Upstream(RecordingProvider()).close()  # a base without close() is fine


def test_question_responses_do_not_outlive_run_stages(monkeypatch):
    base = RecordingProvider()
    upstream = Upstream(base)
    run_questions(monkeypatch, upstream, 1, verify=sending("p"))
    upstream.complete(make_request("p"))
    assert base.sent == ["p", "p"]
    assert upstream.calls == {"verify": 1, "library": 1}


def test_a_truncated_reply_names_every_stage_that_used_it(monkeypatch, tmp_path):
    class Cutting(RecordingProvider):
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


# --------------------------------------------------------------------------
# the request queue


def failing(word):
    """A hold that fails each request whose prompt holds *word*: ``error``
    with a RuntimeError, any other word with a ProviderError."""

    def hold(request):
        if word in request.prompt and word == "error":
            raise RuntimeError(request.prompt)
        if word in request.prompt:
            raise ProviderError(ProviderErrorKind.OTHER, request.prompt)

    return hold


def verifying(upstream, claim_lists, concurrency, **config):
    """Run the real ``verify`` stage over one question per list of claim
    templates; question n's answer is ``an``."""
    outcomes = [QuestionOutcome(Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM),
                                ClaimSet(f"q{n}", tuple(map(ClaimTemplate, claims))),
                                AnswerAssignment.from_dict({"answer": f"a{n}"}))
                for n, claims in enumerate(claim_lists, start=1)]
    run = Run(RunConfig(concurrency=concurrency, **config), upstream)
    return run_stages(run, outcomes, ["verify"])


@pytest.mark.parametrize("concurrency", [1, 4])
def test_a_prompt_repeated_in_a_batch_goes_out_once(concurrency):
    base = RecordingProvider()
    upstream = Upstream(base)
    claims = ["<answer> is red", "<answer> is round", "<answer> is red"]
    (done,) = verifying(upstream, [claims], concurrency)
    assert [result.instantiated_text for result in done.results] == \
        ["a1 is red", "a1 is round", "a1 is red"]
    assert sorted(base.sent) == ["True or False: a1 is red", "True or False: a1 is round"]
    assert upstream.calls == {"verify": 2}


@pytest.mark.parametrize("concurrency", [1, 2, 4])
@pytest.mark.parametrize("lenient", [False, True])
def test_failing_claims_send_the_whole_batch_once(concurrency, lenient):
    """The batch semantics hold at every concurrency: every claim is sent
    once, a failed call is not sent again, and the lowest failing claim
    names the question's failure."""
    base = RecordingProvider(hold=failing("fails"))
    upstream = Upstream(base)
    claims = ["<answer> is one", "<answer> fails two", "<answer> is three",
              "<answer> fails four"]
    (done,) = verifying(upstream, [claims], concurrency, lenient=lenient)
    assert sorted(base.sent) == sorted(f"True or False: a1 {claim[9:]}" for claim in claims)
    assert upstream.calls == {"verify": 2}
    if lenient:
        assert done.failure_reason is None
        assert [result.verdict for result in done.results] == [
            Verdict.TRUE, Verdict.NON_RESPONSE, Verdict.TRUE, Verdict.NON_RESPONSE]
    else:
        assert done.failed_stage == "verify"
        assert done.failure_reason == \
            "VerificationError: claim 2: other: True or False: a1 fails two"


@pytest.mark.parametrize("concurrency", [1, 2, 8])
def test_any_other_exception_fails_the_owning_question_alone(concurrency):
    base = RecordingProvider(hold=failing("error"))
    claim_lists = [[f"<answer> has property {i}" for i in range(4)] for _ in range(8)]
    claim_lists[4] = ["<answer> is fine", "<answer> raises an error", "<answer> is fine too"]
    done = verifying(Upstream(base), claim_lists, concurrency, lenient=True)
    assert [(outcome.failed_stage, outcome.failure_reason) for outcome in done] == \
        [(None, None)] * 4 + [("verify", "RuntimeError: True or False: a5 raises an error")] \
        + [(None, None)] * 3
    assert len(base.threads) <= concurrency
