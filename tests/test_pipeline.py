"""A run's providers, driven through run_stages: the per-question provider's
reuse and truncated stages, Upstream's cache and per-stage call counts, and
the run-wide request queue that every request passes."""

import itertools
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

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
    RequestQueue,
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


def test_eight_threads_write_every_reply_and_hold_none(monkeypatch, tmp_path):
    """Eight questions at N = 8 send the same 50 prompts with a cache:
    each send is counted, every reply is written when its question ends,
    and none is left for close to write."""
    base, cache = Endpoint(), WatchedCache(tmp_path)
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
    base = Endpoint()
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

    base = Endpoint()
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
    stop_at = 7

    class Stopping(Endpoint):
        def __init__(self):
            super().__init__()
            self.lock = threading.Lock()
            self.returned = []

        def complete(self, request):
            with self.lock:
                self.sent.append(request.prompt)
                if len(self.sent) >= stop_at:
                    raise KeyboardInterrupt
                self.returned.append(request.prompt)
            return CompletionResponse(text="True")

    def decompose(run, outcome, provider):
        provider.complete(make_request(f"{outcome.question.id} d"))

    def verify(run, outcome, provider):
        provider.complete_all([make_request(f"{outcome.question.id} {c}") for c in "abc"])

    monkeypatch.setitem(STAGES, "decompose", decompose)
    monkeypatch.setitem(STAGES, "verify", verify)
    outcomes = [QuestionOutcome(Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM))
                for n in (1, 2, 3)]
    base = Stopping()
    run = Run(RunConfig(concurrency=concurrency), Upstream(base, ResponseCache(tmp_path)))
    with pytest.raises(KeyboardInterrupt):
        run_stages(run, outcomes, ["decompose", "verify"])
    assert len(base.returned) == stop_at - 1
    written = sorted(path.name for path in tmp_path.iterdir())
    if concurrency == 1:
        assert base.returned == ["q1 d", "q1 a", "q1 b", "q1 c", "q2 d", "q2 a"]
        assert written == entry_names(base.returned[:-1])
    else:
        assert set(written) <= set(entry_names(base.returned))
    run.close()
    assert sorted(path.name for path in tmp_path.iterdir()) == entry_names(base.returned)


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
    run = Run(RunConfig(), Upstream(Endpoint(), FullCache(tmp_path)))
    done = run_stages(run, outcomes, ["decompose", "answer", "verify"])
    assert [(outcome.failed_stage, outcome.failure_reason) for outcome in done] == [
        ("answer", "ValueError: no answer"), ("verify", "OSError: disk full")]
    run.close()


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


# --------------------------------------------------------------------------
# the request queue


class InFlight(Endpoint):
    """A base provider that counts its calls in flight, the most at once
    and the threads that make them; each call runs *hold* on its request
    before it answers."""

    def __init__(self, hold=lambda request: None):
        super().__init__()
        self.hold = hold
        self.lock = threading.Lock()
        self.in_flight = self.most = 0
        self.threads = set()

    def complete(self, request):
        with self.lock:
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
            self.threads.add(threading.get_ident())
            self.sent.append(request.prompt)
        try:
            self.hold(request)
            return CompletionResponse(text="True")
        finally:
            with self.lock:
                self.in_flight -= 1


def failing(word):
    """A hold that fails each request whose prompt holds *word*: ``error``
    with a RuntimeError, any other word with a ProviderError."""

    def hold(request):
        if word in request.prompt and word == "error":
            raise RuntimeError(request.prompt)
        if word in request.prompt:
            raise ProviderError(ProviderErrorKind.OTHER, request.prompt)

    return hold


def verifying(upstream, claim_lists, concurrency, stages=("verify",), **config):
    """Run the real verification *stages* over one question per list of
    claim templates; question n's answer is ``an``, or the gold answer
    ``gold`` when n is even, so its gold-answer batch reuses every reply."""
    outcomes = []
    for n, claims in enumerate(claim_lists, start=1):
        outcome = QuestionOutcome(Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM))
        outcome.claim_set = ClaimSet(f"q{n}", tuple(map(ClaimTemplate, claims)))
        outcome.assignment = AnswerAssignment.from_dict(
            {"answer": "gold" if n % 2 == 0 else f"a{n}"})
        outcomes.append(outcome)
    run = Run(RunConfig(concurrency=concurrency, **config), upstream)
    return run_stages(run, outcomes, list(stages))


def test_a_questions_claims_are_in_flight_together():
    barrier = threading.Barrier(4, timeout=10)
    base = InFlight(hold=lambda request: barrier.wait())
    claims = [f"<answer> has property {i}" for i in range(4)]
    (done,) = verifying(Upstream(base), [claims], concurrency=4)
    assert done.failure_reason is None
    assert base.most == 4


@pytest.mark.parametrize("concurrency", [2, 8])
def test_no_more_than_n_calls_are_in_flight_from_n_threads(monkeypatch, concurrency):
    def decompose(run, outcome, provider):
        provider.complete(make_request(f"decompose {outcome.question.id}"))

    monkeypatch.setitem(STAGES, "decompose", decompose)
    base = InFlight(hold=lambda request: time.sleep(0.0005))
    claim_lists = [[f"<answer> has property {i}" for i in range(1 + n % 5)]
                   for n in range(24)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        done = verifying(Upstream(base), claim_lists, concurrency,
                         stages=("decompose", "verify", "verify_gt"), ground_truth=True)
    finally:
        sys.setswitchinterval(interval)
    assert [outcome.failure_reason for outcome in done] == [None] * 24
    assert [len(outcome.gt_results) for outcome in done] == list(map(len, claim_lists))
    assert 1 < base.most <= concurrency
    assert len(base.threads) <= concurrency
    # Each question sends its decompose prompt and its claims once, and
    # its gold-answer claims too when its answer is not gold.
    expected = Counter()
    for outcome in done:
        expected[f"decompose {outcome.question.id}"] += 1
        expected.update({f"True or False: {result.instantiated_text}"
                         for result in outcome.results + outcome.gt_results})
    assert Counter(base.sent) == expected


@pytest.mark.parametrize("concurrency", [1, 4])
def test_a_prompt_repeated_in_a_batch_goes_out_once(concurrency):
    base = InFlight()
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
    base = InFlight(hold=failing("fails"))
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
    base = InFlight(hold=failing("error"))
    claim_lists = [[f"<answer> has property {i}" for i in range(4)] for _ in range(8)]
    claim_lists[4] = ["<answer> is fine", "<answer> raises an error", "<answer> is fine too"]
    done = verifying(Upstream(base), claim_lists, concurrency, lenient=True)
    assert [(outcome.failed_stage, outcome.failure_reason) for outcome in done] == \
        [(None, None)] * 4 + [("verify", "RuntimeError: True or False: a5 raises an error")] \
        + [(None, None)] * 3


def test_a_queued_batch_wakes_a_waiting_worker(monkeypatch):
    """At N = 2, the worker whose question finished first has none left to
    start and waits; the batch the other question queues 0.3 s later
    wakes it, so both of the batch's requests are in flight together."""
    barrier = threading.Barrier(2, timeout=3)

    def hold(request):
        if request.prompt == "decompose q2":
            time.sleep(0.3)
        elif request.prompt.startswith("True or False: gold"):
            barrier.wait()

    def decompose(run, outcome, provider):
        provider.complete(make_request(f"decompose {outcome.question.id}"))

    monkeypatch.setitem(STAGES, "decompose", decompose)
    base = InFlight(hold)
    claim_lists = [["<answer> is one"], ["<answer> is one", "<answer> is two"]]
    done = verifying(Upstream(base), claim_lists, 2, stages=("decompose", "verify"))
    assert [outcome.failure_reason for outcome in done] == [None, None]
    assert base.most == 2


# --------------------------------------------------------------------------
# the request queue's property

FATES = ("ok", "provider error", "error")


class Releaser:
    """Holds each call to an :class:`InFlight` base until :meth:`release`
    lets it go on, then raises its prompt's *fate*, if that is not ``ok``:
    a ProviderError for ``provider error``, a RuntimeError for ``error``
    and a KeyboardInterrupt for ``interrupt``. Every wait is bounded."""

    def __init__(self, fates: dict, workers: int, order: list):
        self.fates = fates
        self.workers = workers
        self.order = itertools.cycle(order)
        self.cond = threading.Condition()
        self.held: list[threading.Event] = []
        self.stalled: list[str] = []

    def hold(self, request):
        released = threading.Event()
        with self.cond:
            self.held.append(released)
            self.cond.notify_all()
        if not released.wait(timeout=5):
            self.stalled.append(request.prompt)
        fate = self.fates[request.prompt]
        if fate == "interrupt":
            raise KeyboardInterrupt
        if fate == "provider error":
            raise ProviderError(ProviderErrorKind.OTHER, request.prompt)
        if fate == "error":
            raise RuntimeError(request.prompt)

    def release(self, done: threading.Event) -> None:
        """Until *done*, let one held call go on at a time, chosen by the
        drawn order, once every worker's call is held or no other arrives
        within 2 ms."""
        while not done.is_set():
            with self.cond:
                self.cond.wait_for(lambda: len(self.held) >= self.workers, timeout=0.002)
                if self.held:
                    self.held.pop(next(self.order) % len(self.held)).set()


def prompt(position, step, n):
    return f"q{position} s{step} r{n}"


@st.composite
def queue_runs(draw):
    """N, each question's steps as the sizes of the batches it sends, each
    prompt's fate, the order replies are released in, and where a
    KeyboardInterrupt comes: in a request, in a question between its
    sends, or nowhere."""
    workers = draw(st.sampled_from((1, 2, 8)))
    steps = draw(st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=1, max_size=6))
    prompts = [prompt(position, step, n) for position, sizes in enumerate(steps)
               for step, size in enumerate(sizes) for n in range(size)]
    fates = {p: draw(st.sampled_from(FATES)) for p in prompts}
    order = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8))
    points = [("request", p) for p in prompts] + [
        ("question", position, step)
        for position, sizes in enumerate(steps) for step in range(len(sizes) + 1)]
    interrupt = draw(st.none() | st.sampled_from(points))
    if interrupt and interrupt[0] == "request":
        fates[interrupt[1]] = "interrupt"
    return workers, steps, fates, order, interrupt


@given(queue_runs())
def test_request_queue_property(args):
    """Every outcome reaches its own question's batch, at most N calls are
    in flight from at most N threads, a KeyboardInterrupt anywhere ends the
    run with it, and the run neither hangs nor leaves a worker thread."""
    workers, steps, fates, order, interrupt = args
    releaser = Releaser(fates, workers, order)
    base = InFlight(releaser.hold)
    sent, finished = {}, []

    def run_question(position, queue):
        for step, size in enumerate(steps[position] + [None]):
            if interrupt == ("question", position, step):
                raise KeyboardInterrupt
            if size is None:
                break
            requests = [make_request(prompt(position, step, n)) for n in range(size)]
            sent[position, step] = (requests, queue.send(position, "verify", requests))
        finished.append(position)

    def run_queue():
        try:
            RequestQueue(Upstream(base), len(steps), run_question).run(workers)
        except KeyboardInterrupt:
            return True
        return False

    threads = set(threading.enumerate())
    done, raised = threading.Event(), []
    releasing = threading.Thread(target=releaser.release, args=(done,))
    runner = threading.Thread(target=lambda: raised.append(run_queue()), daemon=True)
    releasing.start()
    runner.start()
    runner.join(timeout=10)
    done.set()
    releasing.join(timeout=10)
    assert not runner.is_alive(), "the queue hung"
    assert not releasing.is_alive()
    assert raised == [interrupt is not None]
    if interrupt is None:
        assert sorted(finished) == list(range(len(steps)))
    assert set(threading.enumerate()) <= threads
    assert releaser.stalled == []
    assert base.most <= workers and len(base.threads) <= workers
    for requests, outcomes in sent.values():
        assert set(outcomes) == set(requests)
        for request, outcome in outcomes.items():
            fate = fates[request.prompt]
            if fate == "ok":
                assert outcome == CompletionResponse(text="True")
            else:
                assert type(outcome) is {"provider error": ProviderError,
                                         "error": RuntimeError}[fate]
                assert request.prompt in str(outcome)
