"""A run's requests, driven through run_stages: the per-question provider's
reuse and truncated stages, Upstream's cache and per-stage call counts, and
the run-wide request queue that every request passes.

Every cache, reuse, count and truncation case is a row of ``RUNS``, which
``test_run`` checks against the whole contract. The hand-written tests after
it need events, stress threads or an interrupt."""

import contextlib
import json
import sys
import threading
from typing import NamedTuple, Optional

import pytest

from abcd_eval.model import AnswerAssignment, ClaimSet, ClaimTemplate, Dataset, Question
from abcd_eval.pipeline import STAGES, QuestionOutcome, Run, RunConfig, run_stages
from abcd_eval.providers import (
    CachingProvider, CompletionRequest, CompletionResponse, FinishReason, ProviderError,
    ProviderErrorKind, ReplayProvider, ResponseCache, Upstream, _request_to_record, cache_key)
from helpers import RecordingProvider, verdicts_from


def make_request(prompt: str) -> CompletionRequest:
    return CompletionRequest(model="default", prompt=prompt, max_tokens=16)


def entry_names(prompts) -> list:
    """The sorted names of the cache entries of *prompts*."""
    return sorted(f"{cache_key(make_request(prompt))}.json" for prompt in prompts)


def entry(prompt: str, indent=None) -> bytes:
    """A cache entry of *prompt* that holds the reply ``False.``."""
    return json.dumps({"request": _request_to_record(make_request(prompt)),
                       "response": {"text": "False.", "finish_reason": "stop"}},
                      indent=indent).encode()


class WatchedCache(ResponseCache):
    """A response cache that counts its lookups and writes; a full one
    raises ``OSError`` on every write."""

    gets = puts = 0
    full = False

    def get(self, digest):
        self.gets += 1
        return super().get(digest)

    def put(self, digest, request, response):
        self.puts += 1
        if self.full:
            raise OSError("disk full")
        super().put(digest, request, response)


class Base(RecordingProvider):
    """A run's base provider: the first send of a prompt in *fails* raises
    its error, and the reply to a prompt in *cuts* has finish reason
    ``length``."""

    def __init__(self, fails, cuts):
        super().__init__()
        self.fails, self.cuts = dict(fails), cuts

    def complete(self, request):
        response = super().complete(request)
        if request.prompt in self.fails:
            raise self.fails.pop(request.prompt)
        if request.prompt in self.cuts:
            return CompletionResponse(response.text, FinishReason.LENGTH)
        return response


def stand_in(prompts):
    """A stage that sends *prompts*, with ``{q}`` as the question's id: a
    tuple one at a time, a list as one ``complete_all`` batch and then each
    reply through ``complete``, as ``verify_all`` does. A ``ProviderError``
    is dropped, as a lenient verification's non-response; any other
    exception fails the question."""

    def stage(run, outcome, provider):
        requests = [make_request(prompt.format(q=outcome.question.id)) for prompt in prompts]
        failures = provider.complete_all(requests) if isinstance(prompts, list) else {}
        for request in requests:
            with contextlib.suppress(ProviderError):
                if request in failures:
                    raise failures[request]
                provider.complete(request)

    return stage


def outcomes(n_questions, claims=None) -> list:
    """New outcomes of questions q1, q2, ...; with *claims*, question n has
    the n-th list of claim templates and the answer ``an``."""
    return [QuestionOutcome(
        Question(f"q{n}", f"question {n}?", "gold", Dataset.CUSTOM),
        claims and ClaimSet(f"q{n}", tuple(map(ClaimTemplate, claims[n - 1]))),
        claims and AnswerAssignment.from_dict({"answer": f"a{n}"}),
    ) for n in range(1, n_questions + 1)]


def library_call(upstream, prompt):
    """The text ``upstream.complete`` returns for *prompt*, or the type and
    message of what it raises."""
    try:
        return upstream.complete(make_request(prompt)).text
    except Exception as exc:
        return type(exc), str(exc)


def verification(n: int, claim: str) -> str:
    return "True or False: " + claim.replace("<answer>", f"a{n}")


def other(prompt: str) -> ProviderError:
    return ProviderError(ProviderErrorKind.OTHER, prompt)


OK = (None, None, [])


class Case(NamedTuple):
    """A run of *questions* through ``run_stages`` at *concurrency*, then
    the library calls, then ``close()``, and all that it must leave."""

    questions: int
    concurrency: int
    stages: dict  # stage -> the prompts its stand_in sends; {}: the real verify
    sent: list  # the base's requests, in order (at N > 1 as a multiset)
    calls: dict  # upstream.calls
    # None: no cache. "empty" or "full": a new cache ("full" raises on every
    # write). "filled": the cache that an earlier run of the row left.
    # "replay" and "replay-empty": a ReplayProvider over either cache.
    cache: Optional[str] = None
    lookups: tuple = (0, 0)  # the cache's gets and puts
    stored: tuple = ()  # the prompts with an entry after run_stages
    stored_later: tuple = ()  # the prompts whose entries the library calls or close add
    outcomes: Optional[list] = None  # (failed_stage, failure_reason, truncated) each; None: all OK
    fails: dict = {}  # prompt -> the error its first send raises
    cuts: tuple = ()  # the prompts whose reply has finish reason length
    overwrite: dict = {}  # prompt -> the bytes its cache entry holds before the run
    library: tuple = ()  # (prompt, its text, or its error's type and message with {digest})
    claims: Optional[list] = None  # each question's claim templates, for the real verify
    lenient: bool = False
    verdicts: Optional[list] = None  # each question's T/F/N verdicts; None: all T


TRUNCATING = dict(decompose=("a",), verify=("cut", "b", "cut"), verify_gt=("cut",),
                  baseline=("b",))
ACB = ("a", "cut", "b")  # the prompts TRUNCATING sends, in order
CUT = (None, None, ["verify", "verify_gt"])  # the outcome of a question that ran it
FAILING = ["<answer> is one", "<answer> fails two", "<answer> is three", "<answer> fails four"]
EIGHT = [[f"<answer> has property {i}" for i in range(4)]] * 8
EIGHT[4] = ["<answer> is fine", "<answer> raises an error", "<answer> is fine too"]
FIFTH = "True or False: a5 raises an error"
CORRUPT = "recorded, then corrupted"
UNREADABLE = "replay_miss: unreadable cache entry for request digest {digest}: "

RUNS = {
    # Within a question a prompt goes upstream once; a failed send is kept
    # nowhere, and each call is counted under the stage that made it.
    "failed_call_is_not_counted_and_its_resend_is": Case(
        1, 1, dict(verify=("p", "p")), ["p", "p"], {"verify": 1}, fails={"p": other("p")}),
    "request_is_reused_within_a_question_and_sent_again_for_the_next": Case(
        2, 1, dict(verify=("p", "p"), verify_gt=("p",)), ["p", "p"], {"verify": 2}),
    "reused_request_is_neither_counted_nor_looked_up": Case(
        1, 1, dict(verify=("p", "p"), verify_gt=("p",)), ["p"], {"verify": 1},
        "empty", (1, 1), ("p",)),
    "counts_land_under_the_stage_being_run": Case(
        2, 2, dict(decompose=("a",), answer=("b", "c"), verify=("d", "e", "f"),
                   verify_gt=("d", "g"), baseline=("h",)),
        list("abcdefgh") * 2,
        {"decompose": 2, "answer": 4, "verify": 6, "verify_gt": 2, "baseline": 2}),
    "question_responses_do_not_outlive_run_stages": Case(
        1, 1, dict(verify=("p",)), ["p", "p"], {"verify": 1, "library": 1},
        library=(("p", "True."),)),
    # Two questions that send the same two prompts as one batch each: with a
    # cache the second is served from it; without one each sends its own.
    "two_questions_share_two_prompts-cache-1": Case(
        2, 1, dict(verify=["x", "y"]), ["x", "y"], {"verify": 2}, "empty", (4, 2), ("x", "y")),
    **{f"two_questions_share_two_prompts-no-cache-{n}": Case(
        2, n, dict(verify=["x", "y"]), ["x", "y"] * 2, {"verify": 4}) for n in (1, 2, 8)},
    # A question's replies are written when it ends, and a cache hit is not
    # counted. A write that raises fails a question that had not failed at
    # the last stage it ran; one that had failed keeps its first reason.
    "cache_hit_is_not_counted": Case(
        3, 1, dict(verify=("same prompt",)), ["same prompt"], {"verify": 1},
        "empty", (3, 1), ("same prompt",)),
    "a_failed_write_fails_only_a_question_that_had_not_failed": Case(
        2, 1, dict(decompose=("d",), answer=("{q} a",), verify=()),
        ["d", "q1 a", "d", "q2 a"], {"decompose": 2, "answer": 1}, "full", (4, 2),
        outcomes=[("answer", "RuntimeError: q1 a", []), ("verify", "OSError: disk full", [])],
        fails={"q1 a": RuntimeError("q1 a")}),
    # A reply cut at max_tokens names every stage that used it: fresh,
    # reused, from the cache, or replayed.
    **{f"a_truncated_reply_names_every_stage_that_used_it{suffix}": Case(
        2, 1, TRUNCATING, sent, calls, cache, lookups, stored, outcomes=[CUT] * 2, cuts=("cut",))
       for suffix, sent, calls, cache, lookups, stored in [
           ("", ACB, {"decompose": 1, "verify": 2}, "empty", (6, 3), ACB),
           ("-no-cache", ACB * 2, {"decompose": 2, "verify": 4}, None, (0, 0), ()),
           ("-filled", (), {}, "filled", (6, 0), ACB),
           ("-replay", (), {"decompose": 2, "verify": 4}, "replay", (6, 0), ACB)]},
    # The real verify stage sends a question's claims as one batch: each
    # distinct prompt once, every one even when some fail, and the lowest
    # failing claim decides, at every concurrency.
    **{f"a_prompt_repeated_in_a_batch_goes_out_once-{n}": Case(
        1, n, {}, ["True or False: a1 is red", "True or False: a1 is round"], {"verify": 2},
        claims=[["<answer> is red", "<answer> is round", "<answer> is red"]])
       for n in (1, 4)},
    **{f"failing_claims_send_the_whole_batch_once-{lenient}-{n}": Case(
        1, n, {}, [verification(1, claim) for claim in FAILING], {"verify": 2},
        outcomes=None if lenient else [
            ("verify", "VerificationError: claim 2: other: True or False: a1 fails two", [])],
        fails={prompt: other(prompt) for prompt in map(verification, [1] * 4, FAILING)
               if "fails" in prompt},
        claims=[FAILING], lenient=lenient, verdicts=["TNTN"])
       for lenient in (False, True) for n in (1, 2, 4)},
    **{f"any_other_exception_fails_the_owning_question_alone-{n}": Case(
        8, n, {}, [verification(q, c) for q, claims in enumerate(EIGHT, 1) for c in claims],
        {"verify": 30},
        outcomes=[OK] * 4 + [("verify", f"RuntimeError: {FIFTH}", [])] + [OK] * 3,
        fails={FIFTH: RuntimeError(FIFTH)}, claims=EIGHT, lenient=True)
       for n in (1, 2, 8)},
    # Library calls: a miss is sent and written at once, an unreadable entry
    # is a miss that the reply overwrites, and a failed call is written
    # nowhere. A replay serves entries, indented ones too, and names the
    # digest of a missing or unreadable one.
    "second_call_skips_inner": Case(
        0, 1, {}, ["ping p"], {"library": 1}, "empty", (2, 1), stored_later=("ping p",),
        library=(("ping p", "True."),) * 2),
    "distinct_requests_miss_separately": Case(
        0, 1, {}, ["one", "two"], {"library": 2}, "empty", (3, 2), stored_later=("one", "two"),
        library=(("one", "True."), ("two", "True."), ("one", "True."))),
    "failed_call_is_not_cached": Case(
        0, 1, {}, ["p", "p"], {"library": 1}, "empty", (2, 1), stored_later=("p",),
        fails={"p": other("p")}, library=(("p", (ProviderError, "other: p")), ("p", "True."))),
    "unreadable_entry_is_a_miss_and_overwritten": Case(
        0, 1, {}, ["ping p"], {"library": 1}, "empty", (2, 1), ("ping p",),
        overwrite={"ping p": entry("ping p")[:40]}, library=(("ping p", "True."),) * 2),
    "hit_returns_cached_response": Case(
        0, 1, {}, [], {"library": 1}, "replay", (1, 0), ("seen before",),
        library=(("seen before", "True."),)),
    "indented_entry_still_replays": Case(
        0, 1, {}, [], {"library": 1}, "replay-empty", (1, 0), ("indented",),
        overwrite={"indented": entry("indented", indent=2)}, library=(("indented", "False."),)),
    "miss_names_the_digest": Case(
        0, 1, {}, [], {}, "replay-empty", (1, 0), library=(("never recorded", (
            ProviderError, "replay_miss: no cached response for request digest {digest}")),)),
    **{f"unreadable_entry_names_the_digest-{name}": Case(
        0, 1, {}, [], {}, "replay-empty", (1, 0), (CORRUPT,), overwrite={CORRUPT: content},
        library=((CORRUPT, (ProviderError, UNREADABLE + message)),))
       for name, content, message in [
           ("truncated", b'{"request": {', "JSONDecodeError: Expecting property name enclosed "
            "in double quotes: line 1 column 14 (char 13)"),
           ("list", b"[]", "TypeError: list indices must be integers or slices, not str"),
           ("null-text", b'{"response": {"text": null}}', "KeyError: 'request'"),
           ("not-utf-8", b'{"response": {"text": "caf\xe9"}}', "UnicodeDecodeError: 'utf-8' "
            "codec can't decode byte 0xe9 in position 26: invalid continuation byte"),
           ("utf-8-bom", b'\xef\xbb\xbf{"response": {"text": "True.", "finish_reason": "stop"}}',
            "JSONDecodeError: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
            "(char 0)"),
       ]},
}


@pytest.mark.parametrize("name", RUNS)
def test_run(monkeypatch, tmp_path, name):
    """Each row's run, against the whole contract: the base's requests and
    the threads that sent them, the calls counted, the cache's lookups,
    writes and entries (and no temp file), each question's outcome and
    verdicts, and each library call's result."""
    row = RUNS[name]
    for stage, prompts in row.stages.items():
        monkeypatch.setitem(STAGES, stage, stand_in(prompts))
    config = RunConfig(concurrency=row.concurrency, lenient=row.lenient)

    def run(upstream):
        done = run_stages(Run(config, upstream), outcomes(row.questions, row.claims),
                          list(row.stages) if row.claims is None else ["verify"])
        stored = sorted(path.name for path in tmp_path.iterdir())
        called = [library_call(upstream, prompt) for prompt, _ in row.library]
        upstream.close()
        return done, (stored, sorted(path.name for path in tmp_path.iterdir())), called

    if row.cache in ("filled", "replay"):
        run(CachingProvider(Base(row.fails, row.cuts), ResponseCache(tmp_path)))
    for prompt, content in row.overwrite.items():
        (tmp_path / entry_names([prompt])[0]).write_bytes(content)
    base, cache = Base(row.fails, row.cuts), row.cache and WatchedCache(tmp_path)
    if cache:
        cache.full = row.cache == "full"
    upstream = (Upstream(base) if not cache else ReplayProvider(cache)
                if row.cache.startswith("replay") else CachingProvider(base, cache))
    done, stored, called = run(upstream)

    expected_outcomes = row.outcomes or [OK] * row.questions
    order = list if row.concurrency == 1 else sorted
    assert {
        "sent": order(base.sent),
        "calls": upstream.calls,
        "lookups": (cache.gets, cache.puts) if cache else (0, 0),
        "stored": stored,
        "outcomes": [(o.failed_stage, o.failure_reason, o.truncated) for o in done],
        "results": [o.results and [(r.instantiated_text, r.verdict) for r in o.results]
                    for o in done],
        "library": called,
    } == {
        "sent": order(row.sent),
        "calls": row.calls,
        "lookups": row.lookups,
        "stored": (entry_names(row.stored), entry_names(row.stored + row.stored_later)),
        "outcomes": expected_outcomes,
        "results": [None if row.claims is None or failed else [
            (claim.replace("<answer>", f"a{n}"), verdict) for claim, verdict in
            zip(row.claims[n - 1], verdicts_from(row.verdicts[n - 1] if row.verdicts
                                                 else "T" * len(row.claims[n - 1])))]
            for n, (failed, _, _) in enumerate(expected_outcomes, 1)],
        "library": [text if isinstance(text, str) else
                    (text[0], text[1].replace("{digest}", cache_key(make_request(prompt))))
                    for prompt, text in row.library],
    }
    assert len(base.threads) <= row.concurrency


# --------------------------------------------------------------------------
# hand-written: events, stress threads and an interrupt


def run_questions(monkeypatch, upstream, n_questions, concurrency=1, **stages):
    """Run the given *stages*, in order, over *n_questions*; return the
    outcomes, which must not have failed."""
    for name, stage in stages.items():
        monkeypatch.setitem(STAGES, name, stage)
    run = Run(RunConfig(concurrency=concurrency), upstream)
    done = run_stages(run, outcomes(n_questions), list(stages))
    assert [outcome.failure_reason for outcome in done] == [None] * n_questions
    return done


@pytest.fixture
def often():
    """Switch threads often, so a lost update or a race shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


FIFTY = tuple(f"p{n}" for n in range(50))


def test_counts_from_eight_threads_add_up(monkeypatch, often):
    upstream = Upstream(RecordingProvider())
    run_questions(monkeypatch, upstream, 8, concurrency=8, verify=stand_in(FIFTY))
    assert upstream.calls == {"verify": 400}


def test_eight_threads_write_every_reply_and_hold_none(monkeypatch, tmp_path, often):
    """Eight questions at N = 8 send the same 50 prompts with a cache:
    each send is counted, every reply is written when its question ends,
    and none is left for close to write."""
    base, cache = RecordingProvider(), WatchedCache(tmp_path)
    upstream = Upstream(base, cache)
    run_questions(monkeypatch, upstream, 8, concurrency=8, verify=stand_in(FIFTY))
    assert upstream.calls == {"verify": len(base.sent)}
    assert sorted(path.name for path in tmp_path.iterdir()) == entry_names(FIFTY)
    puts = cache.puts
    upstream.close()
    assert cache.puts == puts


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

    monkeypatch.setitem(STAGES, "decompose", stand_in(("{q} d",)))
    monkeypatch.setitem(STAGES, "verify", stand_in(["{q} a", "{q} b", "{q} c"]))
    threads = set(threading.enumerate())
    upstream = Upstream(RecordingProvider(hold=stop_at_seventh), ResponseCache(tmp_path))
    run = Run(RunConfig(concurrency=concurrency), upstream)
    with pytest.raises(KeyboardInterrupt):
        run_stages(run, outcomes(3), ["decompose", "verify"])
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


def test_close_closes_the_base_provider():
    class Closable(RecordingProvider):
        closed = False

        def close(self):
            self.closed = True

    base = Closable()
    Upstream(base).close()
    assert base.closed
    Upstream(RecordingProvider()).close()  # a base without close() is fine
