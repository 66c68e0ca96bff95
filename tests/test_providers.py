"""Provider stack tests: request hashing, scripting, cache, replay, retry."""

import json
import logging
import random
import socket
import sys
import threading
import time

import pytest

from abcd_eval.providers import (
    API_KEY_ENV_VAR,
    CachingProvider,
    CompletionRequest,
    CompletionResponse,
    FinishReason,
    LiveProvider,
    ProviderError,
    ProviderErrorKind,
    ReplayProvider,
    ResponseCache,
    ScriptRule,
    ScriptedProvider,
    cache_key,
    load_script_rules,
)
from loopback import PROXY_ENV_VARS, LoopbackServer, chat_body, http_response

# Regression pin for the on-disk cache layout. If this digest moves, every
# previously recorded cache directory stops replaying.
FROZEN_DIGEST = "741302a9e70e57a25686d4cf3ac4d65ad98550484f03aa0e090f8e964ccd9d9f"
FROZEN_REQUEST = CompletionRequest(
    model="default",
    prompt="True or False: Paris is a city",
    max_tokens=64,
)


class TestCompletionRequest:
    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            CompletionRequest(model="", prompt="p", max_tokens=5)

    def test_rejects_nonpositive_max_tokens(self):
        with pytest.raises(ValueError, match="max_tokens"):
            CompletionRequest(model="m", prompt="p", max_tokens=0)


class TestCompletionResponse:
    def test_empty_text_needs_non_stop_finish(self):
        with pytest.raises(ValueError):
            CompletionResponse(text="")
        response = CompletionResponse(text="", finish_reason=FinishReason.OTHER)
        assert response.text == ""


class TestCacheKey:
    def test_frozen_digest(self):
        assert cache_key(FROZEN_REQUEST) == FROZEN_DIGEST

    def test_any_field_change_moves_the_digest(self):
        base = cache_key(FROZEN_REQUEST)
        variants = [
            CompletionRequest(model="other", prompt=FROZEN_REQUEST.prompt,
                              max_tokens=64),
            CompletionRequest(model="default", prompt="True or False: Paris",
                              max_tokens=64),
            CompletionRequest(model="default", prompt=FROZEN_REQUEST.prompt,
                              max_tokens=65),
        ]
        digests = {cache_key(v) for v in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_unicode_prompt_is_stable(self):
        request = CompletionRequest(model="m", prompt="Renée café", max_tokens=5)
        assert cache_key(request) == cache_key(
            CompletionRequest(model="m", prompt="Renée café", max_tokens=5)
        )


class TestProviderError:
    def test_retryable_follows_kind(self):
        assert ProviderError(ProviderErrorKind.RATE_LIMITED, "x").retryable
        assert ProviderError(ProviderErrorKind.NETWORK, "x").retryable
        for kind in (
            ProviderErrorKind.AUTH,
            ProviderErrorKind.FILTERED,
            ProviderErrorKind.REPLAY_MISS,
            ProviderErrorKind.OTHER,
        ):
            assert not ProviderError(kind, "x").retryable


def make_request(prompt: str) -> CompletionRequest:
    return CompletionRequest(model="default", prompt=prompt, max_tokens=16)


class TestScriptedProvider:
    def test_first_matching_rule_wins(self):
        provider = ScriptedProvider(
            [
                ScriptRule(match="Paris", response="first"),
                ScriptRule(match="Paris is", response="second"),
            ]
        )
        response = provider.complete(make_request("Paris is a city"))
        assert response.text == "first"

    def test_exact_mode_requires_full_prompt(self):
        provider = ScriptedProvider(
            [ScriptRule(match="Paris", response="hit", mode="exact")]
        )
        assert provider.complete(make_request("Paris")).text == "hit"
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("Paris is a city"))
        assert excinfo.value.kind is ProviderErrorKind.OTHER

    def test_unmatched_prompt_error_includes_preview(self):
        provider = ScriptedProvider([])
        with pytest.raises(ProviderError, match="no script rule"):
            provider.complete(make_request("unexpected\nprompt"))

    def test_empty_response_becomes_non_stop_finish(self):
        provider = ScriptedProvider([ScriptRule(match="x", response="")])
        response = provider.complete(make_request("x"))
        assert response.text == ""
        assert response.finish_reason is FinishReason.OTHER

    def test_bad_rule_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ScriptRule(match="x", response="y", mode="regex")


class TestLoadScriptRules:
    def test_loads_rows_and_skips_blanks(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text(
            json.dumps({"match": "a", "response": "1"})
            + "\n\n"
            + json.dumps({"match": "b", "response": "2", "mode": "exact"})
            + "\n",
            encoding="utf-8",
        )
        rules = load_script_rules(path)
        assert [(r.match, r.response, r.mode) for r in rules] == [
            ("a", "1", "substring"),
            ("b", "2", "exact"),
        ]

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"match": "a"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r":1:"):
            load_script_rules(path)


class TestResponseCache:
    def test_round_trip_and_delete(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        digest = cache_key(FROZEN_REQUEST)
        assert cache.get(digest) is None
        cache.put(digest, FROZEN_REQUEST, CompletionResponse(text="True."))
        fetched = cache.get(digest)
        assert fetched == CompletionResponse(text="True.")
        (tmp_path / "cache" / f"{digest}.json").unlink()
        assert cache.get(digest) is None

    def test_entry_file_carries_request_and_timestamp(self, tmp_path):
        cache = ResponseCache(tmp_path)
        digest = cache_key(FROZEN_REQUEST)
        cache.put(digest, FROZEN_REQUEST, CompletionResponse(text="True."))
        entry = json.loads((tmp_path / f"{digest}.json").read_text("utf-8"))
        # Key order included: recorded caches hold requests in this shape.
        assert list(entry["request"].items()) == [
            ("model", "default"),
            ("prompt", FROZEN_REQUEST.prompt),
            ("temperature", 0.0),
            ("max_tokens", 64),
        ]
        assert isinstance(entry["request"]["temperature"], float)
        assert entry["response"] == {"text": "True.", "finish_reason": "stop"}
        assert "timestamp" in entry

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResponseCache(tmp_path)
        for i in range(5):
            request = make_request(f"prompt {i}")
            cache.put(cache_key(request), request, CompletionResponse(text="ok"))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_concurrent_puts_of_overlapping_digests(self, tmp_path):
        cache = ResponseCache(tmp_path)
        requests = [make_request(f"prompt {i}") for i in range(12)]
        start = threading.Barrier(8)
        errors = []

        def writer(seed):
            order = random.Random(seed).sample(requests, len(requests))
            start.wait(timeout=30)
            for request in order:
                response = CompletionResponse(text=f"reply to {request.prompt}")
                try:
                    cache.put(cache_key(request), request, response)
                except Exception as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for request in requests:
            fetched = cache.get(cache_key(request))
            assert fetched == CompletionResponse(text=f"reply to {request.prompt}")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{cache_key(request)}.json" for request in requests
        )

    def test_entry_is_one_line_and_indented_entries_still_read(self, tmp_path):
        cache = ResponseCache(tmp_path)
        request = make_request("recorded by an earlier version")
        digest = cache_key(request)
        cache.put(digest, request, CompletionResponse(text="True."))
        written = (tmp_path / f"{digest}.json").read_text("utf-8")
        assert "\n" not in written
        indented = json.dumps(json.loads(written), ensure_ascii=False, indent=2)
        (tmp_path / f"{digest}.json").write_text(indented, encoding="utf-8")
        assert cache.get(digest) == CompletionResponse(text="True.")
        assert ReplayProvider(cache).complete(request).text == "True."

    def test_failed_rename_leaves_no_entry_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        cache = ResponseCache(tmp_path)
        request = make_request("p")

        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cache.put(cache_key(request), request, CompletionResponse(text="ok"))
        assert list(tmp_path.iterdir()) == []


class Spy:
    """Counts the calls that come back from the provider it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.call_count = 0

    def complete(self, request):
        response = self.inner.complete(request)
        self.call_count += 1
        return response


class TestCachingProvider:
    def test_second_call_skips_inner(self, tmp_path):
        inner = Spy(ScriptedProvider([ScriptRule("p", "pong")]))
        provider = CachingProvider(inner, ResponseCache(tmp_path))
        request = make_request("ping p")
        first = provider.complete(request)
        second = provider.complete(request)
        assert first == second
        assert inner.call_count == 1

    def test_distinct_requests_miss_separately(self, tmp_path):
        inner = Spy(ScriptedProvider([ScriptRule("", "any")]))
        provider = CachingProvider(inner, ResponseCache(tmp_path))
        provider.complete(make_request("one"))
        provider.complete(make_request("two"))
        provider.complete(make_request("one"))
        assert inner.call_count == 2

    def test_failed_call_is_not_cached(self, tmp_path):
        class Failing:
            def complete(self, request):
                raise ProviderError(ProviderErrorKind.NETWORK, "down")

        cache = ResponseCache(tmp_path)
        provider = CachingProvider(Failing(), cache)
        with pytest.raises(ProviderError):
            provider.complete(make_request("p"))
        assert cache.get(cache_key(make_request("p"))) is None


    def test_unreadable_entry_is_a_miss_and_overwritten(self, tmp_path):
        cache = ResponseCache(tmp_path)
        request = make_request("ping p")
        digest = cache_key(request)
        cache.put(digest, request, CompletionResponse(text="stale"))
        entry = tmp_path / f"{digest}.json"
        entry.write_text(entry.read_text("utf-8")[:40], encoding="utf-8")
        inner = Spy(ScriptedProvider([ScriptRule("p", "pong")]))

        response = CachingProvider(inner, cache).complete(request)
        assert response.text == "pong"
        assert inner.call_count == 1
        assert cache.get(digest) == response


class TestReplayProvider:
    def test_hit_returns_cached_response(self, tmp_path):
        cache = ResponseCache(tmp_path)
        request = make_request("seen before")
        cache.put(cache_key(request), request, CompletionResponse(text="False."))
        provider = ReplayProvider(cache)
        assert provider.complete(request).text == "False."

    def test_miss_names_the_digest(self, tmp_path):
        provider = ReplayProvider(ResponseCache(tmp_path))
        request = make_request("never recorded")
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(request)
        assert excinfo.value.kind is ProviderErrorKind.REPLAY_MISS
        assert cache_key(request) in str(excinfo.value)

    @pytest.mark.parametrize(
        "content",
        [
            b'{"request": {',
            b"[]",
            b'{"response": {"text": null}}',
            b'{"response": {"text": "caf\xe9"}}',
            b'\xef\xbb\xbf{"response": {"text": "True.", "finish_reason": "stop"}}',
        ],
        ids=["truncated", "list", "null-text", "not-utf-8", "utf-8-bom"],
    )
    def test_unreadable_entry_names_the_digest(self, tmp_path, content):
        request = make_request("recorded, then corrupted")
        digest = cache_key(request)
        (tmp_path / f"{digest}.json").write_bytes(content)
        provider = ReplayProvider(ResponseCache(tmp_path))
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(request)
        assert excinfo.value.kind is ProviderErrorKind.REPLAY_MISS
        assert digest in str(excinfo.value)
        assert "unreadable" in str(excinfo.value)


# ---------------------------------------------------------------------------
# LiveProvider against a fake requests.Session


class FakeHTTPResponse:
    """The three fields of a ``requests.Response`` that LiveProvider reads:
    the body is *payload* as JSON, or else *text*."""

    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.content = (text if payload is None else json.dumps(payload)).encode()


def chat_payload(content, finish_reason="stop"):
    return {
        "choices": [
            {"message": {"content": content}, "finish_reason": finish_reason}
        ]
    }


class FakeSession:
    """Plays back a scripted sequence of responses or exceptions."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_live(session, **kwargs):
    sleeps = []
    provider = LiveProvider(
        "https://api.example.test/v1/",
        api_key="sk-test",
        session=session,
        sleep_fn=sleeps.append,
        **kwargs,
    )
    return provider, sleeps


class TestLiveProvider:
    def test_missing_key_fails_at_construction(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV_VAR, raising=False)
        with pytest.raises(ProviderError) as excinfo:
            LiveProvider("https://api.example.test/v1")
        assert excinfo.value.kind is ProviderErrorKind.AUTH

    @pytest.mark.parametrize(
        "key", ["\u043a\u043b\u044e\u0447", "sk-a\rb", "sk-a\nb"],
        ids=["not-latin-1", "carriage-return", "line-feed"],
    )
    def test_key_http_cannot_carry_fails_at_construction(self, key):
        session = FakeSession([])
        with pytest.raises(ProviderError) as excinfo:
            LiveProvider("https://api.example.test/v1", api_key=key, session=session)
        assert excinfo.value.kind is ProviderErrorKind.AUTH
        assert key not in str(excinfo.value)
        assert session.posts == []

    def test_key_read_from_environment(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "sk-env")
        session = FakeSession([FakeHTTPResponse(payload=chat_payload("hi"))])
        provider = LiveProvider("https://api.example.test/v1", session=session)
        provider.complete(make_request("p"))
        assert session.posts[0]["headers"]["Authorization"] == "Bearer sk-env"

    def test_posts_chat_completions_body(self):
        session = FakeSession([FakeHTTPResponse(payload=chat_payload("True."))])
        provider, _ = make_live(session)
        response = provider.complete(
            CompletionRequest(model="gpt-x", prompt="True or False: p",
                              max_tokens=64)
        )
        assert response.text == "True."
        post = session.posts[0]
        assert post["url"] == "https://api.example.test/v1/chat/completions"
        assert post["json"] == {
            "model": "gpt-x",
            "messages": [{"role": "user", "content": "True or False: p"}],
            "temperature": 0.0,
            "max_tokens": 64,
        }
        assert post["timeout"] == 60.0

    def test_retries_network_then_succeeds(self):
        session = FakeSession(
            [
                ConnectionError("boom"),
                FakeHTTPResponse(status_code=502),
                FakeHTTPResponse(payload=chat_payload("ok")),
            ]
        )
        provider, sleeps = make_live(session)
        assert provider.complete(make_request("p")).text == "ok"
        assert len(session.posts) == 3
        assert len(sleeps) == 2
        assert all(0.0 <= delay <= 30.0 for delay in sleeps)

    def test_rate_limit_retries(self):
        session = FakeSession(
            [
                FakeHTTPResponse(status_code=429, headers={"retry-after": "7"}),
                FakeHTTPResponse(payload=chat_payload("ok")),
            ]
        )
        provider, sleeps = make_live(session)
        assert provider.complete(make_request("p")).text == "ok"
        assert sleeps == [7.0]

    def test_auth_failure_is_not_retried(self):
        session = FakeSession([FakeHTTPResponse(status_code=401)])
        provider, sleeps = make_live(session)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.AUTH
        assert len(session.posts) == 1
        assert sleeps == []

    def test_client_error_is_not_retried(self):
        session = FakeSession(
            [FakeHTTPResponse(status_code=400, text="bad request body")]
        )
        provider, _ = make_live(session)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert str(excinfo.value) == "other: HTTP 400: bad request body"
        assert len(session.posts) == 1

    def test_exhausted_attempts_raise_last_error(self):
        session = FakeSession([FakeHTTPResponse(status_code=503)] * 3)
        provider, sleeps = make_live(session, max_attempts=3)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.NETWORK
        assert len(session.posts) == 3
        assert len(sleeps) == 2

    def test_fewer_than_one_attempt_is_refused(self):
        with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
            LiveProvider("https://api.example.test/v1", api_key="sk-test",
                         session=FakeSession([]), max_attempts=0)

    def test_default_sleep_is_the_time_sleep_of_construction(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        session = FakeSession([FakeHTTPResponse(status_code=503),
                               FakeHTTPResponse(payload=chat_payload("True."))])
        provider = LiveProvider("https://api.example.test/v1", api_key="sk-test",
                                session=session)
        assert provider.complete(make_request("p")).text == "True."
        assert len(sleeps) == 1

    def test_malformed_body_is_other(self):
        session = FakeSession([FakeHTTPResponse(payload={"choices": []})])
        provider, _ = make_live(session)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.OTHER

    @pytest.mark.parametrize("content", [None, ["True."]], ids=["null", "list"])
    def test_non_string_content_is_other_and_not_cached(self, tmp_path, content):
        session = FakeSession([FakeHTTPResponse(payload=chat_payload(content))])
        provider, sleeps = make_live(session)
        cache = ResponseCache(tmp_path)
        with pytest.raises(ProviderError) as excinfo:
            CachingProvider(provider, cache).complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.OTHER
        assert "malformed response body" in str(excinfo.value)
        assert len(session.posts) == 1
        assert sleeps == []
        assert list(tmp_path.iterdir()) == []

    def test_length_finish_reason_is_preserved(self):
        session = FakeSession(
            [FakeHTTPResponse(payload=chat_payload("cut off", "length"))]
        )
        provider, _ = make_live(session)
        response = provider.complete(make_request("p"))
        assert response.finish_reason is FinishReason.LENGTH

    def test_list_finish_reason_is_other_and_not_cached(self, tmp_path):
        session = FakeSession(
            [FakeHTTPResponse(payload=chat_payload("True.", ["stop"]))]
        )
        provider, sleeps = make_live(session)
        cache = ResponseCache(tmp_path)
        with pytest.raises(ProviderError) as excinfo:
            CachingProvider(provider, cache).complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.OTHER
        assert "malformed response body" in str(excinfo.value)
        assert len(session.posts) == 1
        assert sleeps == []
        assert list(tmp_path.iterdir()) == []

    def test_redirect_is_other_and_not_followed(self):
        session = FakeSession([FakeHTTPResponse(status_code=302)])
        provider, sleeps = make_live(session)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.OTHER
        assert str(excinfo.value) == "other: HTTP 302"
        assert len(session.posts) == 1
        assert sleeps == []

    def test_empty_stop_completion_is_other(self):
        session = FakeSession([FakeHTTPResponse(payload=chat_payload(""))])
        provider, _ = make_live(session)
        response = provider.complete(make_request("p"))
        assert (response.text, response.finish_reason) == ("", FinishReason.OTHER)

    def test_filtered_empty_completion_raises(self):
        session = FakeSession(
            [FakeHTTPResponse(payload=chat_payload("", "content_filter"))]
        )
        provider, _ = make_live(session)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.FILTERED


# ---------------------------------------------------------------------------
# LiveProvider's own stdlib transport against a loopback server


# The providers ``stdlib_live`` built, which the ``loopback`` fixture closes.
LIVE_PROVIDERS: list[LiveProvider] = []


@pytest.fixture
def loopback(monkeypatch):
    """Starts scripted servers; after the test it closes every provider
    ``stdlib_live`` built, then stops the servers. The proxy variables are
    cleared so the requests go straight to loopback."""
    for name in PROXY_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    servers = []

    def start(responses, close_after_each=False):
        servers.append(LoopbackServer(responses, close_after_each))
        return servers[-1]

    yield start
    while LIVE_PROVIDERS:
        LIVE_PROVIDERS.pop().close()
    for server in servers:
        server.close()


def stdlib_live(base_url, **kwargs):
    sleeps = []
    provider = LiveProvider(base_url, api_key="sk-test", timeout=5.0,
                            sleep_fn=sleeps.append, **kwargs)
    LIVE_PROVIDERS.append(provider)
    return provider, sleeps


class TestStdlibTransport:
    def test_calls_on_one_thread_share_one_connection(self, loopback):
        server = loopback([http_response(body=chat_body(f"r{i}")) for i in range(5)])
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1/")
        for i in range(5):
            assert provider.complete(make_request(f"p{i}")).text == f"r{i}"
        assert server.connections == 1
        assert server.request_lines == ["POST /v1/chat/completions HTTP/1.1"] * 5
        _, _, head, body = server.requests[0]
        assert json.loads(body) == {
            "model": "default",
            "messages": [{"role": "user", "content": "p0"}],
            "temperature": 0.0,
            "max_tokens": 16,
        }
        assert b"\r\nAuthorization: Bearer sk-test" in head
        assert b"\r\nContent-Type: application/json" in head
        assert sleeps == []

    def test_socket_closed_by_server_is_network_then_fresh_socket(
        self, loopback, caplog
    ):
        server = loopback(
            [http_response(body=chat_body("first")),
             http_response(body=chat_body("second"))],
            close_after_each=True,
        )
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        caplog.set_level(logging.INFO, logger="abcd_eval.providers")
        assert provider.complete(make_request("p1")).text == "first"
        assert provider.complete(make_request("p2")).text == "second"
        assert "retrying after network" in caplog.text
        assert len(sleeps) == 1
        assert server.connections == 2
        assert [conn for conn, *_ in server.requests] == [1, 2]

    def test_rate_limit_then_success_sleeps_once(self, loopback):
        server = loopback([
            http_response("429 Too Many Requests", body=b'{"error": "slow down"}'),
            http_response(),
        ])
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        assert provider.complete(make_request("p")).text == "ok"
        assert len(sleeps) == 1
        assert server.connections == 1

    @pytest.mark.parametrize(
        "retry_after, sleeps_expected",
        [
            ("7", [7.0]),
            ("999", [30.0]),  # capped like the backoff
            ("soon", [random.Random(0).uniform(0.0, 1.0)]),  # the jittered backoff
        ],
    )
    def test_rate_limit_waits_for_a_capped_retry_after(
        self, loopback, retry_after, sleeps_expected
    ):
        server = loopback([
            http_response("429 Too Many Requests", body=b"{}",
                          headers=f"Retry-After: {retry_after}\r\n"),
            http_response(),
        ])
        provider, sleeps = stdlib_live(
            f"http://127.0.0.1:{server.port}/v1", rng=random.Random(0)
        )
        assert provider.complete(make_request("p")).text == "ok"
        assert sleeps == sleeps_expected

    def test_close_ends_the_connection_and_a_later_call_reconnects(self, loopback):
        server = loopback([http_response()] * 2)
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        assert provider.complete(make_request("p1")).text == "ok"
        provider.close()
        assert provider.complete(make_request("p2")).text == "ok"
        provider.close()
        assert [conn for conn, *_ in server.requests] == [1, 2]
        assert sleeps == []

    def test_redirect_is_not_followed(self, loopback):
        server = loopback([
            b"HTTP/1.1 307 Temporary Redirect\r\nLocation: /v2/chat/completions"
            b"\r\nContent-Length: 0\r\n\r\n",
        ])
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert (excinfo.value.kind, str(excinfo.value)) == \
            (ProviderErrorKind.OTHER, "other: HTTP 307")
        assert server.request_lines == ["POST /v1/chat/completions HTTP/1.1"]

    def test_http_proxy_gets_the_absolute_url(self, loopback, monkeypatch):
        server = loopback([http_response()])
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{server.port}")
        # The target is never contacted: only the proxy is.
        provider, _ = stdlib_live("http://127.0.0.2:9/v1")
        assert provider.complete(make_request("p")).text == "ok"
        assert server.request_lines == [
            "POST http://127.0.0.2:9/v1/chat/completions HTTP/1.1"
        ]
        assert b"\r\nHost: 127.0.0.2:9\r\n" in server.requests[0][2]

    def test_https_proxy_is_asked_for_a_tunnel(self, loopback, monkeypatch):
        server = loopback([b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n"])
        monkeypatch.setenv("HTTPS_PROXY", f"127.0.0.1:{server.port}")
        provider, _ = stdlib_live("https://127.0.0.2:9/v1", max_attempts=1)
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert excinfo.value.kind is ProviderErrorKind.NETWORK
        [line] = server.request_lines
        assert line.startswith("CONNECT 127.0.0.2:9 HTTP/1.")

    def test_no_proxy_goes_direct(self, loopback, monkeypatch):
        server = loopback([http_response()])
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        provider, _ = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        assert provider.complete(make_request("p")).text == "ok"
        assert server.request_lines == ["POST /v1/chat/completions HTTP/1.1"]

    def test_204_has_no_body_and_keeps_the_connection(self, loopback):
        server = loopback([b"HTTP/1.1 204 No Content\r\n\r\n", http_response()])
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p1"))
        assert "malformed response body" in str(excinfo.value)
        assert provider.complete(make_request("p2")).text == "ok"
        assert [conn for conn, *_ in server.requests] == [1, 1]
        assert sleeps == []

    def test_connection_close_means_a_new_connection_without_a_retry(
        self, loopback
    ):
        server = loopback(
            [http_response(headers="Connection: close\r\n")] * 2,
            close_after_each=True,
        )
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        assert provider.complete(make_request("p1")).text == "ok"
        assert provider.complete(make_request("p2")).text == "ok"
        assert [conn for conn, *_ in server.requests] == [1, 2]
        assert sleeps == []

    # A framing error is a network error, and the next post opens a fresh
    # socket; ``tests/test_http_reader.py`` checks the framing itself.
    @pytest.mark.parametrize(
        "bad_response",
        [b"HTTP/1.1 200 OK\r\nContent-Length: 100000000000000000\r\n\r\n" + chat_body("x")],
        ids=["10**17-content-length-short-body"],
    )
    def test_malformed_response_is_network_then_fresh_socket(
        self, loopback, caplog, bad_response
    ):
        server = loopback([bad_response, http_response()], close_after_each=True)
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        caplog.set_level(logging.INFO, logger="abcd_eval.providers")
        assert provider.complete(make_request("p")).text == "ok"
        assert "retrying after network" in caplog.text
        assert len(sleeps) == 1
        assert [conn for conn, *_ in server.requests] == [1, 2]

    def test_client_error_body_is_in_the_message_and_not_retried(self, loopback):
        server = loopback([http_response("400 Bad Request", b"unknown model")])
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        with pytest.raises(ProviderError) as excinfo:
            provider.complete(make_request("p"))
        assert str(excinfo.value) == "other: HTTP 400: unknown model"
        assert len(server.requests) == 1
        assert sleeps == []

    def test_url_without_a_port_means_port_80(self, loopback, monkeypatch):
        server = loopback([http_response()])
        addresses = []
        create_connection = socket.create_connection

        def to_loopback(address, *args):
            addresses.append(address)
            return create_connection(("127.0.0.1", server.port), *args)

        monkeypatch.setattr(socket, "create_connection", to_loopback)
        provider, _ = stdlib_live("http://api.example.test/v1")
        assert provider.complete(make_request("p")).text == "ok"
        assert addresses == [("api.example.test", 80)]
        assert b"\r\nHost: api.example.test\r\n" in server.requests[0][2]

