"""Provider stack tests: request hashing, scripting, cache, replay, retry."""

import json
import logging
import random
import socket
import sys
import threading
import time
from typing import NamedTuple, Optional

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
    _reply,
    cache_key,
    load_script_rules,
)
from helpers import RecordingProvider
from loopback import PROXY_ENV_VARS, LoopbackServer, chat_body, http_response

# Regression pin for the on-disk cache layout. If this digest moves, every
# previously recorded cache directory stops replaying.
FROZEN_DIGEST = "741302a9e70e57a25686d4cf3ac4d65ad98550484f03aa0e090f8e964ccd9d9f"
FROZEN_REQUEST = CompletionRequest(
    model="default",
    prompt="True or False: Paris is a city",
    max_tokens=64,
)


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

    def test_empty_response_becomes_non_stop_finish(self):
        provider = ScriptedProvider([ScriptRule(match="x", response="")])
        response = provider.complete(make_request("x"))
        assert response.text == ""
        assert response.finish_reason is FinishReason.OTHER

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


class TestCachingProvider:
    def test_second_call_skips_inner(self, tmp_path):
        inner = RecordingProvider("pong")
        provider = CachingProvider(inner, ResponseCache(tmp_path))
        request = make_request("ping p")
        first = provider.complete(request)
        second = provider.complete(request)
        assert first == second
        assert len(inner.requests) == 1

    def test_distinct_requests_miss_separately(self, tmp_path):
        inner = RecordingProvider("any")
        provider = CachingProvider(inner, ResponseCache(tmp_path))
        provider.complete(make_request("one"))
        provider.complete(make_request("two"))
        provider.complete(make_request("one"))
        assert len(inner.requests) == 2

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
        inner = RecordingProvider("pong")

        response = CachingProvider(inner, cache).complete(request)
        assert response.text == "pong"
        assert len(inner.requests) == 1
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
# LiveProvider: each status and body in ``_reply``, each exchange over a
# loopback socket


def malformed(detail: str) -> tuple[str, None]:
    return f"other: malformed response body: {detail}", None


# By name: the status, headers and body ``_reply`` is given, and the
# completion it returns or the message and ``retry_after`` of the error it
# raises. A message starts with the error's kind, which decides a retry.
REPLIES = {
    "200": (200, {}, chat_body("True."), CompletionResponse("True.")),
    "no-finish-reason-is-stop": (200, {}, b'{"choices": [{"message": {"content": "T"}}]}',
                                 CompletionResponse("T")),
    "length": (200, {}, chat_body("cut off", "length"),
               CompletionResponse("cut off", FinishReason.LENGTH)),
    "content-filter-with-text": (200, {}, chat_body("par", "content_filter"),
                                 CompletionResponse("par", FinishReason.FILTERED)),
    "unknown-finish-reason": (200, {}, chat_body("True.", "tool_calls"),
                              CompletionResponse("True.", FinishReason.OTHER)),
    "empty-stop": (200, {}, chat_body(""), CompletionResponse("", FinishReason.OTHER)),
    "content-filter-without-text": (200, {}, chat_body("", "content_filter"),
                                    ("filtered: completion was filtered", None)),
    "302": (302, {"location": "/v2"}, chat_body("True."), ("other: HTTP 302", None)),
    "401": (401, {}, b"", ("auth: HTTP 401", None)),
    "403": (403, {}, b"", ("auth: HTTP 403", None)),
    "400-with-its-body": (400, {}, b"bad request body",
                          ("other: HTTP 400: bad request body", None)),
    "404-body-cut-at-200-characters": (404, {}, b"x" * 300,
                                       ("other: HTTP 404: " + "x" * 200, None)),
    "422-body-not-utf-8": (422, {}, b"caf\xe9", ("other: HTTP 422: caf\ufffd", None)),
    "429-with-retry-after": (429, {"retry-after": "7"}, b"",
                             ("rate_limited: HTTP 429", 7.0)),
    "429-without-retry-after": (429, {}, b'{"error": "slow down"}',
                                ("rate_limited: HTTP 429", None)),
    "500": (500, {}, b"", ("network: HTTP 500", None)),
    "500-retry-after-not-read": (500, {"retry-after": "7"}, b"", ("network: HTTP 500", None)),
    "503-with-retry-after": (503, {"retry-after": "7"}, b"", ("network: HTTP 503", 7.0)),
    "not-json": (200, {}, b"<html>",
                 malformed("Expecting value: line 1 column 1 (char 0)")),
    "not-utf-8": (200, {}, b"\xff", malformed(
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    "no-choices": (200, {}, b'{"choices": []}', malformed("list index out of range")),
    "null-content": (200, {}, chat_body(None),
                     malformed("response text must be a string, got None")),
    "list-content": (200, {}, chat_body(["True."]),
                     malformed("response text must be a string, got ['True.']")),
    "list-finish-reason": (200, {}, chat_body("True.", ["stop"]),
                           malformed("unhashable type: 'list'")),
}


@pytest.mark.parametrize("name", REPLIES)
def test_reply(name):
    status, headers, body, expected = REPLIES[name]
    if isinstance(expected, CompletionResponse):
        assert _reply(status, headers, body) == expected
        return
    with pytest.raises(ProviderError) as excinfo:
        _reply(status, headers, body)
    assert (str(excinfo.value), excinfo.value.retry_after) == expected


# The providers a test built, which the ``loopback`` fixture closes.
LIVE_PROVIDERS: list[LiveProvider] = []


@pytest.fixture
def loopback(monkeypatch):
    """Starts scripted servers; after the test it closes every provider in
    ``LIVE_PROVIDERS``, then stops the servers. The proxy variables are
    cleared so the requests go straight to loopback."""
    for name in PROXY_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    servers = []

    def start(responses, close_after_each=False):
        servers.append(LoopbackServer.replaying(responses, close_after_each))
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


def backoff(n: int) -> list[float]:
    """The first *n* jittered waits of a provider built with ``random.Random(0)``."""
    rng = random.Random(0)
    return [rng.uniform(0.0, 2.0 ** attempt) for attempt in range(n)]


class Exchange(NamedTuple):
    """Calls that each send ``REQUEST`` to a ``LoopbackServer`` that sends
    *responses* in turn."""

    responses: list[bytes]
    outcomes: tuple[str, ...]  # each call's completion text, or its error's message
    sleeps: list[float]
    connections: list[int]  # the connection that each request arrived on
    close_after_each: bool = False
    max_attempts: Optional[int] = None  # None: LiveProvider's default
    default_sleep: bool = False  # waits go to time.sleep, not to sleep_fn


REQUEST = CompletionRequest(model="gpt-x", prompt="True or False: p", max_tokens=64)
STATUS_503 = http_response("503 Service Unavailable", b"")
OK_10_17 = b"HTTP/1.1 200 OK\r\nContent-Length: 100000000000000000\r\n\r\n"
HTTP_DATE = "Wed, 21 Oct 2026 07:28:00 GMT"
EXCHANGES = {
    "one-socket-for-a-thread": Exchange(
        [http_response(body=chat_body(f"r{i}")) for i in range(3)],
        ("r0", "r1", "r2"), [], [1, 1, 1]),
    "socket-closed-by-server-is-network-then-fresh-socket": Exchange(
        [http_response(body=chat_body("first")), http_response(body=chat_body("second"))],
        ("first", "second"), backoff(1), [1, 2], close_after_each=True),
    "connection-close-means-a-new-socket-without-a-retry": Exchange(
        [http_response(headers="Connection: close\r\n")] * 2,
        ("ok", "ok"), [], [1, 2], close_after_each=True),
    # A framing error is a network error, and the next post opens a fresh
    # socket; ``tests/test_http_reader.py`` checks the framing itself.
    "10**17-content-length-short-body": Exchange(
        [OK_10_17 + chat_body("x"), http_response()],
        ("ok",), backoff(1), [1, 2], close_after_each=True),
    "204-has-no-body-and-keeps-the-socket": Exchange(
        [b"HTTP/1.1 204 No Content\r\n\r\n", http_response()],
        (malformed("Expecting value: line 1 column 1 (char 0)")[0], "ok"), [], [1, 1]),
    "5xx-retried": Exchange(
        [http_response("502 Bad Gateway", b""), STATUS_503, http_response()],
        ("ok",), backoff(2), [1, 1, 1]),
    "429-retried": Exchange(
        [http_response("429 Too Many Requests", b'{"error": "slow down"}'), http_response()],
        ("ok",), backoff(1), [1, 1]),
    # A delay-seconds Retry-After (digits only) raises the wait, capped like
    # the backoff; any other value, an HTTP-date too, leaves the jittered backoff.
    **{f"retry-after={'http-date' if value == HTTP_DATE else value}": Exchange(
        [http_response("429 Too Many Requests", b"{}", f"Retry-After: {value}\r\n"),
         http_response()], ("ok",), sleeps, [1, 1])
       for value, sleeps in [("7", [7.0]), ("999", [30.0]), ("1e3", backoff(1)),
                             ("inf", backoff(1)), ("1_0", backoff(1)), ("+5", backoff(1)),
                             ("-3", backoff(1)), ("nan", backoff(1)),
                             ("soon", backoff(1)), ("", backoff(1)),
                             (HTTP_DATE, backoff(1))]},
    "503-retry-after": Exchange(
        [http_response("503 Service Unavailable", b"", "Retry-After: 7\r\n"), http_response()],
        ("ok",), [7.0], [1, 1]),
    "401-not-retried": Exchange(
        [http_response("401 Unauthorized", b"")], ("auth: HTTP 401",), [], [1]),
    "400-body-in-the-message-and-not-retried": Exchange(
        [http_response("400 Bad Request", b"unknown model")],
        ("other: HTTP 400: unknown model",), [], [1]),
    "307-not-followed": Exchange(
        [b"HTTP/1.1 307 Temporary Redirect\r\nLocation: /v2/chat/completions"
         b"\r\nContent-Length: 0\r\n\r\n", http_response()],
        ("other: HTTP 307",), [], [1]),
    "exhausted-attempts-raise-the-last-error": Exchange(
        [STATUS_503] * 3, ("network: HTTP 503",), backoff(2), [1, 1, 1], max_attempts=3),
    "five-attempts-by-default": Exchange(
        [STATUS_503] * 5, ("network: HTTP 503",), backoff(4), [1] * 5),
    "waits-go-to-the-time-sleep-of-construction": Exchange(
        [STATUS_503, http_response()], ("ok",), backoff(1), [1, 1], default_sleep=True),
}


def outcome(provider: LiveProvider) -> str:
    try:
        return provider.complete(REQUEST).text
    except ProviderError as exc:
        return str(exc)


@pytest.mark.parametrize("name", EXCHANGES)
def test_exchange(loopback, monkeypatch, caplog, name):
    """Each row's calls, as a run makes them: the key from the environment,
    the default timeout and the default transport."""
    row = EXCHANGES[name]
    server = loopback(row.responses, row.close_after_each)
    monkeypatch.setenv(API_KEY_ENV_VAR, "sk-env")
    timeouts, create_connection = [], socket.create_connection

    def connect(address, timeout):
        timeouts.append(timeout)
        return create_connection(address, timeout)

    monkeypatch.setattr(socket, "create_connection", connect)
    slept, sleeps = [], []
    monkeypatch.setattr(time, "sleep", slept.append)
    attempts = {} if row.max_attempts is None else {"max_attempts": row.max_attempts}
    provider = LiveProvider(f"http://127.0.0.1:{server.port}/v1/", rng=random.Random(0),
                            sleep_fn=None if row.default_sleep else sleeps.append, **attempts)
    LIVE_PROVIDERS.append(provider)
    caplog.set_level(logging.INFO, logger="abcd_eval.providers")

    assert tuple(outcome(provider) for _ in row.outcomes) == row.outcomes
    assert (slept if row.default_sleep else sleeps) == row.sleeps
    assert sleeps + slept == row.sleeps  # and no wait went to the other
    assert caplog.text.count("retrying after") == len(row.sleeps)
    assert [conn for conn, *_ in server.requests] == row.connections
    assert timeouts == [60.0] * server.connections
    for _, line, head, body in server.requests:
        assert line == "POST /v1/chat/completions HTTP/1.1"
        assert b"\r\nAuthorization: Bearer sk-env" in head
        assert b"\r\nContent-Type: application/json" in head
        assert json.loads(body) == {
            "model": "gpt-x",
            "messages": [{"role": "user", "content": "True or False: p"}],
            "temperature": 0.0,
            "max_tokens": 64,
        }


class TestStdlibTransport:
    def test_close_ends_the_connection_and_a_later_call_reconnects(self, loopback):
        server = loopback([http_response()] * 2)
        provider, sleeps = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        assert provider.complete(make_request("p1")).text == "ok"
        provider.close()
        assert provider.complete(make_request("p2")).text == "ok"
        provider.close()
        assert [conn for conn, *_ in server.requests] == [1, 2]
        assert sleeps == []

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
        assert str(excinfo.value) == "network: proxy refused the tunnel: HTTP 403"
        [line] = server.request_lines
        assert line.startswith("CONNECT 127.0.0.2:9 HTTP/1.")

    def test_no_proxy_goes_direct(self, loopback, monkeypatch):
        server = loopback([http_response()])
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        provider, _ = stdlib_live(f"http://127.0.0.1:{server.port}/v1")
        assert provider.complete(make_request("p")).text == "ok"
        assert server.request_lines == ["POST /v1/chat/completions HTTP/1.1"]

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

