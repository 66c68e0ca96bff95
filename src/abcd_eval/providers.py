"""Text-completion providers: live HTTP, scripted, caching, replay.

Every provider exposes a single ``complete(request) -> CompletionResponse``
method. Requests hash to a stable cache key (sha256 over a canonical JSON
encoding), which is the filename of the on-disk cache entry and the lookup
key for replay. Wrappers compose: ``CachingProvider(LiveProvider(...),
ResponseCache(directory))`` records a live run, and :class:`ReplayProvider`
over the same directory serves it again without the endpoint.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple, Optional, Protocol, Sequence
from urllib.parse import SplitResult, urlsplit

from .model import check_type
from .records import atomic_write, read_jsonl

logger = logging.getLogger(__name__)

API_KEY_ENV_VAR = "ABCD_API_KEY"
DEFAULT_TIMEOUT_SECONDS = 60.0
DEFAULT_MAX_ATTEMPTS = 5
_BACKOFF_BASE_SECONDS = 1.0
_BACKOFF_CAP_SECONDS = 30.0
# Every request is sent at temperature 0: responses are cached and replayed
# under a digest of the request, which only makes sense for deterministic
# sampling.
TEMPERATURE = 0.0


class FinishReason(str, Enum):
    STOP = "stop"
    LENGTH = "length"
    FILTERED = "filtered"
    OTHER = "other"


@dataclass(frozen=True)
class CompletionRequest:
    """One deterministic completion call, sent at :data:`TEMPERATURE`."""

    model: str
    prompt: str
    max_tokens: int

    def __post_init__(self):
        if not self.model:
            raise ValueError("request model must be non-empty")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: FinishReason = FinishReason.STOP

    def __post_init__(self):
        check_type("response", "text", self.text, str)
        if self.text == "" and self.finish_reason is FinishReason.STOP:
            raise ValueError("empty completion text requires a non-stop finish reason")


class ProviderErrorKind(str, Enum):
    RATE_LIMITED = "rate_limited"
    NETWORK = "network"
    AUTH = "auth"
    FILTERED = "filtered"
    REPLAY_MISS = "replay_miss"
    OTHER = "other"


_RETRYABLE_KINDS = frozenset(
    {ProviderErrorKind.RATE_LIMITED, ProviderErrorKind.NETWORK}
)


class ProviderError(Exception):
    """A completion call failed. ``retryable`` follows from the kind;
    ``retry_after`` is the wait in seconds the server asked for, if any."""

    def __init__(
        self, kind: ProviderErrorKind, detail: str, retry_after: Optional[float] = None
    ):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        return self.kind in _RETRYABLE_KINDS


class Provider(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse:
        ...


def _request_to_record(request: CompletionRequest) -> dict:
    return {
        "model": request.model,
        "prompt": request.prompt,
        "temperature": TEMPERATURE,
        "max_tokens": request.max_tokens,
    }


def cache_key(request: CompletionRequest) -> str:
    """Hex sha256 digest of the request's canonical JSON encoding."""
    canonical = json.dumps(
        _request_to_record(request),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# scripted


@dataclass(frozen=True)
class ScriptRule:
    """Maps prompts to a canned response.

    ``mode`` is ``substring`` (the needle occurs anywhere in the prompt) or
    ``exact`` (the prompt equals the needle).
    """

    match: str
    response: str
    mode: str = "substring"

    def __post_init__(self):
        for name in ("match", "response", "mode"):
            check_type("script rule", name, getattr(self, name), str)
        if self.mode not in ("substring", "exact"):
            raise ValueError(f"unknown script rule mode: {self.mode!r}")

    def matches(self, prompt: str) -> bool:
        if self.mode == "exact":
            return prompt == self.match
        return self.match in prompt


class ScriptedProvider:
    """Deterministic offline provider driven by an ordered rule list.

    The first matching rule wins. A prompt no rule matches raises
    ``ProviderError(OTHER)`` so that fixture gaps fail loudly instead of
    producing silent non-responses.
    """

    def __init__(self, rules: Sequence[ScriptRule]):
        self.rules = list(rules)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        for rule in self.rules:
            if rule.matches(request.prompt):
                finish = FinishReason.STOP if rule.response else FinishReason.OTHER
                return CompletionResponse(text=rule.response, finish_reason=finish)
        preview = request.prompt[:120].replace("\n", "\\n")
        raise ProviderError(
            ProviderErrorKind.OTHER,
            f"no script rule matches prompt: {preview!r}",
        )


def load_script_rules(path: str | Path) -> list[ScriptRule]:
    """Read script rules from a JSONL file of {match, response, mode?} rows."""
    return read_jsonl(path, lambda row, _: ScriptRule(
        row["match"], row["response"], row.get("mode", "substring")
    ))


# --------------------------------------------------------------------------
# live


_FINISH_REASON_MAP = {
    "stop": FinishReason.STOP,
    "length": FinishReason.LENGTH,
    "content_filter": FinishReason.FILTERED,
}


class _FramingError(ConnectionError):
    """A response that does not frame as HTTP/1.x, or that ends early."""


_MAX_LINE_BYTES = 65536
_MAX_HEADERS = 100


class _HTTPResponse(NamedTuple):
    """The part of a ``requests.Response`` that :class:`LiveProvider` reads.
    ``headers`` maps lowercased field names to the first value given."""

    status_code: int
    headers: dict[str, str]
    body: bytes

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", "replace")

    def json(self):
        return json.loads(self.body.decode("utf-8"))


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE_BYTES + 1)
    if not line.endswith(b"\n"):
        raise _FramingError(
            "response line longer than 64 KiB" if len(line) > _MAX_LINE_BYTES
            else "connection closed before the response ended"
        )
    return line


def _read_fields(rfile) -> dict[str, str]:
    """Header or trailer fields up to the blank line, by lowercased name."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _FramingError(f"malformed header line: {line[:80]!r}")
        fields.setdefault(name.strip().lower(), value.strip())
    raise _FramingError(f"more than {_MAX_HEADERS} header lines")


def _read_head(rfile) -> tuple[bytes, int, dict[str, str]]:
    """The version, status and fields of the first final (non-1xx) response."""
    while True:
        line = _read_line(rfile)
        version, status, *_ = line.split(None, 2) + [b"", b""]
        code = int(status) if len(status) == 3 and status.isdigit() else 0
        if not version.startswith(b"HTTP/1.") or code < 100:
            raise _FramingError(f"malformed status line: {line[:80]!r}")
        fields = _read_fields(rfile)
        if code >= 200:
            return version, code, fields


def _size(text, base: int, what: str) -> int:
    try:
        size = int(text, base)
    except ValueError:
        size = -1
    if size < 0:
        raise _FramingError(f"bad {what}: {text!r}")
    return size


def _read_exactly(rfile, size: int) -> bytes:
    data = rfile.read(size)
    if len(data) < size:
        raise _FramingError(f"response body ended after {len(data)} of {size} bytes")
    return data


def _read_chunked(rfile) -> bytes:
    chunks = []
    while size := _size(_read_line(rfile).split(b";", 1)[0].strip(), 16, "chunk size"):
        chunks.append(_read_exactly(rfile, size))
        if _read_line(rfile).strip():
            raise _FramingError("chunk data runs past its size")
    _read_fields(rfile)  # the trailer, which nothing reads
    return b"".join(chunks)


def _read_response(rfile) -> tuple[_HTTPResponse, bool]:
    """One response, and whether its connection may carry another request.

    The body is chunked (which wins over ``Content-Length``), as long as
    ``Content-Length`` says, or whatever comes until the server closes.
    """
    version, status, headers = _read_head(rfile)
    tokens = headers.get("connection", "").lower()
    keep_alive = "close" not in tokens and (
        version != b"HTTP/1.0" or "keep-alive" in tokens
    )
    if status in (204, 304):
        body = b""
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        body = _read_chunked(rfile)
    elif "content-length" in headers:
        body = _read_exactly(
            rfile, _size(headers["content-length"], 10, "Content-Length")
        )
    else:
        body, keep_alive = rfile.read(), False
    return _HTTPResponse(status, headers, body), keep_alive


class _Connection(NamedTuple):
    sock: socket.socket
    rfile: BinaryIO  # sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _proxy_for(parts: SplitResult) -> Optional[SplitResult]:
    """The proxy that the ``*_proxy`` environment variables name for a URL.

    ``urllib.request``, which loads ``http.client`` and ``email``, is
    imported only when such a variable is set. Its two functions read the
    environment alone, never a system proxy setting such as macOS's.
    """
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    from urllib.request import getproxies_environment, proxy_bypass_environment

    proxy = getproxies_environment().get(parts.scheme)
    if not proxy or proxy_bypass_environment(parts.netloc):
        return None
    return urlsplit(proxy if "://" in proxy else f"http://{proxy}")


class _HTTPSession:
    """A stdlib stand-in for ``requests.Session``, posting under one origin.

    It speaks HTTP/1.1 itself over one keep-alive socket per thread. Each
    request goes out in one write, and :func:`_read_response` reads the
    answer. A URL without a port means port 80 or 443. The socket goes
    through the proxy that the ``HTTP(S)_PROXY``/``NO_PROXY`` environment
    variables name for the origin when the session is built, https through
    a ``CONNECT`` tunnel; system proxy settings are not read.

    A socket whose request fails, including on a response that does not
    frame (a ``ConnectionError``), is closed and dropped, so the next post
    opens a fresh one; so is a socket the response says will close.
    :meth:`close` closes the others. Redirects are not followed.
    """

    def __init__(self, url: str):
        parts = urlsplit(url)
        origin = f"{parts.scheme}://{parts.netloc}"
        # A request target must be printable ASCII without spaces; only the
        # host may be an internationalized name.
        if (parts.scheme not in ("http", "https") or not parts.hostname
                or not url.isprintable() or " " in url
                or not url[len(origin):].isascii()):
            raise ValueError(f"not an http(s) URL: {url!r}")
        self._https = parts.scheme == "https"
        # A bad port is a ValueError, and so is a host IDNA cannot encode.
        self._origin = (parts.hostname, parts.port or (443 if self._https else 80))
        self._host = parts.netloc.rpartition("@")[2].encode("idna").decode("ascii")
        proxy = _proxy_for(parts)
        self._proxy = (proxy.hostname, proxy.port or 80) if proxy else None
        # Where a URL's request target starts: an http proxy takes it whole.
        self._target_at = 0 if proxy and not self._https else len(origin)
        self._conns: dict[int, _Connection] = {}  # by thread id
        self._lock = threading.Lock()

    def _connect(self, timeout: float) -> _Connection:
        sock = socket.create_connection(self._proxy or self._origin, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https:
                if self._proxy:
                    self._tunnel(sock)
                import ssl  # loaded by the first https connection only

                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=self._origin[0]
                )
            return _Connection(sock, sock.makefile("rb"))
        except BaseException:
            sock.close()
            raise

    def _tunnel(self, sock: socket.socket) -> None:
        """Ask the proxy at the other end of *sock* for a tunnel to the origin."""
        host, port = self._origin
        target = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        sock.sendall(f"CONNECT {target} HTTP/1.1\r\nHost: {target}\r\n\r\n".encode())
        with sock.makefile("rb") as rfile:
            _, status, _ = _read_head(rfile)
        if status != 200:
            raise ConnectionError(f"proxy refused the tunnel: HTTP {status}")

    def post(self, url: str, **kwargs) -> _HTTPResponse:
        """POST with the json, headers and timeout of ``requests.Session.post``."""
        headers = kwargs["headers"]
        body = json.dumps(kwargs["json"]).encode("utf-8")
        head = (
            f"POST {url[self._target_at:]} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in headers.items())
            + "\r\n"
        )
        thread = threading.get_ident()
        with self._lock:
            conn = self._conns.get(thread)
        if conn is None:
            conn = self._connect(kwargs["timeout"])
            with self._lock:
                self._conns[thread] = conn
        try:
            conn.sock.sendall(head.encode("latin-1") + body)
            response, keep_alive = _read_response(conn.rfile)
        except BaseException:
            self._drop(thread, conn)
            raise
        if not keep_alive:
            self._drop(thread, conn)
        return response

    def _drop(self, thread: int, conn: _Connection) -> None:
        with self._lock:
            self._conns.pop(thread, None)
        conn.close()

    def close(self) -> None:
        """Close every thread's connection; a later post opens a new one."""
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()


def _retry_after(http_response) -> Optional[float]:
    """The delta-seconds ``Retry-After`` of a response, or None when it has
    no headers, no such header or a value that is not a number. Header names
    are looked up lowercased, which a ``requests.Response`` also answers."""
    value = getattr(http_response, "headers", {}).get("retry-after")
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class LiveProvider:
    """Chat-completion style HTTP provider.

    Reads the API key from the ``ABCD_API_KEY`` environment variable unless
    one is passed explicitly. Retries rate-limit and network failures with
    exponential backoff and full jitter, up to ``max_attempts`` tries total.
    A 429's delta-seconds ``Retry-After`` raises the wait to that value,
    capped like the backoff. Posts through *session*, anything with the
    ``post`` of a ``requests.Session``; by default a stdlib session with one
    keep-alive connection per thread, which :meth:`close` closes.
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        *,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        session=None,
        sleep_fn: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR)
        if not key:
            raise ProviderError(
                ProviderErrorKind.AUTH,
                f"no API key: set {API_KEY_ENV_VAR} or pass api_key",
            )
        # The key goes out in a Latin-1 header line; the message must not
        # echo it.
        if max(map(ord, key)) > 255 or "\r" in key or "\n" in key:
            raise ProviderError(
                ProviderErrorKind.AUTH,
                "the API key must be Latin-1 text without line breaks",
            )
        self._api_key = key
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._session = session if session is not None else _HTTPSession(self._url)
        self._sleep = sleep_fn
        self._rng = rng or random.Random()

    def close(self) -> None:
        """Close the default session's connections. An injected session is
        left to its owner."""
        if isinstance(self._session, _HTTPSession):
            self._session.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        last_error: Optional[ProviderError] = None
        for attempt in range(self._max_attempts):
            if attempt > 0:
                assert last_error is not None
                delay = self._rng.uniform(
                    0.0,
                    min(_BACKOFF_CAP_SECONDS, _BACKOFF_BASE_SECONDS * 2 ** (attempt - 1)),
                )
                if last_error.retry_after is not None:
                    delay = min(_BACKOFF_CAP_SECONDS, max(delay, last_error.retry_after))
                logger.info(
                    "retrying after %s (attempt %d/%d, sleeping %.2fs)",
                    last_error.kind.value,
                    attempt + 1,
                    self._max_attempts,
                    delay,
                )
                self._sleep(delay)
            try:
                return self._attempt(request)
            except ProviderError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
        assert last_error is not None
        raise last_error

    def _attempt(self, request: CompletionRequest) -> CompletionResponse:
        body = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": request.max_tokens,
        }
        try:
            http_response = self._session.post(
                self._url,
                json=body,
                headers={"Authorization": f"Bearer {self._api_key}"},
                timeout=self._timeout,
            )
        except OSError as exc:
            raise ProviderError(ProviderErrorKind.NETWORK, str(exc)) from exc

        status = http_response.status_code
        if status == 429:
            raise ProviderError(
                ProviderErrorKind.RATE_LIMITED, "HTTP 429", _retry_after(http_response)
            )
        if status in (401, 403):
            raise ProviderError(ProviderErrorKind.AUTH, f"HTTP {status}")
        if status >= 500:
            raise ProviderError(ProviderErrorKind.NETWORK, f"HTTP {status}")
        if 300 <= status < 400:
            raise ProviderError(ProviderErrorKind.OTHER, f"HTTP {status}")
        if status >= 400:
            raise ProviderError(
                ProviderErrorKind.OTHER, f"HTTP {status}: {http_response.text[:200]}"
            )

        try:
            choice = http_response.json()["choices"][0]
            text = choice["message"]["content"]
            finish = _FINISH_REASON_MAP.get(
                choice.get("finish_reason", "stop"), FinishReason.OTHER
            )
            if finish is FinishReason.FILTERED and not text:
                raise ProviderError(
                    ProviderErrorKind.FILTERED, "completion was filtered"
                )
            if text == "" and finish is FinishReason.STOP:
                finish = FinishReason.OTHER
            return CompletionResponse(text=text, finish_reason=finish)
        except (ValueError, LookupError, TypeError) as exc:
            raise ProviderError(
                ProviderErrorKind.OTHER, f"malformed response body: {exc}"
            ) from exc


# --------------------------------------------------------------------------
# cache and replay


def _response_to_record(response: CompletionResponse) -> dict:
    return {"text": response.text, "finish_reason": response.finish_reason.value}


def _response_from_record(record: dict) -> CompletionResponse:
    return CompletionResponse(
        text=record["text"], finish_reason=FinishReason(record["finish_reason"])
    )


class ResponseCache:
    """One JSON file per cached completion, ``<digest>.json`` in *directory*,
    which is created here.

    An entry is one compact JSON object: the request, the response and a
    timestamp. :meth:`put` encodes it once and hands the bytes to
    :func:`~abcd_eval.records.atomic_write`, whose temp file plus rename
    means a crash cannot leave a truncated entry. Each write has its own
    temp name, so concurrent writers need no lock. Readers ignore
    whitespace, so entries written indented still read.
    """

    def __init__(self, directory: str | Path):
        os.makedirs(directory, exist_ok=True)
        self._prefix = os.path.join(directory, "")

    def get(self, digest: str) -> Optional[CompletionResponse]:
        """The cached response, or None when there is no entry. An entry
        that does not decode or convert raises ``ValueError``."""
        try:
            with open(f"{self._prefix}{digest}.json", "rb") as handle:
                entry = json.loads(handle.read().decode("utf-8"))
            return _response_from_record(entry["response"])
        except FileNotFoundError:
            return None
        except (ValueError, LookupError, TypeError) as exc:
            raise ValueError(
                f"unreadable cache entry for request digest {digest}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def put(
        self,
        digest: str,
        request: CompletionRequest,
        response: CompletionResponse,
    ) -> None:
        entry = {
            "request": _request_to_record(request),
            "response": _response_to_record(response),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        data = json.dumps(entry, ensure_ascii=False).encode("utf-8")
        atomic_write(f"{self._prefix}{digest}.json", data)


class CachingProvider:
    """Serve hits from a :class:`ResponseCache`, delegate misses.

    An unreadable entry counts as a miss, and the fresh response
    overwrites it.
    """

    def __init__(self, inner: Provider, cache: ResponseCache):
        self.inner = inner
        self.cache = cache

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = cache_key(request)
        try:
            cached = self.cache.get(digest)
        except ValueError as exc:
            logger.warning("%s; fetching it again", exc)
            cached = None
        if cached is not None:
            return cached
        response = self.inner.complete(request)
        self.cache.put(digest, request, response)
        return response


class ReplayProvider:
    """Strict replay: every request must hit the cache.

    A miss or an unreadable entry raises ``ProviderError(REPLAY_MISS)``
    naming the digest, so a stale, incomplete or corrupt cache is
    diagnosable from the error alone.
    """

    def __init__(self, cache: ResponseCache):
        self.cache = cache

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = cache_key(request)
        try:
            cached = self.cache.get(digest)
        except ValueError as exc:
            raise ProviderError(ProviderErrorKind.REPLAY_MISS, str(exc)) from exc
        if cached is None:
            raise ProviderError(
                ProviderErrorKind.REPLAY_MISS,
                f"no cached response for request digest {digest}",
            )
        return cached

