"""Text-completion providers: live HTTP, scripted, and the cache in front.

Every provider exposes a single ``complete(request) -> CompletionResponse``
method. Requests hash to a stable cache key (sha256 over a canonical JSON
encoding), the name of the request's on-disk cache entry. :class:`Upstream`
puts the cache in front of a provider, and holds each fresh reply in memory
from its ``fetch`` until its ``store`` or ``close`` writes it. A
:class:`CachingProvider` over a :class:`ResponseCache` records a live run,
and a :class:`ReplayProvider` over the same directory serves it again.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Collection, Optional, Protocol, Sequence

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


def _digest(request_record) -> str:
    """Hex sha256 digest of a request record's canonical JSON encoding."""
    import hashlib  # loads OpenSSL: only a run with a cache needs it

    canonical = json.dumps(
        request_record, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_key(request: CompletionRequest) -> str:
    """The digest of the request's record, as a cache entry stores it."""
    return _digest(_request_to_record(request))


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


def _retry_after(headers) -> Optional[float]:
    """The delay-seconds ``Retry-After`` in *headers* (RFC 9110: ``1*DIGIT``),
    or None when there is no such field or its value is any other form, an
    HTTP-date too; ``float`` alone would also take ``1e3``, ``inf``, a sign
    and ``_``. Names are looked up lowercased, which a ``requests.Response``'s
    headers also answer."""
    value = headers.get("retry-after") or ""
    return float(value) if value.isascii() and value.isdigit() else None


def _reply(status: int, headers, content: bytes) -> CompletionResponse:
    """The completion an HTTP response carries, or the ``ProviderError`` of
    a status or body that carries none."""
    if status == 429:
        raise ProviderError(
            ProviderErrorKind.RATE_LIMITED, "HTTP 429", _retry_after(headers)
        )
    if status in (401, 403):
        raise ProviderError(ProviderErrorKind.AUTH, f"HTTP {status}")
    if status >= 500:
        raise ProviderError(ProviderErrorKind.NETWORK, f"HTTP {status}",
                            _retry_after(headers) if status == 503 else None)
    if 300 <= status < 400:
        raise ProviderError(ProviderErrorKind.OTHER, f"HTTP {status}")
    if status >= 400:
        text = content.decode("utf-8", "replace")
        raise ProviderError(ProviderErrorKind.OTHER, f"HTTP {status}: {text[:200]}")

    try:
        choice = json.loads(content.decode("utf-8"))["choices"][0]
        text = choice["message"]["content"]
        finish = _FINISH_REASON_MAP.get(
            choice.get("finish_reason", "stop"), FinishReason.OTHER
        )
        if finish is FinishReason.FILTERED and not text:
            raise ProviderError(ProviderErrorKind.FILTERED, "completion was filtered")
        if text == "" and finish is FinishReason.STOP:
            finish = FinishReason.OTHER
        return CompletionResponse(text=text, finish_reason=finish)
    except (ValueError, LookupError, TypeError) as exc:
        raise ProviderError(
            ProviderErrorKind.OTHER, f"malformed response body: {exc}"
        ) from exc


class LiveProvider:
    """Chat-completion style HTTP provider.

    Reads the API key from the ``ABCD_API_KEY`` environment variable unless
    one is passed explicitly. Retries rate-limit and network failures with
    exponential backoff and full jitter, up to ``max_attempts`` (at least 1)
    tries total. The delay-seconds ``Retry-After`` of a 429 or a 503 raises
    the wait to that value, capped like the backoff. The wait goes to
    *sleep_fn*, by default the ``time.sleep`` of when the provider is built.
    Posts through a :class:`~abcd_eval.transport.HTTPSession` with one
    keep-alive connection per thread, which :meth:`close` closes, and
    :func:`_reply` maps each status and body to a completion or an error.
    *session*, the ``post`` of a ``requests.Session``, stays only for the
    benchmark's ``requests.Session`` test, until that test uses this
    transport (ROADMAP item 1).
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        *,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        session=None,
        sleep_fn: Optional[Callable[[float], None]] = None,
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
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._max_attempts = max_attempts
        self._owns_session = session is None
        if session is None:
            from .transport import HTTPSession  # loads socket: only a live run needs it

            session = HTTPSession(self._url)
        self._session = session
        self._sleep = sleep_fn or time.sleep
        self._rng = rng or random.Random()

    def close(self) -> None:
        """Close the default session's connections. An injected session is
        left to its owner."""
        if self._owns_session:
            self._session.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        for attempt in range(1, self._max_attempts + 1):
            try:
                return self._attempt(request)
            except ProviderError as exc:
                if not exc.retryable or attempt == self._max_attempts:
                    raise
                delay = self._rng.uniform(
                    0.0,
                    min(_BACKOFF_CAP_SECONDS, _BACKOFF_BASE_SECONDS * 2 ** (attempt - 1)),
                )
                if exc.retry_after is not None:
                    delay = min(_BACKOFF_CAP_SECONDS, max(delay, exc.retry_after))
                logger.info("retrying after %s (attempt %d/%d, sleeping %.2fs)",
                            exc.kind.value, attempt + 1, self._max_attempts, delay)
                self._sleep(delay)

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
        return _reply(
            http_response.status_code, http_response.headers, http_response.content
        )


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

    An entry is one compact JSON object: the request, the response and the
    time of :meth:`put`, which :meth:`Upstream.store` calls, not ``fetch``.
    :meth:`put` encodes it once for :func:`~abcd_eval.records.atomic_write`,
    whose temp file plus rename means a crash cannot leave a truncated
    entry, and whose own temp names let concurrent writers go without a
    lock. Readers ignore whitespace, so entries written indented still read.
    """

    def __init__(self, directory: str | Path):
        os.makedirs(directory, exist_ok=True)
        self._prefix = os.path.join(directory, "")

    def get(self, digest: str) -> Optional[CompletionResponse]:
        """The cached response, or None when there is no entry. An entry
        that does not decode or convert, or whose stored request does not
        hash to *digest*, raises ``ValueError``."""
        try:
            with open(f"{self._prefix}{digest}.json", "rb") as handle:
                entry = json.loads(handle.read().decode("utf-8"))
            if _digest(entry["request"]) != digest:
                raise ValueError("its request hashes to another digest")
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


class Upstream:
    """Every request's cache decision, in :meth:`fetch`: look the request
    up among the fresh replies held in memory, then in *cache*; send a miss
    to *base* and hold its reply until :meth:`store`, or :meth:`close` for
    the rest, writes it; :meth:`complete` stores at once. An unreadable
    entry is logged and treated as a miss, and the fresh reply overwrites
    it. With no cache every request goes to *base*.

    With no *base* it replays strictly: a miss or an unreadable entry
    raises ``ProviderError(REPLAY_MISS)`` naming the digest, so a stale,
    incomplete or corrupt cache is diagnosable from the error alone.

    ``calls`` counts, per stage, the completions *base* returned, or in
    replay the completions the cache served; a call without a stage counts
    under ``library``. A call that raises is neither counted nor stored.
    """

    def __init__(self, base: Optional[Provider], cache: Optional[ResponseCache] = None):
        self.base = base
        self.cache = cache
        self.calls: dict[str, int] = {}
        self._held: dict[CompletionRequest, tuple[str, CompletionResponse]] = {}
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest, stage: str = "library"):
        response = self.fetch(request, stage)
        self.store([request])
        return response

    def fetch(self, request: CompletionRequest, stage: str = "library") -> CompletionResponse:
        if self.cache is None:
            response = self.base.complete(request)
        else:
            digest = cache_key(request)
            held = self._held.get(request)
            try:
                response = held[1] if held else self.cache.get(digest)
            except ValueError as exc:
                if self.base is None:
                    raise ProviderError(ProviderErrorKind.REPLAY_MISS, str(exc)) from exc
                logger.warning("%s; fetching it again", exc)
                response = None
            if self.base is not None:
                if response is not None:
                    return response
                response = self.base.complete(request)
                self._held[request] = digest, response
            elif response is None:
                raise ProviderError(ProviderErrorKind.REPLAY_MISS,
                                    f"no cached response for request digest {digest}")
        with self._lock:
            self.calls[stage] = self.calls.get(stage, 0) + 1
        return response

    def store(self, requests: Collection[CompletionRequest]) -> None:
        """Write the held replies of *requests*; let them go even if one fails."""
        try:
            for request in requests:
                held = self._held.get(request)
                if held is not None:
                    self.cache.put(held[0], request, held[1])
        finally:
            for request in requests:
                self._held.pop(request, None)

    def close(self) -> None:
        """Store the held replies; close the base's connections, if it keeps any."""
        self.store(list(self._held))
        close = getattr(self.base, "close", None)
        if close is not None:
            close()


class CachingProvider(Upstream):
    """An :class:`Upstream` that records: *inner* answers the misses."""

    def __init__(self, inner: Provider, cache: ResponseCache):
        super().__init__(inner, cache)


class ReplayProvider(Upstream):
    """An :class:`Upstream` that replays *cache* strictly."""

    def __init__(self, cache: ResponseCache):
        super().__init__(None, cache)
