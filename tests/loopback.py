"""A chat-completions server on 127.0.0.1 for tests of the live transport,
and the scripts it answers from."""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
from collections import Counter
from contextlib import suppress

from abcd_eval.providers import CompletionRequest, ScriptedProvider

PROXY_ENV_VARS = tuple(
    name
    for scheme in ("http", "https", "all", "no")
    for name in (f"{scheme}_proxy", f"{scheme.upper()}_PROXY")
)

# How a connection goes on after a response: it stays open for the next
# request, it is closed (a FIN), or it is reset (an RST).
KEEP, CLOSE, RESET = "keep", "close", "reset"


def chat_body(content: str, finish_reason: str = "stop") -> bytes:
    return json.dumps(
        {"choices": [{"message": {"content": content}, "finish_reason": finish_reason}]}
    ).encode("utf-8")


def http_response(
    status: str = "200 OK", body: bytes = chat_body("ok"), headers: str = ""
) -> bytes:
    """A whole keep-alive response. *headers* holds further header lines,
    each ending in CRLF."""
    head = f"HTTP/1.1 {status}\r\n{headers}Content-Type: application/json\r\n"
    return f"{head}Content-Length: {len(body)}\r\n\r\n".encode() + body


class LoopbackServer:
    """Reads HTTP/1.1 requests on 127.0.0.1, one thread per connection,
    until closed. ``respond(body)`` answers each request: it returns the
    bytes to send (None sends nothing) and how the connection goes on
    (``KEEP``, ``CLOSE`` or ``RESET``); it is called for one request at
    a time. ``requests`` logs (connection number, request line, head, body).
    """

    def __init__(self, respond):
        self.respond = respond
        self.connections = 0
        self.requests: list[tuple[int, str, bytes, bytes]] = []
        self._sockets: list[socket.socket] = []
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    @classmethod
    def replaying(cls, responses, close_after_each: bool = False) -> LoopbackServer:
        """Sends *responses* in turn, then closes the connection. With
        ``close_after_each`` it closes the connection after every response
        without saying so, as a server does to an idle keep-alive socket."""
        pending = list(responses)

        def respond(body):
            response = pending.pop(0) if pending else None
            return response, CLOSE if close_after_each or not pending else KEEP

        return cls(respond)

    @property
    def request_lines(self) -> list[str]:
        return [line for _, line, _, _ in self.requests]

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            self._sockets.append(conn)
            self._threads.append(threading.Thread(
                target=self._serve, args=(conn, self.connections), daemon=True))
            self._threads[-1].start()

    def _serve(self, conn: socket.socket, number: int) -> None:
        with conn:
            buffer, how = b"", KEEP
            with suppress(OSError):  # the client went away
                while how == KEEP:
                    while b"\r\n\r\n" not in buffer and (chunk := conn.recv(65536)):
                        buffer += chunk
                    if b"\r\n\r\n" not in buffer:
                        return
                    head, _, buffer = buffer.partition(b"\r\n\r\n")
                    found = re.search(rb"(?im)^content-length: *(\d+)", head)
                    length = int(found.group(1)) if found else 0
                    while len(buffer) < length and (chunk := conn.recv(65536)):
                        buffer += chunk
                    body, buffer = buffer[:length], buffer[length:]
                    line = head.split(b"\r\n", 1)[0].decode("latin-1")
                    with self._lock:
                        self.requests.append((number, line, head, body))
                        response, how = self.respond(body)
                    if response:
                        conn.sendall(response)
            if how == RESET:
                # A zero linger makes the close a reset.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    def close(self) -> None:
        with suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        self._listener.close()
        self._threads[0].join(timeout=5)
        for conn in self._sockets:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)  # wakes a blocked recv()
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


# Faults a live run retries, each spoiling one attempt at a prompt: a 429
# asking for a 7 s wait, a 429 without a wait, a 503 with and without one, a
# reset after half the body, and a keep-alive socket closed before any
# response byte, as a server closes an idle one.
RETRYABLE_FAULTS = ("429-retry-after-7", "429", "503-retry-after-7", "503", "reset-mid-body",
                    "idle-close")
# A reply with the scripted text and finish reason ``length``: an answer,
# so it ends the call.
LENGTH = "length"
# A 400 with this body, which a live run does not retry: the call fails as
# ``other: HTTP 400: bad request``.
BAD_REQUEST = "400"
BAD_REQUEST_BODY = b"bad request"


class Script:
    """The ``respond`` of a server that answers every prompt from
    scripted-provider rules.

    *faults* maps a prompt to its schedule: the faults that its attempts
    meet, in order, over the whole run, and later attempts are answered.
    A call that fails does not restart the schedule: when the gold-answer
    pass sends a prompt again that failed in ``verify``, it meets the next
    entries. So a prompt that fails every attempt needs an entry for every
    attempt the run can make. ``attempts`` counts the requests for each
    prompt."""

    def __init__(self, rules, faults=None):
        self.script = ScriptedProvider(rules)
        self.faults = faults or {}
        self.attempts: Counter[str] = Counter()

    def __call__(self, body: bytes):
        request = json.loads(body)
        prompt = request["messages"][0]["content"]
        attempt = self.attempts[prompt]
        self.attempts[prompt] += 1
        fault = (self.faults.get(prompt, ())[attempt:] or [None])[0]
        if fault == "idle-close":
            return None, CLOSE
        if fault in ("429-retry-after-7", "429", "503-retry-after-7", "503", BAD_REQUEST):
            retry_after = "Retry-After: 7\r\n" if fault.endswith("-retry-after-7") else ""
            payload = BAD_REQUEST_BODY if fault == BAD_REQUEST else b""
            return http_response(f"{fault[:3]} Fault", payload, retry_after), KEEP
        completion = self.script.complete(
            CompletionRequest(model=request["model"], prompt=prompt, max_tokens=1))
        reply = chat_body(completion.text, "length" if fault == LENGTH else "stop")
        response = http_response(body=reply)
        if fault == "reset-mid-body":
            return response[:len(response) - len(reply) // 2], RESET
        return response, KEEP
