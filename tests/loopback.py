"""A scripted HTTP/1.1 server on 127.0.0.1 for tests of the live transport."""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from abcd_eval.providers import CompletionRequest, ScriptedProvider

PROXY_ENV_VARS = tuple(
    name
    for scheme in ("http", "https", "all", "no")
    for name in (f"{scheme}_proxy", f"{scheme.upper()}_PROXY")
)


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
    """Answers each request with the next scripted response, one connection
    at a time, and stops once the script is used up.

    With ``close_after_each`` it closes the connection after every response
    without saying so, as a server does to an idle keep-alive socket.
    ``requests`` logs (connection number, request line, head, body).
    """

    def __init__(self, responses, close_after_each: bool = False):
        self.responses = list(responses)
        self.close_after_each = close_after_each
        self.connections = 0
        self.requests: list[tuple[int, str, bytes, bytes]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def request_lines(self) -> list[str]:
        return [line for _, line, _, _ in self.requests]

    def _serve(self) -> None:
        while self.responses:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                buffer = b""
                while self.responses:
                    while b"\r\n\r\n" not in buffer:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        buffer += chunk
                    if b"\r\n\r\n" not in buffer:
                        break
                    head, _, buffer = buffer.partition(b"\r\n\r\n")
                    found = re.search(rb"(?im)^content-length: *(\d+)", head)
                    length = int(found.group(1)) if found else 0
                    while len(buffer) < length:
                        buffer += conn.recv(65536)
                    body, buffer = buffer[:length], buffer[length:]
                    line = head.split(b"\r\n", 1)[0].decode("latin-1")
                    self.requests.append((self.connections, line, head, body))
                    conn.sendall(self.responses.pop(0))
                    if self.close_after_each:
                        break

    def close(self) -> None:
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


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


class _ScriptHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True  # the body would wait for the head's ACK

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        fault = self.server.next_fault(prompt)
        if fault == "idle-close":
            self.close_connection = True
            return
        if fault in ("429-retry-after-7", "429", "503-retry-after-7", "503", BAD_REQUEST):
            payload = BAD_REQUEST_BODY if fault == BAD_REQUEST else b""
            self.send_response(int(fault[:3]))
            if fault.endswith("-retry-after-7"):
                self.send_header("Retry-After", "7")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        request = CompletionRequest(model=body["model"], prompt=prompt, max_tokens=1)
        reply = chat_body(self.server.script.complete(request).text,
                          "length" if fault == LENGTH else "stop")
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        if fault == "reset-mid-body":
            self.wfile.write(reply[:len(reply) // 2])
            # A zero linger makes the close a reset.
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            self.close_connection = True
            return
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


class ScriptServer(ThreadingHTTPServer):
    """A chat-completions server on 127.0.0.1 that answers every prompt from
    scripted-provider rules, one thread per connection, until closed.

    *faults* maps a prompt to its schedule: the faults that its attempts
    meet, in order, over the whole run, and later attempts are answered.
    A call that fails does not restart the schedule: when the gold-answer
    pass sends a prompt again that failed in ``verify``, it meets the next
    entries. So a prompt that fails every attempt needs an entry for every
    attempt the run can make. ``attempts`` counts the requests for each
    prompt."""

    daemon_threads = True

    def __init__(self, rules, faults=None):
        super().__init__(("127.0.0.1", 0), _ScriptHandler)
        self.script = ScriptedProvider(rules)
        self.faults = faults or {}
        self.attempts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self.port = self.server_address[1]
        # A short poll keeps close() from waiting out the default half second.
        self._thread = threading.Thread(
            target=self.serve_forever, args=(0.01,), daemon=True
        )
        self._thread.start()

    def next_fault(self, prompt: str):
        """The fault for this attempt at *prompt*, or None to answer it."""
        with self._lock:
            attempt = self.attempts[prompt]
            self.attempts[prompt] += 1
            faults = self.faults.get(prompt, ())
        return faults[attempt] if attempt < len(faults) else None

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
