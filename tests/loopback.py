"""A scripted HTTP/1.1 server on 127.0.0.1 for tests of the live transport."""

from __future__ import annotations

import json
import re
import socket
import threading

PROXY_ENV_VARS = tuple(
    name
    for scheme in ("http", "https", "all", "no")
    for name in (f"{scheme}_proxy", f"{scheme.upper()}_PROXY")
)


def chat_body(content: str) -> bytes:
    return json.dumps(
        {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
    ).encode("utf-8")


def http_response(
    status: str = "200 OK", body: bytes = chat_body("ok"), chunked: bool = False
) -> bytes:
    """A whole keep-alive response; a chunked one sends *body* in two chunks."""
    if not chunked:
        head = f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n"
        return f"{head}Content-Type: application/json\r\n\r\n".encode() + body
    half = len(body) // 2
    chunks = b"".join(
        b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:half], body[half:])
    )
    head = f"HTTP/1.1 {status}\r\nTransfer-Encoding: chunked\r\n"
    return f"{head}Content-Type: application/json\r\n\r\n".encode() + chunks + b"0\r\n\r\n"


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
