"""The HTTP/1.1 client behind :class:`~abcd_eval.providers.LiveProvider`.

:class:`HTTPSession` posts JSON under one origin over one keep-alive socket
per thread and reads the response itself. Only a provider that builds its
own session imports this module, so a command that calls no live endpoint
never loads ``socket``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import BinaryIO, NamedTuple, Optional
from urllib.parse import SplitResult, urlsplit


class _FramingError(ConnectionError):
    """A response that does not frame as HTTP/1.x, or that ends early."""


_MAX_LINE_BYTES = 65536
_MAX_HEADERS = 100


class HTTPResponse(NamedTuple):
    """The part of a ``requests.Response`` that ``LiveProvider`` reads.
    ``headers`` maps lowercased field names to the first value given."""

    status_code: int
    headers: dict[str, str]
    content: bytes


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE_BYTES + 1)
    if len(line) > _MAX_LINE_BYTES:
        raise _FramingError("response line longer than 64 KiB")
    if not line.endswith(b"\n"):
        raise _FramingError("connection closed before the response ended")
    return line


def _read_fields(rfile) -> dict[str, str]:
    """Header or trailer fields up to the blank line, by lowercased name."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        # No whitespace may surround a name (RFC 9112 §5.1, §2.2): readers
        # that disagree on it have let responses be smuggled.
        if not colon or name != name.strip():
            raise _FramingError(f"malformed header line: {line[:80]!r}")
        name, value = name.lower(), value.strip()
        # Differing lengths frame the body two ways (RFC 9112 §6.3).
        if fields.setdefault(name, value) != value and name == "content-length":
            raise _FramingError(f"differing Content-Length: {fields[name]!r}, {value!r}")
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


# A size's digits, and the most of them after leading zeros: 10**18 - 1
# and 16**15 - 1 both stay below the 2**63 bytes a read can be asked for.
_SIZE_FORMS = {10: ("0123456789", 18), 16: ("0123456789abcdefABCDEF", 15)}


def _size(text: str, base: int, what: str) -> int:
    """A Content-Length is ``1*DIGIT`` (RFC 9110) and a chunk size
    ``1*HEXDIG`` (RFC 9112); ``int`` alone would also take a sign, ``_``
    and a ``0x`` prefix."""
    digits, most = _SIZE_FORMS[base]
    if text and not text.strip(digits) and len(text.lstrip("0")) <= most:
        return int(text, base)
    raise _FramingError(f"bad {what}: {text!r}")


def _read_exactly(rfile, size: int) -> bytes:
    data = bytearray()  # 1 MiB at a time: a read allocates what it asks for
    while len(data) < size and (piece := rfile.read(min(size - len(data), 1 << 20))):
        data += piece
    if len(data) < size:
        raise _FramingError(f"response body ended after {len(data)} of {size} bytes")
    return bytes(data)


def _read_chunked(rfile) -> bytes:
    chunks = []
    while size := _size(
        _read_line(rfile).split(b";", 1)[0].strip().decode("latin-1"), 16, "chunk size"
    ):
        chunks.append(_read_exactly(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise _FramingError("chunk data runs past its size")
    _read_fields(rfile)  # the trailer, which nothing reads
    return b"".join(chunks)


def _read_response(rfile) -> tuple[HTTPResponse, bool]:
    """One response, and whether its connection may carry another request.

    The body is chunked (which wins over ``Content-Length``), as long as
    ``Content-Length`` says, or whatever comes until the server closes.
    Where ``http.client`` reads otherwise, this follows the RFCs: every 1xx
    is interim and skipped, not only 100 (RFC 9110 §15.2); a 204 or 304 has
    no body, even a chunked one (RFC 9112 §6.3); an HTTP/1.0 connection
    stays open only for a ``keep-alive`` Connection token, not for a
    ``Keep-Alive`` or ``Proxy-Connection`` field (RFC 9112 §9.3); and
    Content-Length fields that differ are refused, not read by the first.
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
    return HTTPResponse(status, headers, body), keep_alive


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


class HTTPSession:
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
        self._https = parts.scheme == "https"
        try:
            port = (443 if self._https else 80) if parts.port is None else parts.port
        except ValueError:  # not a number, or above 65535
            port = 0  # refused below, like a port of 0
        # A request target must be printable ASCII without spaces; only the
        # host may be an internationalized name.
        if (parts.scheme not in ("http", "https") or not parts.hostname
                or not port or not url.isprintable() or " " in url
                or not url[len(origin):].isascii()):
            raise ValueError(f"not an http(s) URL: {url!r}")
        self._origin = (parts.hostname, port)
        # A host IDNA cannot encode is a ValueError.
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

    def post(self, url: str, **kwargs) -> HTTPResponse:
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
