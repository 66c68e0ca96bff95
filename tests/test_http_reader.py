"""The transport's HTTP/1.1 reader against ``http.client``, by differential
testing (McKeeman, 1998). Where the two may differ, the transport follows the
RFCs, as ``transport._read_response`` says."""

import io
from http.client import HTTPResponse
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from abcd_eval import transport

MiB, OK = 1 << 20, b"HTTP/1.1 200 OK\r\n"
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
EARLY_HINTS = b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n"
FIELDS = ["Content-Type: text/plain", "Date: Tue, 20 Oct 2026 10:43:28 GMT", "Connection: close",
          "connection: Keep-Alive", "Connection: TE", "Connection: close, TE",
          "Keep-Alive: timeout=5", "Proxy-Connection: keep-alive"]
# Sizes of n bytes that RFC 9110's 1*DIGIT and RFC 9112's 1*HEXDIG refuse, though
# ``int`` takes most; then one digit more than a read may ask for, and a size never sent.
BAD_SIZES = {
    "length": ["+{n}", "-1", "0_{n}", "0x{n:x}", "{n}, {n}", "ten", "9" * 19, str(10**17)],
    "chunked": ["+{n:x}", "-1", "0_{n:x}", "0x{n:x}", "{n:x}, {n:x}", "ten", "f" * 16, "f" * 15],
}


class Draw(NamedTuple):
    message: bytes
    defect: str | None = None  # the framing error's message ("" for any), or None
    frames: tuple[int, ...] = ()  # the sizes the transport reads the body in


@st.composite
def responses(draw) -> Draw:
    kind = draw(st.sampled_from(["framed", "cut", "bad size"]))
    framing, bad = draw(st.sampled_from(["length", "chunked", "close"])), None
    if kind == "bad size":
        framing, bad = draw(st.sampled_from([(f, s) for f in BAD_SIZES for s in BAD_SIZES[f]]))
    status = draw(st.sampled_from([200, 201, 204, 304, 400, 429, 503]))
    fields = draw(st.lists(st.sampled_from(FIELDS), max_size=4))
    n = draw(st.integers(kind == "bad size", 40))
    body = payload = draw(st.binary(min_size=n, max_size=n))
    frames = ()
    if framing == "length":
        frames, size = (n,), bad or draw(st.sampled_from(["{n}", "00{n}"]))
        fields.append(draw(st.sampled_from(["Content-Length: ", "content-length:\t"]))
                      + size.format(n=n))
    elif framing == "chunked":
        bounds = sorted({0, n, *draw(st.sets(st.integers(0, n), max_size=3))})
        frames = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        sizes = [draw(st.sampled_from(["{n:x}", "{n:X}", "00{n:x}"])) for _ in frames]
        if bad:
            sizes[draw(st.integers(0, len(frames) - 1))] = bad
        ext = st.sampled_from([b"", b";name=value", b' ; q="a;b"'])
        payload = b"".join(b"%s%s\r\n%s\r\n" % (size.format(n=b - a).encode(), draw(ext), body[a:b])
                           for size, a, b in zip(sizes, bounds, bounds[1:]))
        payload += b"0%s\r\n%s\r\n" % (draw(ext), draw(st.sampled_from([b"", b"X-Trailer: t\r\n"])))
        fields.append(draw(st.sampled_from(["Transfer-Encoding: chunked",
                                            "transfer-encoding:\tChunked"])))
        if beside := draw(st.none() | st.sampled_from(["{n}", *BAD_SIZES["length"]])):
            fields.append("Content-Length: " + beside.format(n=n))  # chunked framing wins
    if status in (204, 304):  # no body, whatever the fields say
        payload, frames, bad = b"", (), None
    interims = draw(st.lists(st.sampled_from([CONTINUE, EARLY_HINTS]), max_size=2))
    status_line = f"HTTP/1.{draw(st.integers(0, 1))} {status} Reason"
    head = "".join(f"{line}\r\n" for line in [status_line, *draw(st.permutations(fields)), ""])
    message = b"".join(interims) + head.encode() + payload
    if kind == "cut":  # at any byte before the message ends
        end = len(message) - len(payload) * (framing == "close")
        return Draw(message[:draw(st.integers(0, end - 1))], "")
    return Draw(message, "" if bad else None, frames)


class Reader(io.BytesIO):
    def __init__(self, message: bytes):
        super().__init__(message)
        self.sizes = []

    def read(self, size=-1):  # a read allocates what it asks for
        assert size <= MiB, f"a read of {size} bytes"
        self.sizes += [size] * (size >= 0)
        return super().read(size)


def check(draw: Draw) -> None:
    rfile = Reader(draw.message)
    if draw.defect is not None:
        with pytest.raises(transport._FramingError) as error:
            transport._read_response(rfile)
        assert draw.defect in ("", str(error.value))
        return
    response, keep_alive = transport._read_response(rfile)
    assert rfile.tell() == len(draw.message)
    assert rfile.sizes == [min(left, MiB) for size in draw.frames for left in range(size, 0, -MiB)]
    # http.client takes a 103 as final, reads a chunked body on a 204 or 304, and keeps
    # an HTTP/1.0 connection open for a Keep-Alive or Proxy-Connection field.
    sent = io.BytesIO(draw.message.replace(EARLY_HINTS, b""))
    reference = HTTPResponse(SimpleNamespace(makefile=lambda mode: sent))
    reference.begin()
    assert response.status_code == reference.status
    assert response.content == (b"" if reference.status in (204, 304) else reference.read())
    loose = {"keep-alive", "proxy-connection"} & {name.lower() for name in reference.headers}
    assert keep_alive == (not reference.will_close) or (loose and not keep_alive)


@settings(max_examples=400)
@given(responses())
def test_the_reader_agrees_with_http_client_or_refuses_a_defect(draw):
    check(draw)


BAD_FIELD_LINES = {
    "header-without-colon": b"No colon\r\n", "space-before-colon": b"Content-Length : 2\r\n",
    "tab-before-colon": b"Content-Length\t: 2\r\n", "space-before-name": b" Content-Length: 2\r\n",
    "space-before-chunked-colon": b"Transfer-Encoding : chunked\r\n",
}
CHUNKED = OK + b"Transfer-Encoding: chunked\r\n\r\n"
# Each framing error's message, and the limits; ``check`` runs each by name.
PINNED = {name: Draw(*case) for name, case in {
    "closed-before-the-status-line": (b"", "connection closed before the response ended"),
    "malformed-status-line": (b"HTTP/1.1 OK\r\n\r\n",
                              "malformed status line: b'HTTP/1.1 OK\\r\\n'"),
    "over-80-byte-status-line": (b"HTTP/1.1 OK %s\r\n\r\n" % (b"x" * 100),
                                 f"malformed status line: b'HTTP/1.1 OK {'x' * 68}'"),
    **{name: (OK + line + b"\r\n2\r\nab\r\n0\r\n\r\n", f"malformed header line: {line!r}")
       for name, line in BAD_FIELD_LINES.items()},
    "over-80-byte-header-line": (OK + b"No colon %s\r\n\r\n" % (b"y" * 100),
                                 f"malformed header line: b'No colon {'y' * 71}'"),
    "65536-byte-header-line": (
        OK + b"X-Long: %s\r\nContent-Length: 0\r\n\r\n" % (b"a" * (65536 - 10)),),
    "over-long-header-line": (OK + b"X-Long: %s\r\n\r\n" % (b"a" * (65537 - 10)),
                              "response line longer than 64 KiB"),
    "99-header-lines": (OK + b"X-Many: 1\r\n" * 99 + b"\r\n",),
    "101-header-lines": (OK + b"X-Many: 1\r\n" * 101 + b"\r\n", "more than 100 header lines"),
    "differing-content-lengths": (  # the first would leave a forged response to read next
        OK + b"Content-Length: 2\r\nContent-Length: 45\r\n\r\nok"
        + OK + b"Content-Length: 7\r\n\r\nforged!", "differing Content-Length: '2', '45'"),
    "repeated-content-length": (OK + b"Content-Length: 2\r\ncontent-length: 2\r\n\r\nok",
                                None, (2,)),
    "19-digit-content-length": (OK + b"Content-Length: %s\r\n\r\n" % (b"9" * 19),
                                f"bad Content-Length: '{'9' * 19}'"),
    "16-hex-digit-chunk-size": (CHUNKED + b"f" * 16 + b"\r\n", f"bad chunk size: '{'f' * 16}'"),
    "1-mib-and-1-byte-body": (OK + b"Content-Length: %d\r\n\r\n" % (MiB + 1) + bytes(MiB + 1),
                              None, (MiB + 1,)),
    "10**17-content-length-short-body": (OK + b"Content-Length: %d\r\n\r\nab" % 10**17,
                                         f"response body ended after 2 of {10**17} bytes"),
    "chunk-runs-past-its-size": (CHUNKED + b"2\r\nabcd\r\n0\r\n\r\n",
                                 "chunk data runs past its size"),
    "space-after-chunk-data": (CHUNKED + b"1\r\na \r\n0\r\n\r\n", "chunk data runs past its size"),
}.items()}


@pytest.mark.parametrize("name", PINNED)
def test_a_pinned_response(name):
    check(PINNED[name])
