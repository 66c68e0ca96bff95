"""Fake OpenAI chat-completions endpoint for the benchmark.

Run as its own process::

    python3 perfbench/endpoint.py --seed 7 --set q:240 --max-conns 2

It regenerates the question sets from the seed, builds every prompt the
pipeline will send with the program's own public builders, and answers
each one from a dictionary keyed by the exact prompt. An unknown prompt
gets HTTP 400, which fails its question. Each prompt's service time is
drawn from the seed and the prompt: log-normal around a 10 ms median with
a tail, so a repeated prompt always waits as long as its first send.

The server speaks just enough HTTP/1.1 for a keep-alive client. Sockets
have ``TCP_NODELAY`` set and every response goes out in one write, so no
delayed-ACK stall is added to a round trip. At most ``--max-conns``
connections are served at once; further clients wait in the listen queue.

Two control paths serve the benchmark itself: ``GET /_bench/log`` returns
the requests received since the previous call and clears the log, and
``POST /_bench/config`` sets ``latency_scale``. The first stdout line is
``PORT <n>`` once the socket listens; the process exits when its stdin
closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import socket
import sys
import threading
import time
from statistics import NormalDist

import workload

LATENCY_MEDIAN_S = 0.010
LATENCY_SIGMA = 0.5
LATENCY_CAP_S = 0.100
_MAX_HEADER_BYTES = 65536


def draw_latency(seed: int, prompt: str) -> float:
    """Deterministic service time in seconds for one prompt."""
    digest = hashlib.sha256(f"{seed}\0{prompt}".encode("utf-8")).digest()
    u = (int.from_bytes(digest[:8], "big") + 0.5) / 2.0**64
    z = NormalDist().inv_cdf(u)
    return min(LATENCY_CAP_S, LATENCY_MEDIAN_S * math.exp(LATENCY_SIGMA * z))


def build_table(seed: int, questions) -> dict:
    """prompt -> (question id, reply text, service time, prompt key)."""
    from abcd_eval.answers import build_answer_prompt
    from abcd_eval.decompose import (
        build_decomposition_prompt,
        default_pack_path,
        load_prompt_pack,
    )
    from abcd_eval.model import Dataset, Question, Tag
    from abcd_eval.verify import VERIFY_PROMPT_PREFIX

    pack = load_prompt_pack(default_pack_path())
    table: dict[str, tuple] = {}

    def add(prompt: str, qid: str, reply: str) -> None:
        if prompt in table:
            if table[prompt][1] != reply or table[prompt][0] != qid:
                raise ValueError(f"prompt shared by two replies: {prompt[:80]!r}")
            return
        table[prompt] = (qid, reply, draw_latency(seed, prompt), prompt_key(prompt))

    counter = 0
    for q in questions:
        question = Question(id=q.qid, text=q.text, gold_answer=q.gold,
                            dataset=Dataset.CUSTOM)
        add(build_decomposition_prompt(question, pack), q.qid,
            workload.decomposition_reply(q))
        tags = [Tag(name) for name in workload.answer_tags(q)]
        add(build_answer_prompt(question, tags), q.qid, workload.answer_reply(q))
        for text, symbol in q.verify_texts():
            prompt = VERIFY_PROMPT_PREFIX + text
            if prompt not in table:
                add(prompt, q.qid, workload.verdict_reply(symbol, text, counter))
                counter += 1
    return table


def prompt_key(prompt: str) -> str:
    """Short digest naming a prompt in the request log and in traces."""
    return hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:16]


def completion_body(model: str, reply: str, prompt: str) -> bytes:
    prompt_tokens = len(prompt.split())
    completion_tokens = len(reply.split())
    return json.dumps({
        "id": "chatcmpl-perfbench",
        "object": "chat.completion",
        "created": 0,
        "model": model,
        "choices": [{
            "index": 0,
            "message": {"role": "assistant", "content": reply},
            "finish_reason": "stop",
        }],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        },
    }).encode("utf-8")


def _http_response(status: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("ascii") + body


class Endpoint:
    """Serves completions from a prompt table and logs every request."""

    def __init__(self, table: dict, max_conns: int):
        self.table = table
        self.latency_scale = 1.0
        self._slots = threading.BoundedSemaphore(max_conns)
        self._lock = threading.Lock()
        # (prompt key, question id, received, sent); an unknown prompt has
        # key and question id None.
        self._log: list[tuple] = []
        self.peak_conns = 0
        self._open_conns = 0

    def serve_forever(self, listener: socket.socket) -> None:
        """Accept until the listening socket is closed."""
        while True:
            self._slots.acquire()
            try:
                conn, _ = listener.accept()
            except OSError:
                self._slots.release()
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._open_conns += 1
                self.peak_conns = max(self.peak_conns, self._open_conns)
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        buffer = b""
        try:
            while True:
                request, buffer = _read_request(conn, buffer)
                if request is None:
                    return
                conn.sendall(self._handle(*request))
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            conn.close()
            with self._lock:
                self._open_conns -= 1
            self._slots.release()

    def _handle(self, path: str, body: bytes) -> bytes:
        received = time.perf_counter()
        if path == "/_bench/log":
            with self._lock:
                log, self._log = self._log, []
                payload = {"log": log, "peak_conns": self.peak_conns}
            return _http_response("200 OK", json.dumps(payload).encode("utf-8"))
        if path == "/_bench/config":
            self.latency_scale = float(json.loads(body)["latency_scale"])
            return _http_response("200 OK", b"{}")
        try:
            request = json.loads(body)
            prompt = request["messages"][-1]["content"]
            model = request["model"]
        except (ValueError, LookupError, TypeError):
            return _http_response("400 Bad Request", b'{"error": "bad request"}')
        entry = self.table.get(prompt)
        if entry is None:
            with self._lock:
                self._log.append((None, None, received, time.perf_counter()))
            return _http_response("400 Bad Request", b'{"error": "unknown prompt"}')
        qid, reply, latency, key = entry
        response = _http_response("200 OK", completion_body(model, reply, prompt))
        delay = latency * self.latency_scale
        if delay > 0:
            time.sleep(max(0.0, received + delay - time.perf_counter()))
        sent = time.perf_counter()
        with self._lock:
            self._log.append((key, qid, received, sent))
        return response


def _read_request(conn: socket.socket, buffer: bytes):
    """One request as (path, body), or None on a clean close."""
    while b"\r\n\r\n" not in buffer:
        chunk = conn.recv(65536)
        if not chunk:
            return None, b""
        buffer += chunk
        if len(buffer) > _MAX_HEADER_BYTES and b"\r\n\r\n" not in buffer:
            raise ValueError("request head too large")
    head, _, rest = buffer.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    _, path, _ = lines[0].split(" ", 2)
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return None, b""
        rest += chunk
    return (path, rest[:length]), rest[length:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", action="append", required=True,
                        help="PREFIX:N, a question set to serve (repeatable)")
    parser.add_argument("--max-conns", type=int, required=True)
    args = parser.parse_args(argv)

    questions = []
    for spec in args.set:
        prefix, _, n = spec.partition(":")
        questions += workload.generate(args.seed, int(n), prefix)
    table = build_table(args.seed, questions)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    server = Endpoint(table, args.max_conns)
    threading.Thread(target=server.serve_forever, args=(listener,), daemon=True).start()
    print(f"PORT {listener.getsockname()[1]}", flush=True)
    # Serve until the benchmark closes our stdin or exits.
    sys.stdin.buffer.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
