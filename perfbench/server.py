"""Loopback latency server for the factforge benchmark.

Speaks the three wire contracts of factforge's HTTP backends
(``/chat/completions``, ``/embeddings``, ``/nli``) and answers them
deterministically, after sleeping a fixed injected latency:

* chat: a four-step generation prompt gets a scripted answer built from the
  passage's sentences (the first claim is altered with the marker word); a
  claim-extraction prompt gets the text's sentences; anything else is a
  judge prompt and gets "Not Factual" when the last user message holds the
  marker, else "Factual".
* embeddings: a hashed bag-of-words embedding, the same vectors as
  factforge's ``hashed_bow`` mock gives.
* nli: the substring/marker rule of factforge's ``rules`` mock, with the
  marker as contradiction term.

The server imports nothing from factforge: these rules live in
``models.py``, so its answers and its cost per call stay fixed while the
package changes.

Seeded faults: the first generation answer for a seeded share of passages is
malformed JSON (forcing a synthesis retry), and the first attempt of a
seeded share of requests gets HTTP 503 (forcing a transport retry).

Control routes, not counted: ``GET /_stats`` returns the counters since the
last reset; ``POST /_reset`` clears counters and per-request fault state.

``workloads.LatencyServer`` runs `serve` in a forked process of its own,
which starts in milliseconds, where a fresh interpreter would take a tenth
of a second that drifts with the machine's load.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from fixtures import MARKER, alter, malformed_first, unit_hash
from models import embed, nli, split_sentences

ROUTES = {"/chat/completions": "chat", "/embeddings": "embed", "/nli": "nli"}
GENERATION_TAG = "Step 4 - Unfactual text generation"
EXTRACTION_TAG = "Instructions: Execute the following step:"


def _input_text(prompt: str) -> str:
    """The text between 'Input: ' and the instructions of a factforge prompt."""
    body = prompt[len("Input: "):] if prompt.startswith("Input: ") else prompt
    return body.split("\n\nInstructions:", 1)[0]


def generation_answer(passage_text: str) -> str:
    claims = split_sentences(passage_text)
    original = claims[0]
    changed = alter(original)
    return json.dumps({
        "step_1": claims,
        "step_2": [changed, original],
        "step_3": " ".join(claims),
        "step_4": " ".join([changed] + claims[1:]),
    })


class Counters:
    """Per-route call counters plus fault state; guarded by one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.started = time.perf_counter()
        self.routes = {
            kind: {"calls": 0, "retries": 0, "faults": 0, "bytes_in": 0, "bytes_out": 0}
            for kind in ROUTES.values()
        }
        self.seen: dict[str, int] = {}
        self.faulted: set[str] = set()
        self.generation_attempts: dict[str, int] = {}
        self.in_flight = 0
        self.peak_in_flight = 0
        self.busy_s = 0.0
        self._busy_since = 0.0

    def enter(self) -> None:
        with self.lock:
            if self.in_flight == 0:
                self._busy_since = time.perf_counter()
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def leave(self) -> None:
        with self.lock:
            self.in_flight -= 1
            if self.in_flight == 0:
                self.busy_s += time.perf_counter() - self._busy_since

    def snapshot(self) -> dict:
        with self.lock:
            busy = self.busy_s
            if self.in_flight:
                busy += time.perf_counter() - self._busy_since
            calls = sum(r["calls"] for r in self.routes.values())
            return {
                "routes": {k: dict(v) for k, v in self.routes.items()},
                "calls": calls,
                "retries": sum(r["retries"] for r in self.routes.values()),
                "distinct": len(self.seen),
                "peak_in_flight": self.peak_in_flight,
                "busy_s": busy,
                "wall_s": time.perf_counter() - self.started,
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "LatencyServer"

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/_stats":
            self._reply(200, json.dumps(self.server.counters.snapshot()).encode())
        else:
            self._reply(404, b"{}")

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/_reset":
            with self.server.counters.lock:
                self.server.counters.reset()
            self._reply(200, b"{}")
            return
        kind = ROUTES.get(self.path)
        if kind is None:
            self._reply(404, b"{}")
            return
        counters = self.server.counters
        counters.enter()
        try:
            status, body = self.server.answer(kind, raw)
            time.sleep(self.server.latency_s)
            self._reply(status, body)
        finally:
            counters.leave()


class LatencyServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int, latency_ms: float, malformed_share: float,
                 fault_share: float, dimension: int):
        super().__init__(("127.0.0.1", 0), Handler)
        self.seed = seed
        self.latency_s = latency_ms / 1000.0
        self.malformed_share = malformed_share
        self.fault_share = fault_share
        self.counters = Counters()
        self.dimension = dimension

    def answer(self, kind: str, raw: bytes) -> tuple[int, bytes]:
        """Status and body for one model request; updates the counters."""
        req = json.loads(raw)
        fp = hashlib.sha256(
            kind.encode() + b"\0" + json.dumps(req, sort_keys=True).encode()
        ).hexdigest()
        counters = self.counters
        with counters.lock:
            route = counters.routes[kind]
            route["calls"] += 1
            route["bytes_in"] += len(raw)
            occurrence = counters.seen.get(fp, 0)
            counters.seen[fp] = occurrence + 1
            if fp in counters.faulted:
                route["retries"] += 1
                counters.faulted.discard(fp)
            if occurrence == 0 and unit_hash(self.seed, "503", fp) < self.fault_share:
                counters.faulted.add(fp)
                route["faults"] += 1
                return 503, b'{"error": "injected transient fault"}'
        if kind == "chat":
            content = self._chat(req["messages"])
            body = {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}
        elif kind == "embed":
            body = {"data": [{"index": i, "embedding": embed(text, self.dimension)}
                             for i, text in enumerate(req["input"])]}
        else:
            body = nli(req["premise"], req["hypothesis"])
        out = json.dumps(body).encode()
        with counters.lock:
            counters.routes[kind]["bytes_out"] += len(out)
        return 200, out

    def _chat(self, messages: list[dict]) -> str:
        users = [m["content"] for m in messages if m.get("role") == "user"]
        last = users[-1] if users else ""
        if GENERATION_TAG in last:
            passage = _input_text(last)
            counters = self.counters
            with counters.lock:
                attempt = counters.generation_attempts.get(passage, 0)
                counters.generation_attempts[passage] = attempt + 1
                if attempt == 1 and malformed_first(self.seed, passage, self.malformed_share):
                    counters.routes["chat"]["retries"] += 1
            answer = generation_answer(passage)
            if attempt == 0 and malformed_first(self.seed, passage, self.malformed_share):
                return answer[: len(answer) // 2]
            return answer
        if EXTRACTION_TAG in last:
            return json.dumps({"step_1": split_sentences(_input_text(last))})
        return "Not Factual" if MARKER in last.lower() else "Factual"


def _exit_with_parent(parent: int) -> None:
    """End this process once the benchmark that started it is gone, even if
    it was killed before it could stop the server."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def serve(conn, *args) -> None:
    """Process target: start a LatencyServer(*args) on a free loopback port,
    send the port over conn, and serve until stopped."""
    server = LatencyServer(*args)
    conn.send(server.server_address[1])
    conn.close()
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
