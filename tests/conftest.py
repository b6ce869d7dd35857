"""Shared fixtures: the rainforest worked example, synthetic record sets,
mock backend factories, a scriptable local HTTP endpoint, and a SIGINT
sender."""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings

from factforge.backends import (
    BackendProfile,
    HashedBowEmbedder,
    RuleNliBackend,
    ScriptedChatBackend,
    chat_fingerprint,
)
from factforge.corpus import Page, Passage
from factforge.synthgen import (
    ResourceRecord,
    StepOutputs,
    build_unified_prompt,
    generate_record,
    validate_record,
)
from factforge.verification import ClaimTrace, NliLabel

settings.register_profile("suite", max_examples=100, deadline=None)
settings.load_profile("suite")

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8").rstrip("\n")


# --- rainforest worked example ----------------------------------------------------

AMAZON_PASSAGE_TEXT = (
    "The Amazon Rainforest, also known as Amazonia, is a moist broadleaf forest "
    "in the Amazon biome that covers most of the Amazon basin of South America. "
    "This region includes territory belonging to nine nations, with Brazil "
    "containing 60% of the rainforest."
)

AMAZON_CLAIMS = (
    "The Amazon Rainforest is also known as Amazonia.",
    "It is a moist broadleaf forest in the Amazon biome.",
    "The Amazon Rainforest covers most of the Amazon basin of South America.",
    "The region includes territory belonging to nine nations.",
    "Brazil contains 60% of the rainforest.",
)

AMAZON_ORIGINAL = "Brazil contains 60% of the rainforest."
AMAZON_ALTERED = "The majority of the forest is contained within Peru."

AMAZON_FACTUAL = (
    "Amazonia, widely known as the Amazon Rainforest, is a damp broadleaf forest "
    "located within the Amazon biome, covering a significant portion of the Amazon "
    "basin in South America. This vast region spans across nine countries, with "
    "Brazil housing 60% of the rainforest."
)

AMAZON_UNFACTUAL = (
    "Amazonia, widely known as the Amazon Rainforest, is a damp broadleaf forest "
    "located within the Amazon biome, covering a significant portion of the Amazon "
    "basin in South America. This vast region spans across nine countries, and the "
    "majority of the forest is contained within Peru."
)


def amazon_passage() -> Passage:
    return Passage(
        passage_id="amazon:0",
        page_id="amazon",
        start=0,
        sentences=(
            "The Amazon Rainforest, also known as Amazonia, is a moist broadleaf "
            "forest in the Amazon biome that covers most of the Amazon basin of "
            "South America.",
            "This region includes territory belonging to nine nations, with Brazil "
            "containing 60% of the rainforest.",
        ),
    )


def amazon_step_json() -> str:
    return json.dumps({
        "step_1": list(AMAZON_CLAIMS),
        "step_2": [AMAZON_ALTERED, AMAZON_ORIGINAL],
        "step_3": AMAZON_FACTUAL,
        "step_4": AMAZON_UNFACTUAL,
    })


def mock_chat_profile(name: str = "chat-mock") -> BackendProfile:
    return BackendProfile(name=name, kind="chat", transport="mock")


def scripted_chat_for(passage: Passage, responses: list[str]) -> ScriptedChatBackend:
    """A scripted chat mock that answers the unified prompt for `passage`
    with `responses`, in order."""
    profile = mock_chat_profile()
    messages = [{"role": "user", "content": build_unified_prompt(passage)}]
    fp = chat_fingerprint(profile, messages)
    return ScriptedChatBackend(profile, [(fp, r) for r in responses])


@pytest.fixture
def amazon_record() -> ResourceRecord:
    passage = amazon_passage()
    chat = scripted_chat_for(passage, [amazon_step_json()])
    return generate_record(passage, chat, max_retries=0)


# --- synthetic end-to-end fixture ---------------------------------------------------

N_SYNTH = 20
CLAIMS_PER_RECORD = 3


def synth_passage(i: int) -> Passage:
    sentences = tuple(
        f"Entity{i} fact{i}x{j} detail{i}x{j} value{i}x{j}." for j in range(CLAIMS_PER_RECORD)
    )
    return Passage(
        passage_id=f"page{i}:0", page_id=f"page{i}", start=0, sentences=sentences
    )


def synth_record(i: int) -> ResourceRecord:
    """A fully synthetic record whose claims are literal sentences of its passage.

    The falsified claim replaces the marker token value{i}x0 with wrong{i}x0,
    so a rule NLI mock configured with those pairs sees a contradiction.
    """
    passage = synth_passage(i)
    claims = tuple(s for s in passage.sentences)
    original = claims[0]
    altered = original.replace(f"value{i}x0", f"wrong{i}x0")
    factual = " ".join(f"Entity{i} fact{i}x{j} value{i}x{j} restated." for j in range(CLAIMS_PER_RECORD))
    unfactual = factual.replace(f"value{i}x0", f"wrong{i}x0")
    outputs = StepOutputs(
        claims=claims,
        altered=altered,
        original=original,
        factual_text=factual,
        unfactual_text=unfactual,
    )
    report = validate_record(passage, outputs)
    assert not report.hard_failures
    return ResourceRecord(
        record_id=passage.passage_id,
        passage=passage,
        outputs=outputs,
        validation=report,
        retries=0,
    )


def synth_records(n: int = N_SYNTH) -> list[ResourceRecord]:
    return [synth_record(i) for i in range(n)]


def synth_contradiction_pairs(n: int = N_SYNTH) -> list[list[str]]:
    """Contradiction lexicon calibrated to the synthetic records."""
    return [[f"value{i}x0", f"wrong{i}x0"] for i in range(n)]


def synth_nli(n: int = N_SYNTH) -> RuleNliBackend:
    profile = BackendProfile(name="nli-mock", kind="nli", transport="mock")
    return RuleNliBackend(profile, synth_contradiction_pairs(n))


def synth_embedder(dimension: int = 256) -> HashedBowEmbedder:
    profile = BackendProfile(name="embed-mock", kind="embedding", transport="mock")
    return HashedBowEmbedder(profile, dimension=dimension)


# --- the serial claim scan, apart from the scheduler ------------------------------


def scan_oracle(claim: str, ranked_ids, label_of) -> ClaimTrace:
    """The serial scan of one claim: the first non-neutral rank decides, and
    an all-neutral (or empty) ranking accepts. `label_of` maps a passage id
    to the NLI label of (its text, claim)."""
    for rank, pid in enumerate(ranked_ids, 1):
        label = label_of(pid)
        if label is not NliLabel.NEUTRAL:
            return ClaimTrace(claim, label is NliLabel.ENTAILMENT, pid, rank)
    return ClaimTrace(claim, True, None, len(ranked_ids))


class RankIndex:
    """Stands in for an index: claim `c` retrieves "c/0", "c/1", ... (one
    passage per entry of its table), and a passage's text is its id."""

    def __init__(self, tables):
        self.tables = tables

    def top_k(self, claim, k):
        n = min(k, len(self.tables[claim]))
        return tuple((f"{claim}/{r}", 1.0 - r / 100) for r in range(n))

    def text_of(self, passage_id):
        return passage_id


class EchoEmbedder:
    def embed(self, texts):
        return list(texts)  # each claim is its own query "vector"


def page_rows(n: int = 8, sentences_per_page: int = 7) -> list[dict]:
    """Raw page records whose sentences split cleanly with the default rules."""
    rows = []
    for i in range(n):
        text = " ".join(
            f"Topic{i} item{i}x{j} attribute{i}x{j} measure{i}x{j}."
            for j in range(sentences_per_page)
        )
        rows.append({"page_id": f"page{i}", "title": f"Topic {i}", "text": text})
    return rows


# --- local HTTP endpoint -------------------------------------------------------------


def embedding_reply(embedder):
    """An `http_server` reply function that answers an /embeddings request
    with `embedder`'s vectors of its inputs."""
    def respond(request):
        vecs = embedder.embed(request["body"]["input"])
        return 200, {"data": [{"index": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]}
    return respond


class _Recorder:
    """Scriptable local HTTP endpoint: pops one (status, body) per request,
    or, when `responses` is callable, asks it for each recorded request. A
    reply may carry a third item, a dict of extra headers to send."""

    def __init__(self, responses):
        self.responses = responses if callable(responses) else list(responses)
        self.requests = []
        self.lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def next_response(self, request):
        if callable(self.responses):
            return self.responses(request)
        with self.lock:
            if len(self.responses) > 1:
                return self.responses.pop(0)
            return self.responses[0]


@pytest.fixture
def http_server():
    """`start(responses)` serves on a loopback port and returns its endpoint
    and recorder. By default each reply is HTTP/1.0 and closes its
    connection, after `delay` seconds. With `keep_alive` it is HTTP/1.1 and
    the connection stays open (headers and body go in two writes, with
    Nagle's algorithm on), unless `drop` closes it after each reply
    without saying so."""
    servers = []

    def start(responses, keep_alive=False, drop=False, delay=0.02):
        recorder = _Recorder(responses)

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def do_POST(self):
                with recorder.lock:
                    recorder.active += 1
                    recorder.max_active = max(recorder.max_active, recorder.active)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    raw = self.rfile.read(length)
                    request = {
                        "method": self.command,
                        "path": self.path,
                        "body": json.loads(raw or b"{}"),
                        "raw": raw,
                        "content_type": self.headers.get("Content-Type"),
                        "auth": self.headers.get("Authorization"),
                        "proxy_auth": self.headers.get("Proxy-Authorization"),
                        "connection": self.headers.get("Connection"),
                        "at": time.monotonic(),
                        "port": self.client_address[1],  # one per client connection
                    }
                    recorder.requests.append(request)
                    time.sleep(delay)
                    status, payload, *extra = recorder.next_response(request)
                finally:
                    # Leave before the reply goes out: once the client has it,
                    # its next request may enter before this thread runs again.
                    with recorder.lock:
                        recorder.active -= 1
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)
                if drop:
                    self.close_connection = True

            do_GET = do_CONNECT = do_POST  # record a followed redirect or a tunnel too

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a reply to a client that timed out finds its connection closed
        server.handle_error = lambda request, client_address: None
        # a short poll lets shutdown() at teardown return at once, not after ~0.5 s
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        servers.append(server)
        endpoint = f"http://127.0.0.1:{server.server_address[1]}"
        return endpoint, recorder

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class Interrupted(BaseException):
    """What the `sigint` fixture's handler raises on the main thread."""


class _Sigint:
    def __init__(self):
        self.handled = threading.Event()

    def send(self) -> None:
        """Deliver a SIGINT to the main thread; callable from any thread."""
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    def _handle(self, signum, frame):
        self.handled.set()
        raise Interrupted


@pytest.fixture
def sigint():
    """A SIGINT sender whose handler sets `handled` and raises `Interrupted`
    on the main thread, as Ctrl-C raises KeyboardInterrupt. The previous
    handler is restored afterwards."""
    if not hasattr(signal, "pthread_kill"):
        pytest.skip("needs signal.pthread_kill")
    sender = _Sigint()
    previous = signal.signal(signal.SIGINT, sender._handle)
    try:
        yield sender
    finally:
        signal.signal(signal.SIGINT, previous)
