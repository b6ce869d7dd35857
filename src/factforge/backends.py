"""Model inference backends: chat completion, text embedding, and NLI scoring.

Every call is identified by a fingerprint (a hash of its kind and wire
body), which keys scripted mock replay and is attached to backend
errors. HTTP transports speak the common chat-completions / embeddings
wire shapes over stdlib `urllib.request`, one connection per call, and
retry transient failures with exponential backoff (stretched by a 429/503
reply's Retry-After).
Deterministic mocks make the whole pipeline runnable offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import struct
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import AuthFailure, BackendError, BackendTimeout, MalformedResponse, RateLimited
from .jsonlio import read_records
from .textnorm import normalize_ws, tokenize
from .verification import NliDistribution

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

MAX_RETRIES = 3

KIND_CHAT = "chat"
KIND_EMBEDDING = "embedding"
KIND_NLI = "nli"


@dataclass(frozen=True)
class BackendProfile:
    """Connection and behavior settings for one backend.

    `auth_env` names an environment variable holding the API key; keys are
    never stored in config. Mock transports read their settings from
    `options`.
    """

    name: str
    kind: str
    transport: str = "http"  # "http" or "mock"
    endpoint: str = ""
    model: str = ""
    auth_env: str | None = None
    timeout: float = 30.0
    max_in_flight: int = 4
    max_batch: int = 32  # inputs per /embeddings request; TEI's default client batch cap
    temperature: float = 0.0
    retry_backoff: float = 0.5
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CHAT, KIND_EMBEDDING, KIND_NLI):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.transport not in ("http", "mock"):
            raise ValueError(f"unknown transport {self.transport!r}")
        # Exact type checks: a bool is neither a count nor a number of seconds.
        for key in ("max_in_flight", "max_batch"):
            value = getattr(self, key)
            if type(value) is not int or value < 1:
                raise ValueError(f"profile {self.name!r}: {key!r} must be an int >= 1, "
                                 f"got {value!r}")
        if type(self.timeout) not in (int, float) or not 0 < self.timeout < math.inf:
            raise ValueError(f"profile {self.name!r}: 'timeout' must be a finite number of "
                             f"seconds above 0, got {self.timeout!r}")
        for key in ("retry_backoff", "temperature"):
            value = getattr(self, key)
            if type(value) not in (int, float) or not 0 <= value < math.inf:
                raise ValueError(f"profile {self.name!r}: {key!r} must be a finite number "
                                 f">= 0, got {value!r}")

    @classmethod
    def from_dict(cls, name: str, row: Mapping[str, Any]) -> "BackendProfile":
        unknown = set(row) - {f.name for f in fields(cls) if f.name != "name"}
        if unknown:
            raise ValueError(f"profile {name!r} has unknown keys {sorted(unknown)}")
        profile = cls(name=name, **dict(row))
        # A mock reads no transport field (a chat mock's fingerprints read
        # model and temperature).
        idle = {"endpoint", "auth_env", "timeout", "max_in_flight", "max_batch",
                "retry_backoff"} & set(row)
        if profile.transport == "mock" and idle:
            raise ValueError(f"profile {name!r}: the mock transport does not read "
                             f"{sorted(idle)}")
        return profile


def request_fingerprint(payload: Mapping[str, Any]) -> str:
    """Stable 16-hex-digit hash of a canonicalized request payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _chat_body(profile: BackendProfile, messages: Sequence[Mapping[str, str]]) -> dict:
    return {
        "model": profile.model,
        "messages": list(messages),
        "temperature": profile.temperature,
    }


def chat_fingerprint(profile: BackendProfile, messages: Sequence[Mapping[str, str]]) -> str:
    """The fingerprint a chat call to `profile` carries, over HTTP or from a mock."""
    return request_fingerprint({"kind": KIND_CHAT, **_chat_body(profile, messages)})


# --- bounded fan-out ---------------------------------------------------------

T = TypeVar("T")
R = TypeVar("R")


def fan_width(backend) -> int:
    """How many calls to `backend` may run at once: its `max_in_flight`
    (HTTP backends), else 1, so mocks and other objects run serially."""
    return getattr(backend, "max_in_flight", 1)


def fan_out(fn: Callable[[T], R], items: Iterable[T], width: int) -> list[R]:
    """`[fn(item) for item in items]` with at most `width` calls running at once.

    Results keep item order. Once fan_out has caught a failing call's error
    (when the call returns, in the thread that made it) or an interrupt of
    the calling thread, no further item starts; the items already started
    finish, then the error of the earliest failing item is raised. Width 1
    runs serially on the calling thread.
    """
    items = list(items)
    if width <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    failed = threading.Event()

    def run(item):
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    # The pool starts items in index order, so a skipped item comes after the
    # failure that skipped it, and the first result to raise is the earliest.
    # One wait for them all wakes the calling thread once, not per item.
    with ThreadPoolExecutor(max_workers=min(width, len(items))) as pool:
        try:
            futures = [pool.submit(run, item) for item in items]
            wait(futures, return_when=FIRST_EXCEPTION)
            return [future.result() for future in futures]
        except BaseException:
            failed.set()  # the queued items then start nothing
            raise


# --- HTTP transport --------------------------------------------------------


class _HttpBase:
    """Shared HTTP client: at most `max_in_flight` requests run at once.

    Each subclass names its backend `kind` and URL `path`, builds the wire
    body and decodes the reply in `_decode(reply, body)`.
    """

    def __init__(self, profile: BackendProfile):
        import urllib.request  # costs ~35 ms; only HTTP profiles need it

        self.profile = profile
        self.max_in_flight = profile.max_in_flight
        self._gate = threading.BoundedSemaphore(profile.max_in_flight)
        self._url = profile.endpoint.rstrip("/") + self.path
        # Only proxy, HTTP and HTTPS handlers: no redirect is followed and no
        # status becomes an HTTPError, so every reply comes back to `_post`.
        # ProxyHandler reads HTTP(S)_PROXY from the environment once, here;
        # urllib checks NO_PROXY per call, and only when a proxy is set.
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                        urllib.request.HTTPSHandler()):
            self._opener.add_handler(handler)

    def _headers(self, fingerprint: str) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.profile.auth_env:
            key = os.environ.get(self.profile.auth_env)
            if not key:
                raise AuthFailure(
                    f"environment variable {self.profile.auth_env!r} is not set", fingerprint
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _call(self, body: dict[str, Any]):
        """Send one request and decode its reply. The fingerprint is the hash
        of kind + wire body; every failure is a BackendError carrying it."""
        fp = request_fingerprint({"kind": self.kind, **body})
        with self._gate:
            reply = self._post(body, fp)
        try:
            return self._decode(reply, body)
        except BackendError as exc:
            exc.fingerprint = fp
            raise
        except (LookupError, TypeError, AttributeError, ValueError) as exc:
            raise MalformedResponse(
                f"{self.path}: unexpected reply shape: {type(exc).__name__}: {exc}", fp
            ) from exc

    def _post(self, payload: Mapping[str, Any], fingerprint: str) -> Any:
        """POST with up to MAX_RETRIES retries on transient failures.

        Each attempt opens a fresh connection (urllib sends `Connection:
        close`). Keep-alive is left out on purpose: against a server that
        writes headers and body separately without TCP_NODELAY, a reused
        connection stalls on delayed ACK (about 50 ms vs 8 ms per call on
        loopback with 5 ms of server latency).
        """
        import http.client
        import urllib.request

        url = self._url
        headers = self._headers(fingerprint)
        last: BackendError | None = None
        asked = 0.0  # delay the last 429/503 reply asked for, in seconds
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                backoff = self.profile.retry_backoff * 2 ** (attempt - 1)
                time.sleep(max(backoff, min(asked, self.profile.timeout)))
                log.warning(
                    "retrying %s (attempt %d/%d, fingerprint %s)",
                    url, attempt + 1, MAX_RETRIES + 1, fingerprint,
                )
            asked = 0.0
            try:
                data = json.dumps(payload, allow_nan=False).encode()
                request = urllib.request.Request(url, data, headers)
                with self._opener.open(request, timeout=self.profile.timeout) as resp:
                    status, raw = resp.status, resp.read()
                    if status in (429, 503):
                        asked = _retry_after(resp.headers.get("Retry-After"))
            except OSError as exc:  # URLError, timeouts, refused or reset connections
                last = BackendTimeout(f"{url}: {exc}", fingerprint)
                continue
            except (http.client.HTTPException, ValueError) as exc:
                raise BackendError(f"{url}: {exc}", fingerprint) from exc
            if status in (401, 403):
                raise AuthFailure(f"{url}: HTTP {status}", fingerprint)
            if status == 429:
                last = RateLimited(f"{url}: HTTP 429", fingerprint)
                continue
            if status >= 500:
                last = BackendTimeout(f"{url}: HTTP {status}", fingerprint)
                continue
            if status != 200:
                raise MalformedResponse(f"{url}: HTTP {status}", fingerprint)
            try:
                return json.loads(raw)
            except ValueError as exc:
                raise MalformedResponse(f"{url}: invalid JSON body: {exc}", fingerprint)
        assert last is not None
        raise last


def _retry_after(value: str | None) -> float:
    """Seconds a Retry-After header asks for (RFC 9110 §10.2.3). Only the
    delay-seconds form counts; an HTTP-date or a malformed value gives 0."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class HttpChatBackend(_HttpBase):
    kind, path = KIND_CHAT, "/chat/completions"

    def complete(self, messages: Sequence[Mapping[str, str]]) -> str:
        return self._call(_chat_body(self.profile, messages))

    @staticmethod
    def _decode(reply: Any, body: Mapping[str, Any]) -> str:
        content = reply["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise MalformedResponse("chat content is not a string")
        return content


class HttpEmbeddingBackend(_HttpBase):
    kind, path = KIND_EMBEDDING, "/embeddings"

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text, in order. Each run of at most `max_batch`
        texts is its own request, with its own fingerprint and retries;
        the requests fan out at `max_in_flight`. No texts, no request."""
        texts, model, step = list(texts), self.profile.model, self.profile.max_batch
        chunks = [texts[i:i + step] for i in range(0, len(texts), step)]
        replies = fan_out(lambda chunk: self._call({"model": model, "input": chunk}),
                          chunks, self.max_in_flight)
        return [vec for vecs in replies for vec in vecs]

    @staticmethod
    def _decode(reply: Any, body: Mapping[str, Any]) -> list[np.ndarray]:
        import numpy as np  # imported here so subcommands that never embed skip it

        rows = reply["data"]
        # A row without an index stands at its row position.
        indexes = [row.get("index", i) for i, row in enumerate(rows)]
        if sorted(indexes) != list(range(len(body["input"]))):
            raise MalformedResponse(
                f"asked for {len(body['input'])} embeddings, got indexes {indexes}"
            )
        vecs = [np.asarray(row["embedding"], dtype=np.float64)
                for _, row in sorted(zip(indexes, rows), key=lambda pair: pair[0])]
        # json.loads reads NaN, Infinity and overflowing literals as non-finite floats.
        if any(v.ndim != 1 or not np.isfinite(v).all() for v in vecs):
            raise MalformedResponse("an embedding is not a flat list of finite numbers")
        return vecs


class HttpNliBackend(_HttpBase):
    kind, path = KIND_NLI, "/nli"

    def classify(self, premise: str, hypothesis: str) -> NliDistribution:
        return self._call(
            {"model": self.profile.model, "premise": premise, "hypothesis": hypothesis}
        )

    @staticmethod
    def _decode(reply: Any, body: Mapping[str, Any]) -> NliDistribution:
        return NliDistribution(
            *(float(reply[label]) for label in ("entailment", "neutral", "contradiction"))
        )


# --- mocks -------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptEntry:
    """One row of a chat script file."""

    fingerprint: str
    response: str


class ScriptedChatBackend:
    """Replays responses keyed by request fingerprint, in order, exhaustibly.

    The script is a list of (fingerprint, response) entries; entries that
    share a fingerprint are consumed first-to-last. Asking for a
    fingerprint with no remaining entry raises BackendError.
    """

    def __init__(self, profile: BackendProfile, entries: Iterable[tuple[str, str]]):
        self.profile = profile
        self._queues: dict[str, list[str]] = {}
        for fp, response in entries:
            self._queues.setdefault(fp, []).append(response)
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, profile: BackendProfile, path: str | Path) -> "ScriptedChatBackend":
        entries = read_records(path, ScriptEntry)
        return cls(profile, ((e.fingerprint, e.response) for e in entries))

    def complete(self, messages: Sequence[Mapping[str, str]]) -> str:
        fp = chat_fingerprint(self.profile, messages)
        with self._lock:
            queue = self._queues.get(fp)
            if not queue:
                raise BackendError(f"no scripted response left for {fp}", fp)
            return queue.pop(0)


class VerdictRuleChatBackend:
    """Answers "Not Factual" when any configured marker substring occurs in
    the last user message, else "Factual". Useful as a deterministic
    stand-in for an LLM judge."""

    def __init__(self, profile: BackendProfile, markers: Sequence[str]):
        self.profile = profile
        self._markers = [m.lower() for m in markers]

    def complete(self, messages: Sequence[Mapping[str, str]]) -> str:
        users = [m["content"] for m in messages if m.get("role") == "user"]
        haystack = users[-1].lower() if users else ""
        if any(marker in haystack for marker in self._markers):
            return "Not Factual"
        return "Factual"


_DIGEST_HEAD = struct.Struct(">IB")


class HashedBowEmbedder:
    """Deterministic bag-of-words embedder (the hashing trick).

    A token's bucket is the first four bytes of its sha256 digest, read as a
    big-endian word, modulo the dimension; the low bit of the fifth byte sets
    its sign (1 for +1). Each distinct token of a batch is hashed once. Each
    text's signed token counts are summed per bucket and the vector is
    L2-normalized, so identical texts embed identically, as float64 vectors
    of shape (dimension,).
    """

    def __init__(self, profile: BackendProfile, dimension: int = 64):
        self.profile = profile
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        import numpy as np  # imported here so subcommands that never embed skip it

        # Bound once: the loop below runs per token occurrence.
        dimension, sha256, unpack = self.dimension, hashlib.sha256, _DIGEST_HEAD.unpack_from
        slots: dict[str, int] = {}  # token -> its bucket if its sign is +1, else ~bucket
        get = slots.get
        vecs = []
        for text in texts:
            buckets, signs = [], []
            for token in tokenize(text):
                slot = get(token)
                if slot is None:
                    word, byte = unpack(sha256(token.encode()).digest())
                    slot = slots[token] = word % dimension if byte & 1 else ~(word % dimension)
                if slot >= 0:
                    buckets.append(slot)
                    signs.append(1.0)
                else:
                    buckets.append(~slot)
                    signs.append(-1.0)
            # Entries are sums of +-1, so they and their squared norm are exact
            # in any order. bincount gives int64 when nothing is counted.
            vec = np.bincount(buckets, signs, dimension).astype(np.float64, copy=False)
            norm = math.sqrt(vec.dot(vec))  # what np.linalg.norm computes, minus its checks
            if norm > 0:
                vec /= norm
            vecs.append(vec)
        return vecs


class RuleNliBackend:
    """Rule-based NLI scorer for offline runs.

    If the hypothesis occurs as a substring of the premise (both
    whitespace-normalized, case-insensitive), the pair is entailment-
    dominant. Otherwise, if a configured contradiction pair matches (one
    term in the premise, the other in the hypothesis, either direction),
    the pair is contradiction-dominant. Everything else is neutral.
    """

    ENT = NliDistribution(0.9, 0.05, 0.05)
    NEUT = NliDistribution(0.05, 0.9, 0.05)
    CONTR = NliDistribution(0.05, 0.05, 0.9)

    def __init__(self, profile: BackendProfile, contradictions: Iterable[Sequence[str]] = ()):
        self.profile = profile
        self._pairs = [(a.lower(), b.lower()) for a, b in contradictions]

    def classify(self, premise: str, hypothesis: str) -> NliDistribution:
        prem = normalize_ws(premise).lower()
        hyp = normalize_ws(hypothesis).lower()
        if hyp and hyp in prem:
            return self.ENT
        for a, b in self._pairs:
            if (a in prem and b in hyp) or (b in prem and a in hyp):
                return self.CONTR
        return self.NEUT


# --- factory -----------------------------------------------------------------


def _strings(value) -> bool:  # a blank one would match every text
    return isinstance(value, list) and all(isinstance(v, str) and v.strip() for v in value)


def _pairs(value) -> bool:
    return isinstance(value, list) and all(_strings(pair) and len(pair) == 2 for pair in value)


# Each mock, by kind and "mock" option: what builds it from the profile and
# its one option, and that option as (key, check, what the check wants,
# default). Embedding and NLI profiles have one mock each, which an empty or
# absent "mock" also names.
_MOCKS = {
    (KIND_CHAT, "script"): (ScriptedChatBackend.from_file, "script",
                            lambda v: isinstance(v, str), "a path string", None),
    (KIND_CHAT, "verdict_rule"): (VerdictRuleChatBackend, "markers", _strings,
                                  "a list of non-blank strings", []),
    (KIND_EMBEDDING, "hashed_bow"): (HashedBowEmbedder, "dimension",
                                     lambda v: type(v) is int and v >= 1, "an int >= 1", 64),
    (KIND_NLI, "rules"): (RuleNliBackend, "contradictions", _pairs,
                          "a list of pairs of non-blank strings", []),
}
_HTTP = {KIND_CHAT: HttpChatBackend, KIND_EMBEDDING: HttpEmbeddingBackend, KIND_NLI: HttpNliBackend}


def check_profile(profile: BackendProfile) -> tuple[Callable, Any]:
    """Check what building `profile` would read, without building it: an
    http profile's endpoint scheme and empty options, a mock profile's mock
    name and its one option's key and type. Returns what builds the backend
    and that option's value (None for http); a wrong profile is a
    ValueError naming it."""
    if profile.transport == "http":
        if not profile.endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"profile {profile.name!r} needs an http:// or https:// endpoint")
        if profile.options:
            raise ValueError(f"profile {profile.name!r}: the http transport does not read "
                             f"options {sorted(profile.options)}")
        return _HTTP[profile.kind], None
    opts = dict(profile.options)
    mock = opts.pop("mock", "")
    named = [name for kind, name in _MOCKS if kind == profile.kind]
    if mock == "" and len(named) == 1:
        mock = named[0]
    found = _MOCKS.get((profile.kind, mock)) if isinstance(mock, str) else None
    if found is None:
        raise ValueError(f"profile {profile.name!r}: unknown {profile.kind} mock {mock!r}")
    make, key, valid, what, default = found
    if set(opts) - {key}:
        raise ValueError(f"profile {profile.name!r}: {mock} mock does not "
                         f"read options {sorted(set(opts) - {key})}")
    if default is None and key not in opts:
        raise ValueError(f"profile {profile.name!r}: the {mock} mock needs {key!r}")
    value = opts.get(key, default)
    if not valid(value):
        raise ValueError(f"profile {profile.name!r}: mock option {key!r} must be {what}, "
                         f"got {value!r}")
    return make, value


def build_backend(profile: BackendProfile, base_dir: str | Path | None = None):
    """Construct the backend object a profile describes, once `check_profile`
    passes it.

    `base_dir` anchors a relative path in a mock option (a script file).
    """
    make, option = check_profile(profile)
    if profile.transport == "http":
        return make(profile)
    if isinstance(option, str) and base_dir is not None:
        option = Path(base_dir, option)
    return make(profile, option)
