"""Model inference backends: chat completion, text embedding, and NLI scoring.

Every call is identified by a fingerprint (a hash of its kind and wire
body), which keys scripted mock replay and is attached to backend
errors. HTTP transports speak the common chat-completions / embeddings
wire shapes on kept-alive connections pooled per backend: stdlib
`http.client` opens each connection, and this module frames each exchange
(RFC 9112), a request in one write and its reply through the connection's
one reader. They retry transient failures after a random share of an
exponential backoff (never less than a 429/503 reply's Retry-After).
Deterministic mocks make the whole pipeline runnable offline.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import logging
import math
import os
import random
import socket
import struct
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (AuthFailure, BackendError, BackendTimeout, FactforgeError,
                     MalformedResponse, RateLimited)
from .evalharness import FACTUAL_TOKEN, NOT_FACTUAL_TOKEN
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
        # Exact types: a bool is not a count, nor a list a model name.
        for keys, valid, what in (
            (("kind",), lambda v: v in (KIND_CHAT, KIND_EMBEDDING, KIND_NLI),
             "chat, embedding or nli"),
            (("transport",), lambda v: v in ("http", "mock"), "http or mock"),
            (("endpoint", "model"), lambda v: isinstance(v, str), "a string"),
            (("auth_env",), lambda v: v is None or isinstance(v, str), "a string or null"),
            (("options",), lambda v: isinstance(v, Mapping), "an object"),
            (("max_in_flight", "max_batch"), lambda v: type(v) is int and v >= 1, "an int >= 1"),
            (("timeout",), lambda v: type(v) in (int, float) and 0 < v < math.inf,
             "a finite number of seconds above 0"),
            (("retry_backoff", "temperature"),
             lambda v: type(v) in (int, float) and 0 <= v < math.inf, "a finite number >= 0"),
        ):
            for key in keys:
                if not valid(getattr(self, key)):
                    raise ValueError(f"profile {self.name!r}: {key!r} must be {what}, "
                                     f"got {getattr(self, key)!r}")

    @classmethod
    def from_dict(cls, name: str, row: Mapping[str, Any]) -> "BackendProfile":
        if not isinstance(row, Mapping):
            raise ValueError(f"profile {name!r} must be an object, got {row!r}")
        unknown = set(row) - {f.name for f in fields(cls) if f.name != "name"}
        if unknown:
            raise ValueError(f"profile {name!r} has unknown keys {sorted(unknown)}")
        if "kind" not in row:
            raise ValueError(f"profile {name!r} needs 'kind'")
        profile = cls(name=name, **row)
        backend, _, reads, _ = check_profile(profile)
        idle = set(row) - reads - {"kind", "transport", "options"}
        if idle:
            raise ValueError(f"profile {name!r}: the {backend} does not read {sorted(idle)}")
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


def fan_out(fn: Callable[[T], R], items: Iterable[T], width: int) -> Iterator[R]:
    """Yield `fn(item)` for each item, in order, with at most `width` calls
    running and 2 * `width` items submitted at once. Once a call has failed
    (as caught in its own thread), the calling thread is interrupted or the
    generator is closed, no further item starts; the started ones finish,
    then the earliest failing item's error is raised. Width 1 runs serially
    and lazily on the calling thread."""
    if width <= 1:
        yield from map(fn, items)
        return
    failed = threading.Event()

    def run(item):
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    # Once a call has failed, the window drains in order to its first error.
    with ThreadPoolExecutor(max_workers=width) as pool:
        try:
            futures = (pool.submit(run, item) for item in items)
            window = deque(itertools.islice(futures, 2 * width))
            while window:
                result = window.popleft().result()
                if not failed.is_set():
                    window.extend(itertools.islice(futures, 1))
                    yield result
        finally:
            failed.set()  # the queued items then start nothing


# --- HTTP transport --------------------------------------------------------


# Linux acks a reply's first segment at once when asked. Without it, a server
# that writes headers and body in two sends without TCP_NODELAY holds the body
# for the client's delayed ack (~40 ms), so where the platform lacks it no
# connection is kept alive.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

_MAXLINE, _MAXHEADERS = 65536, 100  # http.client's limits on a reply's head


def _read_reply(reader) -> tuple[int, bytes | None, bytes, bool]:
    """Read one reply (RFC 9112) from a connection's `reader`: its status,
    raw Retry-After value and body, and whether the connection may carry
    another request: only after an HTTP/1.1 reply, not marked
    `Connection: close`, whose body did not run until the server closed.
    Interim (1xx) replies are skipped. A fault raises http.client's own
    exception for it, within http.client's limits on lines and headers, or
    int's ValueError for a chunk size that is not hex."""
    import http.client

    def line(what: str) -> bytes:
        text = reader.readline(_MAXLINE + 1)
        if len(text) > _MAXLINE:
            raise http.client.LineTooLong(what)
        return text

    def exactly(n: int) -> bytes:
        data = reader.read(n)
        if len(data) < n:
            raise http.client.IncompleteRead(data, n - len(data))
        return data

    status = 100
    while status < 200:
        start = line("status line")
        if not start:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        parts = start.split(None, 2)
        status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
        if not (100 <= status <= 999 and parts[0].startswith(b"HTTP/")):
            raise http.client.BadStatusLine(start.decode("latin-1"))
        headers: dict[bytes, bytes] = {}  # the first value of each name
        for _ in range(_MAXHEADERS):
            field = line("header line")
            if field in (b"\r\n", b"\n", b""):
                break
            name, _, value = field.partition(b":")
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise http.client.HTTPException(f"got more than {_MAXHEADERS} headers")
    framed, length = True, headers.get(b"content-length", b"")
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []  # chunk extensions and trailer fields are read past
        while (size := int(line("chunk size").partition(b";")[0], 16)) > 0:
            chunks.append(exactly(size + 2)[:-2])
        if size < 0:
            raise http.client.IncompleteRead(b"".join(chunks))
        while line("trailer line") not in (b"\r\n", b"\n", b""):
            pass
        body = b"".join(chunks)
    elif length.isdigit():
        body = exactly(int(length))
    else:
        body, framed = reader.read(), False  # the server closes to end it
    reusable = (framed and parts[0] == b"HTTP/1.1"
                and b"close" not in headers.get(b"connection", b"").lower())
    return status, headers.get(b"retry-after"), body, reusable


class _Connection:
    """An open connection and the one buffered reader its replies are read
    through, for as long as it lives. Closing it closes both: a reader left
    open keeps the socket's descriptor open."""

    __slots__ = ("sock", "reader")

    def __init__(self, conn):
        """Open `conn`, an http.client connection, whose `connect` sets
        TCP_NODELAY, opens a proxy's CONNECT tunnel and starts TLS."""
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        self.sock, self.reader = conn.sock, conn.sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple[int, bytes | None, bytes, bool]:
        """Send `request` in one write and read its reply (see `_read_reply`)."""
        self.sock.sendall(request)
        if _QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return _read_reply(self.reader)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _close_all(connections: list) -> None:
    while connections:
        connections.pop().close()


class _HttpBase:
    """Shared HTTP client: at most `max_in_flight` requests run at once, each
    on a kept-alive connection from the backend's idle list, else a new one.

    http.client only opens connections; each exchange is framed here. A
    request is one write of a head built mostly once per backend plus its
    JSON body, and a reply is read through the connection's one reader
    (`_read_reply`).

    Each subclass names its backend `kind` and URL `path`, builds the wire
    body and decodes the reply in `_decode(reply, body)`.
    """

    def __init__(self, profile: BackendProfile):
        import http.client
        import urllib.request  # costs ~35 ms; only HTTP profiles need it
        from urllib.parse import unquote, urlsplit

        self.profile = profile
        self.max_in_flight = profile.max_in_flight
        self._gate = threading.BoundedSemaphore(profile.max_in_flight)
        self._url = profile.endpoint.rstrip("/") + self.path
        target = urlsplit(self._url)
        https = target.scheme == "https"
        self._new = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._host, self._tunnel, self._proxy_auth = target.netloc, None, b""
        selector = target.path + ("?" + target.query if target.query else "")
        # HTTP(S)_PROXY and NO_PROXY are read once, here. An http proxy is
        # sent the absolute URL; https goes through a CONNECT tunnel.
        proxy = urllib.request.getproxies().get(target.scheme)
        if proxy and not urllib.request.proxy_bypass(target.netloc):
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            self._host, auth = via.netloc.rpartition("@")[2], {}
            if via.username is not None:
                user = f"{unquote(via.username)}:{unquote(via.password or '')}"
                auth = {"Proxy-Authorization": "Basic " + base64.b64encode(user.encode()).decode()}
            if https:  # set_tunnel's host, port and headers
                self._tunnel = (target.netloc, None, auth)
            else:
                selector = self._url
                self._proxy_auth = "".join(f"{k}: {v}\r\n" for k, v in auth.items()).encode()
        # The request line and the headers every request carries, up to
        # Content-Length's value. A URL that no request line can carry (a
        # space, a control or a non-ASCII character) is refused on each call,
        # before any connection, as http.client refused it.
        try:
            if not (selector.isascii() and selector.isprintable() and " " not in selector):
                raise ValueError(f"URL can't contain control characters, spaces or "
                                 f"non-ASCII characters: {selector!r}")
            self._start, self._refusal = (
                b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\nContent-Length: "
                % (selector.encode(), target.netloc.encode("idna"))), None
        except ValueError as exc:  # a host name IDNA cannot encode included
            self._start, self._refusal = b"", str(exc)
        # Idle kept-alive connections; the gate bounds them to max_in_flight.
        self._idle: list[_Connection] = []
        weakref.finalize(self, _close_all, self._idle)

    def _request(self, payload: Mapping[str, Any], fingerprint: str) -> bytes:
        """The bytes of one call's request, its head and JSON body, which
        each attempt sends as they are. An unset API key is an AuthFailure.
        A ValueError refuses the rest: a URL no request line can carry, a
        key holding CR or LF (it would start a header of its own) or a
        character latin-1 lacks, and NaN or an infinity in the body."""
        if self._refusal:
            raise ValueError(self._refusal)
        data = json.dumps(payload, allow_nan=False).encode()
        head = [self._start, b"%d\r\nContent-Type: application/json\r\n" % len(data),
                self._proxy_auth]
        if _QUICKACK is None:
            head.append(b"Connection: close\r\n")
        if self.profile.auth_env:
            key = os.environ.get(self.profile.auth_env)
            if not key:
                raise AuthFailure(
                    f"environment variable {self.profile.auth_env!r} is not set", fingerprint
                )
            if "\r" in key or "\n" in key:
                raise ValueError(f"environment variable {self.profile.auth_env!r} holds a CR or LF")
            head.append(b"Authorization: Bearer %s\r\n" % key.encode("latin-1"))
        head += (b"\r\n", data)
        return b"".join(head)

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
        except (LookupError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise MalformedResponse(
                f"{self.path}: unexpected reply shape: {type(exc).__name__}: {exc}", fp
            ) from exc

    def _connect(self):
        """A new, unopened http.client connection to the endpoint, or to its
        proxy; `_Connection` opens it."""
        conn = self._new(self._host, timeout=self.profile.timeout)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _exchange(self, request: bytes) -> tuple[int, bytes | None, bytes]:
        """Send `request` and read the whole reply: its status, Retry-After
        header and body.

        The request goes on an idle connection, else a new one. After the
        reply the connection is put back if `_read_reply` finds it reusable
        and the platform has TCP_QUICKACK, else closed; any failure closes
        it. A reused connection the server had closed fails before any
        reply byte; the request is then sent again, once, on a new
        connection.
        """
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = _Connection(self._connect()), False
        try:
            try:
                status, retry_after, body, reusable = conn.exchange(request)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected included
                if not reused:
                    raise
                conn.close()
                conn = _Connection(self._connect())
                status, retry_after, body, reusable = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        if reusable and _QUICKACK is not None:
            self._idle.append(conn)
        else:
            conn.close()
        return status, retry_after, body

    def _post(self, payload: Mapping[str, Any], fingerprint: str) -> Any:
        """POST with up to MAX_RETRIES retries on transient failures.

        Each attempt runs through `_exchange`, on a kept-alive connection
        where one is idle. A request re-sent there because the server had
        closed the connection is not a retry. Retry n waits between half and
        all of `retry_backoff` * 2**(n - 1), drawn uniformly, so calls that
        failed together do not retry together, but never less than a 429/503
        reply's Retry-After (capped at the timeout).
        """
        import http.client

        url = self._url
        try:
            request = self._request(payload, fingerprint)
        except ValueError as exc:  # refused before any connection
            raise BackendError(f"{url}: {exc}", fingerprint) from exc
        last: BackendError | None = None
        asked = 0.0  # delay the last 429/503 reply asked for, in seconds
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                base = self.profile.retry_backoff * 2 ** (attempt - 1)
                backoff = (0.5 + random.random() / 2) * base
                time.sleep(max(backoff, min(asked, self.profile.timeout)))
                log.warning(
                    "retrying %s (attempt %d/%d, fingerprint %s)",
                    url, attempt + 1, MAX_RETRIES + 1, fingerprint,
                )
            asked = 0.0
            try:
                status, retry_after, raw = self._exchange(request)
            except OSError as exc:  # timeouts, refused or reset connections
                last = BackendTimeout(f"{url}: {exc}", fingerprint)
                continue
            except (http.client.HTTPException, ValueError) as exc:
                raise BackendError(f"{url}: {exc}", fingerprint) from exc
            if status in (429, 503):
                asked = _retry_after(retry_after)
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


def _retry_after(value: bytes | None) -> float:
    """Seconds a Retry-After header asks for (RFC 9110 §10.2.3). Only the
    delay-seconds form counts; an HTTP-date or a malformed value gives 0."""
    value = (value or b"").strip()
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

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in order, in one (len(texts), d) float64 array.
        Each run of at most `max_batch` texts is a request with its own
        fingerprint and retries, fanned out at `max_in_flight` (a lone one
        from the calling thread). A chunk of another width than the first is
        a MalformedResponse. No texts, no request."""
        import numpy as np  # imported here so subcommands that never embed skip it

        texts, model, step = list(texts), self.profile.model, self.profile.max_batch
        bodies = [{"model": model, "input": texts[i:i + step]} for i in range(0, len(texts), step)]
        out = np.empty((0, 0))
        for n, block in enumerate(fan_out(self._call, bodies,
                                          min(len(bodies), self.max_in_flight))):
            out = out if n else np.empty((len(texts), block.shape[1]))
            if block.shape[1] != out.shape[1]:
                fp = request_fingerprint({"kind": self.kind, **bodies[n]})
                raise MalformedResponse(f"{self.path}: chunk {n} has width {block.shape[1]}, "
                                        f"chunk 0 {out.shape[1]}", fp)
            out[n * step:(n + 1) * step] = block
        return out

    @staticmethod
    def _decode(reply: Any, body: Mapping[str, Any]) -> np.ndarray:
        import numpy as np

        rows = reply["data"]
        # A row without an index stands at its row position.
        indexes = [row.get("index", i) for i, row in enumerate(rows)]
        if sorted(indexes) != list(range(len(body["input"]))):
            raise MalformedResponse(
                f"asked for {len(body['input'])} embeddings, got indexes {indexes}"
            )
        # Ragged rows are numpy's ValueError, which _call makes a MalformedResponse.
        # Ordered in Python: a first np.argsort maps a quarter MiB more of numpy.
        block = np.array([row["embedding"] for _, row in sorted(zip(indexes, rows))], np.float64)
        # json.loads reads NaN, Infinity and overflowing literals as non-finite floats.
        if block.ndim != 2 or not np.isfinite(block).all():
            raise MalformedResponse("an embedding is not a flat list of finite numbers")
        return block


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
        try:
            entries = read_records(path, ScriptEntry)
        except OSError as exc:
            raise FactforgeError(f"profile {profile.name!r}: cannot read its 'script' file "
                                 f"{str(path)!r}: {exc.strerror or exc}") from exc
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
        return NOT_FACTUAL_TOKEN if any(m in haystack for m in self._markers) else FACTUAL_TOKEN


_DIGEST_HEAD = struct.Struct(">IB")


class HashedBowEmbedder:
    """Deterministic bag-of-words embedder (the hashing trick).

    A token's bucket is the first four bytes of its sha256 digest, read as a
    big-endian word, modulo the dimension; the low bit of the fifth byte sets
    its sign (1 for +1). Each distinct token of a batch is hashed once. Each
    text's signed token counts are summed per bucket and the row is
    L2-normalized, so identical texts embed identically. `embed` returns one
    (len(texts), dimension) float64 array.
    """

    def __init__(self, profile: BackendProfile, dimension: int):
        self.profile = profile
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        import numpy as np  # imported here so subcommands that never embed skip it

        # Bound once: the loop below runs per token occurrence.
        dimension, sha256, unpack = self.dimension, hashlib.sha256, _DIGEST_HEAD.unpack_from
        slots: dict[str, int] = {}  # token -> its bucket if its sign is +1, else ~bucket
        get = slots.get
        out = np.empty((len(texts), dimension))
        for row, text in zip(out, texts):
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
            # in any order.
            row[:] = np.bincount(buckets, signs, dimension)
            norm = math.sqrt(row.dot(row))  # what np.linalg.norm computes, minus its checks
            if norm > 0:
                row /= norm
        return out


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

    def __init__(self, profile: BackendProfile, contradictions: Iterable[Sequence[str]]):
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


_HTTP_FIELDS = {"endpoint", "model", "auth_env", "timeout", "max_in_flight", "retry_backoff"}

# Each backend, by kind, then "http" or the mock's name (a profile's "mock"
# option, which may be empty or absent where the kind has one mock): what
# builds it, the fields besides kind, transport and options it reads (a config
# row that sets another is refused), and a mock's one option as (key, check,
# what the check wants, default). A comment says why a field is read.
_BACKENDS = {
    KIND_CHAT: {
        "http": (HttpChatBackend, _HTTP_FIELDS | {"temperature"}, None),  # only chat sends it
        "script": (ScriptedChatBackend.from_file, {"model", "temperature"},  # fingerprinted
                   ("script", lambda v: isinstance(v, str) and v.strip() != "",
                    "a non-blank path string", None)),
        "verdict_rule": (VerdictRuleChatBackend, {"temperature"},  # eval samples a judge above 0
                         ("markers", _strings, "a list of non-blank strings", [])),
    },
    KIND_EMBEDDING: {
        "http": (HttpEmbeddingBackend, _HTTP_FIELDS | {"max_batch"}, None),  # only embeddings batch
        "hashed_bow": (HashedBowEmbedder, set(),
                       ("dimension", lambda v: type(v) is int and v >= 1, "an int >= 1", 64)),
    },
    KIND_NLI: {
        "http": (HttpNliBackend, _HTTP_FIELDS, None),
        "rules": (RuleNliBackend, set(),
                  ("contradictions", _pairs, "a list of pairs of non-blank strings", [])),
    },
}


def check_profile(profile: BackendProfile) -> tuple[str, Callable, set[str], Any]:
    """Check what building `profile` would read, without building it (an http
    endpoint's scheme and empty options, a mock's name and its one option's key
    and type). Returns its backend's name ("rules mock", "http nli transport"),
    builder and fields read, and the mock option's value (None for http)."""
    entries = _BACKENDS[profile.kind]
    if profile.transport == "http":
        if not profile.endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"profile {profile.name!r} needs an http:// or https:// endpoint")
        if profile.options:
            raise ValueError(f"profile {profile.name!r}: the http transport does not read "
                             f"options {sorted(profile.options)}")
        return (f"http {profile.kind} transport", *entries["http"][:2], None)
    opts = dict(profile.options)
    mock = opts.pop("mock", "")
    mocks = [name for name in entries if name != "http"]
    if mock == "" and len(mocks) == 1:
        mock = mocks[0]
    if mock not in mocks:
        raise ValueError(f"profile {profile.name!r}: unknown {profile.kind} mock {mock!r}")
    make, reads, (key, valid, what, default) = entries[mock]
    if set(opts) - {key}:
        raise ValueError(f"profile {profile.name!r}: {mock} mock does not "
                         f"read options {sorted(set(opts) - {key})}")
    if default is None and key not in opts:
        raise ValueError(f"profile {profile.name!r}: the {mock} mock needs {key!r}")
    value = opts.get(key, default)
    if not valid(value):
        raise ValueError(f"profile {profile.name!r}: mock option {key!r} must be {what}, "
                         f"got {value!r}")
    return f"{mock} mock", make, reads, value


def build_backend(profile: BackendProfile, base_dir: str | Path | None = None):
    """Construct the backend object a profile describes, once `check_profile`
    passes it.

    `base_dir` anchors a relative path in a mock option (a script file).
    """
    _, make, _, option = check_profile(profile)
    if profile.transport == "http":
        return make(profile)
    if isinstance(option, str) and base_dir is not None:
        option = Path(base_dir, option)
    return make(profile, option)
