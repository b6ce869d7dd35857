"""Backend profiles, request fingerprints, mocks, and the HTTP transport."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import http.client
import json
import math
import os
import random
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from factforge import backends, cli, corpus
from factforge.backends import (
    BackendProfile,
    HashedBowEmbedder,
    HttpChatBackend,
    HttpEmbeddingBackend,
    HttpNliBackend,
    RuleNliBackend,
    ScriptedChatBackend,
    VerdictRuleChatBackend,
    build_backend,
    chat_fingerprint,
    fan_out,
    fan_width,
    request_fingerprint,
)
from factforge.errors import (
    AuthFailure,
    BackendError,
    BackendTimeout,
    FactforgeError,
    MalformedResponse,
    RateLimited,
)
from factforge.retrieval import index_build
from factforge.synthgen import build_unified_prompt
from factforge.textnorm import tokenize
from factforge.verification import (
    NliLabel,
    ScriptedClaimExtractor,
    Verdict,
    verify_text,
)

from conftest import (
    Interrupted,
    embedding_reply,
    mock_chat_profile,
    page_rows,
    scan_oracle,
    synth_embedder,
    synth_nli,
    synth_passage,
    synth_record,
)


# --- profiles ---------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        BackendProfile(name="x", kind="teleport")
    with pytest.raises(ValueError):
        BackendProfile(name="x", kind="chat", transport="carrier-pigeon")
    with pytest.raises(ValueError):
        BackendProfile(name="x", kind="chat", max_in_flight=0)
    with pytest.raises(ValueError):
        BackendProfile(name="x", kind="chat", timeout=0)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="'max_batch'"):
            BackendProfile(name="x", kind="embedding", max_batch=bad)
    for key in ("retry_backoff", "temperature"):
        for bad in ("x", -0.5, math.nan, math.inf, True):
            with pytest.raises(ValueError, match=repr(key)):
                BackendProfile(name="x", kind="chat", **{key: bad})
        BackendProfile(name="x", kind="chat", **{key: 0})


def test_profile_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError) as exc:
        BackendProfile.from_dict("p", {"kind": "chat", "api_key": "nope"})
    assert "api_key" in str(exc.value)


# A valid value for each field that some backend reads.
_FIELD_VALUES = {"endpoint": "http://localhost:1", "model": "m", "auth_env": "KEY", "timeout": 5.0,
                 "max_in_flight": 2, "max_batch": 8, "temperature": 0.5, "retry_backoff": 0.0}


@pytest.mark.parametrize("kind, name", [(k, n) for k, row in backends._BACKENDS.items()
                                        for n in row])
def test_each_backend_reads_exactly_the_fields_its_table_entry_names(kind, name):
    assert set(_FIELD_VALUES) == {f.name for f in dataclasses.fields(BackendProfile)} - {
        "name", "kind", "transport", "options"}
    _, reads, option = backends._BACKENDS[kind][name]
    if name == "http":
        row, where = {"kind": kind, "endpoint": "http://localhost:1"}, f"http {kind} transport"
    else:
        key, _, _, default = option
        row = {"kind": kind, "transport": "mock",
               "options": {"mock": name, key: "s.jsonl" if default is None else default}}
        where = f"{name} mock"
    for key, value in _FIELD_VALUES.items():
        if key in reads:
            assert getattr(BackendProfile.from_dict("p", {**row, key: value}), key) == value
        else:
            with pytest.raises(ValueError, match=rf"profile 'p': the {where} does not read "
                                                 rf"\['{key}'\]"):
                BackendProfile.from_dict("p", {**row, key: value})


def test_load_profiles(tmp_path):
    config = {
        "profiles": {
            "judge": {"kind": "chat", "endpoint": "http://h", "model": "m"},
            "embed": {"kind": "embedding", "transport": "mock"},
        }
    }
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(config))
    profiles = cli.RunConfig.load(path).profiles
    assert set(profiles) == {"judge", "embed"}
    assert profiles["judge"].model == "m"
    assert profiles["embed"].transport == "mock"


def test_profiles_are_checked_at_load_without_urllib_or_numpy(tmp_path):
    config = {"profiles": {
        "judge": {"kind": "chat", "endpoint": "http://h"},
        "embed": {"kind": "embedding", "transport": "mock", "options": {"dimension": 8}},
        "gen": {"kind": "chat", "transport": "mock",
                "options": {"mock": "script", "script": "not-read.jsonl"}},
    }}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(config))
    script = ("import sys\n"
              "from factforge import cli\n"
              "cli.RunConfig.load(sys.argv[1])\n"
              "print(sorted({'numpy', 'urllib.request'} & set(sys.modules)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "[]\n"

    config["profiles"]["embed"]["options"]["dimension"] = 0
    path.write_text(json.dumps(config))
    with pytest.raises(FactforgeError, match="profile 'embed': mock option 'dimension'"):
        cli.RunConfig.load(path)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        _embedder(0)


def test_profiles_never_hold_keys(tmp_path):
    # an api key belongs in the environment, not the config file
    config = {"profiles": {"judge": {"kind": "chat", "api_key": "sk-123"}}}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(config))
    with pytest.raises(FactforgeError) as exc:
        cli.RunConfig.load(path)
    assert "api_key" in str(exc.value)
    assert "sk-123" not in str(exc.value)


# --- fingerprints ------------------------------------------------------------


def test_fingerprint_is_short_hex_and_stable():
    fp = request_fingerprint({"b": 1, "a": [2, 3]})
    assert len(fp) == 16
    int(fp, 16)
    assert fp == request_fingerprint({"a": [2, 3], "b": 1})  # key order free


def test_fingerprint_oracle():
    payload = {"kind": "chat", "x": "y"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert request_fingerprint(payload) == hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_chat_fingerprint_sensitivity():
    profile = mock_chat_profile()
    msgs = [{"role": "user", "content": "hello"}]
    base = chat_fingerprint(profile, msgs)
    assert base == chat_fingerprint(profile, list(msgs))
    assert base != chat_fingerprint(profile, [{"role": "user", "content": "hello!"}])
    warm = BackendProfile(name="m", kind="chat", transport="mock", temperature=1.0)
    assert base != chat_fingerprint(warm, msgs)


def test_fingerprints_are_pinned(http_server):
    # script files key on these values, so they must not drift
    profile = BackendProfile(name="m", kind="chat", transport="mock", model="judge-1")
    assert chat_fingerprint(profile, [{"role": "user", "content": "hello"}]) == "059c0f9a12ae3a77"
    endpoint, _ = http_server([(200, b"not json")])
    chat = HttpChatBackend(_http_profile(endpoint, model="judge-1"))
    nli = HttpNliBackend(_http_profile(endpoint, kind="nli", model="nli-1"))
    with pytest.raises(MalformedResponse) as info:
        chat.complete([{"role": "user", "content": "hello"}])
    assert info.value.fingerprint == "059c0f9a12ae3a77"
    with pytest.raises(MalformedResponse) as info:
        nli.classify("premise text", "hypothesis text")
    assert info.value.fingerprint == "1d56b550aca870c4"


# --- scripted chat mock ---------------------------------------------------------


def test_scripted_replay_in_order():
    profile = mock_chat_profile()
    msgs = [{"role": "user", "content": "q"}]
    fp = chat_fingerprint(profile, msgs)
    chat = ScriptedChatBackend(profile, [(fp, "first"), (fp, "second")])
    assert chat.complete(msgs) == "first"
    assert chat.complete(msgs) == "second"
    with pytest.raises(BackendError, match="no scripted response left for "):
        chat.complete(msgs)


def test_scripted_unknown_fingerprint():
    chat = ScriptedChatBackend(mock_chat_profile(), [])
    with pytest.raises(BackendError, match="no scripted response left for "):
        chat.complete([{"role": "user", "content": "never scripted"}])


def test_scripted_from_file(tmp_path):
    profile = mock_chat_profile()
    msgs = [{"role": "user", "content": "q"}]
    fp = chat_fingerprint(profile, msgs)
    script = tmp_path / "script.jsonl"
    script.write_text(
        json.dumps({"schema": "chat_script", "version": 1})
        + "\n"
        + json.dumps({"fingerprint": fp, "response": "from disk"})
        + "\n"
    )
    chat = ScriptedChatBackend.from_file(profile, script)
    assert chat.complete(msgs) == "from disk"


def test_scripted_thread_safety():
    profile = mock_chat_profile()
    msgs = [{"role": "user", "content": "q"}]
    fp = chat_fingerprint(profile, msgs)
    n_scripted = 16
    chat = ScriptedChatBackend(profile, [(fp, f"r{i}") for i in range(n_scripted)])

    def call(_):
        try:
            return chat.complete(msgs)
        except BackendError:
            return None

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(call, range(24)))
    answers = [r for r in results if r is not None]
    assert sorted(answers) == sorted(f"r{i}" for i in range(n_scripted))
    assert results.count(None) == 24 - n_scripted


def test_verdict_rule_mock():
    chat = VerdictRuleChatBackend(mock_chat_profile(), markers=["peru", "flat earth"])
    ask = lambda text: chat.complete(
        [{"role": "system", "content": "ignore Peru here"}, {"role": "user", "content": text}]
    )
    assert ask("The forest is mostly in PERU.") == "Not Factual"
    assert ask("The forest is mostly in Brazil.") == "Factual"
    # only the last user turn is judged
    out = chat.complete(
        [
            {"role": "user", "content": "mentions peru"},
            {"role": "assistant", "content": "Not Factual"},
            {"role": "user", "content": "clean text"},
        ]
    )
    assert out == "Factual"


# --- hashed bag-of-words embedder -------------------------------------------------


def _embedder(dimension=64):
    profile = BackendProfile(name="e", kind="embedding", transport="mock")
    return HashedBowEmbedder(profile, dimension=dimension)


def test_embedder_deterministic_and_normalized():
    emb = _embedder()
    a, b = emb.embed(["some text here", "some text here"])
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert a.shape == (64,)


def test_embedder_word_order_invariant():
    emb = _embedder()
    a = emb.embed(["alpha beta gamma"])[0]
    b = emb.embed(["gamma alpha beta"])[0]
    assert np.array_equal(a, b)


def test_embedder_empty_text_is_zero_vector():
    vec = _embedder().embed([""])[0]
    assert np.array_equal(vec, np.zeros(64))


def test_embedder_bucket_oracle():
    # reimplementation of the documented hashing rule for one token
    token = "rainforest"
    digest = hashlib.sha256(token.encode()).digest()
    bucket = int.from_bytes(digest[:4], "big") % 64
    sign = 1.0 if digest[4] & 1 else -1.0
    vec = _embedder().embed([token])[0]
    assert vec[bucket] == sign
    assert np.count_nonzero(vec) == 1


def test_embedder_case_and_punctuation_folding():
    emb = _embedder()
    assert np.array_equal(emb.embed(["The Cat!"])[0], emb.embed(["the cat"])[0])


def _reference_embedding(text: str, dimension: int) -> np.ndarray:
    """The embedding rule as a per-token loop: one sha256 and one signed add
    per token occurrence, then the L2 norm."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % dimension] += 1.0 if digest[4] & 1 else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


_ORACLE_TEXTS = [
    "", "!!!", " \t\n ", "token", "token token token", "a b a b a c a",
    "The Cat! the cat, THE CAT?", "naïve café über straße", "東京 タワー 東京", "Ελλάδα ελλάδα",
    " ".join(f"w{i % 7}" for i in range(200)),
    *(row["text"] for row in page_rows(6)),
]


@pytest.mark.parametrize("dimension", [1, 3, 64, 256, 1024])
@pytest.mark.parametrize("batched", [True, False])
def test_embedder_matches_the_per_token_oracle(dimension, batched):
    # Batched, each distinct token is hashed once for the whole batch; alone,
    # a text has no batch-mates sharing its tokens. Both give the oracle's bytes.
    emb = _embedder(dimension)
    nothing = emb.embed([])
    assert nothing.dtype == np.float64 and nothing.shape == (0, dimension)
    if batched:
        vecs = emb.embed(_ORACLE_TEXTS)
        assert vecs.flags.c_contiguous and vecs.shape == (len(_ORACLE_TEXTS), dimension)
    else:
        vecs = [vec for text in _ORACLE_TEXTS for vec in emb.embed([text])]
    assert len(vecs) == len(_ORACLE_TEXTS)
    for text, vec in zip(_ORACLE_TEXTS, vecs):
        assert vec.dtype == np.float64 and vec.shape == (dimension,), text
        assert vec.tobytes() == _reference_embedding(text, dimension).tobytes(), text


# --- rule NLI ----------------------------------------------------------------------


def _nli(pairs=()):
    profile = BackendProfile(name="n", kind="nli", transport="mock")
    return RuleNliBackend(profile, pairs)


def test_rule_nli_entailment_on_substring():
    dist = _nli().classify("The cat sat on the mat.", "cat sat on the mat")
    assert dist.top_label is NliLabel.ENTAILMENT


def test_rule_nli_substring_is_case_and_space_insensitive():
    dist = _nli().classify("The   CAT sat.", "the cat sat.")
    assert dist.top_label is NliLabel.ENTAILMENT


def test_rule_nli_contradiction_pairs_both_directions():
    nli = _nli([("brazil", "peru")])
    a = nli.classify("Most of it is in Brazil.", "Most of it is in Peru.")
    b = nli.classify("Most of it is in Peru.", "Most of it is in Brazil.")
    assert a.top_label is NliLabel.CONTRADICTION
    assert b.top_label is NliLabel.CONTRADICTION


def test_rule_nli_default_neutral():
    dist = _nli([("x", "y")]).classify("completely unrelated", "other topic")
    assert dist.top_label is NliLabel.NEUTRAL


def test_rule_nli_distributions_are_valid():
    for dist in (RuleNliBackend.ENT, RuleNliBackend.NEUT, RuleNliBackend.CONTR):
        assert math.isclose(dist.p_ent + dist.p_neut + dist.p_contr, 1.0)


def test_rule_nli_entailment_beats_contradiction_rule():
    # substring match is checked before the contradiction lexicon
    nli = _nli([("cat", "cat")])
    dist = nli.classify("the cat sat", "cat sat")
    assert dist.top_label is NliLabel.ENTAILMENT


# --- factory ------------------------------------------------------------------------


def test_build_backend_dispatch(tmp_path):
    mk = lambda kind, **opts: BackendProfile(
        name="p", kind=kind, transport="mock", options=opts
    )
    assert isinstance(
        build_backend(mk("chat", mock="verdict_rule", markers=[])), VerdictRuleChatBackend
    )
    emb = build_backend(mk("embedding", mock="hashed_bow", dimension=32))
    assert isinstance(emb, HashedBowEmbedder)
    assert emb.dimension == 32
    nli = build_backend(mk("nli", mock="rules", contradictions=[["a", "b"]]))
    assert isinstance(nli, RuleNliBackend)

    script = tmp_path / "s.jsonl"
    script.write_text(json.dumps({"fingerprint": "f" * 16, "response": "r"}) + "\n")
    chat = build_backend(mk("chat", mock="script", script="s.jsonl"), base_dir=tmp_path)
    assert isinstance(chat, ScriptedChatBackend)

    with pytest.raises(ValueError):
        build_backend(mk("chat", mock="wat"))
    with pytest.raises(ValueError):
        build_backend(BackendProfile(name="h", kind="chat", transport="http"))


def test_http_profiles_build_http_backends():
    mk = lambda kind: BackendProfile(name="h", kind=kind, endpoint="http://localhost:1")
    assert isinstance(build_backend(mk("chat")), HttpChatBackend)
    assert isinstance(build_backend(mk("embedding")), HttpEmbeddingBackend)
    assert isinstance(build_backend(mk("nli")), HttpNliBackend)


def test_http_profiles_read_no_options():
    profile = BackendProfile(name="h", kind="embedding", endpoint="http://localhost:1",
                             options={"mock": "hashed_bow", "dim": 3})
    with pytest.raises(ValueError, match=r"does not read options \['dim', 'mock'\]"):
        build_backend(profile)


@pytest.mark.parametrize(
    "kind, options, key",
    [
        ("embedding", {"dimension": [16]}, "dimension"),
        ("embedding", {"dimension": "wide"}, "dimension"),
        ("nli", {"contradictions": 5}, "contradictions"),
        ("nli", {"contradictions": [["a"]]}, "contradictions"),
        ("chat", {"mock": "verdict_rule", "markers": [1]}, "markers"),
        ("chat", {"mock": "verdict_rule", "markers": 5}, "markers"),
        ("chat", {"mock": "script", "script": 7}, "script"),
        # Not coerced: 2.9 is not 2 dimensions, True not 1, "16" not 16; a
        # string is not a list of one-letter markers, nor "xy" the pair (x, y).
        ("embedding", {"dimension": 2.9}, "dimension"),
        ("embedding", {"dimension": True}, "dimension"),
        ("embedding", {"dimension": "16"}, "dimension"),
        ("chat", {"mock": "verdict_rule", "markers": "implausibly"}, "markers"),
        ("nli", {"contradictions": ["xy"]}, "contradictions"),
        # A blank marker or term is in every text.
        ("chat", {"mock": "verdict_rule", "markers": ["peru", ""]}, "markers"),
        ("nli", {"contradictions": [[" ", "rock"]]}, "contradictions"),
    ],
)
def test_mock_options_of_the_wrong_type_are_named(kind, options, key):
    profile = BackendProfile(name="p", kind=kind, transport="mock", options=options)
    with pytest.raises(ValueError, match=f"mock option {key!r}"):
        build_backend(profile)


@pytest.mark.parametrize("endpoint", ["", "file:///tmp", "ftp://localhost/x"])
def test_http_profiles_need_an_http_endpoint(endpoint):
    profile = BackendProfile(name="h", kind="chat", endpoint=endpoint)
    with pytest.raises(ValueError, match="http:// or https://"):
        build_backend(profile)


@pytest.mark.parametrize("endpoint, fault", [
    ("http://", "names no host"), ("http:///v1", "names no host"),
    ("http://:8080", "names no host"), ("http://host:notaport", "Port could not be cast"),
    ("http://host:65536", "Port out of range"), ("http://a..b", "idna"),
    ("http://[::1", "Invalid IPv6 URL"), ("https://host/v1 x", "in its path"),
])
def test_the_profile_and_the_backend_refuse_an_endpoint_alike(endpoint, fault):
    with pytest.raises(ValueError, match=re.escape(f"profile 'p': endpoint {endpoint!r}: ")
                       + f".*{fault}") as at_load:
        BackendProfile.from_dict("p", {"kind": "nli", "endpoint": endpoint})
    with pytest.raises(ValueError) as when_built:
        HttpNliBackend(BackendProfile(name="p", kind="nli", endpoint=endpoint))
    assert str(when_built.value) == str(at_load.value)


# --- HTTP transport against a local server ----------------------------------------


def _http_profile(endpoint, kind="chat", **kw):
    defaults = dict(
        name="live", kind=kind, endpoint=endpoint, model="test-model",
        timeout=5.0, retry_backoff=0.0,
    )
    defaults.update(kw)
    return BackendProfile(**defaults)


_CHAT_OK = {"choices": [{"message": {"role": "assistant", "content": "Factual"}}]}


def test_http_chat_success(http_server):
    endpoint, recorder = http_server([(200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint))
    out = chat.complete([{"role": "user", "content": "judge this"}])
    assert out == "Factual"
    req = recorder.requests[0]
    assert req["path"] == "/chat/completions"
    assert req["body"]["model"] == "test-model"
    assert req["body"]["temperature"] == 0.0
    assert req["auth"] is None


def test_http_auth_header_from_environment(http_server, monkeypatch):
    monkeypatch.setenv("FAKE_API_KEY", "sk-test-1")
    endpoint, recorder = http_server([(200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint, auth_env="FAKE_API_KEY"))
    chat.complete([{"role": "user", "content": "x"}])
    assert recorder.requests[0]["auth"] == "Bearer sk-test-1"


def test_http_missing_auth_env_fails_before_any_request(http_server, monkeypatch):
    # The key is read when the backend is built, so no call is ever made.
    monkeypatch.delenv("FAKE_API_KEY", raising=False)
    endpoint, recorder = http_server([(200, _CHAT_OK)])
    opened = []
    monkeypatch.setattr(backends._HttpBase, "_connect", lambda self: opened.append(1))
    with pytest.raises(ValueError, match=r"^profile 'live': environment variable "
                                         r"'FAKE_API_KEY' is not set$"):
        HttpChatBackend(_http_profile(endpoint, auth_env="FAKE_API_KEY"))
    assert recorder.requests == [] and opened == []


def test_http_401_no_retry(http_server):
    endpoint, recorder = http_server([(401, {"error": "bad key"})])
    chat = HttpChatBackend(_http_profile(endpoint))
    with pytest.raises(AuthFailure):
        chat.complete([{"role": "user", "content": "x"}])
    assert len(recorder.requests) == 1


def test_http_429_retries_then_succeeds(http_server):
    endpoint, recorder = http_server([(429, {}), (429, {}), (200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint))
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    assert len(recorder.requests) == 3


def test_http_500_exhausts_retries(http_server):
    endpoint, recorder = http_server([(500, {})])
    chat = HttpChatBackend(_http_profile(endpoint))
    with pytest.raises(BackendTimeout):
        chat.complete([{"role": "user", "content": "x"}])
    assert len(recorder.requests) == 4  # initial try plus three retries


def test_http_persistent_429_raises_rate_limited(http_server):
    endpoint, _ = http_server([(429, {})])
    chat = HttpChatBackend(_http_profile(endpoint))
    with pytest.raises(RateLimited):
        chat.complete([{"role": "user", "content": "x"}])


def test_http_garbage_json_no_retry(http_server):
    endpoint, recorder = http_server([(200, b"this is not json")])
    chat = HttpChatBackend(_http_profile(endpoint))
    with pytest.raises(MalformedResponse):
        chat.complete([{"role": "user", "content": "x"}])
    assert len(recorder.requests) == 1


def test_http_chat_missing_choices(http_server):
    endpoint, _ = http_server([(200, {"choices": []})])
    chat = HttpChatBackend(_http_profile(endpoint))
    with pytest.raises(MalformedResponse):
        chat.complete([{"role": "user", "content": "x"}])


@pytest.mark.parametrize("content", [None, 7, ["Factual"], {"text": "Factual"}])
def test_http_chat_content_that_is_not_a_string_is_malformed(http_server, content):
    endpoint, recorder = http_server([(200, {"choices": [{"message": {"content": content}}]})])
    chat = HttpChatBackend(_http_profile(endpoint))
    messages = [{"role": "user", "content": "x"}]
    with pytest.raises(MalformedResponse, match="not a string") as info:
        chat.complete(messages)
    assert info.value.fingerprint == chat_fingerprint(chat.profile, messages)
    assert len(recorder.requests) == 1  # a malformed reply is not retried


def test_http_embeddings_sorted_by_index(http_server):
    body = {
        "data": [
            {"index": 1, "embedding": [0.0, 1.0]},
            {"index": 0, "embedding": [1.0, 0.0]},
        ]
    }
    endpoint, recorder = http_server([(200, body)])
    emb = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding"))
    vecs = emb.embed(["first", "second"])
    assert np.array_equal(vecs[0], [1.0, 0.0])
    assert np.array_equal(vecs[1], [0.0, 1.0])
    assert recorder.requests[0]["path"] == "/embeddings"
    assert recorder.requests[0]["body"]["input"] == ["first", "second"]


@pytest.mark.parametrize("max_batch", [1, 2, 3, 7, 11, 64])
def test_http_embeddings_are_chunked_and_the_index_is_batch_independent(
        http_server, tmp_path, max_batch):
    passages = [synth_passage(i) for i in range(11)]
    embedder = synth_embedder(16)
    endpoint, recorder = http_server(embedding_reply(embedder))
    http = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding", max_batch=max_batch))
    index_build(passages, http).save(tmp_path / "http.bin")
    index_build(passages, embedder).save(tmp_path / "mock.bin")
    assert (tmp_path / "http.bin").read_bytes() == (tmp_path / "mock.bin").read_bytes()
    texts = [p.text for p in passages]
    inputs = sorted((r["body"]["input"] for r in recorder.requests),
                    key=lambda chunk: texts.index(chunk[0]))
    assert len(inputs) == math.ceil(len(passages) / max_batch)
    assert all(len(chunk) <= max_batch for chunk in inputs)
    assert [t for chunk in inputs for t in chunk] == texts


def test_http_embeddings_retry_only_the_failing_chunk(http_server):
    texts = [f"text {i}" for i in range(7)]
    lock, failed = threading.Lock(), []
    ok = embedding_reply(synth_embedder(8))

    def respond(request):
        with lock:
            if "text 3" in request["body"]["input"] and not failed:
                failed.append(request["raw"])
                return 503, {}
        return ok(request)

    endpoint, recorder = http_server(respond)
    http = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding", max_batch=2))
    vecs = http.embed(texts)
    assert all(np.array_equal(a, b) for a, b in zip(vecs, synth_embedder(8).embed(texts)))
    assert len(vecs) == len(texts)
    raws = [r["raw"] for r in recorder.requests]
    assert len(raws) == 4 + 1
    assert raws.count(failed[0]) == 2 and len(set(raws)) == 4


def test_http_embeddings_a_failing_chunk_stops_later_chunks(http_server):
    texts = [f"text {i}" for i in range(7)]
    ok = embedding_reply(synth_embedder(8))

    def respond(request):
        return (500, {}) if "text 3" in request["body"]["input"] else ok(request)

    endpoint, recorder = http_server(respond)
    http = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding", max_batch=2,
                                              max_in_flight=1))
    with pytest.raises(BackendTimeout) as info:
        http.embed(texts)
    bodies = [r["body"] for r in recorder.requests]
    assert [b["input"] for b in bodies] == [["text 0", "text 1"]] + [["text 2", "text 3"]] * 4
    assert info.value.fingerprint == request_fingerprint({"kind": "embedding", **bodies[-1]})


def test_http_embeddings_of_nothing_send_nothing(http_server):
    endpoint, recorder = http_server([(200, {"data": []})])
    http = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding"))
    nothing = http.embed([])
    assert nothing.dtype == np.float64 and nothing.shape == (0, 0)
    assert recorder.requests == []


def test_http_embeddings_count_mismatch(http_server):
    endpoint, _ = http_server([(200, {"data": [{"index": 0, "embedding": [1.0]}]})])
    emb = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding"))
    with pytest.raises(MalformedResponse):
        emb.embed(["a", "b"])


def test_http_nli_wire_contract(http_server):
    body = {"entailment": 0.8, "neutral": 0.15, "contradiction": 0.05}
    endpoint, recorder = http_server([(200, body)])
    nli = HttpNliBackend(_http_profile(endpoint, kind="nli"))
    dist = nli.classify("premise text", "hypothesis text")
    assert dist.p_ent == 0.8
    assert dist.top_label is NliLabel.ENTAILMENT
    req = recorder.requests[0]
    assert req["path"] == "/nli"
    assert req["body"] == {
        "model": "test-model",
        "premise": "premise text",
        "hypothesis": "hypothesis text",
    }


def test_http_nli_invalid_distribution(http_server):
    body = {"entailment": 0.9, "neutral": 0.9, "contradiction": 0.9}
    endpoint, _ = http_server([(200, body)])
    nli = HttpNliBackend(_http_profile(endpoint, kind="nli"))
    with pytest.raises(MalformedResponse, match="probabilities sum to") as exc:
        nli.classify("p", "h")
    assert "/nli" in str(exc.value)


def _failing_call(endpoint, kind):
    """Make one `kind` call on "t" that fails; return its error's fingerprint."""
    backend = build_backend(_http_profile(endpoint, kind=kind, model="m"))
    call = {"chat": lambda: backend.complete([{"role": "user", "content": "t"}]),
            "embedding": lambda: backend.embed(["t"]),
            "nli": lambda: backend.classify("t", "t")}[kind]
    with pytest.raises(BackendError) as info:
        call()
    return info.value.fingerprint


def test_kind_separation(http_server):
    endpoint, _ = http_server([(200, b"not json")])
    fingerprints = {kind: _failing_call(endpoint, kind) for kind in ("chat", "embedding", "nli")}
    assert len(set(fingerprints.values())) == 3


@pytest.mark.parametrize("kind", ["embedding", "nli"])
@pytest.mark.parametrize("reply", [(500, {}), (200, {"unexpected": "shape"})])
def test_http_errors_carry_kind_and_wire_body_fingerprint(http_server, kind, reply):
    endpoint, recorder = http_server([reply])
    fingerprint = _failing_call(endpoint, kind)
    assert recorder.requests
    for request in recorder.requests:
        assert fingerprint == request_fingerprint({"kind": kind, **request["body"]})


@pytest.mark.parametrize(
    "body",
    [
        {"data": [[0.1, 0.2]]},  # rows are not objects
        {"data": [{"index": 0, "embedding": [[1.0, 2.0]]}]},  # a 2-D embedding
        {"data": [{"index": 1, "embedding": [1.0]}, {"index": 1, "embedding": [2.0]}]},
        {"data": [{"index": 5, "embedding": [1.0]}, {"index": 7, "embedding": [2.0]}]},
        # a row without an index stands at its position, here 0, which row 2 claims too
        {"data": [{"embedding": [1.0]}, {"index": 0, "embedding": [2.0]}]},
    ],
)
def test_http_malformed_embedding_rows(http_server, body):
    endpoint, _ = http_server([(200, body)])
    emb = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding"))
    with pytest.raises(MalformedResponse):
        emb.embed(["t"] * len(body["data"]))  # one input per row


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_http_non_finite_embeddings_are_malformed(http_server, literal):
    raw = b'{"data": [{"index": 0, "embedding": [0.5, %s]}]}' % literal.encode()
    endpoint, recorder = http_server([(200, raw)])
    emb = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding"))
    with pytest.raises(MalformedResponse, match="finite") as info:
        emb.embed(["t"])
    assert len(recorder.requests) == 1  # not retried
    assert info.value.fingerprint == request_fingerprint(
        {"kind": "embedding", **recorder.requests[0]["body"]})


@pytest.mark.parametrize("n", [1, 4, 5, 13])  # 1, max_batch, max_batch + 1, 3 * max_batch + 1
def test_http_embed_returns_one_float64_block(http_server, n):
    texts = [f"text {i} of {n} words" for i in range(n)]
    embedder = synth_embedder(16)
    endpoint, recorder = http_server(embedding_reply(embedder))
    http = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding", max_batch=4))
    vecs = http.embed(texts)
    assert type(vecs) is np.ndarray and vecs.dtype == np.float64
    assert vecs.shape == (n, 16) and vecs.flags.c_contiguous
    assert vecs.tobytes() == embedder.embed(texts).tobytes()
    # One request per run of max_batch texts, each body as before.
    sent = sorted(r["raw"] for r in recorder.requests)
    assert sent == sorted(json.dumps({"model": "test-model", "input": texts[i:i + 4]}).encode()
                          for i in range(0, n, 4))


def test_http_ragged_embedding_rows_are_malformed(http_server):
    body = {"data": [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 1, "embedding": [3.0]}]}
    endpoint, recorder = http_server([(200, body)])
    emb = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding"))
    with pytest.raises(MalformedResponse, match="unexpected reply shape: ValueError") as info:
        emb.embed(["a", "b"])
    assert len(recorder.requests) == 1  # not retried
    assert info.value.fingerprint == request_fingerprint(
        {"kind": "embedding", **recorder.requests[0]["body"]})


@pytest.mark.parametrize("max_in_flight", [1, 3])
def test_http_embedding_chunks_of_different_widths_are_malformed(http_server, max_in_flight):
    def respond(request):
        texts = request["body"]["input"]
        width = 3 if "t2" in texts else 2
        return 200, {"data": [{"index": i, "embedding": [0.5] * width} for i in range(len(texts))]}

    endpoint, _ = http_server(respond)
    http = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding", max_batch=2,
                                              max_in_flight=max_in_flight))
    with pytest.raises(MalformedResponse, match="chunk 1 has width 3, chunk 0 2") as info:
        http.embed([f"t{i}" for i in range(6)])
    assert info.value.fingerprint == request_fingerprint(
        {"kind": "embedding", "model": "test-model", "input": ["t2", "t3"]})


def test_http_integer_embeddings_decode_as_floats(http_server):
    body = {"data": [{"index": 1, "embedding": [3, 4.5, 6]}, {"index": 0, "embedding": [1, -2, 0]}]}
    endpoint, _ = http_server([(200, body)])
    vecs = HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding")).embed(["a", "b"])
    assert vecs.dtype == np.float64
    assert vecs.tolist() == [[1.0, -2.0, 0.0], [3.0, 4.5, 6.0]]


@pytest.mark.parametrize("kind", ["embedding", "nli"])
def test_http_integer_too_large_for_a_float_is_malformed(http_server, kind):
    huge = b"1" + b"0" * 400  # json.loads reads it as an int that no float holds
    raw = {"embedding": b'{"data": [{"index": 0, "embedding": [%s]}]}' % huge,
           "nli": b'{"entailment": %s, "neutral": 0, "contradiction": 0}' % huge}[kind]
    endpoint, recorder = http_server([(200, raw)])
    backend = build_backend(_http_profile(endpoint, kind=kind))
    with pytest.raises(MalformedResponse, match="OverflowError") as info:
        backend.embed(["t"]) if kind == "embedding" else backend.classify("p", "h")
    assert info.value.fingerprint == request_fingerprint(
        {"kind": kind, **recorder.requests[0]["body"]})


def test_http_concurrency_respects_max_in_flight(http_server):
    endpoint, recorder = http_server([(200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint, max_in_flight=2))

    def call(i):
        return chat.complete([{"role": "user", "content": f"q{i}"}])

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(call, range(8)))
    assert results == ["Factual"] * 8
    assert recorder.max_active <= 2
    assert len(recorder.requests) == 8


@pytest.mark.parametrize(
    "error",
    [
        http.client.InvalidURL("nonnumeric port: 'x'"),
        http.client.IncompleteRead(b"partial body", 10),
    ],
)
def test_http_other_request_errors_become_backend_errors(monkeypatch, error):
    calls = []

    def failing_connect():
        calls.append(1)
        raise error

    chat = HttpChatBackend(_http_profile("http://127.0.0.1:9"))
    monkeypatch.setattr(chat, "_connect", failing_connect)
    messages = [{"role": "user", "content": "x"}]
    with pytest.raises(BackendError) as info:
        chat.complete(messages)
    assert info.value.fingerprint == chat_fingerprint(chat.profile, messages)
    assert len(calls) == 1


def test_http_refused_connection_retries_then_times_out(monkeypatch):
    with socket.socket() as probe:  # a loopback port nobody listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    chat = HttpChatBackend(_http_profile(f"http://127.0.0.1:{port}"))
    attempts = []
    real_connect = chat._connect

    def counting_connect():
        attempts.append(1)
        return real_connect()

    monkeypatch.setattr(chat, "_connect", counting_connect)
    with pytest.raises(BackendTimeout):
        chat.complete([{"role": "user", "content": "x"}])
    assert len(attempts) == 4  # initial try plus three retries


def test_http_slow_reply_times_out(http_server):
    def slow(request):
        time.sleep(0.5)
        return 200, _CHAT_OK

    endpoint, recorder = http_server(slow)
    chat = HttpChatBackend(_http_profile(endpoint, timeout=0.1))
    with pytest.raises(BackendTimeout):
        chat.complete([{"role": "user", "content": "x"}])
    assert len(recorder.requests) == 4


@pytest.mark.parametrize("status", [204, 301, 302, 303, 307, 308])
def test_http_other_statuses_are_malformed_without_retry(http_server, monkeypatch, status):
    monkeypatch.setenv("CHAT_KEY", "secret")
    elsewhere, other = http_server([(200, _CHAT_OK)])  # a redirect target on another port
    headers = {} if status == 204 else {"Location": elsewhere + "/chat/completions"}
    endpoint, recorder = http_server([(status, b"", headers), (200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint, auth_env="CHAT_KEY"))
    with pytest.raises(MalformedResponse, match=f"HTTP {status}"):
        chat.complete([{"role": "user", "content": "x"}])
    assert [r["path"] for r in recorder.requests] == ["/chat/completions"]
    assert other.requests == []  # neither the call nor its key went to the Location


def test_http_proxy_is_read_from_the_environment_when_built(http_server, monkeypatch):
    proxy, recorder = http_server([(200, _CHAT_OK)])
    for name in ("http_proxy", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", proxy)
    chat = HttpChatBackend(_http_profile("http://127.0.0.1:9"))
    monkeypatch.delenv("HTTP_PROXY")
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    # a proxy is sent the absolute URL of the target
    assert [r["path"] for r in recorder.requests] == ["http://127.0.0.1:9/chat/completions"]


def test_http_no_proxy_is_read_from_the_environment_when_built(http_server, monkeypatch):
    proxy, via_proxy = http_server([(200, _CHAT_OK)])
    endpoint, direct = http_server([(200, _CHAT_OK)])
    for name in ("http_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", proxy)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    chat = HttpChatBackend(_http_profile(endpoint))
    monkeypatch.delenv("NO_PROXY")
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    assert via_proxy.requests == [] and len(direct.requests) == 1


def test_http_proxy_credentials_go_to_the_proxy(http_server, monkeypatch):
    proxy, recorder = http_server([(200, _CHAT_OK)])
    for name in ("http_proxy", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", proxy.replace("http://", "http://ada:p%40ss@"))
    chat = HttpChatBackend(_http_profile("http://127.0.0.1:9"))
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    assert [r["proxy_auth"] for r in recorder.requests] == ["Basic YWRhOnBAc3M="]  # ada:p@ss
    assert recorder.requests[0]["path"] == "http://127.0.0.1:9/chat/completions"


def test_an_idn_endpoint_through_an_http_proxy_sends_an_ascii_request_line(http_server,
                                                                           monkeypatch):
    proxy, recorder = http_server([(200, _CHAT_OK)])
    for name in ("http_proxy", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", proxy)
    chat = HttpChatBackend(_http_profile("http://bücher.example:8080/v1"))
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    assert [r["path"] for r in recorder.requests] == [
        "http://xn--bcher-kva.example:8080/v1/chat/completions"]


def test_https_goes_through_a_proxy_tunnel(http_server, monkeypatch):
    proxy, recorder = http_server([(407, b"")])  # the proxy refuses the tunnel
    for name in ("https_proxy", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTPS_PROXY", proxy.replace("http://", "http://ada:pw@"))
    chat = HttpChatBackend(_http_profile("https://llm.example/v1"))
    with pytest.raises(BackendTimeout, match="407"):
        chat.complete([{"role": "user", "content": "x"}])
    assert [(r["method"], r["path"], r["proxy_auth"]) for r in recorder.requests] == [
        ("CONNECT", "llm.example:443", "Basic YWRhOnB3")] * 4  # no call leaves the tunnel


# --- kept-alive connections ---------------------------------------------------


def _ports(recorder) -> list[int]:
    """The client port of each recorded request: one per connection."""
    return [r["port"] for r in recorder.requests]


def test_serial_calls_share_one_kept_alive_connection(http_server):
    endpoint, recorder = http_server([(200, _CHAT_OK)], keep_alive=True)
    chat = HttpChatBackend(_http_profile(endpoint))
    for i in range(10):
        assert chat.complete([{"role": "user", "content": f"q{i}"}]) == "Factual"
    assert len(recorder.requests) == 10
    assert len(set(_ports(recorder))) == (1 if backends._QUICKACK is not None else 10)


def test_without_quickack_every_call_closes_its_connection(http_server, monkeypatch):
    # The policy where socket has no TCP_QUICKACK (macOS, Windows).
    monkeypatch.setattr(backends, "_QUICKACK", None)
    endpoint, recorder = http_server([(200, _CHAT_OK)], keep_alive=True)
    chat = HttpChatBackend(_http_profile(endpoint))
    for i in range(3):
        assert chat.complete([{"role": "user", "content": f"q{i}"}]) == "Factual"
    assert [r["connection"] for r in recorder.requests] == ["close"] * 3
    assert len(set(_ports(recorder))) == 3
    assert chat._idle == []


def test_a_reset_on_a_fresh_connection_is_an_attempt_not_a_resend(monkeypatch):
    # A server that reads each request, then resets its connection.
    server = socket.create_server(("127.0.0.1", 0))
    requests = []

    def serve():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:  # the listener closed
                return
            with conn:
                requests.append(conn.recv(65536))
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    threading.Thread(target=serve, daemon=True).start()
    try:
        chat = HttpChatBackend(_http_profile(f"http://127.0.0.1:{server.getsockname()[1]}"))
        opened = []
        real_connect = chat._connect

        def counting_connect():
            opened.append(1)
            return real_connect()

        monkeypatch.setattr(chat, "_connect", counting_connect)
        with pytest.raises(BackendTimeout):
            chat.complete([{"role": "user", "content": "x"}])
    finally:
        server.close()
    # four attempts, initial try plus three retries, each on one new connection
    assert len(opened) == 4
    assert len(requests) == 4 and all(r.startswith(b"POST ") for r in requests)
    assert chat._idle == []


def test_a_fan_out_opens_at_most_its_width_of_connections(http_server):
    endpoint, recorder = http_server([(200, _CHAT_OK)], keep_alive=True)
    chat = HttpChatBackend(_http_profile(endpoint, max_in_flight=3))
    answers = list(fan_out(lambda i: chat.complete([{"role": "user", "content": f"q{i}"}]),
                           range(12), 3))
    assert answers == ["Factual"] * 12 and len(recorder.requests) == 12
    if backends._QUICKACK is not None:
        assert len(set(_ports(recorder))) <= 3
        assert len(chat._idle) <= 3


def test_a_server_that_drops_each_connection_gets_each_call_once(http_server, caplog):
    endpoint, recorder = http_server([(200, _CHAT_OK)], keep_alive=True, drop=True)
    chat = HttpChatBackend(_http_profile(endpoint))
    with caplog.at_level("WARNING"):
        for i in range(5):
            assert chat.complete([{"role": "user", "content": f"q{i}"}]) == "Factual"
    assert [r["body"]["messages"][0]["content"] for r in recorder.requests] == [
        f"q{i}" for i in range(5)]
    assert len(set(_ports(recorder))) == 5
    assert "retrying" not in caplog.text


def test_a_closing_reply_is_not_reused(http_server):
    endpoint, recorder = http_server(
        [(200, _CHAT_OK, {"Connection": "close"}), (200, _CHAT_OK)], keep_alive=True)
    chat = HttpChatBackend(_http_profile(endpoint))
    for i in range(3):
        assert chat.complete([{"role": "user", "content": f"q{i}"}]) == "Factual"
    first, second, third = _ports(recorder)
    assert first != second
    assert (second == third) is (backends._QUICKACK is not None)


def test_a_timed_out_connection_is_not_reused(http_server):
    def first_slow(request):
        if len(recorder.requests) == 1:
            time.sleep(0.3)
        return 200, _CHAT_OK

    endpoint, recorder = http_server(first_slow, keep_alive=True)
    chat = HttpChatBackend(_http_profile(endpoint, timeout=0.1))
    for i in range(2):
        assert chat.complete([{"role": "user", "content": f"q{i}"}]) == "Factual"
    timed_out, retried, next_call = _ports(recorder)  # the retry opened a new connection
    assert timed_out != retried
    assert (retried == next_call) is (backends._QUICKACK is not None)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="TCP_QUICKACK is Linux's")
def test_kept_alive_calls_do_not_stall_on_delayed_ack(http_server):
    # The fixture writes headers and body in two sends with Nagle's algorithm
    # on, so a client that delays its ack waits ~40 ms per call: 20 calls
    # would take >= 0.8 s.
    endpoint, recorder = http_server([(200, _CHAT_OK)], keep_alive=True, delay=0.0)
    chat = HttpChatBackend(_http_profile(endpoint))
    chat.complete([{"role": "user", "content": "open"}])
    start = time.perf_counter()
    for i in range(20):
        chat.complete([{"role": "user", "content": f"q{i}"}])
    assert time.perf_counter() - start < 0.4
    assert len(set(_ports(recorder))) == 1


def test_idle_connections_close_when_the_backend_is_collected(http_server):
    endpoint, _ = http_server([(200, _CHAT_OK)], keep_alive=True)
    chat = HttpChatBackend(_http_profile(endpoint))
    chat.complete([{"role": "user", "content": "x"}])
    idle = chat._idle
    socks = [conn.sock for conn in idle]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del chat
        gc.collect()
    assert idle == [] and all(sock.fileno() == -1 for sock in socks)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_http_request_body_bytes_are_pinned(http_server):
    endpoint, recorder = http_server([(200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint))
    chat.complete([{"role": "user", "content": "h\u00e9llo"}])
    assert recorder.requests[0]["raw"] == (
        b'{"model": "test-model", "messages": [{"role": "user", "content": "h\\u00e9llo"}], '
        b'"temperature": 0.0}'
    )
    assert recorder.requests[0]["content_type"] == "application/json"


@pytest.mark.parametrize(
    "status, retry_after, timeout, wait",
    [
        (429, "1", 5.0, 1.0),
        (503, "1", 5.0, 1.0),
        (429, "3600", 0.3, 0.3),  # never longer than the timeout
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 5.0, 0.0075),  # HTTP-date: backoff
        (429, "1.5", 5.0, 0.0075),  # not delay-seconds: backoff
    ],
    ids=["429", "503", "capped", "http-date", "malformed"],
)
def test_http_retry_after_delays_the_retry(http_server, monkeypatch, status, retry_after,
                                           timeout, wait):
    sleeps = []
    real_sleep = time.sleep

    def recorded_sleep(seconds):
        sleeps.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(backends, "time", types.SimpleNamespace(sleep=recorded_sleep))
    monkeypatch.setattr(random, "random", lambda: 0.5)  # three quarters of the 0.01 s backoff
    endpoint, recorder = http_server(
        [(status, {}, {"Retry-After": retry_after}), (200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint, timeout=timeout, retry_backoff=0.01))
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    assert sleeps == [wait]
    first, second = recorder.requests
    assert second["at"] - first["at"] >= wait


def test_http_retry_sleeps_a_random_share_of_the_backoff(http_server, monkeypatch):
    # Between half and all of the backoff: a draw of 0 still waits half.
    sleeps, draws = [], iter([0.0, 0.5, 0.75])
    monkeypatch.setattr(backends, "time", types.SimpleNamespace(sleep=sleeps.append))
    monkeypatch.setattr(random, "random", lambda: next(draws))
    endpoint, recorder = http_server([(500, {})])
    chat = HttpChatBackend(_http_profile(endpoint, retry_backoff=0.4))
    with pytest.raises(BackendTimeout):
        chat.complete([{"role": "user", "content": "x"}])
    assert sleeps == [0.5 * 0.4, 0.75 * 0.4 * 2, 0.875 * 0.4 * 4]
    assert len(recorder.requests) == 4  # initial try plus three retries


def test_http_retry_after_is_a_floor_under_the_jitter(http_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(backends, "time", types.SimpleNamespace(sleep=sleeps.append))
    monkeypatch.setattr(random, "random", lambda: 0.5)
    endpoint, recorder = http_server([
        (503, {}, {"Retry-After": "1"}),   # above 3/4 of the 0.4 s backoff: 1 s
        (429, {}, {"Retry-After": "9"}),   # capped at the 1.5 s timeout
        (503, {}, {"Retry-After": "0"}),   # below 3/4 of the 1.6 s backoff: 1.2 s
        (200, _CHAT_OK)])
    chat = HttpChatBackend(_http_profile(endpoint, timeout=1.5, retry_backoff=0.4))
    assert chat.complete([{"role": "user", "content": "x"}]) == "Factual"
    assert sleeps == [1.0, 1.5, 0.75 * 0.4 * 4]
    assert len(recorder.requests) == 4


def test_http_calls_run_without_requests_installed(http_server):
    replies = {
        "/chat/completions": _CHAT_OK,
        "/embeddings": {"data": [{"index": 0, "embedding": [0.6, 0.8]}]},
        "/nli": {"entailment": 0.8, "neutral": 0.15, "contradiction": 0.05},
    }
    endpoint, recorder = http_server(lambda request: (200, replies[request["path"]]))
    script = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "from factforge.backends import BackendProfile, build_backend\n"
        "def backend(kind):\n"
        "    return build_backend(BackendProfile(name=kind, kind=kind, endpoint=sys.argv[1]))\n"
        "print(backend('chat').complete([{'role': 'user', 'content': 'x'}]))\n"
        "print(backend('embedding').embed(['x'])[0].tolist())\n"
        "print(backend('nli').classify('p', 'h').top_label.value)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for name in ("http_proxy", "HTTP_PROXY"):
        env.pop(name, None)
    done = subprocess.run([sys.executable, "-c", script, endpoint],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split("\n")[:3] == ["Factual", "[0.6, 0.8]", "ENT"]
    assert len(recorder.requests) == 3


def test_importing_the_cli_does_not_import_http_client():
    script = ("import sys\n"
              "import factforge.cli\n"
              "print('http.client' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "False\n"


# --- reply framing and the request head, against a raw socket server ---------------

_BODY = json.dumps(_CHAT_OK).encode()
_OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_BODY), _BODY)


@contextlib.contextmanager
def _raw_server(replies):
    """Serve on a loopback port: read each request whole (its head, then a
    body of its Content-Length) and write the next of `replies`, each a
    (raw bytes, close) pair, on the same connection, closing it after a reply
    whose `close` is true; the last reply repeats. Yields the endpoint and a
    record of the requests received (bytes) and the connections accepted."""
    server = socket.create_server(("127.0.0.1", 0))
    seen = types.SimpleNamespace(requests=[], connections=0)
    replies = list(replies)

    def answer(conn):
        with conn, conn.makefile("rb") as reader:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = reader.readline()
                    if not line:
                        return
                    head += line
                length = int(head.lower().partition(b"content-length:")[2].split(b"\r\n")[0])
                seen.requests.append(head + reader.read(length))
                raw, close = replies.pop(0) if len(replies) > 1 else replies[0]
                try:
                    conn.sendall(raw)
                except OSError:  # the client gave up on the reply
                    return
                if close:
                    return

    def serve():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:  # the listener was shut down
                return
            seen.connections += 1
            threading.Thread(target=answer, args=(conn,), daemon=True).start()

    threading.Thread(target=serve, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.getsockname()[1]}", seen
    finally:
        server.shutdown(socket.SHUT_RDWR)
        server.close()


def _ask(endpoint, n=1, **kw):
    """Make `n` chat calls on one backend; return their answers."""
    chat = HttpChatBackend(_http_profile(endpoint, **kw))
    return [chat.complete([{"role": "user", "content": f"q{i}"}]) for i in range(n)]


def test_a_chunked_reply_with_an_extension_and_a_trailer_is_read_and_kept_alive():
    half = len(_BODY) // 2
    chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"%x;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
               % (half, _BODY[:half], len(_BODY) - half, _BODY[half:]))
    with _raw_server([(chunked, False)]) as (endpoint, seen):
        assert _ask(endpoint, n=3) == ["Factual"] * 3
    assert len(seen.requests) == 3
    assert seen.connections == (1 if backends._QUICKACK is not None else 3)


def test_an_interim_100_continue_is_skipped():
    with _raw_server([(b"HTTP/1.1 100 Continue\r\n\r\n" + _OK_REPLY, False)]) as (endpoint, seen):
        assert _ask(endpoint, n=2) == ["Factual"] * 2
    assert len(seen.requests) == 2


def test_a_204_without_length_on_a_kept_alive_connection_fails_at_once():
    # Its body is empty by its status: reading until close would wait the 5 s timeout.
    with _raw_server([(b"HTTP/1.1 204 No Content\r\n\r\n", False)]) as (endpoint, seen):
        start = time.perf_counter()
        with pytest.raises(MalformedResponse, match="HTTP 204"):
            _ask(endpoint)
        assert time.perf_counter() - start < 2.0
    assert len(seen.requests) == 1


def test_an_http_1_0_reply_without_length_is_read_until_close_and_not_reused():
    reply = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _BODY
    with _raw_server([(reply, True)]) as (endpoint, seen):
        assert _ask(endpoint, n=3) == ["Factual"] * 3
    assert len(seen.requests) == 3 and seen.connections == 3


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_BODY), _BODY[:10]),
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s" % (len(_BODY), _BODY[:10]),
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n%s\r\n0\r\n\r\n" % _BODY,
    b"HTTP/1.1 200 OK\r\nX-Long: %s\r\n" % (b"a" * 65536) + _OK_REPLY[17:],
    b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 100 + _OK_REPLY[17:],
    b"HTTP/1.1 twenty OK\r\n" + _OK_REPLY[17:],
    b"ICY 200 OK\r\n" + _OK_REPLY[17:],
], ids=["body-cut-short", "chunk-cut-short", "chunk-size-not-hex", "header-line-over-64-kib",
        "over-100-headers", "status-not-a-number", "not-http"])
def test_a_broken_reply_is_a_backend_error_without_retry(reply):
    with _raw_server([(reply, True)]) as (endpoint, seen):
        chat = HttpChatBackend(_http_profile(endpoint))
        messages = [{"role": "user", "content": "x"}]
        with pytest.raises(BackendError) as info:
            chat.complete(messages)
    assert type(info.value) is BackendError
    assert info.value.fingerprint == chat_fingerprint(chat.profile, messages)
    assert len(seen.requests) == 1


def _refused_before_connecting(monkeypatch, endpoint, **kw) -> str:
    """The message of the ValueError building a chat backend for `endpoint`
    raises, once no connection was asked for."""
    opened = []
    monkeypatch.setattr(backends._HttpBase, "_connect", lambda self: opened.append(1))
    with pytest.raises(ValueError) as info:
        HttpChatBackend(_http_profile(endpoint, **kw))
    assert opened == []
    return str(info.value)


@pytest.mark.parametrize("key", ["sk\r\nX-Injected: 1", "sk\nX-Injected: 1", "sk\rX: 1"])
def test_an_api_key_holding_cr_or_lf_is_refused_before_any_byte(monkeypatch, key):
    monkeypatch.setenv("CHAT_KEY", key)
    with _raw_server([(_OK_REPLY, False)]) as (endpoint, seen):
        error = _refused_before_connecting(monkeypatch, endpoint, auth_env="CHAT_KEY")
    assert error == "profile 'live': environment variable 'CHAT_KEY' holds a CR or LF"
    assert seen.connections == 0


def test_an_api_key_with_a_character_latin_1_lacks_is_refused_before_any_byte(monkeypatch):
    monkeypatch.setenv("CHAT_KEY", "sk-\u0101")
    with _raw_server([(_OK_REPLY, False)]) as (endpoint, seen):
        error = _refused_before_connecting(monkeypatch, endpoint, auth_env="CHAT_KEY")
    assert error == ("profile 'live': environment variable 'CHAT_KEY' holds a character "
                     "latin-1 lacks")
    assert seen.connections == 0


@pytest.mark.parametrize("path", ["/v1 x", "/v1\x00", "/v1\x1f", "/v1\x7f", "/vé"])
def test_an_endpoint_path_no_request_line_can_carry_is_refused_before_any_byte(
        monkeypatch, path):
    with _raw_server([(_OK_REPLY, False)]) as (endpoint, seen):
        error = _refused_before_connecting(monkeypatch, endpoint + path)
    assert error == (f"profile 'live': endpoint {endpoint + path!r}: holds a space, a control "
                     f"or a non-ASCII character in its path")
    assert seen.connections == 0


def test_a_request_is_one_send_of_its_exact_head_and_body(monkeypatch):
    monkeypatch.setenv("CHAT_KEY", "sk-test")
    sends = []
    real_sendall = socket.socket.sendall
    with _raw_server([(_OK_REPLY, False)]) as (endpoint, seen):
        port = int(endpoint.rsplit(":", 1)[1])

        def sendall(sock, data, *args):
            if sock.getpeername()[1] == port:  # the client's sends, not the server's
                sends.append(bytes(data))
            return real_sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", sendall)
        chat = HttpChatBackend(_http_profile(endpoint + "/v1", auth_env="CHAT_KEY"))
        monkeypatch.delenv("CHAT_KEY")  # read when the backend was built
        for content in ("x", "a longer question"):
            assert chat.complete([{"role": "user", "content": content}]) == "Factual"
    close = b"Connection: close\r\n" if backends._QUICKACK is None else b""
    head = (b"POST /v1/chat/completions HTTP/1.1\r\n"
            b"Host: 127.0.0.1:%d\r\n"
            b"Accept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\n"
            b"%sAuthorization: Bearer sk-test\r\n"
            b"Content-Length: " % (port, close))
    requests = []
    for content in ("x", "a longer question"):
        messages = [{"role": "user", "content": content}]
        body = json.dumps({"model": "test-model", "messages": messages,
                           "temperature": 0.0}).encode()
        requests.append(b"%s%d\r\n\r\n%s" % (head, len(body), body))
    assert sends == requests
    assert seen.requests == requests


# --- bounded fan-out ----------------------------------------------------------


def test_fan_out_keeps_order_and_bounds_width():
    lock = threading.Lock()
    active = [0, 0]  # running now, most at once

    def square(i):
        with lock:
            active[0] += 1
            active[1] = max(active[1], active[0])
        time.sleep(0.002 * (i % 3))
        with lock:
            active[0] -= 1
        return i * i

    assert list(fan_out(square, range(12), 3)) == [i * i for i in range(12)]
    assert active[1] <= 3
    assert list(fan_out(square, [], 3)) == []
    assert fan_width(HttpChatBackend(_http_profile("http://127.0.0.1:9", max_in_flight=3))) == 3
    assert fan_width(synth_nli()) == 1  # mocks run serially
    assert fan_width(object()) == 1


def test_fan_out_failure_stops_new_submissions():
    lock = threading.Lock()
    started = []

    def work(i):
        with lock:
            started.append(i)
        if i == 3:
            raise ValueError(i)
        time.sleep(0.01)
        return i

    with pytest.raises(ValueError) as info:
        list(fan_out(work, range(10), 2))
    assert info.value.args == (3,)
    # width 2: besides the failing item, at most one further item starts
    assert sorted(started) == list(range(max(started) + 1))
    assert max(started) <= 4


@given(width=st.integers(1, 4), n=st.integers(0, 12),
       failing=st.sets(st.integers(0, 11), max_size=3))
def test_fan_out_serial_and_pooled_paths_keep_one_contract(width, n, failing):
    lock = threading.Lock()
    started = []  # (item, thread), in the order their calls started
    raised = []  # (len(started), thread) when each failing call raised

    def pure(i):
        return i * i - 3

    def fn(i):
        with lock:
            started.append((i, threading.get_ident()))
            if i in failing:
                raised.append((len(started), threading.get_ident()))
                raise ValueError(i)
        return pure(i)

    failing &= set(range(n))
    if not failing:
        assert list(fan_out(fn, range(n), width)) == [pure(i) for i in range(n)]
        return
    with pytest.raises(ValueError) as info:
        list(fan_out(fn, range(n), width))
    # The earliest item that failed (a pooled run may skip an earlier failing
    # item that had not started yet). fan_out catches an error in the thread
    # whose call raised it, so that thread starts no item after the raise;
    # another thread may, before the catch, under some interleavings.
    assert info.value.args == (min(failing & {i for i, _ in started}),)
    for at, thread in raised:
        assert thread not in {t for _, t in started[at:]}


def test_fan_out_starts_no_item_after_an_interrupt(sigint):
    lock = threading.Lock()
    started, late = [], []  # items started; items started after the handler ran

    def work(i):
        with lock:
            started.append(i)
            if sigint.handled.is_set():
                late.append(i)
        if i == 10:
            sigint.send()
        time.sleep(0.005)
        return i

    with pytest.raises(Interrupted):
        list(fan_out(work, range(200), 2))
    n_started = len(started)
    time.sleep(0.05)  # a pool still draining its queue would start ~20 more meanwhile
    assert len(started) == n_started
    # only an item that passed the failure check before the handler ran, one per worker
    assert len(late) <= 2, late


def test_closing_a_fan_out_starts_nothing_more_and_waits_for_running_calls():
    lock = threading.Lock()
    started, finished = [], []
    gate = threading.Event()

    def work(i):
        with lock:
            started.append(i)
        if i >= 4:
            assert gate.wait(5)
        with lock:
            finished.append(i)
        return i

    for width in (1, 2, 3):
        started.clear()
        finished.clear()
        gate.clear()
        results = fan_out(work, range(100), width)
        assert started == []  # nothing runs before a result is asked for
        assert [next(results) for _ in range(4)] == [0, 1, 2, 3]
        if width == 1:
            assert started == [0, 1, 2, 3]  # serial and lazy
        release = threading.Timer(0.05, gate.set)
        release.start()
        results.close()
        assert sorted(finished) == sorted(started)  # the running calls ended first
        release.join(5)
        assert not release.is_alive()
        # Besides the four taken, at most one call per worker was running; of
        # the items queued behind them in the window, none starts.
        n_started = len(started)
        assert sorted(started) == list(range(n_started)) and n_started <= 4 + width
        time.sleep(0.02)
        assert len(started) == n_started


def test_fan_out_under_frequent_thread_switches():
    """More workers than cores, switching threads every microsecond: results
    keep order, the width bound holds and the earliest failure is raised."""
    lock = threading.Lock()
    active = [0, 0]  # running now, most at once

    def work(i):
        with lock:
            active[0] += 1
            active[1] = max(active[1], active[0])
        with lock:
            active[0] -= 1
        if i in (1500, 1400):
            raise ValueError(i)
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert list(fan_out(work, range(1400), 8)) == [-i for i in range(1400)]
        with pytest.raises(ValueError) as info:
            list(fan_out(work, range(2000), 8))
    finally:
        sys.setswitchinterval(interval)
    assert info.value.args == (1400,)
    assert active[0] == 0 and active[1] <= 8


def test_fan_out_yields_nothing_once_a_call_has_failed():
    def work(i):
        if i == 1:
            raise ValueError(i)
        time.sleep(0.05 if i == 0 else 0)
        return i

    got = []
    with pytest.raises(ValueError):
        for result in fan_out(work, range(10), 2):
            got.append(result)
    assert got == []  # item 0 ended after item 1 had failed


def test_fan_out_memory_does_not_grow_with_the_item_count():
    def peak(n):
        tracemalloc.start()
        try:
            for _ in fan_out(lambda i: None, range(n), 2):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_000), peak(50_000)
    assert large < 64 * 1024 and large < 2 * small, (small, large)


def test_verify_text_over_http_is_width_independent(http_server):
    embedder, nli = synth_embedder(), synth_nli()
    embeddings = embedding_reply(embedder)

    def respond(request):
        body = request["body"]
        if request["path"] == "/embeddings":
            return embeddings(request)
        dist = nli.classify(body["premise"], body["hypothesis"])
        return 200, {"entailment": dist.p_ent, "neutral": dist.p_neut,
                     "contradiction": dist.p_contr}

    index = index_build([synth_passage(i) for i in range(20)], embedder)
    claims = [
        synth_record(0).outputs.claims[1],
        synth_record(1).outputs.altered,
        "Nothing in the corpus speaks of zebras.",
        synth_record(2).outputs.claims[0],
    ]
    extractor = ScriptedClaimExtractor({"text": claims})
    k = 5
    verdicts = {}
    for width in (1, 2):
        endpoint, recorder = http_server(respond)
        verdicts[width] = verify_text(
            "text", extractor, index,
            HttpEmbeddingBackend(_http_profile(endpoint, kind="embedding",
                                               max_in_flight=width)),
            HttpNliBackend(_http_profile(endpoint, kind="nli", max_in_flight=width)),
            k,
        )
        assert sum(r["path"] == "/embeddings" for r in recorder.requests) == 1
        if width == 2:
            assert recorder.max_active > 1

    expected = tuple(
        scan_oracle(
            claim,
            [pid for pid, _ in index.top_k(embedder.embed([claim])[0], k)],
            lambda pid, claim=claim: nli.classify(index.text_of(pid), claim).top_label,
        )
        for claim in claims
    )
    assert [t.decision for t in expected] == [True, False, True, True]
    assert expected[2].deciding_passage_id is None and expected[2].rank_examined == k
    assert verdicts[2] == verdicts[1] == Verdict(False, expected)
    assert verdicts[1] == verify_text("text", extractor, index, embedder, nli, k)


def test_generate_over_http_is_width_independent(http_server, tmp_path):
    passages = [synth_passage(i) for i in range(8)]
    answers = {
        build_unified_prompt(p): synth_record(i).outputs.to_step_json()
        for i, p in enumerate(passages)
    }
    never_valid = build_unified_prompt(passages[3])
    valid_on_retry = build_unified_prompt(passages[5])
    corpus.write_passages(tmp_path / "passages.jsonl", passages)
    outputs = {}
    for width in (1, 4):
        seen = []
        lock = threading.Lock()

        def respond(request):
            prompt = request["body"]["messages"][0]["content"]
            with lock:
                seen.append(prompt)
                first = seen.count(prompt) == 1
            if prompt == never_valid or (prompt == valid_on_retry and first):
                content = "no JSON here"
            else:
                content = answers[prompt]
            return 200, {"choices": [{"message": {"content": content}}]}

        endpoint, recorder = http_server(respond)
        config = tmp_path / f"config{width}.json"
        config.write_text(json.dumps({"profiles": {"gen": {
            "kind": "chat", "endpoint": endpoint, "model": "m", "timeout": 5.0,
            "retry_backoff": 0.0, "max_in_flight": width,
        }}}))
        out = tmp_path / f"records{width}.jsonl"
        assert cli.main(["generate", "--passages", str(tmp_path / "passages.jsonl"),
                         "--backend", "gen", "--out", str(out), "--config", str(config)]) == 0
        outputs[width] = out.read_bytes()
        assert len(recorder.requests) == 8 + 2 + 1  # passage 3 tries 3 times, 5 twice
        if width == 4:
            assert recorder.max_active > 1
    assert outputs[4] == outputs[1]
    # pinned, so a change in how records reach the file cannot move a byte
    assert hashlib.sha256(outputs[1]).hexdigest() == (
        "60f6faebf578ab7d98124a9126f7bdd464e9d6541b63f98e0bd3e68711b084e3")
    rows = [json.loads(line) for line in outputs[1].splitlines()[1:]]
    assert [r["record_id"] for r in rows] == [p.passage_id for p in passages if p != passages[3]]
    assert [r["retries"] for r in rows] == [0, 0, 0, 0, 1, 0, 0]
