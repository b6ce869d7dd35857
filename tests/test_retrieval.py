"""Exact dense retrieval, index persistence, recall, and the contrastive loss."""

from __future__ import annotations

import math
import random
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factforge.backends import BackendProfile, HttpEmbeddingBackend
from factforge import retrieval
from factforge.errors import FactforgeError, MalformedRecord
from factforge.retrieval import (
    PassageIndex,
    _row_blocks,
    in_batch_loss,
    index_build,
    recall_at_k,
)

from conftest import embedding_reply, synth_embedder, synth_passage


def _index(vectors, ids=None, texts=None):
    n = len(vectors)
    ids = ids or [f"p{i}" for i in range(n)]
    texts = texts or [f"text {i}" for i in range(n)]
    return PassageIndex(ids, texts, np.asarray(vectors, dtype=np.float32))


# --- top_k -------------------------------------------------------------------


def test_top_k_orders_by_score():
    idx = _index([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    hits = idx.top_k(np.array([1.0, 0.0]), k=3)
    assert [pid for pid, _ in hits] == ["p0", "p2", "p1"]
    assert hits[0][1] == pytest.approx(1.0)


def test_top_k_ties_break_by_ascending_id():
    # all four passages score identically; lexicographically smaller id wins
    idx = _index([[1.0]] * 4, ids=["d", "b", "a", "c"])
    assert idx.top_k(np.array([1.0]), k=2) == (("a", 1.0), ("b", 1.0))


def test_top_k_k_larger_than_index():
    idx = _index([[1.0, 0.0], [0.0, 1.0]])
    hits = idx.top_k(np.array([1.0, 1.0]), k=50)
    assert len(hits) == 2


def test_top_k_invalid_inputs():
    idx = _index([[1.0, 0.0]])
    with pytest.raises(ValueError):
        idx.top_k(np.array([1.0, 0.0]), k=0)
    with pytest.raises(FactforgeError, match="query has dimension 3, index has 2"):
        idx.top_k(np.array([1.0, 0.0, 3.0]), k=1)
    with pytest.raises(ValueError, match="expected 1-D vector"):
        idx.top_k(np.array([[1.0, 0.0]]), k=1)
    with pytest.raises(ValueError, match="query contains non-finite values"):
        idx.top_k(np.array([1.0, float("nan")]), k=1)


@given(
    n=st.integers(min_value=1, max_value=40),
    dim=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=45),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_top_k_matches_exhaustive_sort(n, dim, k, seed):
    rng = np.random.default_rng(seed)
    # integer-valued components keep dot products exact in float arithmetic
    mat = rng.integers(-5, 6, size=(n, dim)).astype(np.float32)
    ids = [f"p{i:03d}" for i in range(n)]
    idx = PassageIndex(ids, ids, mat)
    q = rng.integers(-5, 6, size=dim).astype(np.float64)
    scores = mat.astype(np.float64) @ q
    expected = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[: min(k, n)]
    assert idx.top_k(q, k=k) == tuple((ids[i], scores[i]) for i in expected)


@given(
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_top_k_prefix_property(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(-4, 5, size=(n, 6)).astype(np.float32)
    idx = PassageIndex([f"p{i:02d}" for i in range(n)], [""] * n, mat)
    q = rng.integers(-4, 5, size=6).astype(np.float64)
    full = idx.top_k(q, k=n)
    for k in range(1, n + 1):
        assert idx.top_k(q, k=k) == full[:k]


def test_top_k_scores_equal_one_float64_product():
    # Scores come from float64 blocks of the float32 matrix; every row's score
    # must equal its score in one product over the whole upcast matrix. A
    # one-row block would be a dot product, which sums in another order, and
    # at dimension 100 a block of exactly 1 MiB would not be a whole number of
    # BLAS row groups.
    rng = np.random.default_rng(11)
    for dim in (100, 256):
        b = next(_row_blocks(10**6, dim)).stop
        for n in (1, 2, b - 1, b, b + 1, b + 2, 3 * b + 1):
            mat = rng.standard_normal((n, dim)).astype(np.float32)
            ids = [f"p{i:05d}" for i in range(n)]
            idx = PassageIndex(ids, [""] * n, mat)
            for _ in range(4):
                q = rng.standard_normal(dim)
                want = mat.astype(np.float64) @ q
                got = dict(idx.top_k(q, k=n))
                assert [got[pid] for pid in ids] == want.tolist(), (dim, n)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_index(tmp_path):
    n, dim = 20_000, 64
    mat = np.random.default_rng(5).standard_normal((n, dim)).astype(np.float32)
    idx = PassageIndex([f"p{i}" for i in range(n)], [""] * n, mat)
    path = tmp_path / "index.ffidx"
    idx.save(path)
    return idx, path, mat.nbytes


def test_top_k_peak_memory_is_a_fraction_of_the_matrix(tmp_path):
    idx, _, matrix_bytes = _memory_index(tmp_path)
    q = np.random.default_rng(6).standard_normal(idx.dimension)
    hits, peak = _traced_peak(lambda: idx.top_k(q, k=30))
    assert len(hits) == 30
    assert peak < 0.5 * matrix_bytes
    # One float64 block of the 256 KiB budget plus the n float64 scores: a
    # larger block or another temporary of the matrix's size does not fit.
    assert peak < (256 << 10) + 8 * len(idx) + (16 << 10)


def test_index_build_over_http_holds_one_chunk_of_json(http_server):
    n, dim = 2_000, 256
    endpoint, _ = http_server(embedding_reply(synth_embedder(dim)))
    http = HttpEmbeddingBackend(BackendProfile(name="e", kind="embedding", endpoint=endpoint))
    passages = [synth_passage(i) for i in range(n)]
    idx, peak = _traced_peak(lambda: index_build(passages, http))
    assert len(idx) == n
    # The float32 matrix, the float64 rows decoded so far and one chunk's
    # reply; the whole corpus as one JSON reply peaks at about 12x.
    assert peak < 5 * n * dim * 4


def test_index_build_holds_the_matrix_and_one_run(monkeypatch, tmp_path):
    n, dim, run = 5_500, 256, 1_000
    rng = random.Random(0)
    vocab = [f"w{i}" for i in range(2_000)]
    pairs = [(f"p{i}", " ".join(rng.choices(vocab, k=30))) for i in range(n)]
    embedder = synth_embedder(dim)
    index_build(pairs, embedder).save(tmp_path / "one_run.bin")  # n < _EMBED_RUN: one call
    monkeypatch.setattr(retrieval, "_EMBED_RUN", run)
    sizes = []

    class Counting:
        def embed(self, texts):
            sizes.append(len(texts))
            return embedder.embed(texts)

    idx, peak = _traced_peak(lambda: index_build(pairs, Counting()))
    assert sizes == [run] * 5 + [500]
    idx.save(tmp_path / "runs.bin")
    assert (tmp_path / "runs.bin").read_bytes() == (tmp_path / "one_run.bin").read_bytes()
    # The float32 matrix plus one run's float64 rows and the index's tables;
    # every row held as float64 at once would be twice the matrix alone.
    assert peak < n * dim * 4 + 2 * run * dim * 8


def test_index_build_refuses_a_run_of_another_width(monkeypatch):
    monkeypatch.setattr(retrieval, "_EMBED_RUN", 2)

    class Emb:
        def embed(self, texts):
            return np.ones((len(texts), 3 if "z" in texts else 2))

    pairs = [("a", "x"), ("b", "y"), ("c", "z")]
    with pytest.raises(FactforgeError,
                       match="passages from 2 embedded with dimension 3, expected 2"):
        index_build(pairs, Emb())
    with pytest.raises(ValueError, match="embedded 1 vectors for 2 passages"):
        index_build(pairs, type("Short", (), {"embed": lambda self, texts: np.ones((1, 2))})())


def test_load_peak_memory_holds_one_matrix(tmp_path):
    idx, path, matrix_bytes = _memory_index(tmp_path)
    del idx
    loaded, peak = _traced_peak(lambda: PassageIndex.load(path))
    assert len(loaded) == 20_000
    assert peak < 1.75 * matrix_bytes


# --- index construction and persistence ----------------------------------------


def test_build_rejects_duplicates_and_empty():
    with pytest.raises(FactforgeError, match="duplicate passage_id 'a'"):
        _index([[1.0], [2.0]], ids=["a", "a"])
    calls = []
    for build in (lambda: PassageIndex([], [], np.zeros((0, 3), dtype=np.float32)),
                  lambda: index_build([], types.SimpleNamespace(embed=calls.append))):
        with pytest.raises(FactforgeError, match="cannot build an index with zero passages"):
            build()
    with pytest.raises(ValueError, match="must align"):
        PassageIndex(["a", "b"], ["t"], np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="must align"):
        PassageIndex(["a", "b"], ["t", "u"], np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="matrix must be 2-D"):
        PassageIndex(["a"], ["t"], np.zeros((1, 2, 2), dtype=np.float32))
    assert calls == []


def test_build_rejects_nonfinite():
    with pytest.raises(ValueError):
        _index([[1.0, float("nan")]])
    with pytest.raises(ValueError), np.errstate(over="ignore"):  # inf as float32
        PassageIndex(["a"], ["t"], np.array([[1e39]]))


def test_index_build_from_pairs():
    class Emb:
        dimension = 4

        def embed(self, texts):
            return [np.full(4, float(len(t))) for t in texts]

    idx = index_build([("a", "xx"), ("b", "yyyy")], Emb())
    assert idx.dimension == 4
    assert idx.text_of("b") == "yyyy"
    for basis in np.eye(4):
        assert idx.top_k(basis, k=2) == (("b", 4.0), ("a", 2.0))


def test_index_build_checks_every_vector():
    class Emb:
        def __init__(self, vectors):
            self.vectors = vectors

        def embed(self, texts):
            return self.vectors

    pairs = [("a", "x"), ("b", "y"), ("c", "z")]
    # Rows of different lengths are refused as a whole, by numpy.
    with pytest.raises(ValueError, match="inhomogeneous"):
        index_build(pairs, Emb([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        index_build(pairs, Emb([[1.0, 0.0], [0.0, 1.0], [1.0, float("inf")]]))
    with pytest.raises(ValueError, match=r"expected an \(n, d\) array of vectors"):
        index_build(pairs, Emb([1.0, 0.0, 1.0]))
    for count in (2, 4):
        with pytest.raises(ValueError, match=f"embedded {count} vectors for 3 passages"):
            index_build(pairs, Emb([[1.0, 0.0]] * count))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((5, 16)).astype(np.float32)
    texts = ["alpha", "", "unicode éü", "d", "e"]
    idx = PassageIndex([f"p{i}" for i in range(5)], texts, mat)
    path = tmp_path / "index.ffidx"
    idx.save(path)
    loaded = PassageIndex.load(path)
    again = tmp_path / "again.ffidx"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()
    assert loaded.text_of("p2") == "unicode éü"
    # a basis vector scores each row by one component, exactly
    for j, basis in enumerate(np.eye(16)):
        assert dict(loaded.top_k(basis, k=5)) == {f"p{i}": float(mat[i, j]) for i in range(5)}
    q = rng.standard_normal(16)
    assert loaded.top_k(q, k=5) == idx.top_k(q, k=5)


def test_load_rejects_corruption(tmp_path):
    rng = np.random.default_rng(3)
    idx = PassageIndex(["a", "b"], ["ta", "tb"], rng.standard_normal((2, 4)).astype(np.float32))
    path = tmp_path / "index.ffidx"
    idx.save(path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.ffidx"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(MalformedRecord, match="bad magic or unsupported version"):
        PassageIndex.load(bad_magic)

    truncated = tmp_path / "t.ffidx"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(MalformedRecord, match="truncated vector"):
        PassageIndex.load(truncated)

    trailing = tmp_path / "x.ffidx"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(MalformedRecord, match="trailing bytes after final record"):
        PassageIndex.load(trailing)

    # headers that claim far more rows than the file holds: 1 PiB of float32,
    # and a shape numpy cannot allocate at all
    for count, dim in ((2**40, 256), (2**62, 2**31)):
        huge = tmp_path / f"h{count}.ffidx"
        huge.write_bytes(raw[:6] + struct.pack("<IQ", dim, count))
        with pytest.raises(MalformedRecord, match="more than the file holds"):
            PassageIndex.load(huge)


def test_load_rejects_every_truncation_and_bad_utf8(tmp_path):
    # A long first text lets cuts inside the records pass the header-size check.
    idx = PassageIndex(["a", "bé"], ["t" * 100, ""],
                       np.arange(6, dtype=np.float32).reshape(2, 3))
    path = tmp_path / "index.ffidx"
    idx.save(path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ffidx"
    raised = set()
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(MalformedRecord) as exc:
            PassageIndex.load(cut)
        assert exc.match("shorter than header|truncated|more than the file holds")
        raised.add(str(exc.value).split(" of ")[0])
    assert {"truncated length prefix", "truncated string", "truncated vector"} <= raised

    # the first id is b"a" right after the header and its length prefix
    at = raw.index(b"a", 22)
    bad_id = tmp_path / "u.ffidx"
    bad_id.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(MalformedRecord, match="string is not UTF-8"):
        PassageIndex.load(bad_id)


# --- recall ---------------------------------------------------------------------


def test_recall_at_k_basic():
    idx = _index([[3.0], [2.0], [1.0]])
    hits = idx.top_k(np.array([1.0]), k=3)
    assert recall_at_k(hits, {"p0"}, k=1) == 1.0
    assert recall_at_k(hits, {"p2"}, k=1) == 0.0
    assert recall_at_k(hits, {"p0", "p2"}, k=2) == 0.5
    assert recall_at_k(hits, {"p0", "p2"}) == 1.0


def test_recall_empty_relevant_set_is_error():
    idx = _index([[1.0]])
    hits = idx.top_k(np.array([1.0]), k=1)
    with pytest.raises(ValueError):
        recall_at_k(hits, set())


@given(
    n=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_recall_monotone_in_k(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, 5)).astype(np.float32)
    idx = PassageIndex([f"p{i}" for i in range(n)], [""] * n, mat)
    hits = idx.top_k(rng.standard_normal(5), k=n)
    relevant = {f"p{i}" for i in rng.choice(n, size=max(1, n // 3), replace=False)}
    values = [recall_at_k(hits, relevant, k=k) for k in range(1, n + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


# --- in-batch contrastive loss ----------------------------------------------------


def test_loss_single_pair_is_exactly_zero():
    v = np.array([[0.3, -0.7, 2.0]])
    assert in_batch_loss(v, v) == 0.0


def test_loss_two_identical_pairs_is_two_log_two():
    v = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert in_batch_loss(v, v) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_loss_extreme_scores_stable():
    # max-subtraction keeps huge logits from overflowing
    claims = np.array([[1e4, 0.0], [0.0, 1e4]])
    positives = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = in_batch_loss(claims, positives)
    assert math.isfinite(out)
    assert out == pytest.approx(0.0, abs=1e-6)


def test_loss_input_validation():
    v = np.ones((2, 3))
    with pytest.raises(ValueError):
        in_batch_loss(v, np.ones((3, 3)))
    with pytest.raises(FactforgeError, match="dimensions differ: 3 vs 4"):
        in_batch_loss(v, np.ones((2, 4)))
    with pytest.raises(ValueError):
        in_batch_loss(np.ones((0, 3)), np.ones((0, 3)))
    with pytest.raises(ValueError, match="expected 2-D arrays"):
        in_batch_loss(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        in_batch_loss(v, np.array([[1.0, 0.0, 0.0], [0.0, float("inf"), 0.0]]))


@given(
    n=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_loss_matches_unstabilized_formula(n, dim, seed):
    rng = np.random.default_rng(seed)
    claims = rng.standard_normal((n, dim))
    positives = rng.standard_normal((n, dim))
    scores = claims @ positives.T
    expected = sum(
        math.log(sum(math.exp(scores[i, j]) for j in range(n))) - scores[i, i]
        for i in range(n)
    )
    assert in_batch_loss(claims, positives) == pytest.approx(expected, abs=1e-9)


@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_loss_nonnegative_addend_per_row(n, seed):
    # log-sum-exp over a row always dominates the diagonal term
    rng = np.random.default_rng(seed)
    claims = rng.standard_normal((n, 4))
    positives = rng.standard_normal((n, 4))
    assert in_batch_loss(claims, positives) >= -1e-12
