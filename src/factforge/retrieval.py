"""Dense passage retrieval: exact top-k over dot-product scores, recall, and
the in-batch contrastive training loss.

The index is a flat matrix scanned exhaustively; no approximate structures.
Ties in score break toward the lexicographically smaller passage id.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FactforgeError, MalformedRecord
from .jsonlio import atomic_write

_MAGIC = b"FFIX"
_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")  # magic, version, dimension, count
_U32 = struct.Struct("<I")

# The matrix is held once, as float32, and scored in float64: top_k upcasts one
# block of rows at a time, so no temporary exceeds about this many bytes.
_BLOCK_BYTES = 1 << 18
# Blocks are a whole number of this many rows. BLAS scores the rows of a
# matrix-vector product in groups (four at a time in OpenBLAS), and rows left
# over after the last whole group are summed in another order; aligned blocks
# keep every row in the group it has in one product over the whole matrix.
_BLOCK_ALIGN = 16
# index_build embeds at most this many passages per call, so it holds the
# float32 matrix and one run's float64 rows at once, at any corpus size.
_EMBED_RUN = 8192


def _row_blocks(n: int, dim: int) -> Iterator[slice]:
    """Consecutive slices of n rows, each about _BLOCK_BYTES as float64.

    The last block absorbs a one-row remainder: numpy computes a one-row
    product as a dot product, whose sum is ordered differently from the
    same row's inside a matrix-vector product.
    """
    step = max(_BLOCK_ALIGN,
               _BLOCK_BYTES // (8 * max(dim, 1)) // _BLOCK_ALIGN * _BLOCK_ALIGN)
    start = 0
    while start < n:
        stop = start + step
        if stop >= n - 1:
            stop = n
        yield slice(start, stop)
        start = stop


class PassageIndex:
    """Flat dense index mapping passage ids (and texts) to vectors."""

    def __init__(self, ids: Sequence[str], texts: Sequence[str], matrix: np.ndarray):
        if len(ids) != len(texts) or len(ids) != matrix.shape[0]:
            raise ValueError("ids, texts and matrix rows must align")
        if len(ids) == 0:
            raise FactforgeError("cannot build an index with zero passages")
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        for block in _row_blocks(*self._matrix.shape):
            if not np.isfinite(self._matrix[block]).all():
                raise ValueError("index vectors contain non-finite values")
        self._pos: dict[str, int] = {}
        for i, pid in enumerate(ids):
            if pid in self._pos:
                raise FactforgeError(f"duplicate passage_id {pid!r}")
            self._pos[pid] = i
        self._ids = list(ids)
        self._texts = list(texts)

    @property
    def dimension(self) -> int:
        return int(self._matrix.shape[1])

    def __len__(self) -> int:
        return len(self._ids)

    def text_of(self, passage_id: str) -> str:
        return self._texts[self._pos[passage_id]]

    def top_k(self, query_vec, k: int) -> tuple[tuple[str, float], ...]:
        """The k (passage_id, score) pairs with highest dot product against
        query_vec, best first.

        Exhaustive exact scan. Score ties break toward the smaller
        passage id; fewer than k hits are returned when the index is
        smaller than k.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query_vec, dtype=np.float64)
        if q.ndim != 1:
            raise ValueError(f"expected 1-D vector, got shape {q.shape}")
        if q.shape[0] != self.dimension:
            raise FactforgeError(f"query has dimension {q.shape[0]}, index has {self.dimension}")
        if not np.isfinite(q).all():
            raise ValueError("query contains non-finite values")
        n = len(self._ids)
        # Bit for bit the scores of one product self._matrix.astype(np.float64) @ q
        # on one BLAS thread, without that product's float64 copy of the matrix.
        scores = np.empty(n)
        for block in _row_blocks(n, self.dimension):
            np.matmul(self._matrix[block].astype(np.float64), q, out=scores[block])
        if k < n:
            # Exact top-k: find the k-th largest score, keep everything at or
            # above it (ties included), then order that pool.
            kth = np.partition(scores, n - k)[n - k]
            pool = np.nonzero(scores >= kth)[0]
        else:
            pool = np.arange(n)
        order = sorted(pool, key=lambda i: (-scores[i], self._ids[i]))[:k]
        return tuple((self._ids[i], float(scores[i])) for i in order)

    def save(self, path: str | Path) -> None:
        """Persist to a binary file.

        Layout: header (magic, version, dimension, count), then one record
        per passage: length-prefixed id bytes, length-prefixed text bytes,
        then dimension little-endian float32 values. The file is replaced
        atomically.
        """
        with atomic_write(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, self.dimension, len(self._ids)))
            for pid, text, row in zip(self._ids, self._texts, self._matrix):
                id_bytes = pid.encode("utf-8")
                text_bytes = text.encode("utf-8")
                fh.write(_U32.pack(len(id_bytes)))
                fh.write(id_bytes)
                fh.write(_U32.pack(len(text_bytes)))
                fh.write(text_bytes)
                fh.write(row.astype("<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "PassageIndex":
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise MalformedRecord("file shorter than header")
            magic, version, dim, count = _HEADER.unpack(header)
            if magic != _MAGIC or version != _VERSION:
                raise MalformedRecord("bad magic or unsupported version")
            # A record is at least two length prefixes and a vector: check the
            # header against the file size before allocating the matrix.
            if count * (2 * _U32.size + 4 * dim) > size - _HEADER.size:
                raise MalformedRecord(f"header declares {count} rows of dimension {dim}, "
                                       "more than the file holds")
            ids: list[str] = []
            texts: list[str] = []
            rows = np.empty((count, dim), dtype="<f4")
            for i in range(count):
                ids.append(_read_str(fh, size))
                texts.append(_read_str(fh, size))
                if fh.readinto(rows[i]) != 4 * dim:
                    raise MalformedRecord("truncated vector")
            if fh.read(1):
                raise MalformedRecord("trailing bytes after final record")
        return cls(ids, texts, rows)


def _read_str(fh, limit: int) -> str:
    """Read one length-prefixed UTF-8 string; limit caps the length read."""
    prefix = fh.read(_U32.size)
    if len(prefix) != _U32.size:
        raise MalformedRecord("truncated length prefix")
    (length,) = _U32.unpack(prefix)
    data = fh.read(length) if length <= limit else b""
    if len(data) != length:
        raise MalformedRecord(f"truncated string of {length} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"string is not UTF-8: {exc}") from exc


def index_build(passages: Iterable, embedder) -> PassageIndex:
    """Embed passages and build the index.

    Accepts Passage objects or (passage_id, text) pairs. Each run of at
    most _EMBED_RUN passages is one `embed` call, which returns an (n, d)
    array (or rows numpy reads as one), cast into one preallocated float32
    matrix; a run of another width than the first is refused. Duplicate ids
    and empty input are errors.
    """
    ids: list[str] = []
    texts: list[str] = []
    for p in passages:
        if hasattr(p, "passage_id"):
            ids.append(p.passage_id)
            texts.append(p.text)
        else:
            pid, text = p
            ids.append(pid)
            texts.append(text)
    matrix = np.empty((0, 0), dtype=np.float32)
    for start in range(0, len(ids), _EMBED_RUN):
        run = texts[start:start + _EMBED_RUN]
        rows = np.asarray(embedder.embed(run))  # rows of different lengths: ValueError
        if rows.ndim != 2:
            raise ValueError(f"expected an (n, d) array of vectors, got shape {rows.shape}")
        if len(rows) != len(run):
            raise ValueError(f"embedded {len(rows)} vectors for {len(run)} passages")
        matrix = matrix if start else np.empty((len(ids), rows.shape[1]), dtype=np.float32)
        if rows.shape[1] != matrix.shape[1]:
            raise FactforgeError(f"passages from {start} embedded with dimension "
                                 f"{rows.shape[1]}, expected {matrix.shape[1]}")
        matrix[start:start + len(run)] = rows
        del rows  # before the next run is embedded
    return PassageIndex(ids, texts, matrix)  # checks finiteness


def recall_at_k(hits: Sequence[tuple[str, float]], relevant: Iterable[str],
                k: int | None = None) -> float:
    """Fraction of relevant passage ids present among the top-k hits."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    return len(relevant.intersection(pid for pid, _ in hits[:k])) / len(relevant)


def in_batch_loss(claim_vecs, positive_vecs) -> float:
    """Contrastive loss over a batch where each claim's positive passage is
    everyone else's in-batch negative.

    For batch row i with scores s_ij = claim_i . passage_j, the loss term is
    -log(exp(s_ii) / sum_j exp(s_ij)); the total is the sum over rows,
    computed with max-subtraction for numerical stability. A batch of one
    is exactly 0.
    """
    c = np.asarray(claim_vecs, dtype=np.float64)
    p = np.asarray(positive_vecs, dtype=np.float64)
    if c.ndim != 2 or p.ndim != 2:
        raise ValueError("expected 2-D arrays (batch, dimension)")
    if c.shape[0] != p.shape[0]:
        raise ValueError(f"batch sizes differ: {c.shape[0]} vs {p.shape[0]}")
    if c.shape[1] != p.shape[1]:
        raise FactforgeError(f"dimensions differ: {c.shape[1]} vs {p.shape[1]}")
    if c.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(p))):
        raise ValueError("vectors contain non-finite values")
    scores = c @ p.T
    row_max = scores.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(scores - row_max).sum(axis=1))
    return float(np.sum(lse - np.diag(scores)))
