"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install` replaces each layer's public callables with timing
wrappers, in every factforge module that holds a reference to them (so
names that `cli` imported directly are wrapped too), and `uninstall` puts
the originals back. Each span records its name, start, end, parent span and
run id; spans stay in memory until `write` is called at the end of the run.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Module-level functions wrapped in each layer, by module.
FUNCTIONS = {
    "corpus": ("read_pages", "page_passages", "sample_passage", "write_passages"),
    "synthgen": ("generate_record",),
    "dataset": (
        "split_train_val", "derive_retriever_pairs", "derive_nli_triplets",
        "mine_neutral_passage", "build_task1", "build_task2",
    ),
    "retrieval": ("index_build",),
    "verification": ("verify_claim", "verify_text"),
    "evalharness": ("build_prompt", "parse_llm_verdict", "run_benchmark"),
    "jsonlio": ("write_jsonl", "iter_jsonl", "read_records"),
}
# Backend methods, wrapped on every backends class that defines them.
BACKEND_METHODS = {"complete": "backends.chat", "embed": "backends.embed",
                   "classify": "backends.nli"}
INDEX_METHODS = ("top_k", "save", "load")


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Attributes recorded from a call: (args, kwargs, result) -> dict.
HOOKS = {
    "backends.embed": lambda a, kw, r: {"n": len(a[1])},
    "retrieval.index_build": lambda a, kw, r: {"n": len(r)},
    "retrieval.save": lambda a, kw, r: {"bytes": _file_bytes(a[1])},
    "retrieval.load": lambda a, kw, r: {"bytes": _file_bytes(a[1])},
    "verification.verify_claim": lambda a, kw, r: {"rank": r.rank_examined},
    "evalharness.run_benchmark": lambda a, kw, r: {
        "instance_seeds": r.n_instances * len(r.runs)},
    "jsonlio.write_jsonl": lambda a, kw, r: {"bytes": _file_bytes(a[0])},
    "corpus.write_passages": lambda a, kw, r: {"n": r},
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id, parent, name, start):
        self.id, self.parent, self.name, self.start = id, parent, name, start
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span belongs to what the main thread is doing.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), parent.id if parent else None, name, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if span in stack:
            stack.remove(span)

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                s = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(s)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if hook is not None:
                s.attrs = hook(args, kwargs, result)
            return result
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable wherever a factforge module names it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "factforge" or n.startswith("factforge.")) and m is not None]
        for short, names in FUNCTIONS.items():
            mod = sys.modules.get(f"factforge.{short}")
            for attr in names:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, key, wrapped)
        backends = sys.modules["factforge.backends"]
        for cls in vars(backends).values():
            if not isinstance(cls, type) or cls.__module__ != backends.__name__:
                continue
            for method, name in BACKEND_METHODS.items():
                if method in cls.__dict__:
                    self._set(cls, method, self.wrap(name, cls.__dict__[method]))
        index_cls = sys.modules["factforge.retrieval"].PassageIndex
        for method in INDEX_METHODS:
            orig = index_cls.__dict__[method]
            if isinstance(orig, classmethod):
                self._set(index_cls, method,
                          classmethod(self.wrap(f"retrieval.{method}", orig.__func__)))
            else:
                self._set(index_cls, method, self.wrap(f"retrieval.{method}", orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


# --- per-layer metrics ----------------------------------------------------------


class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = [s for s in spans if s.end is not None]
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def under(self, span: Span, *names: str) -> bool:
        """Whether one of the span's ancestors has one of the names."""
        pid = span.parent
        while pid is not None:
            parent = self.by_id.get(pid)
            if parent is None:
                return False
            if parent.name in names:
                return True
            pid = parent.parent
        return False

    def count_under(self, name: str, *ancestors: str) -> int:
        return sum(1 for s in self.named(name) if self.under(s, *ancestors))

    def self_time(self, span: Span) -> float:
        covered = 0.0
        edge = span.start
        for c in sorted(self.children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return span.duration - covered

    def total(self, *names: str) -> float:
        """Time inside spans with these names, not counting nested repeats."""
        return sum(s.duration for s in self.named(*names) if not self.under(s, *names))

    def self_total(self, *names: str) -> float:
        return sum(self.self_time(s) for s in self.named(*names))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


CLI_STAGES = ("ingest", "generate", "derive", "index", "verify", "eval")


def layer_metrics(spans: list[Span], n_ops: int, n_passes: int, server: dict,
                  latency_ms: float, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit). Metrics of a layer the
    workload does not touch read 0. Backend counts come from the latency
    server. Counts and self times are per operation (pipeline pass or
    verified text); stage times and bytes are per pass of the workload (one
    pipeline run, or one measured phase)."""
    ix = SpanIndex(spans)
    calls = ix.named(*BACKEND_METHODS.values())
    durations_ms = [1000.0 * s.duration for s in calls]
    m: dict[str, tuple[float, str]] = {}

    routes = server["routes"]
    m["backends.chat.calls"] = (_ratio(routes["chat"]["calls"], n_ops), "calls/op")
    m["backends.embed.calls"] = (_ratio(routes["embed"]["calls"], n_ops), "calls/op")
    m["backends.nli.calls"] = (_ratio(routes["nli"]["calls"], n_ops), "calls/op")
    m["backends.retries"] = (_ratio(server["retries"], n_ops), "calls/op")
    m["backends.unique_request_share"] = (_ratio(server["distinct"], server["calls"]), "share")
    m["backends.busy_share"] = (_ratio(server["busy_s"], server["wall_s"]), "share")
    m["backends.peak_in_flight"] = (float(server["peak_in_flight"]), "count")
    m["backends.call_p50_ms"] = (percentile(durations_ms, 50), "ms")
    m["backends.overhead_p50_ms"] = (
        percentile([d - latency_ms for d in durations_ms], 50), "ms")

    claims = ix.named("verification.verify_claim")
    nli_in_scan = ix.count_under("backends.nli", "verification.verify_claim")
    ranks = sum(s.attrs.get("rank", 0) for s in claims)
    m["verification.nli_calls_per_claim"] = (_ratio(nli_in_scan, len(claims)), "calls/claim")
    m["verification.ranks_examined_per_claim"] = (_ratio(ranks, len(claims)), "ranks/claim")
    m["verification.nli_useful_share"] = (_ratio(ranks, nli_in_scan), "share")
    m["verification.scan_self_ms"] = (
        _ratio(1000.0 * ix.self_total("verification.verify_claim"), n_ops), "ms")

    builds = ix.named("retrieval.index_build")
    build_embeds = [s for s in ix.named("backends.embed") if ix.under(s, "retrieval.index_build")]
    saves, loads = ix.named("retrieval.save"), ix.named("retrieval.load")
    top_k_ms = [1000.0 * s.duration for s in ix.named("retrieval.top_k")]
    m["retrieval.embed_passages_per_s"] = (
        _ratio(sum(s.attrs.get("n", 0) for s in build_embeds),
               sum(s.duration for s in build_embeds)), "1/s")
    m["retrieval.index_passages_per_s"] = (
        _ratio(sum(s.attrs.get("n", 0) for s in builds), ix.total("cli.index")), "1/s")
    m["retrieval.build_s"] = (_ratio(sum(s.duration for s in builds), len(builds)), "s")
    m["retrieval.save_s"] = (_ratio(sum(s.duration for s in saves), len(saves)), "s")
    m["retrieval.load_s"] = (_ratio(sum(s.duration for s in loads), len(loads)), "s")
    m["retrieval.index_bytes"] = (
        float(max((s.attrs.get("bytes", 0) for s in saves + loads), default=0)), "bytes")
    m["retrieval.top_k_p50_ms"] = (percentile(top_k_ms, 50), "ms")
    m["retrieval.top_k_p90_ms"] = (percentile(top_k_ms, 90), "ms")

    corpus_names = tuple(f"corpus.{n}" for n in FUNCTIONS["corpus"])
    ingest_s = ix.total(*corpus_names)
    ingests = len(ix.named("cli.ingest"))
    m["corpus.ingest_s"] = (_ratio(ingest_s, ingests), "s")
    m["corpus.passages_per_s"] = (
        _ratio(sum(s.attrs.get("n", 0) for s in ix.named("corpus.write_passages")), ingest_s), "1/s")

    records = ix.named("synthgen.generate_record")
    m["synthgen.attempts_per_record"] = (
        _ratio(ix.count_under("backends.chat", "synthgen.generate_record"), len(records)),
        "calls/record")
    m["synthgen.parse_validate_self_ms"] = (
        _ratio(1000.0 * ix.self_total("synthgen.generate_record"), n_ops), "ms")

    dataset_names = tuple(f"dataset.{n}" for n in FUNCTIONS["dataset"])
    m["dataset.neutral_mining.nli_calls"] = (
        _ratio(ix.count_under("backends.nli", "dataset.mine_neutral_passage"), n_ops), "calls/op")
    m["dataset.derive_s"] = (_ratio(ix.total(*dataset_names), n_passes), "s")

    instance_seeds = sum(s.attrs.get("instance_seeds", 0)
                         for s in ix.named("evalharness.run_benchmark"))
    m["evalharness.judge_calls_per_instance_seed"] = (
        _ratio(ix.count_under("backends.chat", "evalharness.run_benchmark"), instance_seeds),
        "calls")
    m["evalharness.prompt_build_self_ms"] = (
        _ratio(1000.0 * ix.self_total("evalharness.build_prompt"), n_ops), "ms")

    writes = ix.named("jsonlio.write_jsonl")
    m["jsonlio.write_s"] = (_ratio(ix.total("jsonlio.write_jsonl"), n_passes), "s")
    m["jsonlio.read_s"] = (_ratio(ix.total("jsonlio.iter_jsonl", "jsonlio.read_records"), n_passes), "s")
    m["jsonlio.bytes_written"] = (_ratio(sum(s.attrs.get("bytes", 0) for s in writes), n_passes),
                                  "bytes")

    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = (_ratio(ix.total(f"cli.{stage}"), n_passes), "s")

    m["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    m["tracing.overhead_share"] = (_ratio(traced_s - untraced_s, untraced_s), "share")
    m["tracing.spans_per_op"] = (_ratio(len(ix.spans), n_ops), "count")
    return m
