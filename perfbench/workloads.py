"""The benchmark's workloads.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns. `setup` makes the inputs
and starts the latency server, `measure` runs operations until time is up,
or a given number of them, and `check` compares every output with what it
must be. The package is driven only through its public API and
`factforge.cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from factforge import cli, retrieval, verification
from factforge.backends import BackendProfile, build_backend
from factforge.evalharness import balanced_accuracy

import fixtures
import models
import server as latency_server
from fixtures import MARKER

LATENCY_MS = 5.0      # injected by the server into every model call
MAX_IN_FLIGHT = 2     # nproc of the reference machine
RETRY_BACKOFF_S = 0.002
DIMENSION = 256       # hashed bag-of-words embedding size
TOP_K = 30
SRC = Path(__file__).resolve().parent.parent / "src"


class OpFailed(Exception):
    """One operation raised or returned a wrong output."""


@dataclass
class Measured:
    """What one measured phase produced."""

    op_s: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    calls: int = 0
    server: dict | None = None
    wall_s: float = 0.0
    passes: int = 1  # runs of the workload's whole pipeline

    @property
    def n_ops(self) -> int:
        return len(self.op_s)


def _keep_going(n: int, start: float, seconds: float | None, n_ops: int | None,
                min_ops: int) -> bool:
    if n_ops is not None:
        return n < n_ops
    return n < min_ops or time.perf_counter() - start < seconds


def _read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class LatencyServer:
    """The loopback latency server, in a process forked from this one."""

    def __init__(self, seed: int, malformed_share: float = 0.0, fault_share: float = 0.0):
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        self.proc = context.Process(
            target=latency_server.serve, daemon=True,
            args=(send, seed, LATENCY_MS, malformed_share, fault_share, DIMENSION))
        self.proc.start()
        send.close()
        try:
            port = receive.recv() if receive.poll(30) else None
        except EOFError:  # the server process ended before it listened
            port = None
        receive.close()
        if port is None:
            self.stop()
            raise RuntimeError("latency server did not start")
        self.url = f"http://127.0.0.1:{port}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(urllib.request.Request(self.url + path, data=data),
                                    timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/_stats")

    def reset(self) -> None:
        self._call("/_reset", b"{}")

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.join(10)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.proc.close()


def merge_stats(parts: list[dict]) -> dict:
    """Server counters summed over phases that each started with a reset."""
    out = {"routes": {k: {"calls": 0} for k in ("chat", "embed", "nli")},
           "calls": 0, "retries": 0, "distinct": 0, "peak_in_flight": 0,
           "busy_s": 0.0, "wall_s": 0.0}
    for p in parts:
        for k in out["routes"]:
            out["routes"][k]["calls"] += p["routes"][k]["calls"]
        for k in ("calls", "retries", "distinct", "busy_s", "wall_s"):
            out[k] += p[k]
        out["peak_in_flight"] = max(out["peak_in_flight"], p["peak_in_flight"])
    return out


def http_profiles(url: str) -> dict:
    common = {"transport": "http", "endpoint": url, "model": "bench", "timeout": 10.0,
              "max_in_flight": MAX_IN_FLIGHT, "retry_backoff": RETRY_BACKOFF_S}
    return {
        "gen": {"kind": "chat", **common},
        "judge": {"kind": "chat", **common},
        "embed": {"kind": "embedding", **common},
        "nli": {"kind": "nli", **common},
    }


MOCK_PROFILES = {
    "mock_embed": {"kind": "embedding", "transport": "mock",
                   "options": {"mock": "hashed_bow", "dimension": DIMENSION}},
    "mock_nli": {"kind": "nli", "transport": "mock",
                 "options": {"mock": "rules", "contradictions": [[".", MARKER]]}},
}


def backend(name: str, row: dict):
    return build_backend(BackendProfile(name=name, **row))


class Workload:
    name = ""
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.dir: Path | None = None
        self.server: LatencyServer | None = None

    def write_config(self, profiles: dict) -> None:
        self.config = self.dir / "backends.json"
        self.config.write_text(json.dumps({"profiles": profiles}), encoding="utf-8")

    def run_cli(self, tracer, stage: str, *args) -> None:
        """Run one CLI subcommand in this process; OpFailed on a non-zero exit."""
        argv = [stage, *(str(a) for a in args), "--config", str(self.config)]
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span(f"cli.{stage}"):
                code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"factforge {stage} exited with {code}")

    def run_cli_child(self, stage: str, *args) -> None:
        """Run one CLI subcommand in a child process."""
        done = subprocess.run(
            [sys.executable, "-c", "from factforge.cli import entrypoint; entrypoint()",
             stage, *(str(a) for a in args), "--config", str(self.config)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
        if done.returncode != 0:
            raise OpFailed(f"factforge {stage} exited with {done.returncode}: "
                           f"{done.stderr[-500:]}")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


# --- pipeline_http -------------------------------------------------------------


class PipelineHttp(Workload):
    """The paper's loop through the CLI, every model call over loopback HTTP."""

    name = "pipeline_http"
    min_ops = 2  # artifact digests must repeat across passes
    PAGES = 200
    PAGE_SENTENCES = 4
    INGEST_WINDOW = 3  # two windows per page: one neutral-mining candidate per record
    VERIFY_TEXTS = 4
    EVAL_SEEDS = 3
    # Assumed fault rates, not measured ones (see README.md).
    MALFORMED_SHARE = 0.1
    FAULT_SHARE = 0.02

    def setup(self, workdir: Path) -> None:
        self.dir = workdir
        workdir.mkdir(parents=True)
        self.inputs = fixtures.pipeline_inputs(
            self.seed, workdir, self.PAGES, self.PAGE_SENTENCES, self.VERIFY_TEXTS)
        self.server = LatencyServer(self.seed, self.MALFORMED_SHARE, self.FAULT_SHARE)
        self.write_config(http_profiles(self.server.url))
        self.passes = 0

    def _pass(self, d: Path, tracer) -> None:
        """One pass of the whole loop."""
        w = ["--window", self.INGEST_WINDOW]
        seeds = ["--seeds", self.EVAL_SEEDS, "--seed", self.seed]
        self.run_cli(tracer, "ingest", "--pages", self.inputs["pages"], "--out",
                 d / "passages.jsonl", "--sample-per-page", "--seed", self.seed, *w)
        self.run_cli(tracer, "ingest", "--pages", self.inputs["pages"], "--out",
                         d / "windows.jsonl", *w)
        self.run_cli(tracer, "generate", "--passages", d / "passages.jsonl", "--backend", "gen",
                 "--out", d / "records.jsonl")
        self.run_cli(tracer, "derive", "--records", d / "records.jsonl", "--what", "retriever",
                 "--out", d / "retriever.jsonl")
        self.run_cli(tracer, "derive", "--records", d / "records.jsonl", "--what", "nli",
                 "--out", d / "nli.jsonl", "--passages", d / "windows.jsonl",
                 "--nli-backend", "nli")
        for task in ("task1", "task2"):
            self.run_cli(tracer, "derive", "--records", d / "records.jsonl", "--what", task,
                     "--out", d / f"{task}.jsonl", "--split", "val", "--seed", self.seed)
        self.run_cli(tracer, "index", "--passages", d / "windows.jsonl",
                 "--backend", "embed", "--out", d / "index.bin")
        for i, row in enumerate(self.inputs["texts"]):
            self.run_cli(tracer, "verify", "--text", self.dir / row["file"], "--index",
                     d / "index.bin", "--backends", "extractor=gen,embedder=embed,nli=nli",
                     "--k", TOP_K, "--trace", d / f"verify{i}.jsonl")
        self.run_cli(tracer, "eval", "--task", "1", "--mode", "zs", "--instances",
                 d / "task1.jsonl", "--backend", "judge", "--report", d / "eval_t1_zs.json",
                 *seeds)
        self.run_cli(tracer, "eval", "--task", "1", "--mode", "rag", "--instances",
                 d / "task1.jsonl", "--backend", "judge", "--index", d / "index.bin",
                 "--embed-backend", "embed", "--report", d / "eval_t1_rag.json", *seeds)
        self.run_cli(tracer, "eval", "--task", "2", "--mode", "zs", "--instances",
                 d / "task2.jsonl", "--backend", "judge", "--report", d / "eval_t2_zs.json",
                 *seeds)

    def measure(self, seconds=None, n_ops=None, tracer=None) -> Measured:
        out = Measured()
        stats = []
        start = time.perf_counter()
        while _keep_going(out.n_ops, start, seconds, n_ops, self.min_ops):
            self.passes += 1
            d = self.dir / f"pass{self.passes}"
            d.mkdir()
            self.server.reset()
            t0 = time.perf_counter()
            try:
                self._pass(d, tracer)
            except Exception as exc:  # a failed pass is counted, the loop goes on
                out.errors[out.n_ops] = f"{type(exc).__name__}: {exc}"
            out.op_s.append(time.perf_counter() - t0)
            stats.append(self.server.stats())
            out.outputs.append(d)
        out.wall_s = time.perf_counter() - start
        out.passes = out.n_ops
        out.server = merge_stats(stats)
        out.calls = out.server["calls"]
        return out

    def check(self, out: Measured) -> dict[int, str]:
        failures = dict(out.errors)
        digests = {}
        for i, d in enumerate(out.outputs):
            if i in failures:
                continue
            try:
                digests[i] = self._check_pass(d)
            except (OpFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                failures[i] = f"{type(exc).__name__}: {exc}"
        if len(set(digests.values())) > 1:
            for i in digests:
                failures.setdefault(i, "artifact digests differ between passes")
        return failures

    def _check_pass(self, d: Path) -> str:
        def need(ok: bool, what: str) -> None:
            if not ok:
                raise OpFailed(f"{d.name}: {what}")

        records = _read_rows(d / "records.jsonl")[1:]
        need(len(records) == self.PAGES, f"{len(records)} records for {self.PAGES} pages")
        for r in records:
            text = " ".join(r["passage"]["sentences"])
            expected = int(fixtures.malformed_first(self.seed, text, self.MALFORMED_SHARE))
            need(r["retries"] == expected, f"record {r['record_id']} retried {r['retries']}x")
        claims = [len(r["outputs"]["claims"]) for r in records]
        for name, want in (("retriever", sum(3 * (n + 1) for n in claims)),
                           ("nli", sum(3 * n + 4 for n in claims))):
            rows = _read_rows(d / f"{name}.jsonl")
            need(rows[0]["count"] == want and len(rows) - 1 == want,
                 f"{name}: {len(rows) - 1} rows, expected {want}")
        need(_read_rows(d / "nli.jsonl")[0]["neutrals_mined"] is True, "no neutrals mined")
        ids = {r["record_id"] for r in records}
        split = None
        for task in ("task1", "task2"):
            rows = _read_rows(d / f"{task}.jsonl")[1:]
            rec = {row["record_id"] for row in rows}
            need(rec <= ids and len(rows) == 2 * len(rec) and rec, f"{task} instances")
            need(split is None or rec == split, "task1 and task2 use different splits")
            split = rec
        for i, row in enumerate(self.inputs["texts"]):
            verdict = _read_rows(d / f"verify{i}.jsonl")[-1]
            need(verdict == {"factual": row["factual"]}, f"verify{i}: {verdict}")
        for report_name, task in (("eval_t1_zs", "task1"), ("eval_t1_rag", "task1"),
                                  ("eval_t2_zs", "task2")):
            report = json.loads((d / f"{report_name}.json").read_text(encoding="utf-8"))
            rows = _read_rows(d / f"{task}.jsonl")[1:]
            seen = [row["text"] if task == "task1" else row["claim"] + row["evidence"]
                    for row in rows]
            implied = balanced_accuracy([MARKER not in s.lower() for s in seen],
                                        [row["label"] for row in rows])
            need(report["balanced_accuracy"] == implied and report["n_instances"] == len(rows)
                 and len(report["runs"]) == self.EVAL_SEEDS
                 and all(r["n_failed"] == 0 and r["n_unparseable"] == 0
                         for r in report["runs"]),
                 f"{report_name}: accuracy {report['balanced_accuracy']}, implied {implied}")
        digest = hashlib.sha256()
        for path in sorted(d.iterdir()):
            data = path.read_bytes()
            if path.suffix == ".json":
                report = json.loads(data)
                report.pop("runtime_seconds", None)
                data = json.dumps(report, sort_keys=True).encode()
            digest.update(path.name.encode() + b"\0" + data)
        return digest.hexdigest()


# --- verify_http ---------------------------------------------------------------


class VerifyHttp(Workload):
    """`verify_text` over HTTP backends against a prebuilt index."""

    name = "verify_http"
    min_ops = 100  # a p90 with ten samples above it
    TEXTS = 800
    PASSAGES = 5000
    PAGE_SENTENCES = 14

    # Scores closer than this may rank in either order: factforge scores a
    # float32 matrix, the check's own scan float64.
    SCORE_TIE = 1e-5

    def setup(self, workdir: Path) -> None:
        self.dir = workdir
        workdir.mkdir(parents=True)
        self.inputs = fixtures.verify_inputs(
            self.seed, workdir, self.TEXTS, self.PASSAGES, self.PAGE_SENTENCES)
        self._scan = None
        self.write_config(MOCK_PROFILES)
        self.index_path = workdir / "index.bin"
        # Built in child processes, so the peak memory of this process stays
        # that of the verification loop.
        self.run_cli_child("ingest", "--pages", self.inputs["pages"],
                         "--out", workdir / "windows.jsonl")
        self.run_cli_child("index", "--passages", workdir / "windows.jsonl",
                         "--backend", "mock_embed", "--out", self.index_path)
        self.server = LatencyServer(self.seed)
        profiles = http_profiles(self.server.url)
        self.extractor = verification.ChatClaimExtractor(backend("gen", profiles["gen"]))
        self.embedder = backend("embed", profiles["embed"])
        self.nli = backend("nli", profiles["nli"])

    def measure(self, seconds=None, n_ops=None, tracer=None) -> Measured:
        out = Measured()
        start = time.perf_counter()
        index = retrieval.PassageIndex.load(self.index_path)
        self.server.reset()
        texts = self.inputs["texts"]
        while _keep_going(out.n_ops, start, seconds, n_ops, self.min_ops) \
                and out.n_ops < len(texts):
            t0 = time.perf_counter()
            try:
                verdict = verification.verify_text(
                    texts[out.n_ops]["text"], self.extractor, index, self.embedder, self.nli,
                    TOP_K)
            except Exception as exc:  # counted as a failed operation
                verdict = None
                out.errors[out.n_ops] = f"{type(exc).__name__}: {exc}"
            out.op_s.append(time.perf_counter() - t0)
            out.outputs.append(verdict)
        out.wall_s = time.perf_counter() - start
        out.server = self.server.stats()
        out.calls = out.server["calls"]
        return out

    def scan_problem(self, trace) -> str | None:
        """What is wrong with a claim trace, judged by an exhaustive scan of the
        fixture's windows with models.py's embedding and NLI rule, or None.

        The deciding passage must decide the claim that way under the rule,
        no window that ranks clearly above it may decide the claim, and the
        rank examined must be its rank in the scan, up to score ties.
        """
        if self._scan is None:
            ids, texts = zip(*fixtures.windows(self.inputs["named_pages"]))
            self._scan = ({pid: i for i, pid in enumerate(ids)}, texts,
                          np.array([models.embed(t, DIMENSION) for t in texts]))
        position, texts, matrix = self._scan
        scores = matrix @ np.array(models.embed(trace.claim, DIMENSION))
        best = None  # score of the best-ranked window that decides the claim
        for i in np.argsort(-scores, kind="stable"):
            if models.nli(texts[i], trace.claim) is not models.NLI_NEUTRAL:
                best = scores[i]
                break
        tie = self.SCORE_TIE
        if trace.deciding_passage_id is None:
            if trace.rank_examined != min(TOP_K, len(texts)):
                return f"undecided after {trace.rank_examined} ranks"
            if best is not None and np.count_nonzero(scores > best + tie) < TOP_K:
                return "undecided, but a window within the top k decides it"
            return None
        i = position.get(trace.deciding_passage_id)
        if i is None:
            return f"unknown deciding passage {trace.deciding_passage_id}"
        label = models.nli(texts[i], trace.claim)
        if label is models.NLI_NEUTRAL or trace.decision != (label is models.NLI_ENTAILMENT):
            return f"passage {trace.deciding_passage_id} cannot give decision {trace.decision}"
        if scores[i] < best - tie:
            return f"passage {trace.deciding_passage_id} decides, but a higher one does too"
        lo = np.count_nonzero(scores > scores[i] + tie) + 1
        hi = np.count_nonzero(scores >= scores[i] - tie)
        if not lo <= trace.rank_examined <= hi:
            return f"rank examined {trace.rank_examined}, scan gives {lo} to {hi}"
        return None

    def check(self, out: Measured) -> dict[int, str]:
        """Verdicts and claim traces must equal an in-process mock reference,
        agree with an exhaustive scan by the benchmark's own rules
        (`scan_problem`), and agree with each claim's ground truth: a copied
        claim is accepted, by a passage of the page it was copied from unless
        none of its windows ranks within k; an altered one is rejected at
        rank 1; a new one is accepted after all k ranks with no deciding
        passage."""
        failures = dict(out.errors)
        index = retrieval.PassageIndex.load(self.index_path)
        embedder = backend("mock_embed", MOCK_PROFILES["mock_embed"])
        nli = backend("mock_nli", MOCK_PROFILES["mock_nli"])
        texts = self.inputs["texts"]
        for i, got in enumerate(out.outputs):
            if i in failures:
                continue
            row = texts[i]
            extractor = verification.ScriptedClaimExtractor(
                {row["text"]: [c["claim"] for c in row["claims"]]})
            want = verification.verify_text(row["text"], extractor, index, embedder, nli, TOP_K)
            problems = []
            if got != want:
                problems.append("differs from the in-process reference")
            if got.factual != row["factual"]:
                problems.append(f"factual={got.factual}, label {row['factual']}")
            for trace, c in zip(got.claim_traces, row["claims"]):
                ok = {
                    "entailed": trace.decision and (trace.deciding_passage_id is None
                    or trace.deciding_passage_id.rsplit(":", 1)[0] == c["page"]),
                    "contradicted": not trace.decision and trace.rank_examined == 1,
                    "neutral": trace.decision and trace.deciding_passage_id is None
                    and trace.rank_examined == TOP_K,
                }[c["truth"]]
                if not ok:
                    problems.append(f"{c['truth']} claim decided as {trace}")
                problem = self.scan_problem(trace)
                if problem:
                    problems.append(f"claim {trace.claim!r}: {problem}")
            if problems:
                failures[i] = "; ".join(problems)
        return failures


WORKLOADS = {w.name: w for w in (PipelineHttp, VerifyHttp)}
