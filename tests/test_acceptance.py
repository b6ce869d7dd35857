"""Acceptance gate: nine checks, one test (and one printed verdict line) each.

Numeric tolerances are pinned next to each assertion. Everything runs
offline against deterministic mocks.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from factforge.backends import HashedBowEmbedder, BackendProfile
from factforge.corpus import Passage
from factforge.dataset import (
    build_task1,
    derive_nli_triplets,
    derive_retriever_pairs,
)
from factforge.evalharness import (
    EXPLAIN_INSTRUCTIONS,
    LABEL_MARKER,
    MODE_RAG,
    MODE_ZS,
    PromptSpec,
    balanced_accuracy,
    build_prompt,
    easiness_f1,
    easiness_p,
    easiness_r,
    parse_llm_verdict,
    rouge1_f1,
    run_benchmark,
)
from factforge.retrieval import PassageIndex, in_batch_loss, index_build, recall_at_k
from factforge.synthgen import ResourceRecord, StepOutputs, ValidationReport
from factforge.verification import (
    NliDistribution,
    NliLabel,
    ScriptedClaimExtractor,
    verify_text,
)

from conftest import (
    AMAZON_ALTERED,
    AMAZON_CLAIMS,
    AMAZON_ORIGINAL,
    N_SYNTH,
    EchoEmbedder,
    RankIndex,
    golden,
    scan_oracle,
    synth_embedder,
    synth_nli,
    synth_records,
)


def _verdict(capsys, n: int, detail: str) -> None:
    # bypass capture so the verdict line shows in a plain -v run
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS - {detail}")


# --- 1. claim-decision scan matches the brute-force oracle -------------------------


class _SequenceNli:
    _BY_LABEL = {
        NliLabel.ENTAILMENT: NliDistribution(0.9, 0.05, 0.05),
        NliLabel.NEUTRAL: NliDistribution(0.05, 0.9, 0.05),
        NliLabel.CONTRADICTION: NliDistribution(0.05, 0.05, 0.9),
    }

    def __init__(self, table):
        self.table = table

    def classify(self, premise, hypothesis):
        return self._BY_LABEL[self.table[premise]]


def test_criterion_1_claim_scan_oracle_equivalence(capsys):
    started = time.monotonic()
    checked = 0
    for length in (1, 2, 3, 4):
        for labels in itertools.product(list(NliLabel), repeat=length):
            index = RankIndex({"claim": labels})
            ids = [pid for pid, _ in index.top_k("claim", length)]
            table = dict(zip(ids, labels))
            verdict = verify_text("text", ScriptedClaimExtractor({"text": ["claim"]}), index,
                                  EchoEmbedder(), _SequenceNli(table), length)
            assert verdict.claim_traces == (scan_oracle("claim", ids, table.get),), labels
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 120
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _verdict(capsys, 1, f"120/120 label sequences agree with the scan oracle in {elapsed:.3f}s")


# --- 2. metric oracles ----------------------------------------------------------------


def test_criterion_2_metric_oracles(capsys):
    rng = random.Random(20_2)

    # balanced accuracy: 1,000 random sets, exact match with the formula
    for _ in range(1_000):
        n = rng.randint(2, 50)
        golds = [rng.random() < 0.5 for _ in range(n)]
        golds[0], golds[1] = True, False  # both classes guaranteed
        preds = [rng.random() < 0.5 for _ in range(n)]
        tp = sum(p and g for p, g in zip(preds, golds))
        fn = sum((not p) and g for p, g in zip(preds, golds))
        tn = sum((not p) and (not g) for p, g in zip(preds, golds))
        fp = sum(p and (not g) for p, g in zip(preds, golds))
        expected = (tp / (tp + fn) + tn / (tn + fp)) / 2
        assert balanced_accuracy(preds, golds) == expected

    # easiness: 200 random claim-set pairs within 1e-12 of the direct equations
    vocab = [f"word{i}" for i in range(12)]

    def claim_set():
        return [
            " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            for _ in range(rng.randint(1, 5))
        ]

    for _ in range(200):
        cands, refs = claim_set(), claim_set()
        p = math.fsum(
            max(rouge1_f1(c, r) for r in refs) for c in cands
        ) / len(cands)
        r = math.fsum(
            max(rouge1_f1(c, r) for c in cands) for r in refs
        ) / len(refs)
        f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert easiness_p(cands, refs) == pytest.approx(p, abs=1e-12)
        assert easiness_r(cands, refs) == pytest.approx(r, abs=1e-12)
        assert easiness_f1(cands, refs) == pytest.approx(f, abs=1e-12)

    # unigram overlap F1: ten hand-computed cases, exact
    table = [
        ("the cat sat", "the cat sat", 1.0),
        ("the cat", "the cat sat", 0.8),
        ("", "", 1.0),
        ("", "x y", 0.0),
        ("abc", "", 0.0),
        ("a a a", "a b", 0.4),
        ("A B c!", "a b c", 1.0),
        ("x y", "y z", 0.5),
        ("a b c d", "c d e f", 0.5),
        ("one two three", "three two one", 1.0),
    ]
    for cand, ref, expected in table:
        assert rouge1_f1(cand, ref) == expected, (cand, ref)

    _verdict(capsys, 2, "1,000 balanced-accuracy sets exact; 200 easiness pairs within 1e-12; "
                "10/10 hand-computed overlap cases exact")


# --- 3. in-batch contrastive loss -------------------------------------------------------


def test_criterion_3_loss_oracles(capsys):
    single = np.array([[0.4, -1.2, 3.0]])
    assert in_batch_loss(single, single) == 0.0

    pair = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert in_batch_loss(pair, pair) == pytest.approx(2 * math.log(2), abs=1e-9)

    rng = np.random.default_rng(20_3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 9))
        claims = rng.standard_normal((n, dim))
        positives = rng.standard_normal((n, dim))
        scores = claims @ positives.T
        expected = sum(
            math.log(sum(math.exp(scores[i, j]) for j in range(n))) - scores[i, i]
            for i in range(n)
        )
        assert in_batch_loss(claims, positives) == pytest.approx(expected, abs=1e-9)

    _verdict(capsys, 3, "N=1 exactly 0.0; N=2 equal-logit batch at 2*ln(2) within 1e-9; "
                "100 random batches match the unstabilized formula within 1e-9")


# --- 4. derived-data cardinalities -------------------------------------------------------


def _random_record(rng: random.Random, n_claims: int) -> ResourceRecord:
    claims = tuple(f"claim {i} token{rng.randint(0, 9)}" for i in range(n_claims))
    outputs = StepOutputs(
        claims=claims,
        altered=f"altered claim {rng.randint(0, 9)}",
        original=claims[0],
        factual_text="factual text body",
        unfactual_text="unfactual text body",
    )
    passage = Passage("p:0", "p", 0, ("Source sentence one.", "Source sentence two."))
    return ResourceRecord("p:0", passage, outputs, ValidationReport((), ()))


def test_criterion_4_cardinality_invariants(capsys):
    rng = random.Random(20_4)
    for _ in range(1_000):
        n = rng.randint(1, 20)
        record = _random_record(rng, n)
        assert len(derive_retriever_pairs(record)) == 3 * (n + 1)

        bare = derive_nli_triplets(record)
        assert len(bare) == 2 * n + 4
        neutrals = [f"neutral {i}" for i in range(n)]
        full = derive_nli_triplets(record, neutrals=neutrals)
        assert len(full) == 3 * n + 4
        counts = {
            label: sum(1 for t in full if t.label is label) for label in NliLabel
        }
        assert counts[NliLabel.ENTAILMENT] == 2 * n + 1
        assert counts[NliLabel.CONTRADICTION] == 3
        assert counts[NliLabel.NEUTRAL] == n
    _verdict(capsys, 4, "1,000 random records: pairs 3(n+1); triplets 3n+4 / 2n+4; "
                "labels ENT 2n+1, CONTR 3, NEUT n - all exact")


# --- 5. retrieval correctness -------------------------------------------------------------


def test_criterion_5_retrieval_correctness(capsys):
    rng = np.random.default_rng(20_5)

    for trial in range(1_000):
        n = int(rng.integers(1, 501))
        dim = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 8))
        mat = rng.integers(-3, 4, size=(n, dim)).astype(np.float32)
        ids = [f"p{i:04d}" for i in range(n)]
        index = PassageIndex(ids, ids, mat)
        query = rng.integers(-3, 4, size=dim).astype(np.float64)
        scores = mat.astype(np.float64) @ query
        expected = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[: min(k, n)]
        got = index.top_k(query, k=k)
        assert [pid for pid, _ in got] == [ids[i] for i in expected], trial

        if trial < 50:  # recall monotonicity spot checks on the same index
            full = index.top_k(query, k=n)
            relevant = {ids[int(j)] for j in rng.choice(n, size=max(1, n // 4), replace=False)}
            values = [recall_at_k(full, relevant, k=kk) for kk in range(1, n + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

    # 10k synthetic passages, self-query recall@1 with the exact-match embedder
    profile = BackendProfile(name="emb", kind="embedding", transport="mock")
    embedder = HashedBowEmbedder(profile, dimension=1024)
    texts = [
        f"entry{i} alpha{i} beta{i} gamma{i} delta{i} payload{i}"
        for i in range(10_000)
    ]
    big = index_build([(f"d{i:05d}", t) for i, t in enumerate(texts)], embedder)
    hit = 0
    queries = 500
    for i in range(0, 10_000, 10_000 // queries):
        vec = embedder.embed([texts[i]])[0]
        if big.top_k(vec, k=1)[0][0] == f"d{i:05d}":
            hit += 1
    r_at_1 = hit / queries
    assert r_at_1 == 1.0
    _verdict(capsys, 5, "1,000 random indexes match the exhaustive scan; recall monotone in k; "
                f"self-query R@1 = {r_at_1:.1f} over {queries} of 10,000 passages")


# --- 6. generation round-trip fixture -------------------------------------------------------


def test_criterion_6_generation_round_trip(amazon_record, capsys):
    record = amazon_record
    assert len(record.outputs.claims) == 5
    assert (record.outputs.altered, record.outputs.original) == (AMAZON_ALTERED, AMAZON_ORIGINAL)
    assert record.outputs.claims == AMAZON_CLAIMS
    assert record.outputs.factual_text.strip()
    assert record.outputs.unfactual_text.strip()
    assert record.validation.hard_failures == ()
    _verdict(capsys, 6, "scripted worked example: 5 claims, expected falsified pair, "
                "non-empty factual/unfactual twin, zero hard failures")


# --- 7. end-to-end pipeline fixture ---------------------------------------------------------


def test_criterion_7_end_to_end_fixture(capsys):
    started = time.monotonic()
    records = synth_records(N_SYNTH)
    passages = [r.passage for r in records]
    embedder = synth_embedder()
    index = index_build(passages, embedder)
    nli = synth_nli(N_SYNTH)

    instances = []
    claim_table = {}
    for record in records[:10]:
        out = record.outputs
        claim_table[out.factual_text] = list(out.claims)
        instances.append(next(
            i for i in build_task1([record]) if i.label
        ))
    for record in records[10:]:
        out = record.outputs
        claim_table[out.unfactual_text] = [out.altered] + list(out.claims)[1:]
        instances.append(next(
            i for i in build_task1([record]) if not i.label
        ))
    assert len(instances) == 20
    extractor = ScriptedClaimExtractor(claim_table)

    def pipeline_system(instance, rng):
        return verify_text(
            instance.text, extractor, index, embedder, nli, k=len(passages)
        ).factual

    report = run_benchmark("end_to_end_factuality", pipeline_system, instances, seeds=[0])
    assert report.balanced_accuracy == 1.0

    constant_true = run_benchmark(
        "end_to_end_factuality", lambda instance, rng: True, instances, seeds=[0]
    )
    assert constant_true.balanced_accuracy == 0.5

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _verdict(capsys, 7, f"pipeline 1.0 vs constant-True 0.5 on the 20-text fixture in {elapsed:.1f}s")


# --- 8. prompt bit-exactness and explain parsing ----------------------------------------------


def _explain_fixture_responses() -> list[tuple[str, bool]]:
    cases = []
    for i in range(25):
        cases.append((
            "## EXPLANATION:\nEvery claim here checks out, though one could argue "
            f"statement {i} is not factual in tone.\n\n{LABEL_MARKER} Factual",
            True,
        ))
    for i in range(15):
        cases.append((
            f"## EXPLANATION:\nClaim {i} contradicts the passage, the rest are "
            f"factual and well sourced.\n\n{LABEL_MARKER} Not Factual",
            False,
        ))
    for i in range(5):
        cases.append((
            f"## EXPLANATION: short reasoning {i}.\n{LABEL_MARKER}\nNot Factual.",
            False,
        ))
    for i in range(5):
        cases.append((
            f"## EXPLANATION: all good {i}.\n{LABEL_MARKER}   factual",
            True,
        ))
    return cases


def test_criterion_8_prompt_bit_exactness_and_explain_parsing(capsys):
    zs_block = golden("zs_instructions.txt").rstrip("\n")
    rag_block = golden("rag_instructions.txt").rstrip("\n")
    explain_block = golden("explain_block.txt").rstrip("\n")

    zs_messages = build_prompt(PromptSpec(mode=MODE_ZS), "text to judge")
    assert zs_block in zs_messages[0]["content"]

    rag_messages = build_prompt(
        PromptSpec(mode=MODE_RAG, evidence=("evidence passage",)), "text to judge"
    )
    assert rag_block in rag_messages[0]["content"]
    assert EXPLAIN_INSTRUCTIONS == explain_block

    responses = _explain_fixture_responses()
    assert len(responses) == 50
    recovered = sum(
        parse_llm_verdict(raw, explain_mode=True) is expected
        for raw, expected in responses
    )
    assert recovered == 50
    _verdict(capsys, 8, "zero-shot and evidence-grounded instruction blocks match their golden "
                "files verbatim; 50/50 explain-mode fixture responses parsed")


# --- 9. determinism of the full command-line pipeline -----------------------------------------


def _run_pipeline(root: Path) -> dict[str, Path]:
    from test_cli import build_workspace, run

    root.mkdir()
    ws = build_workspace(root)
    d = ws["dir"]
    (d / "factual.txt").write_text(ws["factual_texts"]["page0"])
    (d / "unfactual.txt").write_text(ws["unfactual_texts"]["page0"])
    steps = [
        ["ingest", "--pages", ws["pages"], "--out", d / "passages.jsonl",
         "--sample-per-page", "--seed", 0, "--config", ws["config"]],
        ["ingest", "--pages", ws["pages"], "--out", d / "windows.jsonl",
         "--config", ws["config"]],
        ["generate", "--passages", d / "passages.jsonl", "--backend", "gen",
         "--out", d / "records.jsonl", "--config", ws["config"]],
        ["derive", "--records", d / "records.jsonl", "--what", "retriever",
         "--out", d / "retriever.jsonl", "--config", ws["config"]],
        ["derive", "--records", d / "records.jsonl", "--what", "nli",
         "--out", d / "nli.jsonl", "--passages", d / "windows.jsonl",
         "--nli-backend", "nli", "--config", ws["config"]],
        ["derive", "--records", d / "records.jsonl", "--what", "task1",
         "--out", d / "task1.jsonl", "--split", "train", "--seed", 0,
         "--config", ws["config"]],
        ["derive", "--records", d / "records.jsonl", "--what", "task2",
         "--out", d / "task2.jsonl", "--config", ws["config"]],
        ["index", "--passages", d / "passages.jsonl", "--backend", "embed",
         "--out", d / "index.bin", "--config", ws["config"]],
        ["eval", "--task", "1", "--mode", "zs", "--instances", d / "task1.jsonl",
         "--backend", "judge", "--seeds", 3, "--seed", 0,
         "--report", d / "report.json", "--config", ws["config"]],
        *(["verify", "--text", d / f"{side}.txt", "--index", d / "index.bin",
           "--backends", "extractor=gen,embedder=embed,nli=nli",
           "--trace", d / f"{side}_trace.jsonl", "--config", ws["config"]]
          for side in ("factual", "unfactual")),
    ]
    for step in steps:
        assert run(step) == 0, step
    for side, factual in (("factual", True), ("unfactual", False)):
        last = (d / f"{side}_trace.jsonl").read_text().splitlines()[-1]
        assert json.loads(last) == {"factual": factual}, side
    names = ["passages.jsonl", "windows.jsonl", "records.jsonl", "retriever.jsonl",
             "nli.jsonl", "task1.jsonl", "task2.jsonl", "index.bin", "report.json",
             "factual_trace.jsonl", "unfactual_trace.jsonl"]
    return {name: d / name for name in names}


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    first = _run_pipeline(tmp_path / "run_a")
    second = _run_pipeline(tmp_path / "run_b")
    for name, path_a in first.items():
        assert path_a.read_bytes() == second[name].read_bytes(), f"{name} differs"
    _verdict(capsys, 9, f"{len(first)} artifacts, the eval report and verify traces included, "
                "byte-identical across seeded runs")
