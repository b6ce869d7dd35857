"""Claim-level verdicts: label distributions, scan order, text-level conjunction."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from factforge.backends import (
    BackendProfile,
    HttpEmbeddingBackend,
    HttpNliBackend,
    RuleNliBackend,
)
from factforge.errors import FactforgeError
from factforge.retrieval import index_build
from factforge.verification import (
    CLAIM_EXTRACTION_INSTRUCTIONS,
    ClaimTrace,
    NliDistribution,
    NliLabel,
    ScriptedClaimExtractor,
    build_claim_extraction_prompt,
    classify,
    verify_text,
)

from conftest import (
    EchoEmbedder,
    Interrupted,
    RankIndex,
    scan_oracle,
    synth_embedder,
    synth_nli,
    synth_passage,
    synth_record,
)


# --- NliDistribution -----------------------------------------------------------


def test_distribution_validates_simplex():
    NliDistribution(0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        NliDistribution(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        NliDistribution(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError):
        NliDistribution(1.2, -0.1, -0.1)


def test_distribution_tolerates_float_slop():
    NliDistribution(0.1, 0.2, 0.7 + 5e-7)


def test_top_label_argmax():
    assert NliDistribution(0.7, 0.2, 0.1).top_label is NliLabel.ENTAILMENT
    assert NliDistribution(0.1, 0.8, 0.1).top_label is NliLabel.NEUTRAL
    assert NliDistribution(0.1, 0.2, 0.7).top_label is NliLabel.CONTRADICTION


def test_top_label_tie_break_order():
    third = 1 / 3
    assert NliDistribution(third, third, third).top_label is NliLabel.ENTAILMENT
    assert NliDistribution(0.0, 0.5, 0.5).top_label is NliLabel.CONTRADICTION
    assert NliDistribution(0.5, 0.5, 0.0).top_label is NliLabel.ENTAILMENT


@given(
    weights=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ).filter(lambda w: sum(w) > 1e-9)
)
def test_top_label_matches_argmax(weights):
    total = sum(weights)
    a, b, c = (w / total for w in weights)
    dist = NliDistribution(a, b, c)
    probs = {
        NliLabel.ENTAILMENT: dist.p_ent,
        NliLabel.NEUTRAL: dist.p_neut,
        NliLabel.CONTRADICTION: dist.p_contr,
    }
    assert probs[dist.top_label] == max(probs.values())


# --- the claim scan, through verify_text ------------------------------------------------

_LABELS = {"E": NliLabel.ENTAILMENT, "N": NliLabel.NEUTRAL, "C": NliLabel.CONTRADICTION}
_BY_LABEL = {
    NliLabel.ENTAILMENT: NliDistribution(0.9, 0.05, 0.05),
    NliLabel.NEUTRAL: NliDistribution(0.05, 0.9, 0.05),
    NliLabel.CONTRADICTION: NliDistribution(0.05, 0.05, 0.9),
}


class _RankNli:
    """Thread-safe NLI mock of width `width`: premise "c/r" is answered by
    `answer(c, r)` (a label, or an exception it raises). Records every call
    and the most calls in flight at once."""

    def __init__(self, answer, width):
        self.answer = answer
        self.max_in_flight = width
        self.calls = []
        self.active = self.peak = 0
        self.lock = threading.Lock()

    def classify(self, premise, hypothesis):
        claim, rank = premise.rsplit("/", 1)
        assert claim == hypothesis
        with self.lock:
            self.calls.append((claim, int(rank)))
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            return _BY_LABEL[self.answer(claim, int(rank))]
        finally:
            with self.lock:
                self.active -= 1


def _verify_ranked(tables, nli, k=8):
    """verify_text over `RankIndex(tables)`: claim c's rank r reads tables[c][r]."""
    extractor = ScriptedClaimExtractor({"text": list(tables)})
    return verify_text("text", extractor, RankIndex(tables), EchoEmbedder(), nli, k)


def _oracle_traces(tables, k=8):
    """What the serial scan decides for each claim of `_verify_ranked(tables, ..., k)`."""
    def label_of(pid):
        claim, rank = pid.rsplit("/", 1)
        return _LABELS[tables[claim][int(rank)]]

    index = RankIndex(tables)
    return tuple(scan_oracle(c, [pid for pid, _ in index.top_k(c, k)], label_of)
                 for c in tables)


def _serial_trace(labels):
    nli = _RankNli(lambda claim, rank: _LABELS[labels[rank]], 1)
    (trace,) = _verify_ranked({"claim0": labels}, nli).claim_traces
    return trace, nli


def test_verify_text_first_entailment_wins():
    trace, nli = _serial_trace("NEC")
    assert trace == ClaimTrace("claim0", True, "claim0/1", 2)
    assert len(nli.calls) == 2  # stops at the first non-neutral label


def test_verify_text_first_contradiction_wins():
    trace, _ = _serial_trace("CE")
    assert trace == ClaimTrace("claim0", False, "claim0/0", 1)


def test_verify_text_all_neutral_defaults_true():
    trace, nli = _serial_trace("NNNN")
    assert trace == ClaimTrace("claim0", True, None, 4)
    assert len(nli.calls) == 4


def test_verify_text_no_evidence_defaults_true():
    trace, nli = _serial_trace("")
    assert trace == ClaimTrace("claim0", True, None, 0)
    assert nli.calls == []


# --- verify_text ----------------------------------------------------------------------


def _verify_env(n=6):
    passages = [synth_passage(i) for i in range(n)]
    embedder = synth_embedder()
    index = index_build(passages, embedder)
    nli = synth_nli(n)
    return passages, embedder, index, nli


def test_verify_text_factual_conjunction():
    _, embedder, index, nli = _verify_env()
    record = synth_record(2)
    extractor = ScriptedClaimExtractor(
        {record.outputs.factual_text: list(record.outputs.claims)}
    )
    verdict = verify_text(record.outputs.factual_text, extractor, index, embedder, nli)
    assert verdict.factual is True
    assert len(verdict.claim_traces) == len(record.outputs.claims)
    assert all(t.decision for t in verdict.claim_traces)


def test_verify_text_single_false_claim_flips_verdict():
    _, embedder, index, nli = _verify_env()
    record = synth_record(2)
    out = record.outputs
    claims = [out.altered if i == 0 else c for i, c in enumerate(out.claims)]
    extractor = ScriptedClaimExtractor({out.unfactual_text: claims})
    verdict = verify_text(out.unfactual_text, extractor, index, embedder, nli)
    assert verdict.factual is False
    decisions = [t.decision for t in verdict.claim_traces]
    assert decisions.count(False) == 1
    assert verdict.claim_traces[0].decision is False
    assert verdict.claim_traces[0].deciding_passage_id == record.passage.passage_id


def test_verify_text_no_claims_is_error():
    _, embedder, index, nli = _verify_env()
    extractor = ScriptedClaimExtractor({"whatever": []})
    with pytest.raises(FactforgeError, match="claim extraction produced zero claims"):
        verify_text("whatever", extractor, index, embedder, nli)


def test_verify_text_k_caps_evidence():
    _, embedder, index, nli = _verify_env()
    record = synth_record(2)
    extractor = ScriptedClaimExtractor(
        {record.outputs.factual_text: [record.outputs.claims[0]]}
    )
    verdict = verify_text(
        record.outputs.factual_text, extractor, index, embedder, nli, k=1
    )
    assert verdict.claim_traces[0].rank_examined <= 1


# --- cross-claim NLI scheduler ------------------------------------------------------


@given(
    tables=st.lists(st.text(alphabet="ENC", max_size=8), min_size=1, max_size=4),
    width=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_scheduler_matches_serial_scan_within_width_and_waste_bound(tables, width, seed):
    tables = {f"claim{i}": labels for i, labels in enumerate(tables)}
    rng, rng_lock = random.Random(seed), threading.Lock()

    def answer(claim, rank):
        with rng_lock:
            delay = rng.uniform(0.0, 0.002)
        time.sleep(delay)
        return _LABELS[tables[claim][rank]]

    nli = _RankNli(answer, width)
    verdict = _verify_ranked(tables, nli)
    assert verdict.claim_traces == _oracle_traces(tables)
    assert len(set(nli.calls)) == len(nli.calls)  # no pair is asked twice
    assert nli.peak <= width
    for claim, trace in zip(tables, verdict.claim_traces):
        past_deciding = [r for c, r in nli.calls if c == claim and r >= trace.rank_examined]
        assert len(past_deciding) <= width - 1


def test_scheduler_drops_a_failure_past_the_deciding_rank():
    second_asked = threading.Event()

    def answer(claim, rank):
        if rank == 1:
            second_asked.set()
            raise RuntimeError("rank 2 fails")
        second_asked.wait(timeout=5)  # answer rank 1 only once rank 2 is in flight
        return NliLabel.ENTAILMENT

    nli = _RankNli(answer, 2)
    verdict = _verify_ranked({"claim0": "EN"}, nli)
    assert sorted(nli.calls) == [("claim0", 0), ("claim0", 1)]
    assert verdict.claim_traces == (ClaimTrace("claim0", True, "claim0/0", 1),)


def test_scheduler_raises_a_failure_in_the_prefix_and_starts_nothing_after_it():
    claim1_asked = threading.Event()

    def answer(claim, rank):
        if claim == "claim0":
            claim1_asked.wait(timeout=5)  # fail only once claim1 has a call in flight
            raise RuntimeError("claim0 fails at rank 1")
        claim1_asked.set()
        time.sleep(0.2)
        return NliLabel.NEUTRAL

    nli = _RankNli(answer, 2)
    with pytest.raises(RuntimeError, match="claim0 fails"):
        _verify_ranked({"claim0": "E", "claim1": "N" * 8}, nli)
    assert sorted(nli.calls) == [("claim0", 0), ("claim1", 0)]


def test_scheduler_raises_the_earliest_claims_error():
    def answer(claim, rank):
        if claim == "claim0":
            time.sleep(0.03)
        raise RuntimeError(claim)

    with pytest.raises(RuntimeError, match="claim0"):
        _verify_ranked({"claim0": "N", "claim1": "N", "claim2": "NNN"}, _RankNli(answer, 2))


class _Interrupt(BaseException):
    pass


@pytest.mark.parametrize("width", [1, 2])
def test_scheduler_lets_an_interrupt_through(width):
    def answer(claim, rank):
        if claim == "claim0":
            raise _Interrupt
        return NliLabel.NEUTRAL

    with pytest.raises(_Interrupt):
        _verify_ranked({"claim0": "N", "claim1": "NNN"}, _RankNli(answer, width))


def test_scheduler_under_fast_thread_switching():
    rng = random.Random(7)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            tables = {f"claim{i}": "".join(rng.choice("NNNNNNEC") for _ in range(30))
                      for i in range(4)}
            nli = _RankNli(lambda claim, rank: _LABELS[tables[claim][rank]], 8)
            verdict = _verify_ranked(tables, nli, k=30)
            assert verdict.claim_traces == _oracle_traces(tables, k=30)
            assert len(set(nli.calls)) == len(nli.calls)
            assert nli.peak <= 8
    finally:
        sys.setswitchinterval(old_interval)


def test_one_neutral_claim_over_http_keeps_both_slots_busy(http_server):
    embedder, nli = synth_embedder(), synth_nli()

    def respond(request):
        body = request["body"]
        if request["path"] == "/embeddings":
            vecs = embedder.embed(body["input"])
            return 200, {"data": [{"index": i, "embedding": v.tolist()}
                                  for i, v in enumerate(vecs)]}
        dist = nli.classify(body["premise"], body["hypothesis"])
        return 200, {"entailment": dist.p_ent, "neutral": dist.p_neut,
                     "contradiction": dist.p_contr}

    endpoint, recorder = http_server(respond)
    profile = dict(name="live", endpoint=endpoint, model="m", timeout=5.0,
                   retry_backoff=0.0, max_in_flight=2)
    index = index_build([synth_passage(i) for i in range(20)], embedder)
    extractor = ScriptedClaimExtractor({"text": ["Nothing in the corpus speaks of zebras."]})
    verdict = verify_text(
        "text", extractor, index,
        HttpEmbeddingBackend(BackendProfile(kind="embedding", **profile)),
        HttpNliBackend(BackendProfile(kind="nli", **profile)), 5,
    )
    assert verdict == verify_text("text", extractor, index, embedder, nli, 5)
    assert verdict.claim_traces[0].deciding_passage_id is None
    assert sum(r["path"] == "/nli" for r in recorder.requests) == 5  # no call wasted
    assert recorder.max_active == 2


def test_width_1_scan_asks_in_the_serial_order():
    tables = {"claim0": "NNE", "claim1": "E", "claim2": "NE"}
    nli = _RankNli(lambda claim, rank: _LABELS[tables[claim][rank]], 1)
    _verify_ranked(tables, nli)
    assert nli.calls == [("claim0", 0), ("claim1", 0), ("claim2", 0),
                         ("claim0", 1), ("claim2", 1), ("claim0", 2)]


_ALL_NEUTRAL = {f"claim{i}": "N" * 30 for i in range(3)}


def test_scheduler_starts_no_call_after_a_call_raises_an_interrupt():
    raised = threading.Event()
    late = []  # calls started after the interrupt was raised

    def answer(claim, rank):
        if raised.is_set():
            late.append((claim, rank))
        if (claim, rank) == ("claim1", 1):
            raised.set()
            raise _Interrupt
        time.sleep(0.005)
        return NliLabel.NEUTRAL

    nli = _RankNli(answer, 2)
    with pytest.raises(_Interrupt):
        _verify_ranked(_ALL_NEUTRAL, nli, k=30)
    n_calls = len(nli.calls)
    time.sleep(0.05)
    assert len(nli.calls) == n_calls
    # only a call started into the other slot before the raise was seen
    assert len(late) <= 1, late


def test_scheduler_starts_no_call_after_a_sigint(sigint):
    late = []  # calls started after the handler ran

    def answer(claim, rank):
        if sigint.handled.is_set():
            late.append((claim, rank))
        if (claim, rank) == ("claim1", 3):
            sigint.send()
        time.sleep(0.005)
        return NliLabel.NEUTRAL

    nli = _RankNli(answer, 2)
    with pytest.raises(Interrupted):
        _verify_ranked(_ALL_NEUTRAL, nli, k=30)
    n_calls = len(nli.calls)
    time.sleep(0.05)
    assert len(nli.calls) == n_calls
    # only a call submitted just before the handler ran
    assert len(late) <= 1, late


# --- extraction prompt ------------------------------------------------------------------


def test_extraction_prompt_shape():
    prompt = build_claim_extraction_prompt("Some text.")
    assert prompt.startswith("Input: Some text.\n\n")
    assert "Instructions: Execute the following step:" in prompt
    assert CLAIM_EXTRACTION_INSTRUCTIONS in prompt
    assert "'step_1': List[str]" in prompt


def test_prompt_bytes_are_pinned():
    import hashlib

    from factforge.corpus import Passage
    from factforge.synthgen import build_unified_prompt

    def digest(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    assert digest(build_claim_extraction_prompt("x")) == (
        "280a468abf5437744f1db143ee584b01c9e7347089aba1b3f4718a76d72a1dc8"
    )
    assert digest(build_unified_prompt(Passage("p:0", "p", 0, ("x",)))) == (
        "c5120103bd13234d67a8c1c486f7d057c2830376330628c13649143b94efa16d"
    )


def test_extraction_instructions_match_first_generation_step():
    from factforge.synthgen import UNIFIED_PROMPT_INSTRUCTIONS

    assert CLAIM_EXTRACTION_INSTRUCTIONS == UNIFIED_PROMPT_INSTRUCTIONS.split("\n\n")[0]


# --- classify entry point ----------------------------------------------------------------


def test_classify_validates_inputs():
    profile = BackendProfile(name="nli", kind="nli", transport="mock")
    nli = RuleNliBackend(profile, ())
    with pytest.raises(ValueError):
        classify(nli, "", "hypothesis")
    with pytest.raises(ValueError):
        classify(nli, "premise", " ")
    assert classify(nli, "the cat sat", "cat sat") is NliLabel.ENTAILMENT
